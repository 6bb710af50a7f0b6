"""Shared generators and oracle helpers for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

from trotopt import (
    ARITY,
    Circuit,
    CliffordTableau,
    Gate,
    PauliProduct,
    Rotation,
)

DATA_DIR = Path(__file__).parent / "data"
BENCH_DIR = Path(__file__).parent.parent / "benchmarks"
MOD5_4 = BENCH_DIR / "mod5_4.qc"

ONE_QUBIT_CLIFFORD = ["H", "S", "Sdg", "X", "Y", "Z"]
TWO_QUBIT_CLIFFORD = ["CNOT", "CZ", "SWAP"]


def random_clifford_circuit(n: int, depth: int, rng: random.Random) -> Circuit:
    kinds = ONE_QUBIT_CLIFFORD + (TWO_QUBIT_CLIFFORD if n >= 2 else [])
    gates = []
    for _ in range(depth):
        kind = rng.choice(kinds)
        if ARITY[kind] == 1:
            gates.append(Gate(kind, (rng.randrange(n),)))
        else:
            gates.append(Gate(kind, tuple(rng.sample(range(n), 2))))
    return Circuit.on_qubits(n, gates)


def random_clifford_t_circuit(
    n: int, depth: int, rng: random.Random, t_weight: float = 0.4
) -> Circuit:
    """A Clifford+T circuit with roughly ``t_weight`` of the gates T/Tdg."""
    kinds = ONE_QUBIT_CLIFFORD + (TWO_QUBIT_CLIFFORD if n >= 2 else [])
    gates = []
    for _ in range(depth):
        if rng.random() < t_weight:
            gates.append(Gate(rng.choice(["T", "Tdg"]), (rng.randrange(n),)))
            continue
        kind = rng.choice(kinds)
        if ARITY[kind] == 1:
            gates.append(Gate(kind, (rng.randrange(n),)))
        else:
            gates.append(Gate(kind, tuple(rng.sample(range(n), 2))))
    return Circuit.on_qubits(n, gates)


def random_pauli(
    n: int, rng: random.Random, allow_identity: bool = False, signed: bool = True
) -> PauliProduct:
    while True:
        x = rng.randrange(1 << n)
        z = rng.randrange(1 << n)
        if allow_identity or x or z:
            break
    sign = rng.choice([1, -1]) if signed else 1
    return PauliProduct(n, x, z, sign)


def random_tableau(n: int, rng: random.Random, depth: int | None = None):
    """A random Clifford tableau plus the circuit that built it."""
    circuit = random_clifford_circuit(n, depth if depth is not None else 3 * n + 5, rng)
    return CliffordTableau.from_circuit(circuit), circuit


def random_commuting_independent_rotations(
    n: int, m: int, rng: random.Random
) -> list[Rotation]:
    """m pairwise-commuting independent rotations, via a random Clifford image."""
    assert m <= n
    tableau, _ = random_tableau(n, rng)
    rows = rng.sample(list(tableau.z_images), m)
    return [
        Rotation(row if rng.random() < 0.5 else -row, origin=None) for row in rows
    ]


def rotations_product_matrix(rotations) -> np.ndarray:
    from trotopt import rotation_matrix

    n = rotations[0].pauli.n
    u = np.eye(1 << n, dtype=complex)
    for r in rotations:
        u = rotation_matrix(r.pauli) @ u
    return u


def data_block_on_zero_ancillas(u: np.ndarray, n_data: int, t: int) -> np.ndarray:
    """The data-qubit action of ``u`` when the trailing t qubits start in |0>.

    Also asserts the ancillas come back to |0>: every amplitude that leaves
    the |0...0> ancilla sector must vanish.
    """
    dim_data, dim_anc = 1 << n_data, 1 << t
    full = u.reshape(dim_data, dim_anc, dim_data, dim_anc)
    leak = full[:, 1:, :, 0]
    assert np.max(np.abs(leak), initial=0.0) < 1e-9, "ancillas do not return to |0>"
    return full[:, 0, :, 0]


def non_phase_gates(circuit: Circuit) -> list[Gate]:
    return [g for g in circuit.gates if g.kind not in ("T", "Tdg", "S", "Sdg")]


def brute_force_min_layers(paulis: list[PauliProduct], max_m: int = 12) -> int:
    """Exhaustive longest anticommuting chain; oracle for the DP bound."""
    m = len(paulis)
    if m > max_m:
        raise ValueError(f"{m} rotations exceeds the brute-force cap of {max_m}")
    if m == 0:
        return 0
    anti = [
        [not paulis[i].commutes(paulis[j]) for j in range(m)] for i in range(m)
    ]

    def extend(last: int, length: int) -> int:
        best = length
        for nxt in range(last + 1, m):
            if anti[last][nxt]:
                best = max(best, extend(nxt, length + 1))
        return best

    return max(extend(v, 1) for v in range(m))
