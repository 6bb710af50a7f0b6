"""Shared generators and oracle helpers for the test suite."""

from __future__ import annotations

import random
from pathlib import Path
from typing import Sequence

import numpy as np

from trotopt import (
    ARITY,
    Circuit,
    CliffordTableau,
    Gate,
    PauliProduct,
    Rotation,
    RotationForm,
    TGraph,
    synthesize,
)
from trotopt.tableau import (
    _FORWARD_KERNELS,
    _PREIMAGES,
    _RULES,
    InvariantError,
    _dependent_indices,
)
from trotopt.verify import _ONE_QUBIT

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


def phase_polynomial(n: int, size: int, rng: random.Random) -> Circuit:
    """A CNOT+T+X circuit: every extracted axis is diagonal."""
    kinds = ["CNOT", "X", "T", "Tdg", "T"]
    gates = []
    for _ in range(size):
        kind = rng.choice(kinds)
        qubits = rng.sample(range(n), 2) if kind == "CNOT" else [rng.randrange(n)]
        gates.append(Gate(kind, tuple(qubits)))
    return Circuit.on_qubits(n, gates)


def cuccaro_adder(bits: int) -> Circuit:
    """Cuccaro et al. (quant-ph/0410184) ripple-carry adder b += a, carry out
    to z, on 2 * bits + 2 qubits: one TOFFOLI per MAJ and per UMA block."""
    names = ("x0", *(f"a{i}" for i in range(bits)), *(f"b{i}" for i in range(bits)), "z0")
    q = {name: i for i, name in enumerate(names)}.__getitem__
    carry = ["x0"] + [f"a{i}" for i in range(bits - 1)]
    gates = []
    for i in range(bits):  # MAJ(carry, b, a)
        x, y, w = carry[i], f"b{i}", f"a{i}"
        gates += [Gate("CNOT", (q(w), q(y))), Gate("CNOT", (q(w), q(x))),
                  Gate("TOFFOLI", (q(x), q(y), q(w)))]
    gates.append(Gate("CNOT", (q(f"a{bits - 1}"), q("z0"))))
    for i in reversed(range(bits)):  # UMA(carry, b, a)
        x, y, w = carry[i], f"b{i}", f"a{i}"
        gates += [Gate("TOFFOLI", (q(x), q(y), q(w))), Gate("CNOT", (q(w), q(x))),
                  Gate("CNOT", (q(x), q(y)))]
    return Circuit(names, tuple(gates))


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


def reference_conjugate_rows(xs, zs, ks, kind: str, qubits: tuple[int, ...], start: int) -> None:
    """The forward rule read as a table: the reference for the generated
    forward kernels, with their signature.  Each meeting row's bits x_p x_q
    z_p z_q on the first and last qubits p and q, from the low bit up,
    index ``_RULES[kind]`` once, which gives the slot bits to flip and the
    phase to add."""
    rule, p, q = _RULES[kind], qubits[0], qubits[-1]
    place = (0, 1 << p, 1 << q, 1 << p | 1 << q)  # slot bits -> qubit bits
    mask = place[3]
    for r in range(start, len(xs)):
        x, z = xs[r], zs[r]
        if (x | z) & mask:
            key = x >> p & 1 | (x >> q & 1) << 1 | (z >> p & 1) << 2 | (z >> q & 1) << 3
            dx, dz, dk = rule[key]
            xs[r] = x ^ place[dx]
            zs[r] = z ^ place[dz]
            ks[r] = (ks[r] + dk) & 3


def reference_precompose_inverse(xs, zs, ks, kind: str, qubits: tuple[int, ...], n: int) -> None:
    """The preimage plan read as a table: the reference for the generated
    preimage kernels, with their signature.  Each entry of
    ``_PREIMAGES[kind]`` makes a slot row i^k times one old row or the
    product of two, every new row formed before the first is stored."""
    p, q = qubits[0], qubits[-1]
    at = (p, q, p + n, q + n)
    new = []
    for dst, a, b, k in _PREIMAGES[kind]:
        a = at[a]
        x, z, k = xs[a], zs[a], ks[a] + k
        if b:
            b = at[b]
            k += ks[b] + 2 * (z & xs[b]).bit_count()
            x ^= xs[b]
            z ^= zs[b]
            if (k ^ (x & z).bit_count()) & 1:
                raise InvariantError("conjugation produced an anti-Hermitian phase")
        new.append((at[dst], x, z, k & 3))
    for r, x, z, k in new:
        xs[r], zs[r], ks[r] = x, z, k


def patch_forward_kernels(monkeypatch, wrap) -> None:
    """For one test, set every kind's entry in ``_FORWARD_KERNELS`` to
    ``wrap(kind, kernel)``.  Each row update looks its kernel up when it
    runs, so the diagonalizer, the phase layer and ``from_circuit`` call
    the replacements."""
    for kind, kernel in list(_FORWARD_KERNELS.items()):
        monkeypatch.setitem(_FORWARD_KERNELS, kind, wrap(kind, kernel))


def count_tableau_calls(monkeypatch, *names: str) -> list[str]:
    """Log every call of the named ``CliffordTableau`` methods; returns the log."""
    calls: list[str] = []
    for name in names:
        real = getattr(CliffordTableau, name)

        def counted(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        if isinstance(CliffordTableau.__dict__[name], classmethod):
            counted = staticmethod(counted)  # ``real`` is already bound
        monkeypatch.setattr(CliffordTableau, name, counted)
    return calls


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


_PROJ0 = np.diag([1, 0]).astype(complex)
_PROJ1 = np.diag([0, 1]).astype(complex)


def _embed1(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    left = np.eye(1 << qubit, dtype=complex)
    right = np.eye(1 << (n - qubit - 1), dtype=complex)
    return np.kron(np.kron(left, op), right)


def gate_matrix(gate: Gate, n: int) -> np.ndarray:
    """Full 2^n matrix of one gate on an n-qubit register, from Kronecker products.

    The reference the oracle's kernel is tested against: that kernel holds
    non-H gates as a phased permutation (O(2^n) each) and applies only H to
    the dense matrix (O(4^n) each), and forms no gate matrix.
    """
    x, z = _ONE_QUBIT["X"], _ONE_QUBIT["Z"]
    if gate.kind in _ONE_QUBIT:
        return _embed1(_ONE_QUBIT[gate.kind], gate.qubits[0], n)
    if gate.kind == "CNOT":
        c, t = gate.qubits
        return _embed1(_PROJ0, c, n) + _embed1(_PROJ1, c, n) @ _embed1(x, t, n)
    if gate.kind == "CZ":
        c, t = gate.qubits
        return _embed1(_PROJ0, c, n) + _embed1(_PROJ1, c, n) @ _embed1(z, t, n)
    if gate.kind == "SWAP":
        a, b = gate.qubits
        cnot_ab = gate_matrix(Gate("CNOT", (a, b)), n)
        cnot_ba = gate_matrix(Gate("CNOT", (b, a)), n)
        return cnot_ab @ cnot_ba @ cnot_ab
    if gate.kind == "CCZ":
        a, b, t = gate.qubits
        both = _embed1(_PROJ1, a, n) @ _embed1(_PROJ1, b, n)
        return np.eye(1 << n, dtype=complex) + both @ (_embed1(z, t, n) - np.eye(1 << n))
    if gate.kind == "TOFFOLI":
        a, b, t = gate.qubits
        both = _embed1(_PROJ1, a, n) @ _embed1(_PROJ1, b, n)
        return np.eye(1 << n, dtype=complex) + both @ (_embed1(x, t, n) - np.eye(1 << n))
    raise ValueError(f"no dense matrix for gate kind {gate.kind!r}")


def dense_product(gates, n: int) -> np.ndarray:
    """Reference: the gates' full Kronecker matrices multiplied in order."""
    u = np.eye(1 << n, dtype=complex)
    for g in gates:
        u = gate_matrix(g, n) @ u
    return u


def rotations_product_matrix(rotations, n: int | None = None) -> np.ndarray:
    """The rotations' dense matrices multiplied in order (index 0 acts first)."""
    from trotopt import rotation_matrix

    u = np.eye(1 << (rotations[0].pauli.n if n is None else n), dtype=complex)
    for r in rotations:
        u = rotation_matrix(r.pauli) @ u
    return u


def form_unitary(form: RotationForm) -> np.ndarray:
    """Reference unitary of a rotation form, rotation by rotation: the
    rotations' matrices, then the synthesized tail's gate matrices."""
    tail = dense_product(synthesize(form.tail_clifford).gates, form.n)
    return tail @ rotations_product_matrix(form.rotations, form.n)


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


def reference_layers(graph: TGraph, alap: bool = False) -> tuple[tuple[int, ...], ...]:
    """Reference for the one-pass schedule: a per-vertex DP over adjacency lists.

    ASAP levels are the longest path ending at each vertex, from predecessor
    lists in input order; ALAP levels mirror the longest path starting there,
    from successor lists in reverse order.  No edge order is assumed.
    """
    m = len(graph.rotations)
    preds: list[list[int]] = [[] for _ in range(m)]
    succs: list[list[int]] = [[] for _ in range(m)]
    for i, j in graph.edges:
        preds[j].append(i)
        succs[i].append(j)
    head = [0] * m
    for v in range(m):
        head[v] = 1 + max((head[u] for u in preds[v]), default=0)
    depth = max(head, default=0)
    level = head
    if alap:
        tail = [0] * m
        for v in reversed(range(m)):
            tail[v] = 1 + max((tail[w] for w in succs[v]), default=0)
        level = [depth - tail[v] + 1 for v in range(m)]
    layers: list[list[int]] = [[] for _ in range(depth)]
    for v in range(m):
        layers[level[v] - 1].append(v)
    return tuple(tuple(layer) for layer in layers)


def is_valid_reordering(graph: TGraph, perm: Sequence[int]) -> bool:
    """True iff ``perm`` (a permutation of 0..m-1) is a topological order."""
    if sorted(perm) != list(range(len(graph.rotations))):
        raise ValueError("not a permutation of the graph's vertices")
    position = {v: i for i, v in enumerate(perm)}
    return all(position[i] < position[j] for i, j in graph.edges)


def ancilla_safe(form: RotationForm, t: int) -> bool:
    """True iff every rotation acts as I or Z on the last ``t`` qubits.

    That is exactly the condition under which ancillas prepared in |0> pass
    through every rotation unchanged.
    """
    if not 0 <= t <= form.n:
        raise ValueError(f"ancilla count {t} out of range for n={form.n}")
    if t == 0:
        return True
    ancillas = ((1 << t) - 1) << (form.n - t)
    return all(r.pauli.x & ancillas == 0 for r in form.rotations)


def check_independent(paulis: list[PauliProduct]) -> bool:
    """True iff no nonempty subset has bit product equal to the identity."""
    return not _dependent_indices([p.x | p.z << p.n for p in paulis])


def unmasked_diagonalize(paulis):
    """Reference elimination for valid inputs: every emitted gate conjugates
    every Pauli through the gate's whole tableau, whether or not it touches
    the gate's qubits.  Returns the gates."""
    n = paulis[0].n
    work = list(paulis)
    gates = []

    def emit(kind, *qubits):
        g = Gate(kind, qubits)
        gates.append(g)
        tableau = CliffordTableau.from_circuit(Circuit.on_qubits(n, [g]))
        work[:] = [tableau.conjugate(w) for w in work]

    for j in range(len(work)):
        p = work[j]
        if p.x == 0 and p.z == 1 << j:
            if p.sign < 0:
                emit("X", j)
            continue
        hi = ~((1 << j) - 1)
        if p.x & hi == 0:
            zs = p.z & hi
            emit("H", (zs & -zs).bit_length() - 1)
            p = work[j]
        for q in range(j, n):
            if p.z & (1 << q):
                emit("Sdg" if p.x & (1 << q) else "H", q)
                p = work[j]
        pivot = (p.x & hi & -(p.x & hi)).bit_length() - 1
        for q in range(pivot + 1, n):
            if p.x & (1 << q):
                emit("CNOT", pivot, q)
        p = work[j]
        for q in range(j):
            if p.z & (1 << q):
                emit("CZ", q, pivot)
        emit("H", pivot)
        if pivot != j:
            emit("SWAP", pivot, j)
        if work[j].sign < 0:
            emit("X", j)
    return gates
