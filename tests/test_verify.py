import ast
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import trotopt.verify
from trotopt import (
    ARITY,
    Circuit,
    Gate,
    PauliProduct,
    Rotation,
    RotationForm,
    equivalent_up_to_phase,
    pauli_matrix,
    rotation_matrix,
    unitary_of,
)
from trotopt.verify import VerificationCapError, _check_unitary

from _helpers import (
    brute_force_min_layers,
    dense_product,
    gate_matrix,
    random_clifford_t_circuit,
    random_pauli,
    random_tableau,
)

P = PauliProduct.from_label
OMEGA = np.exp(1j * math.pi / 4)


class TestUnitaryOf:
    def test_t_gate_matrix(self):
        u = unitary_of(Circuit.on_qubits(1, [Gate("T", (0,))]))
        assert np.allclose(u, np.diag([1, OMEGA]))

    def test_composition_is_matrix_product(self, rng):
        for _ in range(20):
            n = rng.randint(1, 3)
            a = random_clifford_t_circuit(n, rng.randint(0, 10), rng)
            b = random_clifford_t_circuit(n, rng.randint(0, 10), rng)
            joined = Circuit.on_qubits(n, list(a.gates) + list(b.gates))
            assert np.allclose(unitary_of(joined), unitary_of(b) @ unitary_of(a))

    def test_qubit_cap(self):
        big = Circuit.on_qubits(11)
        with pytest.raises(ValueError):
            unitary_of(big)
        assert unitary_of(big, max_qubits=11).shape == (2048, 2048)

    def test_cap_errors(self):
        with pytest.raises(VerificationCapError, match="11 qubits exceeds"):
            unitary_of(Circuit.on_qubits(11))
        # at 32 qubits the memory budget refuses the unitary before allocating anything
        with pytest.raises(VerificationCapError, match="cannot allocate"):
            unitary_of(Circuit.on_qubits(32), max_qubits=64)

    def test_memory_budget_refuses_before_allocating(self, monkeypatch):
        class Allocating(Exception):
            pass

        def eye(*args, **kwargs):
            raise Allocating

        monkeypatch.setattr(np, "eye", eye)
        # 2^13 x 2^13 complex128 is exactly the 1 GiB budget: it goes on to allocate
        with pytest.raises(Allocating):
            unitary_of(Circuit.on_qubits(13), max_qubits=64)
        with pytest.raises(VerificationCapError, match=r"^cannot allocate the 2\^14 x 2\^14 unitary$"):
            unitary_of(Circuit.on_qubits(14), max_qubits=64)

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            unitary_of(42)

    def test_rejects_a_rotation_form(self, rng):
        # The oracle checks circuits only: a form's tail would have to be
        # synthesized by the very code the oracle is meant to check.
        tail, _ = random_tableau(2, rng)
        form = RotationForm(2, [Rotation(random_pauli(2, rng))], tail)
        with pytest.raises(TypeError, match="RotationForm"):
            unitary_of(form)

    def test_imports_only_circuits_and_paulis(self):
        # The oracle arbitrates the rotation and tableau code, so it must not use it.
        tree = ast.parse(Path(trotopt.verify.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [("trotopt." if node.level else "") + (node.module or "")]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            imported |= {name for name in names if name.startswith("trotopt")}
        assert imported == {"trotopt.circuit", "trotopt.pauli"}


class TestCheckUnitary:
    def test_unitary_passes(self):
        u = unitary_of(Circuit.on_qubits(2, [Gate("H", (0,)), Gate("CNOT", (0, 1))]))
        assert _check_unitary(u) is u

    def test_non_unitary_raises(self):
        with pytest.raises(ValueError, match="not unitary"):
            _check_unitary(2 * np.eye(2, dtype=complex))

    def test_inf_entry_raises(self):
        # u^dagger u of an infinite entry is NaN with a RuntimeWarning; the check refuses first.
        u = np.eye(2, dtype=complex)
        u[0, 0] = np.inf
        with pytest.raises(ValueError, match="not unitary"):
            _check_unitary(u)

    def test_nan_entry_raises(self):
        # NaN > tol is False, so a check written as "raise if err > tol" lets it through.
        u = np.eye(2, dtype=complex)
        u[0, 0] = np.nan
        with pytest.raises(ValueError, match="not unitary"):
            _check_unitary(u)

    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_blocks_sum_to_the_whole_defect(self, rows, rng, monkeypatch):
        # Each row of (1 + eps) I has a defect of about 0.71e-9, under the
        # bound; its 8 rows together have 2e-9, over it.  Three rows a block
        # leaves a last block of two.
        monkeypatch.setattr(trotopt.verify, "_CHECK_BLOCK_BYTES", rows * 16 * 8)
        eps = 1e-9 / 8**0.5
        with pytest.raises(ValueError, match=r"Frobenius defect 2\.00e-09"):
            _check_unitary((1 + eps) * np.eye(8, dtype=complex))
        u = unitary_of(Circuit.on_qubits(3, random_gates(3, 40, rng, sorted(ARITY))))
        assert _check_unitary(u) is u


def random_gates(n: int, count: int, rng, kinds) -> list[Gate]:
    """``count`` gates of the given kinds that fit on n qubits, at random placements."""
    kinds = [kind for kind in kinds if ARITY[kind] <= n]
    return [
        Gate(kind, tuple(rng.sample(range(n), ARITY[kind])))
        for kind in (rng.choice(kinds) for _ in range(count))
    ]


MONOMIAL_KINDS = sorted(set(ARITY) - {"H"})


class TestContractionKernel:
    """The oracle's kernel against ``dense_product``: each run of non-H gates
    is held as a phased permutation (O(2^n) per gate) and meets the dense
    matrix only at an H or at the end (O(4^n) each)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_gate_at_every_placement(self, n):
        # Every ordered placement: non-adjacent qubits, controls above and below the target.
        for kind, arity in ARITY.items():
            for qubits in itertools.permutations(range(n), arity):
                g = Gate(kind, qubits)
                u = unitary_of(Circuit.on_qubits(n, [g]))
                np.testing.assert_allclose(u, gate_matrix(g, n), rtol=0, atol=1e-12)

    def test_random_circuits_match_dense_product(self, rng):
        for _ in range(30):
            n = rng.randint(1, 5)
            c = random_clifford_t_circuit(n, rng.randint(0, 30), rng)
            np.testing.assert_allclose(
                unitary_of(c), dense_product(c.gates, n), rtol=0, atol=1e-12
            )

    def test_long_h_free_runs(self, rng):
        # Every monomial kind, mixed, with no H to flush the pending permutation.
        for n in range(1, 6):
            for _ in range(4):
                gates = random_gates(n, 150, rng, MONOMIAL_KINDS)
                np.testing.assert_allclose(
                    unitary_of(Circuit.on_qubits(n, gates)), dense_product(gates, n),
                    rtol=0, atol=1e-12,
                )

    @pytest.mark.parametrize("where", ["first", "last", "consecutive"])
    def test_h_placement(self, rng, where):
        for _ in range(10):
            n = rng.randint(1, 5)
            body = random_gates(n, 40, rng, MONOMIAL_KINDS)
            hs = [Gate("H", (rng.randrange(n),)) for _ in range(rng.randint(1, 3))]
            if where == "first":
                gates = hs + body
            elif where == "last":
                gates = body + hs
            else:
                cut = rng.randrange(len(body) + 1)
                gates = body[:cut] + hs + [Gate("H", (rng.randrange(n),))] + body[cut:]
            np.testing.assert_allclose(
                unitary_of(Circuit.on_qubits(n, gates)), dense_product(gates, n),
                rtol=0, atol=1e-12,
            )

    def test_dense_step_runs_once_per_h_and_once_at_the_end(self, rng, monkeypatch):
        calls = []
        real = trotopt.verify._dense_step

        def counted(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(trotopt.verify, "_dense_step", counted)
        for _ in range(20):
            n = rng.randint(1, 5)
            gates = random_gates(n, rng.randint(0, 60), rng, sorted(ARITY))
            calls.clear()
            unitary_of(Circuit.on_qubits(n, gates))
            assert len(calls) == sum(g.kind == "H" for g in gates) + 1
            assert calls[-1] is None  # the last step applies no H

    def test_peak_memory_is_two_unitaries(self, rng, monkeypatch):
        # The u^dagger u check allocates its own products; the kernel
        # itself works between the two preallocated buffers.  The slack
        # covers its O(2^n) arrays and numpy's iteration buffers (3 x 128 KiB
        # for an add over strided half-blocks).
        n = 9
        unitary_bytes = 16 << 2 * n
        gates = random_gates(n, 60, rng, sorted(ARITY)) + [Gate("H", (0,)), Gate("H", (8,))]
        monkeypatch.setattr(trotopt.verify, "_check_unitary", lambda u: u)
        tracemalloc.start()
        try:
            unitary_of(Circuit.on_qubits(n, gates))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * unitary_bytes + (1 << 20)

    def test_peak_memory_with_the_blocked_check_is_two_unitaries(self, rng, monkeypatch):
        # The second buffer is freed before the check, whose blocks of an
        # eighth of u^dagger u then stay under it; the whole product in one
        # block would add about two unitaries to the one checked.
        n = 9
        unitary_bytes = 16 << 2 * n
        gates = random_gates(n, 60, rng, sorted(ARITY)) + [Gate("H", (0,)), Gate("H", (8,))]
        monkeypatch.setattr(trotopt.verify, "_CHECK_BLOCK_BYTES", unitary_bytes // 8)
        tracemalloc.start()
        try:
            unitary_of(Circuit.on_qubits(n, gates))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * unitary_bytes + (1 << 20)

    def test_builds_no_dense_matrices(self, rng, monkeypatch):
        circuit = random_clifford_t_circuit(4, 40, rng)
        circuit = circuit.with_gates(
            circuit.gates + (Gate("TOFFOLI", (3, 0, 2)), Gate("CCZ", (2, 3, 1)))
        )
        expected = unitary_of(circuit)

        def forbidden(*args):
            raise AssertionError("dense reference matrix built")

        for name in ("rotation_matrix", "pauli_matrix"):
            monkeypatch.setattr(trotopt.verify, name, forbidden)
        assert np.array_equal(unitary_of(circuit), expected)


class TestRotationMatrix:
    def test_plus_z_is_t(self):
        assert np.allclose(rotation_matrix(P("Z")), np.diag([1, OMEGA]))

    def test_negative_identity_is_global_phase(self):
        p = PauliProduct(1, 0, 0, -1)
        assert np.allclose(rotation_matrix(p), OMEGA * np.eye(2))

    def test_positive_identity_is_identity(self):
        assert np.allclose(rotation_matrix(PauliProduct(1, 0, 0)), np.eye(2))

    def test_square_of_z_rotation_is_s(self):
        rz = rotation_matrix(P("Z"))
        assert np.allclose(rz @ rz, np.diag([1, 1j]))

    def test_opposite_rotations_cancel_up_to_phase(self, rng):
        # The product is exactly e^{i pi/4} times the identity.
        for _ in range(30):
            p = random_pauli(rng.randint(1, 3), rng)
            assert np.allclose(
                rotation_matrix(p) @ rotation_matrix(-p), OMEGA * np.eye(1 << p.n)
            )


class TestEquivalence:
    def test_t_x_t_x_is_identity_up_to_phase(self):
        c = Circuit.on_qubits(
            1, [Gate("T", (0,)), Gate("X", (0,)), Gate("T", (0,)), Gate("X", (0,))]
        )
        u = unitary_of(c)
        assert equivalent_up_to_phase(u, np.eye(2))
        assert np.allclose(u, OMEGA * np.eye(2))

    def test_t_vs_s_differ(self):
        t = unitary_of(Circuit.on_qubits(1, [Gate("T", (0,))]))
        s = unitary_of(Circuit.on_qubits(1, [Gate("S", (0,))]))
        assert not equivalent_up_to_phase(t, s)

    def test_reflexive(self, rng):
        c = random_clifford_t_circuit(3, 20, rng)
        u = unitary_of(c)
        assert equivalent_up_to_phase(u, u)
        assert equivalent_up_to_phase(u, 1j * u)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            equivalent_up_to_phase(np.eye(2), np.eye(4))

    def test_tolerance_respected(self):
        a = np.eye(2)
        b = np.eye(2) + 1e-6
        assert not equivalent_up_to_phase(a, b, tol=1e-8)
        assert equivalent_up_to_phase(a, b, tol=1e-4)


class TestBruteForceLayers:
    def test_chain(self):
        assert brute_force_min_layers([P("Z"), P("X"), P("Z")]) == 3

    def test_edgeless(self):
        assert brute_force_min_layers([P("ZI"), P("IZ"), P("ZZ"), P("ZI"), P("IZ")]) == 1

    def test_empty(self):
        assert brute_force_min_layers([]) == 0

    def test_cap(self):
        with pytest.raises(ValueError):
            brute_force_min_layers([P("Z")] * 13)

    def test_against_simple_dp(self, rng):
        for _ in range(80):
            n = rng.randint(1, 3)
            m = rng.randint(0, 10)
            paulis = [random_pauli(n, rng) for _ in range(m)]
            depth = [0] * m
            for j in range(m):
                best = 0
                for i in range(j):
                    if not paulis[i].commutes(paulis[j]):
                        best = max(best, depth[i])
                depth[j] = best + 1
            assert brute_force_min_layers(paulis) == (max(depth) if m else 0)


class TestPauliMatrix:
    def test_letters(self):
        assert np.allclose(pauli_matrix(P("X")), np.array([[0, 1], [1, 0]]))
        assert np.allclose(pauli_matrix(P("Y")), np.array([[0, -1j], [1j, 0]]))
        assert np.allclose(pauli_matrix(P("-Z")), np.diag([-1, 1]))

    def test_qubit_zero_is_leftmost_factor(self):
        assert np.allclose(
            pauli_matrix(P("XZ")),
            np.kron(np.array([[0, 1], [1, 0]]), np.diag([1, -1])),
        )
