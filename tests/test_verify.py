import ast
import itertools
import math
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
from trotopt.verify import VerificationCapError

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


class TestContractionKernel:
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
