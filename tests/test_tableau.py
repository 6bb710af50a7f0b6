import numpy as np
import pytest

from trotopt import (
    Circuit,
    CliffordTableau,
    DependentSetError,
    Gate,
    InvariantError,
    NonCommutingError,
    PauliProduct,
    Rotation,
    UnsupportedGateError,
    diagonalize_commuting_set,
    pauli_matrix,
    synthesize,
    synthesize_layer,
    unitary_of,
)
from trotopt import ARITY, CLIFFORD_KINDS, tableau
from trotopt.tableau import _diagonalize_with_gates, _Rows, conjugate_by_gate, inverse_gate

from _helpers import (
    random_clifford_circuit,
    random_commuting_independent_rotations,
    random_pauli,
    random_tableau,
    unmasked_diagonalize,
)

P = PauliProduct.from_label


def tableau_of(*gates: Gate) -> CliffordTableau:
    n = max(q for g in gates for q in g.qubits) + 1 if gates else 1
    return CliffordTableau.from_circuit(Circuit.on_qubits(n, gates))


class TestApplyGate:
    def test_h_swaps_x_and_z(self):
        t = tableau_of(Gate("H", (0,)))
        assert t.z_images[0] == P("X")
        assert t.x_images[0] == P("Z")

    def test_s_maps_x_to_y(self):
        t = tableau_of(Gate("S", (0,)))
        assert t.x_images[0] == P("Y")
        assert t.z_images[0] == P("Z")

    def test_cnot_propagation(self):
        t = tableau_of(Gate("CNOT", (0, 1)))
        assert t.x_images[0] == P("XX")
        assert t.z_images[1] == P("ZZ")
        assert t.x_images[1] == P("IX")
        assert t.z_images[0] == P("ZI")

    def test_non_clifford_rejected(self):
        with pytest.raises(UnsupportedGateError):
            CliffordTableau.identity(1).apply_gate(Gate("T", (0,)))

    def test_recomputes_only_rows_meeting_the_gate(self, rng):
        for _ in range(60):
            n = rng.randint(2, 9)
            t, _ = random_tableau(n, rng, depth=rng.randint(0, 3 * n))
            g = random_clifford_circuit(n, 1, rng).gates[0]
            out = t.apply_gate(g)
            mask = sum(1 << q for q in g.qubits)
            for row, new in zip(t.x_images + t.z_images, out.x_images + out.z_images):
                assert new == conjugate_by_gate(g, row)
                if not (row.x | row.z) & mask:
                    assert new is row

    def test_preserves_symplectic_validity(self, rng):
        for _ in range(50):
            t, _ = random_tableau(rng.randint(1, 5), rng)
            t.validate()

    def test_all_generators_match_dense(self, rng):
        kinds1 = ["H", "S", "Sdg", "X", "Y", "Z"]
        kinds2 = ["CNOT", "CZ", "SWAP"]
        for kind in kinds1 + kinds2:
            n = 2 if kind in kinds2 else 1
            g = Gate(kind, tuple(range(n)))
            c = Circuit.on_qubits(n, [g])
            t = CliffordTableau.from_circuit(c)
            u = unitary_of(c)
            for _ in range(20):
                p = random_pauli(n, rng)
                assert np.allclose(
                    u @ pauli_matrix(p) @ u.conj().T, pauli_matrix(t.conjugate(p))
                ), f"{kind} disagrees with dense conjugation"


class TestConjugate:
    def test_identity_fixes_everything(self):
        t = CliffordTableau.identity(2)
        assert t.conjugate(P("-ZX")) == P("-ZX")

    def test_h_on_z(self):
        assert tableau_of(Gate("H", (0,))).conjugate(P("Z")) == P("X")

    def test_x_flips_z_sign(self):
        assert tableau_of(Gate("X", (0,))).conjugate(P("Z")) == P("-Z")

    def test_sign_linearity(self, rng):
        for _ in range(50):
            n = rng.randint(1, 4)
            t, _ = random_tableau(n, rng)
            p = random_pauli(n, rng)
            assert t.conjugate(-p) == -t.conjugate(p)

    def test_preserves_commutation(self, rng):
        for _ in range(100):
            n = rng.randint(1, 5)
            t, _ = random_tableau(n, rng)
            p, q = random_pauli(n, rng), random_pauli(n, rng)
            assert p.commutes(q) == t.conjugate(p).commutes(t.conjugate(q))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CliffordTableau.identity(2).conjugate(P("X"))


class TestComposeInvert:
    def test_compose_with_inverse_is_identity(self, rng):
        for _ in range(30):
            n = rng.randint(1, 4)
            t, _ = random_tableau(n, rng)
            assert t.compose(t.invert()) == CliffordTableau.identity(n)
            assert t.invert().compose(t) == CliffordTableau.identity(n)

    def test_invert_matches_adjoint_circuit_across_byte_widths(self, rng):
        for n in (4, 5, 8, 9, 17, 33):
            t, circuit = random_tableau(n, rng)
            adjoint = [inverse_gate(g) for g in reversed(circuit.gates)]
            assert t.invert() == CliffordTableau.from_circuit(Circuit.on_qubits(n, adjoint))

    def test_invert_identity(self):
        assert CliffordTableau.identity(3).invert() == CliffordTableau.identity(3)

    def test_h_self_inverse(self):
        h = tableau_of(Gate("H", (0,)))
        assert h.compose(h) == CliffordTableau.identity(1)

    def test_inverse_gate(self):
        for kind in ("H", "X", "Y", "Z", "CNOT", "CZ", "SWAP"):
            g = Gate(kind, (1, 0)[: 2 if kind in ("CNOT", "CZ", "SWAP") else 1])
            assert inverse_gate(g) is g
        assert inverse_gate(Gate("S", (2,))) == Gate("Sdg", (2,))
        assert inverse_gate(Gate("Sdg", (2,))) == Gate("S", (2,))
        with pytest.raises(UnsupportedGateError, match="T has no Clifford inverse"):
            inverse_gate(Gate("T", (0,)))

    def test_invert_round_trips_paulis(self, rng):
        for _ in range(60):
            n = rng.randint(1, 4)
            t, _ = random_tableau(n, rng)
            p = random_pauli(n, rng)
            assert t.invert().conjugate(t.conjugate(p)) == p

    def test_compose_matches_dense(self, rng):
        for _ in range(40):
            n = rng.randint(1, 3)
            ta, ca = random_tableau(n, rng)
            tb, cb = random_tableau(n, rng)
            u = unitary_of(ca) @ unitary_of(cb)
            p = random_pauli(n, rng)
            assert np.allclose(
                u @ pauli_matrix(p) @ u.conj().T,
                pauli_matrix(ta.compose(tb).conjugate(p)),
            )

    def test_compose_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CliffordTableau.identity(2).compose(CliffordTableau.identity(3))


class TestPrecomposeInverse:
    def test_matches_compose_with_inverted_gate_tableau(self, rng):
        for kind in sorted(CLIFFORD_KINDS):
            for _ in range(12):
                n = rng.randint(ARITY[kind], 5)
                t, _ = random_tableau(n, rng)
                g = Gate(kind, tuple(rng.sample(range(n), ARITY[kind])))
                gate_tab = CliffordTableau.from_circuit(Circuit.on_qubits(n, [g]))
                before, rows = _Rows.of(t), _Rows.of(t)
                rows.precompose_inverse(g)
                assert rows.tableau() == t.compose(gate_tab.invert())
                changed = {r % n for r in range(2 * n) if rows.row(r) != before.row(r)}
                assert changed <= set(g.qubits)

    def test_non_clifford_rejected(self):
        with pytest.raises(UnsupportedGateError):
            _Rows.identity(1).precompose_inverse(Gate("T", (0,)))


class TestSRotation:
    def test_fixes_commuting_axes(self):
        v = CliffordTableau.s_rotation(P("Z"))
        assert v.conjugate(P("Z")) == P("Z")

    def test_z_axis_acts_like_s(self):
        v = CliffordTableau.s_rotation(P("Z"))
        s = tableau_of(Gate("S", (0,)))
        assert v == s

    def test_anticommuting_law_against_dense(self, rng):
        # V S V^dag == i S Q whenever S anticommutes with the axis Q
        for _ in range(200):
            n = rng.randint(1, 3)
            axis = random_pauli(n, rng)
            s = random_pauli(n, rng, allow_identity=True)
            v = CliffordTableau.s_rotation(axis)
            image = v.conjugate(s)
            vd = (1 + 1j) / 2 * (np.eye(1 << n) - 1j * pauli_matrix(axis))
            assert np.allclose(
                vd @ pauli_matrix(s) @ vd.conj().T, pauli_matrix(image)
            )
            if s.commutes(axis):
                assert image == s
            else:
                assert np.allclose(
                    pauli_matrix(image), 1j * pauli_matrix(s) @ pauli_matrix(axis)
                )

    def test_identity_axis_rejected(self):
        with pytest.raises(ValueError):
            CliffordTableau.s_rotation(PauliProduct.identity(2))
        with pytest.raises(ValueError):
            CliffordTableau.identity(2).apply_s_rotation(PauliProduct.identity(2))

    def test_row_update_matches_compose(self, rng):
        for _ in range(120):
            n = rng.randint(1, 7)
            t, _ = random_tableau(n, rng)
            axis = random_pauli(n, rng)
            out = t.apply_s_rotation(axis)
            assert out == CliffordTableau.s_rotation(axis).compose(t)
            rows = _Rows.of(t)
            moved = rows.apply_s_rotation(axis.x, axis.z, 0 if axis.sign > 0 else 2)
            assert rows.tableau() == out
            for r, row in enumerate(t.x_images + t.z_images):
                assert bool(moved >> r & 1) != row.commutes(axis)


class TestDiagonalize:
    def test_z_gives_identity(self):
        assert diagonalize_commuting_set([P("Z")]) == CliffordTableau.identity(1)

    def test_x_gives_hadamard(self):
        assert diagonalize_commuting_set([P("X")]) == tableau_of(Gate("H", (0,)))

    def test_zz_xx(self):
        paulis = [P("ZZ"), P("XX")]
        c = diagonalize_commuting_set(paulis)
        assert c.conjugate(paulis[0]) == P("ZI")
        assert c.conjugate(paulis[1]) == P("IZ")

    def test_negative_signs_folded(self):
        c = diagonalize_commuting_set([P("-Z"), ])
        assert c.conjugate(P("-Z")) == P("Z")

    def test_random_sets(self, rng):
        for _ in range(60):
            n = rng.randint(1, 5)
            m = rng.randint(1, n)
            rotations = random_commuting_independent_rotations(n, m, rng)
            paulis = [r.pauli for r in rotations]
            c = diagonalize_commuting_set(paulis)
            for j, p in enumerate(paulis):
                assert c.conjugate(p) == PauliProduct.single(n, j, "Z")

    def test_noncommuting_pair_named(self):
        with pytest.raises(NonCommutingError, match="0.*1"):
            diagonalize_commuting_set([P("X"), P("Z")])

    def test_dependent_set_rejected(self):
        with pytest.raises(DependentSetError):
            diagonalize_commuting_set([P("ZI"), P("IZ"), P("ZZ")])

    def test_identity_input_rejected(self):
        with pytest.raises(ValueError):
            diagonalize_commuting_set([PauliProduct.identity(2)])

    def test_post_check_catches_a_broken_gate_rule(self, monkeypatch):
        real = tableau.conjugate_by_gate

        def h_does_nothing(gate, p):
            return p if gate.kind == "H" else real(gate, p)

        monkeypatch.setattr(tableau, "conjugate_by_gate", h_does_nothing)
        with pytest.raises(InvariantError, match="diagonalization post-check failed"):
            diagonalize_commuting_set([P("X")])
        with pytest.raises(InvariantError, match="diagonalization post-check failed"):
            synthesize_layer([Rotation(P("X"))])


class TestMaskedDiagonalize:
    def test_matches_unmasked_reference(self, rng):
        for _ in range(80):
            n = rng.randint(1, 9)
            m = rng.randint(1, n)
            paulis = [r.pauli for r in random_commuting_independent_rotations(n, m, rng)]
            tableau, gates = unmasked_diagonalize(paulis)
            assert _diagonalize_with_gates(paulis) == gates
            assert diagonalize_commuting_set(paulis) == tableau


class TestSynthesize:
    def test_identity_is_empty(self):
        assert synthesize(CliffordTableau.identity(3)).gates == ()

    def test_hadamard_round_trip(self):
        h = tableau_of(Gate("H", (0,)))
        assert CliffordTableau.from_circuit(synthesize(h)) == h

    def test_allowed_gate_set(self, rng):
        for _ in range(20):
            t, _ = random_tableau(rng.randint(1, 4), rng)
            for g in synthesize(t).gates:
                assert g.kind in {"H", "S", "CNOT", "X", "Z"}

    def test_random_round_trip(self, rng):
        for _ in range(200):
            n = rng.randint(1, 5)
            t, _ = random_tableau(n, rng)
            assert CliffordTableau.from_circuit(synthesize(t)) == t


class TestValidate:
    def test_accepts_valid(self, rng):
        t, _ = random_tableau(3, rng)
        t.validate()

    def test_rejects_broken_rows(self):
        t = CliffordTableau.identity(2)
        broken = CliffordTableau(
            2, (t.x_images[0], t.x_images[0]), t.z_images
        )
        with pytest.raises(InvariantError):
            broken.validate()
