import random
from collections import Counter

import pytest

from trotopt import (
    CLIFFORD_KINDS,
    Circuit,
    CliffordTableau,
    EditPlan,
    Gate,
    PauliProduct,
    Rotation,
    RotationForm,
    UnsupportedGateError,
    apply_edit_plan,
    equivalent_up_to_phase,
    from_rotation_form_resynth,
    optimize,
    parse_qc,
    synthesize,
    synthesize_schedule,
    to_rotation_form,
    unitary_of,
)
from trotopt.tableau import _adjoint_gates, _lower_gate

from _helpers import random_clifford_t_circuit, unmasked_diagonalize

P = PauliProduct.from_label


class TestToRotationForm:
    def test_single_t(self):
        rf = to_rotation_form(Circuit.on_qubits(1, [Gate("T", (0,))]))
        assert [r.pauli for r in rf.rotations] == [P("Z")]
        assert rf.rotations[0].origin == 0
        assert rf.tail_clifford == CliffordTableau.identity(1)

    def test_h_conjugated_t(self):
        c = Circuit.on_qubits(1, [Gate("H", (0,)), Gate("T", (0,)), Gate("H", (0,))])
        rf = to_rotation_form(c)
        assert [r.pauli for r in rf.rotations] == [P("X")]
        assert rf.tail_clifford == CliffordTableau.identity(1)

    def test_tdg_flips_sign(self):
        rf = to_rotation_form(Circuit.on_qubits(1, [Gate("Tdg", (0,))]))
        assert rf.rotations[0].pauli == P("-Z")

    def test_mod5_4_rotation_count(self, mod5_4_text):
        rf = to_rotation_form(parse_qc(mod5_4_text).expand())
        assert len(rf.rotations) == 28

    def test_rotation_count_matches_t_count(self, rng):
        for _ in range(30):
            c = random_clifford_t_circuit(rng.randint(1, 5), rng.randint(0, 40), rng)
            rf = to_rotation_form(c)
            assert len(rf.rotations) == c.counts().t_count

    def test_unexpanded_input_rejected(self):
        c = Circuit.on_qubits(3, [Gate("CCZ", (0, 1, 2))])
        with pytest.raises(UnsupportedGateError):
            to_rotation_form(c)

    def test_round_trip_fidelity(self, rng):
        for _ in range(60):
            n = rng.randint(1, 5)
            c = random_clifford_t_circuit(n, rng.randint(0, 30), rng)
            rf = to_rotation_form(c)
            assert equivalent_up_to_phase(unitary_of(rf), unitary_of(c))

    def test_cz_in_disguise_same_multiset(self):
        # A CZ and its CNOT+S rewrite produce identical rotation axes and tail.
        native = Circuit.on_qubits(
            2,
            [
                Gate("T", (0,)),
                Gate("CZ", (0, 1)),
                Gate("T", (1,)),
            ],
        )
        rewritten = Circuit.on_qubits(
            2,
            [
                Gate("T", (0,)),
                Gate("CNOT", (0, 1)),
                Gate("Sdg", (1,)),
                Gate("CNOT", (0, 1)),
                Gate("S", (0,)),
                Gate("S", (1,)),
                Gate("T", (1,)),
            ],
        )
        a, b = to_rotation_form(native), to_rotation_form(rewritten)
        assert a.tail_clifford == b.tail_clifford
        assert Counter(r.pauli for r in a.rotations) == Counter(
            r.pauli for r in b.rotations
        )

    def test_tail_is_the_tableau_of_the_clifford_gates(self):
        rng = random.Random(0x7A1)
        # widths on both sides of the 64-bit word boundary, and over two words
        for n in [rng.randint(1, 12) for _ in range(60)] + [63, 64, 65, 130]:
            c = random_clifford_t_circuit(n, rng.randint(0, 80) if n <= 12 else 6 * n, rng)
            if n > 12:
                assert {g.kind for g in c.gates} == CLIFFORD_KINDS | {"T", "Tdg"}
            cliffords = [g for g in c.gates if g.kind not in ("T", "Tdg")]
            expected = CliffordTableau.from_circuit(Circuit.on_qubits(n, cliffords))
            assert to_rotation_form(c).tail_clifford == expected

    def test_tail_is_built_once_on_first_read(self):
        calls = []

        def build():
            calls.append(1)
            return CliffordTableau.identity(2)

        rf = RotationForm(2, (), build)
        assert calls == []
        assert rf.tail_clifford is rf.tail_clifford
        assert calls == [1]
        with pytest.raises(ValueError):
            RotationForm(2, (), lambda: CliffordTableau.identity(3)).tail_clifford

    def test_dump_format(self):
        c = Circuit.on_qubits(2, [Gate("Tdg", (1,)), Gate("T", (0,))])
        assert to_rotation_form(c).dump() == "-IZ @0\n+ZI @1"


class TestResynth:
    def test_empty(self):
        rf = RotationForm(2, (), CliffordTableau.identity(2))
        assert from_rotation_form_resynth(rf).gates == ()

    def test_single_z_rotation_is_one_t(self):
        rf = RotationForm(1, (Rotation(P("Z")),), CliffordTableau.identity(1))
        c = from_rotation_form_resynth(rf)
        assert [g.kind for g in c.gates] == ["T"]

    def test_negative_x_rotation(self):
        rf = RotationForm(1, (Rotation(P("-X")),), CliffordTableau.identity(1))
        c = from_rotation_form_resynth(rf)
        ref = Circuit.on_qubits(1, [Gate("H", (0,)), Gate("Tdg", (0,)), Gate("H", (0,))])
        assert equivalent_up_to_phase(unitary_of(c), unitary_of(ref))

    def test_t_count_is_preserved(self, rng):
        for _ in range(20):
            c = random_clifford_t_circuit(rng.randint(1, 4), rng.randint(0, 20), rng)
            rf = to_rotation_form(c)
            out = from_rotation_form_resynth(rf)
            assert out.counts().t_count == len(rf.rotations)

    def test_round_trip_fidelity(self, rng):
        for _ in range(30):
            n = rng.randint(1, 4)
            c = random_clifford_t_circuit(n, rng.randint(0, 25), rng)
            out = from_rotation_form_resynth(to_rotation_form(c))
            assert equivalent_up_to_phase(unitary_of(out), unitary_of(c))

    def test_is_the_singleton_schedule(self, rng):
        def per_rotation_gates(form):
            gates = []
            for rotation in form.rotations:
                _, w_gates = unmasked_diagonalize([rotation.pauli.unsigned()])
                gates.extend(low for g in w_gates for low in _lower_gate(g))
                gates.append(Gate("T" if rotation.pauli.sign > 0 else "Tdg", (0,)))
                gates.extend(low for g in _adjoint_gates(w_gates) for low in _lower_gate(g))
            return gates + list(synthesize(form.tail_clifford).gates)

        for _ in range(30):
            c = random_clifford_t_circuit(rng.randint(1, 5), rng.randint(0, 40), rng)
            form = optimize(to_rotation_form(c)).form
            out = from_rotation_form_resynth(form)
            singletons = [(i,) for i in range(len(form.rotations))]
            assert out == synthesize_schedule(form, singletons)
            assert list(out.gates) == per_rotation_gates(form)
            assert out.n == c.n


class TestEditPlan:
    def test_all_keep_is_identity(self):
        c = Circuit.on_qubits(1, [Gate("T", (0,)), Gate("H", (0,))])
        assert apply_edit_plan(c, EditPlan()) == c

    def test_delete_t_x_t_x(self):
        c = Circuit.on_qubits(
            1, [Gate("T", (0,)), Gate("X", (0,)), Gate("T", (0,)), Gate("X", (0,))]
        )
        out = apply_edit_plan(c, EditPlan(deletions=frozenset({0, 2})))
        assert [g.kind for g in out.gates] == ["X", "X"]
        assert equivalent_up_to_phase(unitary_of(out), unitary_of(c))

    def test_replace_squares_in_place(self):
        c = Circuit.on_qubits(1, [Gate("T", (0,)), Gate("Tdg", (0,))])
        out = apply_edit_plan(c, EditPlan(replacements=frozenset({0, 1})))
        assert [g.kind for g in out.gates] == ["S", "Sdg"]

    def test_non_phase_gate_rejected(self):
        c = Circuit.on_qubits(1, [Gate("H", (0,))])
        with pytest.raises(ValueError):
            apply_edit_plan(c, EditPlan(deletions=frozenset({0})))
        with pytest.raises(ValueError):
            apply_edit_plan(c, EditPlan(deletions=frozenset({5})))

    def test_overlapping_edits_rejected(self):
        with pytest.raises(ValueError):
            EditPlan(deletions=frozenset({0}), replacements=frozenset({0}))


class TestRotationType:
    def test_identity_axis_rejected(self):
        with pytest.raises(ValueError):
            Rotation(PauliProduct.identity(2))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RotationForm(2, (Rotation(P("Z")),), CliffordTableau.identity(2))
        with pytest.raises(ValueError):
            RotationForm(2, (), CliffordTableau.identity(3))
