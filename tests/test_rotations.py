import random
from collections import Counter

import pytest

from trotopt import (
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

from _helpers import (
    ONE_QUBIT_CLIFFORD,
    TWO_QUBIT_CLIFFORD,
    form_unitary,
    random_clifford_t_circuit,
    unmasked_diagonalize,
)

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
            assert equivalent_up_to_phase(form_unitary(rf), unitary_of(c))

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
                kinds = {g.kind for g in c.gates}
                assert kinds == {*ONE_QUBIT_CLIFFORD, *TWO_QUBIT_CLIFFORD, "T", "Tdg"}
            cliffords = [g for g in c.gates if g.kind not in ("T", "Tdg")]
            expected = CliffordTableau.from_circuit(Circuit.on_qubits(n, cliffords))
            assert to_rotation_form(c).tail_clifford == expected

    TAIL_ROUTES = [
        "public", "extraction", "fold_with_merges", "fold_without_merges",
        "fold_of_public", "fold_of_fold",
    ]

    @staticmethod
    def _clifford_tail(c):
        cliffords = [g for g in c.gates if g.kind not in ("T", "Tdg")]
        return CliffordTableau.from_circuit(Circuit.on_qubits(c.n, cliffords))

    def _route(self, route):
        """(form, expected tail) for one route to a tail.  A fold's expected
        tail is that of the Clifford gates of its edited source circuit."""
        rng = random.Random(0x7A12)
        c = random_clifford_t_circuit(5, 120, rng, t_weight=0.5)
        if route == "public":
            tail = self._clifford_tail(c)
            return RotationForm(5, to_rotation_form(c).rotations, tail), tail
        if route == "extraction":
            return to_rotation_form(c), self._clifford_tail(c)
        if route == "fold_without_merges":
            c = Circuit.on_qubits(2, [Gate("T", (0,)), Gate("H", (0,)), Gate("CNOT", (0, 1)),
                                      Gate("T", (1,)), Gate("Tdg", (1,)), Gate("S", (1,))])
        form = to_rotation_form(c)
        if route == "fold_of_public":
            form = RotationForm(5, form.rotations, form.tail_clifford, c)
        result = optimize(form)
        assert (result.stats.merges > 0) == (route != "fold_without_merges")
        plan = result.plan
        if route == "fold_of_fold":
            result = optimize(result.form)
            plan = EditPlan(plan.deletions | result.plan.deletions,
                            plan.replacements | result.plan.replacements)
        return result.form, self._clifford_tail(apply_edit_plan(c, plan))

    @pytest.mark.parametrize("route", TAIL_ROUTES)
    def test_every_route_to_a_tail(self, route, monkeypatch):
        calls = Counter()
        from_rows = RotationForm._from_rows.__func__

        def counted_from_rows(cls, n, xs, zs, ks, origins, inverse_tail, source):
            def counted():
                calls[counted] += 1
                return inverse_tail()

            return from_rows(cls, n, xs, zs, ks, origins, counted, source)

        monkeypatch.setattr(RotationForm, "_from_rows", classmethod(counted_from_rows))
        form, expected = self._route(route)
        for _ in range(3):
            assert form.tail_clifford == expected
            assert form._inverse_tail.invert() == form.tail_clifford
        assert form.tail_clifford is form.tail_clifford
        assert form._inverse_tail is form._inverse_tail
        assert max(calls.values(), default=0) <= 1
        assert bool(calls) == (route != "public")

    def test_public_tail_is_inverted_only_when_a_fold_reads_it(self, monkeypatch):
        inverted = []
        invert = CliffordTableau.invert

        def counted(self):
            inverted.append(self)
            return invert(self)

        monkeypatch.setattr(CliffordTableau, "invert", counted)
        c = random_clifford_t_circuit(4, 80, random.Random(0x7A13), t_weight=0.5)
        tail = self._clifford_tail(c)
        form = RotationForm(4, to_rotation_form(c).rotations, tail)
        assert form.tail_clifford is tail
        result = optimize(form)
        assert result.stats.merges > 0
        assert inverted == []
        result.form.tail_clifford
        assert inverted[0] is tail and len(inverted) == 2

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
                axis = rotation.pauli
                w_gates = unmasked_diagonalize([PauliProduct(axis.n, axis.x, axis.z)])
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

    def test_edited_circuit_equals_its_checked_construction(self):
        # The edit skips the constructor's checks: each gate it keeps is the
        # input's own, and each replacement a phase gate on the same qubit.
        rng = random.Random(0xED17)
        squared = {"T": "S", "Tdg": "Sdg"}
        edits = 0
        for _ in range(120):
            n = rng.randint(1, 6)
            gates = random_clifford_t_circuit(n, rng.randint(0, 60), rng).gates
            names = tuple(f"w{i}" for i in range(n))
            c = Circuit(names, gates, names[:1], names[::-1])
            plan = optimize(to_rotation_form(c)).plan
            out = apply_edit_plan(c, plan)
            expected = Circuit(names, [
                Gate(squared[g.kind], g.qubits) if i in plan.replacements else g
                for i, g in enumerate(gates) if i not in plan.deletions
            ], c.inputs, c.outputs)
            assert type(out) is Circuit and vars(out) == vars(expected)
            assert hash(out) == hash(expected)
            edits += len(plan.deletions) + len(plan.replacements)
        assert edits > 100

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
            Rotation(PauliProduct(2, 0, 0))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RotationForm(2, (Rotation(P("Z")),), CliffordTableau.identity(2))
        with pytest.raises(ValueError):
            RotationForm(2, (), CliffordTableau.identity(3))

    def test_width_errors_keep_their_messages(self):
        with pytest.raises(ValueError, match="^qubit count mismatch: 2 vs 1$"):
            RotationForm(2, [Rotation(P("ZI")), Rotation(P("Z"))], CliffordTableau.identity(2))
        with pytest.raises(ValueError, match="^tail Clifford width does not match qubit count$"):
            RotationForm(2, (), CliffordTableau.identity(3))

    @pytest.mark.parametrize(
        "labels, origins", [(("Z", "-Z"), (0, 0)), (("Z", "Z"), (0, 0)), (("X", "Z", "Y"), (0, 1, 0))]
    )
    def test_repeated_origin_rejected(self, labels, origins):
        """A gate folded twice would be edited twice: the plan drops one T of
        ``T a; T* a``, or marks one gate both deleted and replaced."""
        rotations = [Rotation(P(label), origin) for label, origin in zip(labels, origins)]
        with pytest.raises(ValueError, match="^two rotations share an origin gate$"):
            RotationForm(1, rotations, CliffordTableau.identity(1))

    def test_synthetic_rotations_may_repeat_a_none_origin(self):
        form = RotationForm(
            1, [Rotation(P("Z")), Rotation(P("-Z")), Rotation(P("X"), 0)], CliffordTableau.identity(1)
        )
        assert optimize(form).stats.t_after == 1

    def test_public_form_keeps_the_rotations_it_was_given(self):
        rotations = (Rotation(P("-XZ"), origin=4), Rotation(P("YI")))
        form = RotationForm(2, rotations, CliffordTableau.identity(2))
        assert form.rotations is rotations
        assert RotationForm(2, list(rotations), CliffordTableau.identity(2)).rotations == rotations
        folded = optimize(form).form
        assert folded.rotations == rotations  # nothing folds: the rows round-trip
