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
    layerize,
    optimize,
    parse_qc,
    synthesize,
    synthesize_schedule,
    to_rotation_form,
    unitary_of,
)
from trotopt.tableau import _lower_gate, inverse_gate

from _helpers import (
    ONE_QUBIT_CLIFFORD,
    TWO_QUBIT_CLIFFORD,
    form_unitary,
    random_clifford_t_circuit,
    unmasked_diagonalize,
)

P = PauliProduct.from_label


def lowered_cost(gates):
    """(CNOT count, H count) of gates already lowered."""
    kinds = Counter(g.kind for g in gates)
    return kinds["CNOT"], kinds["H"]


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
    def _cliffords(c):
        return [g for g in c.gates if g.kind not in ("T", "Tdg")]

    def _clifford_tail(self, c):
        return CliffordTableau.from_circuit(Circuit.on_qubits(c.n, self._cliffords(c)))

    def _route(self, route):
        """(form, expected tail, expected skeleton) for one route to a tail.
        A fold's expected tail is that of the Clifford gates of its edited
        source circuit, which are its expected skeleton; a form built by the
        public constructor, or folded from one, has no skeleton."""
        rng = random.Random(0x7A12)
        c = random_clifford_t_circuit(5, 120, rng, t_weight=0.5)
        if route == "public":
            tail = self._clifford_tail(c)
            return RotationForm(5, to_rotation_form(c).rotations, tail), tail, None
        if route == "extraction":
            return to_rotation_form(c), self._clifford_tail(c), self._cliffords(c)
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
        edited = apply_edit_plan(c, plan)
        skeleton = None if route == "fold_of_public" else self._cliffords(edited)
        return result.form, self._clifford_tail(edited), skeleton

    @pytest.mark.parametrize("route", TAIL_ROUTES)
    def test_every_route_to_a_tail(self, route, monkeypatch):
        calls = Counter()
        from_rows = RotationForm._from_rows.__func__

        def counted_from_rows(cls, n, xs, zs, ks, origins, inverse_tail, source, replaced):
            def counted():
                calls[counted] += 1
                return inverse_tail()

            return from_rows(cls, n, xs, zs, ks, origins, counted, source, replaced)

        monkeypatch.setattr(RotationForm, "_from_rows", classmethod(counted_from_rows))
        form, expected, skeleton = self._route(route)
        for _ in range(3):
            assert form.tail_clifford == expected
            assert form._inverse_tail.invert() == form.tail_clifford
        assert form.tail_clifford is form.tail_clifford
        assert form._inverse_tail is form._inverse_tail
        assert max(calls.values(), default=0) <= 1
        assert bool(calls) == (route != "public")
        if skeleton is None:
            assert form._replaced is None
        else:
            assert form._skeleton() == skeleton
            assert CliffordTableau.from_circuit(Circuit.on_qubits(form.n, skeleton)) == expected

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
        def per_rotation_gates(form, edited):
            gates = []
            for rotation in form.rotations:
                axis = rotation.pauli
                w_gates = unmasked_diagonalize([PauliProduct(axis.n, axis.x, axis.z)])
                gates.extend(low for g in w_gates for low in _lower_gate(g))
                gates.append(Gate("T" if rotation.pauli.sign > 0 else "Tdg", (0,)))
                gates.extend(low for g in reversed(w_gates) for low in _lower_gate(inverse_gate(g)))
            # the tail: the in-place output's Clifford gates, lowered, if they
            # have fewer CNOTs, or as many and fewer H, than the synthesized tail
            synthesized = list(synthesize(form.tail_clifford).gates)
            skeleton = [low for g in edited.gates if g.kind not in ("T", "Tdg")
                        for low in _lower_gate(g)]
            return gates + (skeleton if lowered_cost(skeleton) < lowered_cost(synthesized)
                            else synthesized)

        for _ in range(30):
            c = random_clifford_t_circuit(rng.randint(1, 5), rng.randint(0, 40), rng)
            form, plan, _ = optimize(to_rotation_form(c))
            edited = apply_edit_plan(c, plan)
            out = from_rotation_form_resynth(form)
            singletons = [(i,) for i in range(len(form.rotations))]
            assert out == synthesize_schedule(form, singletons)
            assert list(out.gates) == per_rotation_gates(form, edited)
            assert out.n == c.n

    def test_schedule_takes_one_shot_layers(self, mod5_4_text):
        """The layers are read three times (the index check, the ancilla
        count, the emission), so an iterator of layers, or of indices, must
        give the circuit the tuples give."""
        form = optimize(to_rotation_form(parse_qc(mod5_4_text).expand())).form
        layers = layerize(form).layers
        want = synthesize_schedule(form, layers)
        assert (want.counts().t_count, want.n) == (8, 9)
        assert synthesize_schedule(form, iter(layers)) == want
        assert synthesize_schedule(form, [iter(layer) for layer in layers]) == want


def soundness_sweep_circuits():
    """The 500 circuits of the acceptance suite's soundness sweep, drawn alike."""
    rng = random.Random(20250809)
    for _ in range(500):
        n = rng.randint(1, 6)
        yield random_clifford_t_circuit(n, rng.randint(0, 60), rng)


def skeleton_tableau(form):
    return CliffordTableau.from_circuit(Circuit.on_qubits(form.n, form._skeleton()))


def ends_with_synthesized_tail(out, form):
    tail = synthesize(form.tail_clifford).gates
    return out.gates[len(out.gates) - len(tail):] == tail


class TestShorterTail:
    """Every synthesized circuit ends with the lowered skeleton when that has
    fewer CNOTs than the synthesized tail, or as many and fewer H, and with
    the synthesized tail otherwise."""

    def test_skeleton_and_survivors_on_the_soundness_sweep(self):
        chosen = Counter()
        for c in soundness_sweep_circuits():
            extracted = to_rotation_form(c)
            assert skeleton_tableau(extracted) == extracted.tail_clifford
            form, plan, _ = optimize(extracted)
            assert skeleton_tableau(form) == form.tail_clifford
            # the survivors are the in-place output's rotations
            inplace = to_rotation_form(apply_edit_plan(c, plan))
            assert (inplace._x, inplace._z, inplace._k) == (form._x, form._z, form._k)
            out = from_rotation_form_resynth(form)
            assert equivalent_up_to_phase(unitary_of(out), unitary_of(c))
            chosen[ends_with_synthesized_tail(out, form)] += 1
        assert chosen[True] and chosen[False]

    def test_skeleton_and_survivors_at_width(self):
        c = random_clifford_t_circuit(100, 10**4, random.Random(1))
        form, plan, _ = optimize(to_rotation_form(c))
        assert skeleton_tableau(form) == form.tail_clifford
        inplace = to_rotation_form(apply_edit_plan(c, plan))
        assert (inplace._x, inplace._z, inplace._k) == (form._x, form._z, form._k)

    def test_fold_of_a_fold_is_exact(self, rng):
        skeletons = 0
        for _ in range(40):
            c = random_clifford_t_circuit(rng.randint(1, 5), rng.randint(0, 40), rng)
            first = optimize(to_rotation_form(c))
            second = optimize(first.form)
            assert second.form._replaced == first.plan.replacements | second.plan.replacements
            out = from_rotation_form_resynth(second.form)
            assert equivalent_up_to_phase(unitary_of(out), unitary_of(c))
            skeletons += not ends_with_synthesized_tail(out, second.form)
        assert skeletons

    def test_public_form_synthesizes_its_tail(self):
        # r5 of the synthesis pins: its folded form ends with the skeleton
        c = random_clifford_t_circuit(7, 46, random.Random(5))
        form = optimize(to_rotation_form(c)).form
        public = RotationForm(c.n, form.rotations, form.tail_clifford, c)
        assert public._replaced is None and optimize(public).form._replaced is None
        singletons = [(i,) for i in range(len(form.rotations))]
        assert ends_with_synthesized_tail(synthesize_schedule(public, singletons), form)
        assert not ends_with_synthesized_tail(synthesize_schedule(form, singletons), form)

    @pytest.mark.parametrize(
        "gates, winner",
        [
            ([Gate("CNOT", (0, 1))], "skeleton"),  # CNOT/H 1/0 against 1/4
            ([Gate("H", (0,)), Gate("H", (0,))], "synthesized"),  # 0/2 against 0/0
            ([Gate("Sdg", (1,))], "synthesized"),  # S S S against S Z: a tie
        ],
    )
    def test_ties_go_to_fewer_h_then_to_the_synthesized_tail(self, gates, winner):
        form = to_rotation_form(Circuit.on_qubits(2, gates))
        tails = {
            "skeleton": tuple(low for g in gates for low in _lower_gate(g)),
            "synthesized": synthesize(form.tail_clifford).gates,
        }
        assert tails["skeleton"] != tails["synthesized"]
        assert synthesize_schedule(form, []).gates == tails[winner]


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

    def test_source_of_another_width_rejected(self):
        """Layered output takes its qubit names and .i line from the
        source, so a wider one would put the ancillas' gates on a data qubit."""
        source = Circuit.on_qubits(3)
        with pytest.raises(ValueError, match="^source circuit width does not match qubit count$"):
            RotationForm(2, (), CliffordTableau.identity(2), source)
        assert RotationForm(3, (), CliffordTableau.identity(3), source).source is source

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
