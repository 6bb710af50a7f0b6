import random

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
    apply_edit_plan,
    equivalent_up_to_phase,
    optimize,
    parse_qc,
    t_count_reduction,
    to_rotation_form,
    unitary_of,
)
from trotopt.tableau import _Rows

from _helpers import non_phase_gates, random_clifford_t_circuit

P = PauliProduct.from_label


def synthetic_form(labels, n=None):
    paulis = [P(label) for label in labels]
    width = n or paulis[0].n
    return RotationForm(
        width,
        tuple(Rotation(p, origin=i) for i, p in enumerate(paulis)),
        CliffordTableau.identity(width),
    )


class TestBasicFolding:
    def test_adjacent_equal_pair_merges_to_s(self):
        c = Circuit.on_qubits(1, [Gate("T", (0,)), Gate("T", (0,))])
        form, plan, stats = optimize(to_rotation_form(c))
        assert plan.replacements == {0} and plan.deletions == {1}
        assert len(form.rotations) == 0
        assert stats.merges == 1 and stats.cancellations == 0
        out = apply_edit_plan(c, plan)
        assert [g.kind for g in out.gates] == ["S"]
        assert equivalent_up_to_phase(unitary_of(out), unitary_of(c))

    def test_opposite_pair_cancels(self):
        c = Circuit.on_qubits(1, [Gate("T", (0,)), Gate("Tdg", (0,))])
        form, plan, stats = optimize(to_rotation_form(c))
        assert plan.deletions == {0, 1} and not plan.replacements
        assert stats.cancellations == 1
        assert apply_edit_plan(c, plan).gates == ()

    def test_anticommuting_blocker_stops_the_scan(self):
        form, plan, stats = optimize(synthetic_form(["Z", "X", "-Z"]))
        assert len(form.rotations) == 3
        assert stats.cancellations == stats.merges == 0

    def test_commuting_bystander_allows_cancel(self):
        form, _, stats = optimize(synthetic_form(["ZI", "IZ", "-ZI"]))
        assert stats.cancellations == 1
        assert [r.pauli for r in form.rotations] == [P("IZ")]

    def test_mixed_t_tdg_same_frame_sign_merges(self):
        # X conjugation flips the second axis: T then X then Tdg folds to a merge
        c = Circuit.on_qubits(
            1, [Gate("T", (0,)), Gate("X", (0,)), Gate("Tdg", (0,))]
        )
        form, plan, stats = optimize(to_rotation_form(c))
        assert stats.merges == 1
        assert plan.replacements == {0} and plan.deletions == {2}
        out = apply_edit_plan(c, plan)
        assert equivalent_up_to_phase(unitary_of(out), unitary_of(c))

    def test_cz_in_disguise_merge(self):
        # CZ written as H-CNOT-H between two T gates on the same qubit: the
        # axes still meet, so the T-count drops to zero.
        c = Circuit.on_qubits(
            2,
            [
                Gate("T", (0,)),
                Gate("H", (1,)),
                Gate("CNOT", (0, 1)),
                Gate("H", (1,)),
                Gate("T", (0,)),
            ],
        )
        form, plan, stats = optimize(to_rotation_form(c))
        assert stats.merges == 1
        assert len(form.rotations) == 0
        out = apply_edit_plan(c, plan)
        assert out.counts().t_count == 0
        assert equivalent_up_to_phase(unitary_of(out), unitary_of(c))

    def test_mod5_4(self, mod5_4_text):
        expanded = parse_qc(mod5_4_text).expand()
        form, plan, stats = optimize(to_rotation_form(expanded))
        assert stats.t_after == 8
        out = apply_edit_plan(expanded, plan)
        counts = out.counts()
        assert counts.t_count == 8
        assert counts.cnot_count == 28


class TestFrame:
    def test_merge_rewrites_later_axes(self):
        # After merging two Z rotations the leftover Clifford conjugates any
        # later anticommuting axis; X arrives in the frame as -Y.
        c = Circuit.on_qubits(
            1,
            [
                Gate("T", (0,)),
                Gate("T", (0,)),
                Gate("H", (0,)),
                Gate("T", (0,)),
            ],
        )
        form, plan, stats = optimize(to_rotation_form(c))
        assert stats.merges == 1
        assert [r.pauli for r in form.rotations] == [P("-Y")]
        assert equivalent_up_to_phase(unitary_of(form), unitary_of(c))
        out = apply_edit_plan(c, plan)
        assert equivalent_up_to_phase(unitary_of(out), unitary_of(c))

    def test_frame_folds_into_tail(self):
        c = Circuit.on_qubits(1, [Gate("T", (0,)), Gate("T", (0,))])
        form, _, _ = optimize(to_rotation_form(c))
        assert form.tail_clifford == CliffordTableau.s_rotation(P("Z"))


def eager_fold(form):
    """Reference fold: rebuilds the whole frame tableau on every merge and
    the tail eagerly, as ``tail.compose(frame.invert())``, counts each
    processed entry its scans read, and builds the edit plan."""
    frame = CliffordTableau.identity(form.n)
    processed = []
    comparisons = 0
    deletions, replacements = set(), set()
    for rotation in form.rotations:
        axis = frame.conjugate(rotation.pauli)
        i = len(processed) - 1
        while i >= 0:
            comparisons += 1
            if processed[i][0].equal_up_to_sign(axis) or not processed[i][0].commutes(axis):
                break
            i -= 1
        if i >= 0 and processed[i][0].equal_up_to_sign(axis):
            partner, origin = processed.pop(i)
            deletions.add(rotation.origin)
            if partner.sign == axis.sign:
                frame = CliffordTableau.s_rotation(-axis).compose(frame)
                replacements.add(origin)
            else:
                deletions.add(origin)
        else:
            processed.append((axis, rotation.origin))
    plan = EditPlan(frozenset(deletions), frozenset(replacements))
    tail = form.tail_clifford.compose(frame.invert())
    return [axis for axis, _ in processed], tail, comparisons, plan


class TestLazyFrameTail:
    def test_matches_eager_frame_and_tail(self):
        rng = random.Random(0xFA11)
        merges = 0
        # widths on both sides of the 64-bit word boundary, and over two words
        widths = [rng.randint(1, 8) for _ in range(80)] + [63, 64, 65, 130]
        for n in widths:
            c = random_clifford_t_circuit(n, rng.randint(0, 80) if n <= 8 else 6 * n, rng,
                                          t_weight=0.5)
            if n > 8:
                assert {g.kind for g in c.gates} == CLIFFORD_KINDS | {"T", "Tdg"}
            result = optimize(to_rotation_form(c))
            axes, tail, comparisons, plan = eager_fold(to_rotation_form(c))
            assert [r.pauli for r in result.form.rotations] == axes
            assert result.form.tail_clifford == tail
            assert result.stats.comparisons == comparisons
            assert result.plan == plan
            merges += result.stats.merges
        assert merges > 50

    def test_builds_no_tableau_until_the_tail_is_read(self, monkeypatch):
        c = random_clifford_t_circuit(12, 300, random.Random(0x7AB), t_weight=0.5)
        calls = []
        for name in ("__post_init__", "conjugate"):
            real = getattr(CliffordTableau, name)

            def counted(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(CliffordTableau, name, counted)
        result = optimize(to_rotation_form(c))
        assert result.stats.merges > 0
        assert calls == []
        result.form.tail_clifford
        assert "__post_init__" in calls

    def test_axes_off_moved_frame_rows_are_not_conjugated(self, monkeypatch):
        # On CNOT+T+X circuits every axis is diagonal: merges move only X
        # rows of the frame, so no axis ever needs conjugating.
        conjugations = []
        real = _Rows.conjugate

        def counted(*args):
            conjugations.append(1)
            return real(*args)

        monkeypatch.setattr(_Rows, "conjugate", counted)
        rng = random.Random(0xD1A)
        kinds = ["CNOT", "X", "T", "Tdg", "T"]
        gates = []
        for _ in range(400):
            kind = rng.choice(kinds)
            qubits = rng.sample(range(6), 2) if kind == "CNOT" else [rng.randrange(6)]
            gates.append(Gate(kind, tuple(qubits)))
        phase_poly = optimize(to_rotation_form(Circuit.on_qubits(6, gates)))
        assert phase_poly.stats.merges > 10
        assert conjugations == []
        mixed = optimize(to_rotation_form(
            random_clifford_t_circuit(6, 200, random.Random(0xD1B), t_weight=0.5)))
        assert mixed.stats.merges > 0 and conjugations

    def test_fold_reads_no_tail(self, no_invert):
        c = random_clifford_t_circuit(6, 120, random.Random(0xB0), t_weight=0.5)
        result = optimize(to_rotation_form(c))
        assert result.stats.merges > 0
        with pytest.raises(AssertionError, match="invert"):
            result.form.tail_clifford


class TestSoundness:
    N_CASES = 120

    def test_random_circuits(self):
        rng = random.Random(0xD06)
        for case in range(self.N_CASES):
            n = rng.randint(1, 6)
            c = random_clifford_t_circuit(n, rng.randint(0, 60), rng)
            form, plan, stats = optimize(to_rotation_form(c))
            out = apply_edit_plan(c, plan)
            before, after = c.counts(), out.counts()
            assert after.t_count <= before.t_count
            assert (before.t_count - after.t_count) % 2 == 0
            assert after.t_count == stats.t_after
            assert non_phase_gates(out) == non_phase_gates(c)
            assert equivalent_up_to_phase(unitary_of(out), unitary_of(c)), (
                f"case {case} not equivalent"
            )
            assert equivalent_up_to_phase(unitary_of(form), unitary_of(c))

    def test_idempotent(self):
        rng = random.Random(0x1DE)
        for _ in range(60):
            c = random_clifford_t_circuit(rng.randint(1, 5), rng.randint(0, 50), rng)
            first = optimize(to_rotation_form(c))
            second = optimize(first.form)
            assert second.stats.cancellations == 0
            assert second.stats.merges == 0

    def test_quiescence(self):
        # No two surviving rotations share an axis (up to sign) with only
        # commuting rotations in between.
        rng = random.Random(0x957)
        for _ in range(60):
            c = random_clifford_t_circuit(rng.randint(1, 5), rng.randint(0, 50), rng)
            form, _, _ = optimize(to_rotation_form(c))
            axes = [r.pauli for r in form.rotations]
            for j in range(len(axes)):
                for i in range(j):
                    if not axes[i].equal_up_to_sign(axes[j]):
                        continue
                    between = axes[i + 1 : j]
                    assert any(not q.commutes(axes[j]) for q in between)


class TestComplexity:
    def test_comparison_bound_on_all_commuting_lists(self):
        # k distinct pairwise-commuting diagonal axes: every insertion scans
        # the whole processed list, the documented worst case.
        for k in (64, 128):
            labels = []
            n = 8
            for value in range(1, k + 1):
                letters = "".join("Z" if (value >> b) & 1 else "I" for b in range(n))
                labels.append("+" + letters)
            form, _, stats = optimize(synthetic_form(labels, n=n))
            assert len(form.rotations) == k
            assert stats.comparisons == k * (k - 1) // 2

    def test_quadratic_growth(self):
        counts = {}
        for k in (64, 128, 256):
            n = 9
            labels = [
                "+" + "".join("Z" if (v >> b) & 1 else "I" for b in range(n))
                for v in range(1, k + 1)
            ]
            _, _, stats = optimize(synthetic_form(labels, n=n))
            counts[k] = stats.comparisons
        assert counts[128] / counts[64] == pytest.approx(4, rel=0.1)
        assert counts[256] / counts[128] == pytest.approx(4, rel=0.1)


class TestReductionReport:
    def test_mod5_4(self, mod5_4_text):
        expanded = parse_qc(mod5_4_text).expand()
        form, plan, _ = optimize(to_rotation_form(expanded))
        out = apply_edit_plan(expanded, plan)
        report = t_count_reduction(expanded, out)
        assert report.t_before == 28 and report.t_after == 8
        assert round(report.percent, 2) == 71.43

    def test_no_t_gates(self):
        c = Circuit.on_qubits(1, [Gate("H", (0,))])
        assert t_count_reduction(c, c).percent == 0.0

    def test_full_reduction(self):
        c = Circuit.on_qubits(1, [Gate("T", (0,)), Gate("T", (0,))])
        out = apply_edit_plan(c, optimize(to_rotation_form(c)).plan)
        assert t_count_reduction(c, out).percent == 100.0

    def test_stats_record_is_flat(self):
        c = Circuit.on_qubits(1, [Gate("T", (0,))])
        record = optimize(to_rotation_form(c)).stats.as_dict()
        assert set(record) == {
            "t_before",
            "t_after",
            "cancellations",
            "merges",
            "comparisons",
        }
        assert all(isinstance(v, int) for v in record.values())
