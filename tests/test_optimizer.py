import gc
import random
import statistics
import time
from operator import indexOf

import pytest

from trotopt import (
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
from trotopt.cli import main
from trotopt.tableau import _exponent

from _helpers import (
    MOD5_4,
    ONE_QUBIT_CLIFFORD,
    TWO_QUBIT_CLIFFORD,
    count_tableau_calls,
    form_unitary,
    non_phase_gates,
    phase_polynomial,
    random_clifford_t_circuit,
    random_pauli,
)

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


def form_with_origins(labels, origins):
    """A form from the public constructor whose rotations carry ``origins``."""
    paulis = [P(label) for label in labels]
    return RotationForm(
        paulis[0].n,
        [Rotation(p, origin) for p, origin in zip(paulis, origins)],
        CliffordTableau.identity(paulis[0].n),
    )


class TestEditPlan:
    """The plan is None iff some folded pair lacks an origin."""

    @pytest.mark.parametrize(
        "labels, origins, plan",
        [
            # a merge whose earlier partner has no origin
            (["Z", "Z"], [None, 1], None),
            # a cancel whose incoming axis has no origin
            (["Z", "-Z"], [0, None], None),
            # an origin-less rotation that never folds leaves the pair's plan
            (["ZI", "IX", "ZI"], [0, None, 2], EditPlan(frozenset({2}), frozenset({0}))),
            (["IX", "ZI", "-ZI"], [None, 1, 2], EditPlan(frozenset({1, 2}), frozenset())),
            # nothing folds at all
            (["Z", "X"], [None, None], EditPlan()),
        ],
    )
    def test_plan_reads_only_folded_origins(self, labels, origins, plan):
        assert optimize(form_with_origins(labels, origins)).plan == plan

    def test_a_later_pair_with_origins_does_not_restore_the_plan(self):
        result = optimize(form_with_origins(["ZI", "ZI", "IZ", "IZ"], [None, 1, 2, 3]))
        assert result.stats.merges == 2
        assert result.plan is None


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
        assert equivalent_up_to_phase(form_unitary(form), unitary_of(c))
        out = apply_edit_plan(c, plan)
        assert equivalent_up_to_phase(unitary_of(out), unitary_of(c))

    def test_frame_folds_into_tail(self):
        c = Circuit.on_qubits(1, [Gate("T", (0,)), Gate("T", (0,))])
        form, _, _ = optimize(to_rotation_form(c))
        assert form.tail_clifford == CliffordTableau.s_rotation(P("Z"))


def same_axis(a, b):
    """Equal up to sign."""
    return (a.x, a.z) == (b.x, b.z)


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
            if same_axis(processed[i][0], axis) or not processed[i][0].commutes(axis):
                break
            i -= 1
        if i >= 0 and same_axis(processed[i][0], axis):
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


def assert_matches_eager_fold(form):
    """Survivors, tail, scan count and plan all equal :func:`eager_fold`'s."""
    result = optimize(form)
    axes, tail, comparisons, plan = eager_fold(form)
    assert [r.pauli for r in result.form.rotations] == axes
    assert result.form.tail_clifford == tail
    assert result.stats.comparisons == comparisons
    assert result.plan == plan
    return result.stats


def diagonal_label(n, rng):
    letters = "".join(rng.choice("IZ") for _ in range(n - 1)) + "Z"
    return rng.choice("+-") + "".join(rng.sample(letters, n))


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
                kinds = {g.kind for g in c.gates}
                assert kinds == {*ONE_QUBIT_CLIFFORD, *TWO_QUBIT_CLIFFORD, "T", "Tdg"}
            merges += assert_matches_eager_fold(to_rotation_form(c)).merges
        assert merges > 50

    def test_matches_eager_fold_on_phase_polynomials(self):
        # All axes diagonal: nothing anticommutes, so an axis with no equal
        # partner listed skips the scan and still counts every entry.
        rng = random.Random(0x9A5E)
        merges = cancellations = 0
        for n in [rng.randint(2, 10) for _ in range(30)] + [32, 64, 65]:
            stats = assert_matches_eager_fold(
                to_rotation_form(phase_polynomial(n, rng.randint(20, 12 * n), rng)))
            merges += stats.merges
            cancellations += stats.cancellations
        assert merges > 50 and cancellations > 50

    def test_matches_eager_fold_after_non_diagonal_axes_leave(self):
        # Runs of diagonal axes with a non-diagonal axis that later cancels
        # or merges: its X bits stay in the fold's seen masks after it
        # leaves the list, so later diagonal axes are scanned in full.
        rng = random.Random(0x0E4)
        merges = cancellations = 0
        for _ in range(40):
            n = rng.randint(2, 6)
            labels = []
            for _ in range(rng.randint(1, 5)):
                labels += [diagonal_label(n, rng) for _ in range(rng.randint(0, 8))]
                axis = random_pauli(n, rng)
                while not axis.x:
                    axis = random_pauli(n, rng)
                between = [P(diagonal_label(n, rng)) for _ in range(6)]
                labels.append(axis.label())
                labels += [q.label() for q in between if q.commutes(axis)][:3]
                labels.append(rng.choice([axis, -axis]).label())
            labels += [diagonal_label(n, rng) for _ in range(rng.randint(1, 8))]
            stats = assert_matches_eager_fold(synthetic_form(labels))
            merges += stats.merges
            cancellations += stats.cancellations
        assert merges > 20 and cancellations > 20

    def test_matches_eager_fold_on_diagonal_runs_between_other_axes(self, monkeypatch):
        # Diagonal axes that read no listed X bit find their equal key by one
        # search; the others, and every non-diagonal axis, walk the list.
        searches = []

        def counted(seq, item):
            searches.append(item)
            return indexOf(seq, item)

        monkeypatch.setattr("trotopt.optimizer.indexOf", counted)
        rng = random.Random(0xD1A6)
        both = 0
        for _ in range(60):
            n = rng.randint(2, 6)
            labels = []
            for _ in range(rng.randint(1, 4)):
                labels += [diagonal_label(n, rng) for _ in range(rng.randint(4, 20))]
                labels += [random_pauli(n, rng).label() for _ in range(rng.randint(1, 3))]
            labels += [diagonal_label(n, rng) for _ in range(rng.randint(0, 20))]
            searches.clear()
            stats = assert_matches_eager_fold(synthetic_form(labels))
            # a match came from each path: the search, and the walk
            both += 0 < len(searches) < stats.merges + stats.cancellations
        assert both > 30

    def test_axis_returns_after_its_partner_left(self):
        # Z0 cancels, returns with nothing listed to stop it, then merges
        # with its own return.
        stats = assert_matches_eager_fold(
            synthetic_form(["+ZI", "+IZ", "-ZI", "+ZI", "+ZI"]))
        assert (stats.cancellations, stats.merges, stats.t_after) == (1, 1, 1)
        # Z0 listed twice (an X0 between): each match takes one copy away.
        stats = assert_matches_eager_fold(
            synthetic_form(["+ZI", "+XI", "+ZI", "-ZI", "+ZI", "+ZI", "+ZI"]))
        assert (stats.cancellations, stats.merges) == (1, 1)
        # Small alphabets repeat axes often, in every sign and order.
        rng = random.Random(0x2E7)
        for _ in range(300):
            labels = [rng.choice("+-") + rng.choice(["ZI", "IZ", "ZZ", "XI", "XX"])
                      for _ in range(rng.randint(1, 14))]
            assert_matches_eager_fold(synthetic_form(labels))

    def test_builds_no_tableau_until_the_tail_is_read(self, monkeypatch):
        # Extraction's inverse prefix and the fold's frame are the only two
        # tableaux; both are updated in place, never rebuilt per gate.
        c = random_clifford_t_circuit(12, 300, random.Random(0x7AB), t_weight=0.5)
        calls = count_tableau_calls(monkeypatch, "__init__", "_from_rows", "conjugate")
        result = optimize(to_rotation_form(c))
        assert result.stats.merges > 0
        assert calls == ["_from_rows", "_from_rows"]
        result.form.tail_clifford
        assert len(calls) > 2

    def test_axes_off_moved_frame_rows_are_not_conjugated(self, monkeypatch):
        # On CNOT+T+X circuits every axis is diagonal: merges move only X
        # rows of the frame, so no axis ever needs conjugating.
        conjugations = count_tableau_calls(monkeypatch, "_conjugate")
        c = phase_polynomial(6, 400, random.Random(0xD1A))
        phase_poly = optimize(to_rotation_form(c))
        assert phase_poly.stats.merges > 10
        assert conjugations == []
        mixed = optimize(to_rotation_form(
            random_clifford_t_circuit(6, 200, random.Random(0xD1B), t_weight=0.5)))
        assert mixed.stats.merges > 0 and conjugations

    def test_phase_polynomial_fold_leaves_the_frame_alone(self, monkeypatch):
        # Diagonal merge axes move only X rows, which no diagonal axis reads:
        # the merges' S-rotations wait, and run once each when the tail is.
        rng = random.Random(0x5207)
        applied = count_tableau_calls(monkeypatch, "_apply_s_rotation")
        for n in [2, 5, 9, 16, 32]:
            result = optimize(to_rotation_form(phase_polynomial(n, 30 * n, rng)))
            assert result.stats.merges > 0
            assert applied == []
            result.form.tail_clifford
            assert len(applied) == result.stats.merges
            applied.clear()

    def test_each_merge_reaches_the_frame_at_most_once(self, monkeypatch):
        rng = random.Random(0x96A7)
        applied = count_tableau_calls(monkeypatch, "_apply_s_rotation")
        merges = early = 0
        for n in [rng.randint(1, 8) for _ in range(40)] + [31, 63, 64, 65]:
            c = random_clifford_t_circuit(n, rng.randint(0, 80) if n <= 8 else 6 * n, rng,
                                          t_weight=0.5)
            result = optimize(to_rotation_form(c))
            assert len(applied) <= result.stats.merges
            early += len(applied)
            result.form.tail_clifford
            assert len(applied) == result.stats.merges
            merges += result.stats.merges
            applied.clear()
        # a later axis on moved rows makes the fold apply earlier merges itself
        assert 0 < early < merges

    def test_s_rotations_visit_only_moved_frame_rows(self, monkeypatch):
        # A frame row that no merge has moved is still the identity's X_r or
        # Z_q, which commutes with every queued axis: no S-rotation visits it.
        real_s_rotation, real_conjugate = (
            CliffordTableau._apply_s_rotation, CliffordTableau._conjugate)
        batches = [[]]  # per frame read, the queued S-rotations: (axis rows, visited rows)

        def s_rotation(self, ax, az, ak, rows=None):
            visited = range(2 * self.n) if rows is None else list(rows)
            batches[-1].append((az | ax << self.n, visited))
            return real_s_rotation(self, ax, az, ak, rows)

        def conjugate(self, *args):
            # the fold conjugates an axis, or composes the tail, after each catch-up
            if batches[-1]:
                batches.append([])
            return real_conjugate(self, *args)

        monkeypatch.setattr(CliffordTableau, "_apply_s_rotation", s_rotation)
        monkeypatch.setattr(CliffordTableau, "_conjugate", conjugate)
        rng = random.Random(0x21F0)
        sizes = [(100, 400)] + [(n, 6 * n) for n in (31, 63, 64, 65)]
        sizes += [(rng.randint(1, 8), rng.randint(0, 80)) for _ in range(40)]
        for n, size in sizes:
            batches[:] = [[]]
            c = random_clifford_t_circuit(n, size, rng, t_weight=0.5)
            result = optimize(to_rotation_form(c))
            result.form.tail_clifford
            calls = [call for batch in batches for call in batch]
            assert len(calls) == result.stats.merges
            merged = 0  # the rows of every merge axis up to this frame read
            for batch in batches:
                for rows, _ in batch:
                    merged |= rows
                for _, visited in batch:
                    assert all(merged >> r & 1 for r in visited)
            if n == 100:
                assert result.stats.merges > 10
                assert sum(len(visited) for _, visited in calls) < 2 * n * len(calls) / 4

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
            assert equivalent_up_to_phase(form_unitary(form), unitary_of(c))

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
                    if not same_axis(axes[i], axes[j]):
                        continue
                    between = axes[i + 1 : j]
                    assert any(not q.commutes(axes[j]) for q in between)


class TestRowForm:
    """Extraction and the fold work on the form's int rows; the ``rotations``
    view is built only when read."""

    def test_inplace_cli_builds_no_pauli_or_rotation(self, monkeypatch, tmp_path):
        built = []
        for cls in (PauliProduct, Rotation):
            real = cls.__post_init__

            def counted(self, real=real, name=cls.__name__):
                built.append(name)
                real(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        assert main(["optimize", str(MOD5_4), "-o", str(tmp_path / "out.qc")]) == 0
        monkeypatch.undo()
        assert built == []

    def test_views_build_on_the_soundness_sweep(self):
        # The acceptance suite's 500 circuits (same seed and draws): every
        # extracted and folded form's view runs the objects' own checks,
        # masks inside the register and no identity axis, and agrees with
        # the rows.
        rng = random.Random(20250809)
        for _ in range(500):
            n = rng.randint(1, 6)
            circuit = random_clifford_t_circuit(n, rng.randint(0, 60), rng)
            extracted = to_rotation_form(circuit)
            for form in (extracted, optimize(extracted).form):
                rows = list(zip(form._x, form._z, form._k, form._origins))
                view = form.rotations
                assert form.rotations is view
                assert [(r.pauli.x, r.pauli.z, _exponent(r.pauli), r.origin) for r in view] == rows
                assert all(r.pauli.n == n for r in view)


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

    def test_comparison_bound_when_masks_overlap(self):
        # X0X1·Z_S and Z0Z1·Z_T (S, T on qubits 2 and up) pairwise commute,
        # but every axis shares bits with the X and Z masks already seen:
        # each insertion scans the whole processed list.
        n = 8
        for k in (64, 128):
            labels = []
            for value in range(k // 2):
                rest = "".join("Z" if (value >> b) & 1 else "I" for b in range(n - 2))
                labels += ["+XX" + rest, "+ZZ" + rest]
            form, _, stats = optimize(synthetic_form(labels, n=n))
            assert len(form.rotations) == k
            assert stats.comparisons == k * (k - 1) // 2

    def test_walk_time_envelope_when_masks_overlap(self):
        # The overlapping-mask input above, which walks the whole list on
        # every insertion, timed with the acceptance envelope's estimator:
        # sizes interleaved per round, the median of the per-round ratios,
        # the garbage collector off.
        n = 11  # 512 distinct Z_S tails for k = 1024
        sizes = (256, 512, 1024)
        forms = {}
        for k in sizes:
            labels = []
            for value in range(k // 2):
                rest = "".join("Z" if (value >> b) & 1 else "I" for b in range(n - 2))
                labels += ["+XX" + rest, "+ZZ" + rest]
            forms[k] = synthetic_form(labels, n=n)
        wall = {k: [] for k in sizes}
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(9):
                for k in sizes:
                    started = time.perf_counter()
                    result = optimize(forms[k])
                    wall[k].append(time.perf_counter() - started)
                    assert result.stats.comparisons == k * (k - 1) // 2
        finally:
            if gc_was_enabled:
                gc.enable()
        for k in (512, 1024):
            ratio = statistics.median(b / a for a, b in zip(wall[k // 2], wall[k]))
            assert ratio <= 5.0, (k, ratio)

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
