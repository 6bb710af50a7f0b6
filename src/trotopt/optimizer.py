"""T-count reduction by folding quarter-rotation pairs.

Rotations are inserted one at a time into a processed list held in an
analysis frame.  For each incoming rotation the list is scanned from the
most recent entry backwards, stopping at the first anticommuting axis, at
the first axis equal up to sign, or at exhaustion.  An opposite-sign match
cancels both rotations outright; a same-sign match removes both and folds
the leftover square of the rotation (an S-like Clifford) into the frame.
Every hit lowers the T-count by exactly 2.

Total scan work is at most one commutation/equality check per ordered
rotation pair, each O(n) bit operations: O(n k^2) overall.  A merge rewrites
only the frame rows that anticommute with its axis (O(n) rows); the output
tail, the input tail after the inverse frame, is built only when read.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

from .circuit import Circuit
from .pauli import PauliProduct
from .rotations import EditPlan, Rotation, RotationForm
from .tableau import CliffordTableau


@dataclass
class OptimizeStats:
    """Flat counters describing one optimization pass."""

    t_before: int = 0
    t_after: int = 0
    cancellations: int = 0
    merges: int = 0
    comparisons: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class OptimizeResult(NamedTuple):
    form: RotationForm
    plan: EditPlan | None
    stats: OptimizeStats


def optimize(form: RotationForm) -> OptimizeResult:
    """Run one folding pass; returns the surviving form, edits, and stats.

    The returned plan applies against ``form.source`` and is None when any
    rotation lacks an origin.  The surviving form's tail is ``form``'s tail
    after the inverse of the accumulated frame Clifford; it is built, with
    one ``invert()`` of the frame, only when first read.
    """
    stats = OptimizeStats(t_before=len(form.rotations))

    frame = CliffordTableau.identity(form.n)  # maps raw axes into the analysis frame
    processed: list[tuple[PauliProduct, int | None]] = []

    deletions: set[int] = set()
    replacements: set[int] = set()
    plan_complete = True

    for rotation in form.rotations:
        axis = frame.conjugate(rotation.pauli) if stats.merges else rotation.pauli
        origin = rotation.origin

        match = -1
        i = len(processed) - 1
        while i >= 0:
            other = processed[i][0]
            stats.comparisons += 1
            if other.equal_up_to_sign(axis):
                match = i
                break
            if not other.commutes(axis):
                break
            i -= 1

        if match < 0:
            processed.append((axis, origin))
            continue

        partner, partner_origin = processed.pop(match)
        if partner_origin is None or origin is None:
            plan_complete = False
        if partner.sign == axis.sign:
            stats.merges += 1
            # The pair leaves the square of the rotation behind; absorb its
            # inverse into the frame so later raw axes map correctly, and
            # square the earlier physical gate in place (T**2 == S).
            frame = frame.apply_s_rotation(-axis)
            if plan_complete:
                replacements.add(partner_origin)
                deletions.add(origin)
        else:
            stats.cancellations += 1
            if plan_complete:
                deletions.add(partner_origin)
                deletions.add(origin)

    def tail() -> CliffordTableau:
        return form.tail_clifford.compose(frame.invert()) if stats.merges else form.tail_clifford

    surviving = tuple(Rotation(axis, origin=orig) for axis, orig in processed)
    out_form = RotationForm(form.n, surviving, tail, source=form.source)

    plan = EditPlan(frozenset(deletions), frozenset(replacements)) if plan_complete else None
    stats.t_after = len(surviving)
    return OptimizeResult(out_form, plan, stats)


@dataclass(frozen=True)
class ReductionReport:
    t_before: int
    t_after: int
    percent: float

    def as_dict(self) -> dict:
        return {
            "t_before": self.t_before,
            "t_after": self.t_after,
            "reduction_percent": round(self.percent, 2),
        }


def t_count_reduction(before: Circuit, after: Circuit) -> ReductionReport:
    """Compare T-counts; percent is 0 when the input had no T gates."""
    t_before = before.counts().t_count
    t_after = after.counts().t_count
    percent = 0.0 if t_before == 0 else 100.0 * (t_before - t_after) / t_before
    return ReductionReport(t_before, t_after, percent)
