"""T-count reduction by folding quarter-rotation pairs.

Rotations are inserted one at a time into a processed list held in an
analysis frame.  For each incoming rotation the list is scanned from the
most recent entry backwards, stopping at the first anticommuting axis, at
the first axis equal up to sign, or at exhaustion.  An opposite-sign match
cancels both rotations outright; a same-sign match removes both and folds
the leftover square of the rotation (an S-like Clifford) into the frame.
Every hit lowers the T-count by exactly 2.

Total scan work is at most one commutation/equality check per ordered
rotation pair, each O(n) bit operations: O(n k^2) overall.  The scan keeps
the processed axes' X and Z masks in two plain int lists and checks a pair
inline, an equality test and the parity of one popcount, with no method
call per pair.

The frame is one mutable array of integer rows (X mask, Z mask and i
exponent per generator image).  A merge rewrites in place only the rows
that anticommute with its axis, and the fold keeps the mask of the rows
merges have rewritten; every other row is still the identity's.  An
incoming axis with no bits on rewritten rows is already in the frame and
is not conjugated; any other axis is conjugated on ints.  So when every
merge axis is diagonal, no Z row moves and no diagonal axis is ever
conjugated.  The output tail, the input tail after the inverse frame, is
built only when read.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

from .circuit import Circuit
from .pauli import PauliProduct
from .rotations import EditPlan, Rotation, RotationForm
from .tableau import CliffordTableau, _Rows


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

    n = form.n
    frame = _Rows.identity(n)  # maps raw axes into the analysis frame
    moved = 0  # bit r set once frame row r (X_r, or Z_{r-n}) has been rewritten
    processed: list[tuple[PauliProduct, int | None]] = []
    # the processed axes' X and Z masks, index for index with ``processed``
    xs: list[int] = []
    zs: list[int] = []

    deletions: set[int] = set()
    replacements: set[int] = set()
    plan_complete = True

    for rotation in form.rotations:
        axis = rotation.pauli
        origin = rotation.origin
        ax, az = axis.x, axis.z
        if (ax | az << n) & moved:
            ax, az, k = frame.conjugate(ax, az, 0 if axis.sign > 0 else 2)
            axis = PauliProduct(n, ax, az, 1 if k == 0 else -1)

        match = -1
        for i in range(len(xs) - 1, -1, -1):
            px, pz = xs[i], zs[i]
            if px == ax and pz == az:
                match = i
                break
            if ((px & az) ^ (pz & ax)).bit_count() & 1:  # anticommutes
                break
        else:
            i = -1
        stats.comparisons += len(xs) - max(i, 0)  # entries scanned

        if match < 0:
            processed.append((axis, origin))
            xs.append(ax)
            zs.append(az)
            continue

        del xs[match], zs[match]
        partner, partner_origin = processed.pop(match)
        if partner_origin is None or origin is None:
            plan_complete = False
        if partner.sign == axis.sign:
            stats.merges += 1
            # The pair leaves the square of the rotation behind; absorb its
            # inverse into the frame so later raw axes map correctly, and
            # square the earlier physical gate in place (T**2 == S).
            moved |= frame.apply_s_rotation(ax, az, 2 if axis.sign > 0 else 0)  # -axis
            if plan_complete:
                replacements.add(partner_origin)
                deletions.add(origin)
        else:
            stats.cancellations += 1
            if plan_complete:
                deletions.add(partner_origin)
                deletions.add(origin)

    def tail() -> CliffordTableau:
        if not stats.merges:
            return form.tail_clifford
        return form.tail_clifford.compose(frame.tableau().invert())

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
