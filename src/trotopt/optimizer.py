"""T-count reduction by folding quarter-rotation pairs.

Rotations are inserted one at a time into a processed list held in an
analysis frame.  For each incoming rotation the list is scanned from the
most recent entry backwards, stopping at the first anticommuting axis, at
the first axis equal up to sign, or at exhaustion.  An opposite-sign match
cancels both rotations outright; a same-sign match removes both and folds
the leftover square of the rotation (an S-like Clifford) into the frame.
Every hit lowers the T-count by exactly 2: at most one check per ordered
rotation pair, O(n k^2) overall.

An axis with X mask x and Z mask z is held as one int, its key
``x | z << n``, next to its dual ``z | x << n``.  Bit r of either names
frame row r: X_r for r < n, Z_{r-n} above.  The key is the set of rows
that conjugating the axis reads.  The dual is the set of identity rows
that anticommute with it, so a listed axis p anticommutes with it iff
``p & dual`` has odd parity, and a merge's S-rotation moves exactly the
dual's rows that have not moved yet.  When the dual meets no listed
key's bit, no listed axis can anticommute with the incoming one, so the
scan could only stop at the last equal key listed or run to exhaustion:
one C-level search from the end finds that key, and the walk is skipped.
``comparisons`` still counts the entries the scan would read.

The frame is one tableau, updated in place only when read: merges queue
their S-rotations, which run before an axis with a key bit on a moved row
is conjugated and when the output tail is built.  Each tests only the
moved rows; an unmoved row is still an identity generator, which commutes
with every queued axis.  On all-diagonal inputs no Z row moves and the
fold never touches the frame.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from operator import indexOf
from typing import NamedTuple

from .circuit import Circuit, GateCounts
from .rotations import EditPlan, RotationForm
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

    Each processed axis is one int, its key ``x | z << n``, and each
    incoming axis is also read as its dual ``z | x << n``; bit r of either
    is frame row r (X_r, or Z_{r-n} for r >= n).  The key's rows are those
    conjugating the axis reads, the dual's those a merge on it moves.  The
    survivors are split back into X and Z rows once, at return.  The plan
    applies against ``form.source`` and is None when some folded pair
    lacks an origin.  The surviving form's tail is ``form``'s tail after
    the inverse of the frame, held as a function that builds its inverse
    (one ``compose``, none if no merge moved the frame) when first read.
    Its skeleton is ``form``'s with this plan's replacements added, and
    there is none when ``form`` has none or the plan is None.
    """
    stats = OptimizeStats(t_before=len(form._x))

    n = form.n
    frame = CliffordTableau.identity(n)  # maps raw axes into the analysis frame
    moved = 0  # the frame rows rewritten so far, bits as in a key
    moved_rows: list[int] = []  # the set bits of moved, in the order rows first move
    keys: list[int] = []  # the processed axes, with their i exponents and origins
    ks: list[int] = []
    origins: list[int | None] = []
    seen = 0  # the OR of every key listed so far
    live: dict[int, int] = {}  # the count of each listed key

    # merges' S-rotations (X mask, Z mask, i exponent) not yet applied to the frame
    pending: list[tuple[int, int, int]] = []

    def catch_up() -> None:
        for s_x, s_z, s_k in pending:
            frame._apply_s_rotation(s_x, s_z, s_k, moved_rows)
        pending.clear()

    deletions: set[int | None] = set()
    replacements: set[int | None] = set()

    for ax, az, k, origin in zip(form._x, form._z, form._k, form._origins):
        key = ax | az << n
        if key & moved:
            if pending:
                catch_up()
            ax, az, k = frame._conjugate(ax, az, k)
            key = ax | az << n
        dual = az | ax << n

        i, match = 0, -1
        if dual & seen:
            for i in range(len(keys) - 1, -1, -1):
                p = keys[i]
                if p == key:
                    match = i
                    break
                if (p & dual).bit_count() & 1:  # anticommutes
                    break
        elif key in live:  # nothing listed anticommutes: the scan stops at the last equal key
            i = match = len(keys) - 1 - indexOf(reversed(keys), key)
        stats.comparisons += len(keys) - i  # entries the scan reads

        if match < 0:
            keys.append(key)
            ks.append(k)
            origins.append(origin)
            seen |= key
            live[key] = live.get(key, 0) + 1
            continue

        live[key] -= 1
        if not live[key]:
            del live[key]
        del keys[match]
        partner_k, partner_origin = ks.pop(match), origins.pop(match)
        if partner_k == k:
            stats.merges += 1
            # The pair leaves the square of the rotation behind; its inverse
            # goes into the frame once the frame is read, and the earlier
            # physical gate is squared in place (T**2 == S).
            pending.append((ax, az, k ^ 2))  # -axis
            new = dual & ~moved
            moved |= new
            while new:
                moved_rows.append((new & -new).bit_length() - 1)
                new &= new - 1
            replacements.add(partner_origin)
        else:
            stats.cancellations += 1
            deletions.add(partner_origin)
        deletions.add(origin)

    def inverse_tail() -> CliffordTableau:
        # (tail ∘ frame⁻¹)⁻¹ = frame ∘ tail⁻¹; an unmoved frame is the identity
        if not moved:
            return form._inverse_tail
        catch_up()
        return frame.compose(form._inverse_tail)

    low = (1 << n) - 1
    xs = [p & low for p in keys]
    zs = [p >> n for p in keys]
    plan = None if None in deletions | replacements else EditPlan(deletions, replacements)
    # the skeleton squares the gates this fold replaced and those every fold before it did
    replaced = None
    if plan is not None and form._replaced is not None:
        replaced = form._replaced | plan.replacements
    out_form = RotationForm._from_rows(n, xs, zs, ks, origins, inverse_tail, form.source, replaced)
    stats.t_after = len(keys)
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
    return _reduction(before.counts(), after.counts())


def _reduction(before: GateCounts, after: GateCounts) -> ReductionReport:
    """:func:`t_count_reduction` from gate counts already taken."""
    t_before, t_after = before.t_count, after.t_count
    percent = 0.0 if t_before == 0 else 100.0 * (t_before - t_after) / t_before
    return ReductionReport(t_before, t_after, percent)
