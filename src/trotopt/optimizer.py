"""T-count reduction by folding quarter-rotation pairs.

Rotations are inserted one at a time into a processed list held in an
analysis frame.  For each incoming rotation the list is scanned from the
most recent entry backwards, stopping at the first anticommuting axis, at
the first axis equal up to sign, or at exhaustion.  An opposite-sign match
cancels both rotations outright; a same-sign match removes both and folds
the leftover square of the rotation (an S-like Clifford) into the frame.
Every hit lowers the T-count by exactly 2.

Total scan work is at most one commutation/equality check per ordered
rotation pair, each O(n) bit operations: O(n k^2) overall.  The fold
reads the input form's int rows (X masks, Z masks, i exponents and
origins) and keeps the processed list as four plain lists of the same
kind, which become the surviving form's rows as they are: no ``Rotation``
or ``PauliProduct`` is built on either side.  The scan checks a pair
inline, an equality test and the parity of one popcount, with no method
call per pair.

The scan is skipped when it could only run to exhaustion: when the
incoming axis has no X bit among the Z bits of any axis processed so far,
no Z bit among their X bits, and no equal axis in the list (a count per
listed axis).  Then nothing listed anticommutes with it or equals it, so
it is appended at once; on phase polynomials, where every axis is
diagonal, that is every axis with no equal partner listed.
``comparisons`` still counts the entries the paper's scan reads, whether
or not the scan ran, so it equals the count of a plain backward scan.

The frame is one tableau that the fold owns and updates in place, and
only when it is read.  A merge queues its S-rotation and adds the rows
that rotation rewrites to the mask of moved rows: every row not yet moved
is still the identity's, so these are X_r for each Z bit r of the axis
and Z_q for each X bit q.  The rows that newly move are also appended to
a list, once each, in the order they first move.  The queued merges run
in order, just before an incoming axis is conjugated and when the output
tail is built; each tests only the listed rows, since a row not yet moved
commutes with every queued axis, and rewrites the integer rows (X mask,
Z mask and i exponent per generator image) among them that anticommute
with its axis.  An incoming axis with no bits on moved rows is already
in the frame and is not conjugated; any other axis is conjugated on
ints.  So when every merge axis is diagonal, no Z row moves, no diagonal
axis is ever conjugated, and the frame is not touched at all unless the
tail is read.  The output tail, the input tail after the inverse frame,
is built only when read, as one ``invert()`` of the frame composed with
the input's inverse tail; on the paths that read it (resynthesis and the
ancilla layering of ``tdepth``) the queued merges run then, after the
fold has returned.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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

    The returned plan applies against ``form.source`` and is None when any
    rotation lacks an origin.  The surviving form holds the survivors as
    rows; its ``rotations`` view is built only when read.  Its tail is
    ``form``'s tail after the inverse of the accumulated frame Clifford,
    held one way, as its inverse: a function that composes the frame with
    ``form``'s inverse tail, one ``compose`` (none if no merge moved the
    frame), run when first read.  The tail is one ``invert()`` of that.
    """
    stats = OptimizeStats(t_before=len(form._x))

    n = form.n
    frame = CliffordTableau.identity(n)  # maps raw axes into the analysis frame
    moved = 0  # bit r set once frame row r (X_r, or Z_{r-n}) has been rewritten
    moved_rows: list[int] = []  # the set bits of moved, in the order rows first moved
    # the processed axes as int rows (X mask, Z mask, i exponent) and origins
    xs: list[int] = []
    zs: list[int] = []
    ks: list[int] = []
    origins: list[int | None] = []
    # the OR of every processed X mask and Z mask (they only grow, so they
    # cover every axis still listed) and the count of each listed axis
    xseen = zseen = 0
    live: dict[int, int] = {}

    # merges' S-rotations (X mask, Z mask, i exponent) not yet applied to the frame
    pending: list[tuple[int, int, int]] = []

    def catch_up() -> None:
        for s_x, s_z, s_k in pending:
            frame._apply_s_rotation(s_x, s_z, s_k, moved_rows)
        pending.clear()

    deletions: set[int] = set()
    replacements: set[int] = set()
    plan_complete = True

    for ax, az, k, origin in zip(form._x, form._z, form._k, form._origins):
        key = ax | az << n
        if key & moved:
            if pending:
                catch_up()
            ax, az, k = frame._conjugate(ax, az, k)
            key = ax | az << n

        # With no shared bit to anticommute on and no equal axis listed,
        # the scan would read every entry and stop at none: skip it.
        i = match = -1
        if ax & zseen or az & xseen or key in live:
            for i in range(len(xs) - 1, -1, -1):
                px, pz = xs[i], zs[i]
                if px == ax and pz == az:
                    match = i
                    break
                if ((px & az) ^ (pz & ax)).bit_count() & 1:  # anticommutes
                    break
            else:
                i = -1
        stats.comparisons += len(xs) - max(i, 0)  # entries the scan reads

        if match < 0:
            xs.append(ax)
            zs.append(az)
            ks.append(k)
            origins.append(origin)
            xseen |= ax
            zseen |= az
            live[key] = live.get(key, 0) + 1
            continue

        live[key] -= 1
        if not live[key]:
            del live[key]
        del xs[match], zs[match]
        partner_k, partner_origin = ks.pop(match), origins.pop(match)
        if partner_origin is None or origin is None:
            plan_complete = False
        if partner_k == k:
            stats.merges += 1
            # The pair leaves the square of the rotation behind; its inverse
            # goes into the frame, so later raw axes map correctly, once the
            # frame is read.  The rows it will rewrite are still identity
            # generators unless already moved: X_r anticommutes with the
            # axis iff bit r of az is set, Z_q iff bit q of ax is.  The
            # earlier physical gate is squared in place (T**2 == S).
            pending.append((ax, az, k ^ 2))  # -axis
            new = (az | ax << n) & ~moved
            moved |= new
            while new:
                moved_rows.append((new & -new).bit_length() - 1)
                new &= new - 1
            if plan_complete:
                replacements.add(partner_origin)
                deletions.add(origin)
        else:
            stats.cancellations += 1
            if plan_complete:
                deletions.add(partner_origin)
                deletions.add(origin)

    def inverse_tail() -> CliffordTableau:
        # (tail ∘ frame⁻¹)⁻¹ = frame ∘ tail⁻¹; an unmoved frame is the identity
        if not moved:
            return form._inverse_tail
        catch_up()
        return frame.compose(form._inverse_tail)

    out_form = RotationForm._from_rows(n, xs, zs, ks, origins, inverse_tail, form.source)
    plan = EditPlan(frozenset(deletions), frozenset(replacements)) if plan_complete else None
    stats.t_after = len(xs)
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
