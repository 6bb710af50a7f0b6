"""Clifford-group elements as stabilizer tableaux.

A tableau stores the images of the X_i and Z_i generators under
conjugation, each as a full signed :class:`~trotopt.pauli.PauliProduct`.
Signs are load-bearing: they distinguish a +P rotation axis from a -P one
downstream.  Gate application, composition, inversion, diagonalization of
commuting sets, and synthesis back to gates all live here.

The row algebra itself (conjugating a Pauli by the rows, the S-rotation
row update, precomposing a gate's inverse) runs on :class:`_Rows`, the
same 2n generator images as mutable lists of X masks, Z masks and i
exponents, in the row layout of Aaronson and Gottesman (quant-ph/0406196).
Extraction and folding update one such array in place and freeze it into
a :class:`CliffordTableau` only when a tail is read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import ARITY, CLIFFORD_KINDS, Circuit, Gate, UnsupportedGateError
from .pauli import PauliProduct


class InvariantError(RuntimeError):
    """An internal consistency check failed (indicates a tableau bug)."""


class NonCommutingError(ValueError):
    """An operation required pairwise-commuting Paulis and got a bad pair."""


class DependentSetError(ValueError):
    """Some nonempty subset of the given Paulis multiplies to +-identity."""


# ----------------------------------------------------------------------
# single-gate conjugation rules on one Pauli


def conjugate_by_gate(gate: Gate, p: PauliProduct) -> PauliProduct:
    """Return gate * p * gate^dagger for a single Clifford generator."""
    x, z, sign = p.x, p.z, p.sign
    kind = gate.kind
    if kind == "H":
        (q,) = gate.qubits
        b = 1 << q
        xq, zq = x & b, z & b
        if xq and zq:
            sign = -sign
        x = (x & ~b) | (b if zq else 0)
        z = (z & ~b) | (b if xq else 0)
    elif kind == "S":
        (q,) = gate.qubits
        b = 1 << q
        if x & b:
            if z & b:
                sign = -sign  # Y -> -X
            z ^= b
    elif kind == "Sdg":
        (q,) = gate.qubits
        b = 1 << q
        if x & b:
            if not z & b:
                sign = -sign  # X -> -Y
            z ^= b
    elif kind == "X":
        (q,) = gate.qubits
        if z & (1 << q):
            sign = -sign
    elif kind == "Z":
        (q,) = gate.qubits
        if x & (1 << q):
            sign = -sign
    elif kind == "Y":
        (q,) = gate.qubits
        b = 1 << q
        if bool(x & b) != bool(z & b):
            sign = -sign
    elif kind == "CNOT":
        c, t = gate.qubits
        bc, bt = 1 << c, 1 << t
        if x & bc and z & bt and bool(x & bt) == bool(z & bc):
            sign = -sign
        if x & bc:
            x ^= bt
        if z & bt:
            z ^= bc
    elif kind == "CZ":
        c, t = gate.qubits
        bc, bt = 1 << c, 1 << t
        if x & bc and x & bt and bool(z & bc) != bool(z & bt):
            sign = -sign
        if x & bc:
            z ^= bt
        if x & bt:
            z ^= bc
    elif kind == "SWAP":
        a, b_ = gate.qubits
        ba, bb = 1 << a, 1 << b_
        xa, xb = bool(x & ba), bool(x & bb)
        za, zb = bool(z & ba), bool(z & bb)
        x = (x & ~(ba | bb)) | (ba if xb else 0) | (bb if xa else 0)
        z = (z & ~(ba | bb)) | (ba if zb else 0) | (bb if za else 0)
    else:
        raise UnsupportedGateError(f"{kind} is not a Clifford tableau update")
    return PauliProduct(p.n, x, z, sign)


_SELF_INVERSE = frozenset({"H", "X", "Y", "Z", "CNOT", "CZ", "SWAP"})
_INVERSE_KIND = {"S": "Sdg", "Sdg": "S"}


def inverse_gate(gate: Gate) -> Gate:
    """The inverse Clifford gate; a self-inverse gate is returned as it is."""
    if gate.kind in _SELF_INVERSE:
        return gate
    try:
        return Gate(_INVERSE_KIND[gate.kind], gate.qubits)
    except KeyError:
        raise UnsupportedGateError(f"{gate.kind} has no Clifford inverse") from None


def _conjugate_rows(rows: list[PauliProduct], gate: Gate) -> None:
    """Conjugate ``rows`` by ``gate`` in place; a gate fixes every row off its qubits."""
    mask = sum(1 << q for q in gate.qubits)
    for i, row in enumerate(rows):
        if (row.x | row.z) & mask:
            rows[i] = conjugate_by_gate(gate, row)


def _transpose_bits(masks: list[int], width: int) -> list[int]:
    """Transpose a width x width bit matrix: bit j of out[i] is bit i of masks[j]."""
    nbytes = (width + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), np.uint8)
    bits = np.unpackbits(raw.reshape(width, nbytes), axis=1, bitorder="little")[:, :width]
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _preimages(kind: str) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """How precomposing the inverse of a ``kind`` gate rewrites its qubits' rows.

    On a gate of arity a, local generator j < a is X on the gate's qubit j
    and a + j is Z on it.  An entry (j, factors, k) says: new row j is i^k
    times the product of the old rows ``factors``, in ascending order.  The
    entries are read off :func:`conjugate_by_gate` for the inverse gate on an
    a-qubit register; rows the gate leaves as they are have no entry.
    """
    a = ARITY[kind]
    inverse = inverse_gate(Gate(kind, tuple(range(a))))
    pattern = []
    for j in range(2 * a):
        p = conjugate_by_gate(inverse, PauliProduct.single(a, j % a, "XZ"[j // a]))
        bits = p.x | p.z << a
        factors = tuple(f for f in range(2 * a) if bits >> f & 1)
        k = ((p.x & p.z).bit_count() + (0 if p.sign > 0 else 2)) % 4
        if factors != (j,) or k:
            pattern.append((j, factors, k))
    return tuple(pattern)


_PREIMAGES = {kind: _preimages(kind) for kind in CLIFFORD_KINDS}


class _Rows:
    """A Clifford's 2n generator images as mutable int rows.

    Row r < n is the image of X_r and row n + q the image of Z_q:
    ``i**k[r] * P(x[r], z[r])``, with P(x, z) the Hermitian Pauli of
    :mod:`~trotopt.pauli`, so every k is 0 or 2.  Every row product checks
    that the phase stays Hermitian and raises :class:`InvariantError` if not.
    """

    __slots__ = ("n", "x", "z", "k")

    def __init__(self, n: int, x: list[int], z: list[int], k: list[int]) -> None:
        self.n, self.x, self.z, self.k = n, x, z, k

    @classmethod
    def identity(cls, n: int) -> _Rows:
        ones = [1 << q for q in range(n)]
        return cls(n, ones + [0] * n, [0] * n + ones, [0] * (2 * n))

    @classmethod
    def of(cls, t: CliffordTableau) -> _Rows:
        rows = t.x_images + t.z_images
        return cls(
            t.n,
            [r.x for r in rows],
            [r.z for r in rows],
            [0 if r.sign > 0 else 2 for r in rows],
        )

    def row(self, r: int) -> PauliProduct:
        return PauliProduct(self.n, self.x[r], self.z[r], 1 if self.k[r] == 0 else -1)

    def tableau(self) -> CliffordTableau:
        rows = [self.row(r) for r in range(2 * self.n)]
        return CliffordTableau(self.n, rows[: self.n], rows[self.n :])

    def product(self, selected: int, k: int) -> tuple[int, int, int]:
        """i^k times the product of the rows whose bits are set in ``selected``,
        taken in ascending order, as (x, z, k') with every i phase folded in.

        With P(x, z) = i^|x&z| X^x Z^z, a product of rows r_1 .. r_m is
        i^e P(x', z') where e sums each row's k and |x&z|, subtracts
        |x'&z'|, and adds 2 per (Z of an earlier row, X of a later row)
        overlap, from moving every X^x left past the Z^z before it.  An
        odd e means a Hermitian input came out anti-Hermitian.
        """
        xs, zs, ks = self.x, self.z, self.k
        ox = oz = swaps = 0
        while selected:
            r = (selected & -selected).bit_length() - 1
            selected &= selected - 1
            xr, zr = xs[r], zs[r]
            k += ks[r] + (xr & zr).bit_count()
            swaps += (oz & xr).bit_count()
            ox ^= xr
            oz ^= zr
        k += 2 * swaps - (ox & oz).bit_count()
        if k & 1:
            raise InvariantError("conjugation produced an anti-Hermitian phase")
        return ox, oz, k & 3

    def conjugate(self, x: int, z: int, k: int) -> tuple[int, int, int]:
        """C (i^k P(x, z)) C^dagger as (x', z', k'): the X rows selected by
        x, then the Z rows selected by z."""
        return self.product(x | z << self.n, k + (x & z).bit_count())

    def image(self, p: PauliProduct) -> PauliProduct:
        """C p C^dagger with exact sign."""
        x, z, k = self.conjugate(p.x, p.z, 0 if p.sign > 0 else 2)
        return PauliProduct(self.n, x, z, 1 if k == 0 else -1)

    def apply_s_rotation(self, ax: int, az: int, ak: int) -> int:
        """Apply the square of the quarter-rotation about i^ak P(ax, az) after C.

        That Clifford, (1+i)/2 (1 - i*axis), fixes every Pauli that commutes
        with the axis and maps an anticommuting P to i*P*axis, so only the
        anticommuting rows change.  Returns the mask of the rows it rewrote.
        """
        xs, zs, ks = self.x, self.z, self.k
        base = ak + 1 + (ax & az).bit_count()  # the axis, and the extra factor of i
        moved = 0
        for r in range(2 * self.n):
            x, z = xs[r], zs[r]
            if ((x & az) ^ (z & ax)).bit_count() & 1:
                # row * axis, phase as in product()
                nx, nz = x ^ ax, z ^ az
                k = ks[r] + base + (x & z).bit_count() + 2 * (z & ax).bit_count()
                k -= (nx & nz).bit_count()
                if k & 1:
                    raise InvariantError("anti-Hermitian image in s_rotation")
                xs[r], zs[r], ks[r] = nx, nz, k & 3
                moved |= 1 << r
        return moved

    def precompose_inverse(self, gate: Gate) -> None:
        """Make C into C composed with gate^-1 applied first.

        Only the X and Z rows of the gate's qubits change (at most four),
        each to a product of at most two old rows (see :func:`_preimages`).
        """
        pattern = _PREIMAGES.get(gate.kind)
        if pattern is None:
            raise UnsupportedGateError(f"{gate.kind} is not a Clifford tableau update")
        at = gate.qubits + tuple([self.n + q for q in gate.qubits])
        new = []
        for j, factors, k in pattern:
            selected = 0
            for f in factors:
                selected |= 1 << at[f]
            new.append((at[j], *self.product(selected, k)))
        xs, zs, ks = self.x, self.z, self.k
        for r, x, z, k in new:
            xs[r], zs[r], ks[r] = x, z, k


# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CliffordTableau:
    """Images of the X_i / Z_i generators under a Clifford unitary."""

    n: int
    x_images: tuple[PauliProduct, ...]
    z_images: tuple[PauliProduct, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_images", tuple(self.x_images))
        object.__setattr__(self, "z_images", tuple(self.z_images))
        if len(self.x_images) != self.n or len(self.z_images) != self.n:
            raise ValueError("tableau must hold exactly n X rows and n Z rows")
        for row in self.x_images + self.z_images:
            if row.n != self.n:
                raise ValueError("tableau row width mismatch")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def identity(cls, n: int) -> CliffordTableau:
        xs = tuple(PauliProduct.single(n, q, "X") for q in range(n))
        zs = tuple(PauliProduct.single(n, q, "Z") for q in range(n))
        return cls(n, xs, zs)

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> CliffordTableau:
        """The gates' tableau: the 2n generator rows pushed through every gate."""
        identity = cls.identity(circuit.n)
        rows = list(identity.x_images + identity.z_images)
        for g in circuit.gates:
            _conjugate_rows(rows, g)
        return cls(circuit.n, rows[: circuit.n], rows[circuit.n :])

    @classmethod
    def s_rotation(cls, axis: PauliProduct) -> CliffordTableau:
        """Tableau of the square of the quarter-rotation about ``axis``."""
        return cls.identity(axis.n).apply_s_rotation(axis)

    # ------------------------------------------------------------------
    # core operations

    def apply_gate(self, gate: Gate) -> CliffordTableau:
        """Tableau of (gate applied after self); rows off the gate are reused."""
        rows = list(self.x_images + self.z_images)
        _conjugate_rows(rows, gate)
        return CliffordTableau(self.n, rows[: self.n], rows[self.n :])

    def apply_s_rotation(self, axis: PauliProduct) -> CliffordTableau:
        """Tableau of (the square of the quarter-rotation about ``axis``) after self.

        Only the rows that anticommute with the axis change: O(n) row work.
        """
        if axis.is_identity:
            raise ValueError("rotation axis must not be the identity")
        if axis.n != self.n:
            raise ValueError(f"qubit count mismatch: {axis.n} vs {self.n}")
        rows = _Rows.of(self)
        rows.apply_s_rotation(axis.x, axis.z, 0 if axis.sign > 0 else 2)
        return rows.tableau()

    def conjugate(self, p: PauliProduct) -> PauliProduct:
        """Return C p C^dagger with exact sign.

        Assembles the image by multiplying the rows selected by p's bits and
        folding all i phases; a Hermitian input must come out Hermitian, so
        an odd total i exponent raises :class:`InvariantError`.
        """
        if p.n != self.n:
            raise ValueError(f"qubit count mismatch: {p.n} vs {self.n}")
        return _Rows.of(self).image(p)

    def compose(self, other: CliffordTableau) -> CliffordTableau:
        """Tableau of (self after other): ``other`` acts first."""
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} vs {other.n}")
        image = _Rows.of(self).image
        return CliffordTableau(
            self.n, tuple(map(image, other.x_images)), tuple(map(image, other.z_images))
        )

    def invert(self) -> CliffordTableau:
        """The inverse Clifford: conjugating by it undoes self exactly.

        The symplectic bit matrix M (rows x|z) inverts as L M^T L, L the
        off-diagonal form: inverse row X_i (Z_i) is column n+i (i) of M with
        its halves swapped.  Each sign comes from a forward round trip.
        """
        n = self.n
        rows = _Rows.of(self)
        cols = _transpose_bits([r.x | r.z << n for r in self.x_images + self.z_images], 2 * n)
        low = (1 << n) - 1
        xs, zs = [], []
        for i in range(n):
            for col, basis_letter, out in ((cols[n + i], "X", xs), (cols[i], "Z", zs)):
                candidate = PauliProduct(n, col >> n, col & low, 1)
                forward = rows.image(candidate)
                expected = PauliProduct.single(n, i, basis_letter)
                if not forward.equal_up_to_sign(expected):
                    raise InvariantError("symplectic inverse does not round-trip")
                out.append(candidate if forward.sign > 0 else -candidate)
        return CliffordTableau(n, tuple(xs), tuple(zs))

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check symplectic validity; raises InvariantError on failure."""
        for i in range(self.n):
            if self.x_images[i].commutes(self.z_images[i]):
                raise InvariantError(f"X_{i} and Z_{i} images must anticommute")
            for j in range(i + 1, self.n):
                ok = (
                    self.x_images[i].commutes(self.x_images[j])
                    and self.z_images[i].commutes(self.z_images[j])
                    and self.x_images[i].commutes(self.z_images[j])
                    and self.z_images[i].commutes(self.x_images[j])
                )
                if not ok:
                    raise InvariantError(f"rows for qubits {i},{j} break symplectic form")

    def __str__(self) -> str:
        lines = [f"CliffordTableau(n={self.n})"]
        for i in range(self.n):
            lines.append(f"  X{i} -> {self.x_images[i]}   Z{i} -> {self.z_images[i]}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# diagonalization and synthesis


def _dependent_indices(paulis: list[PauliProduct]) -> list[int]:
    """Indices of the Paulis whose bits are a product of earlier ones' bits.

    Signs are ignored; the count is ``len(paulis)`` minus the GF(2) rank.
    """
    pivots: dict[int, int] = {}
    dependent: list[int] = []
    for j, p in enumerate(paulis):
        v = p.x | (p.z << p.n)
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
        else:
            dependent.append(j)
    return dependent


def check_independent(paulis: list[PauliProduct]) -> bool:
    """True iff no nonempty subset has bit product equal to the identity."""
    return not _dependent_indices(paulis)


def _diagonalize_with_gates(
    paulis: list[PauliProduct], carry: list[PauliProduct] | None = None
) -> list[Gate]:
    """Gates, in application order, of a Clifford C with C P_j C^dagger == +Z_j.

    Symplectic Gaussian elimination over ``work``, a copy of the inputs that
    every emitted gate conjugates in place.  A gate skips only the Paulis
    with no support on its qubits, and it fixes those exactly, so ``work[j]``
    is always input j conjugated by every gate emitted so far.  The
    post-check "``work[j]`` is exactly +Z_j for every j" is therefore the
    condition C P_j C^dagger == +Z_j on the gates' tableau, at O(1) per Pauli
    and with no tableau built.

    Each row of ``carry`` rides along as an extra entry that is never a
    pivot: it is replaced in place by its image under C.
    """
    if not paulis:
        raise ValueError("need at least one Pauli to diagonalize")
    n = paulis[0].n
    for j, p in enumerate(paulis):
        if p.n != n:
            raise ValueError("mixed qubit counts in Pauli set")
        if p.is_identity:
            raise ValueError(f"Pauli {j} is the identity")
    xmasks = [p.x for p in paulis]
    zmasks = [p.z for p in paulis]
    for i, (xi, zi) in enumerate(zip(xmasks, zmasks)):
        for j in range(i + 1, len(paulis)):
            if ((xi & zmasks[j]) ^ (zi & xmasks[j])).bit_count() & 1:  # anticommute
                raise NonCommutingError(
                    f"Paulis {i} ({paulis[i]}) and {j} ({paulis[j]}) anticommute"
                )
    if not check_independent(paulis):
        raise DependentSetError(
            "a nonempty subset of the Paulis multiplies to the identity"
        )

    work = list(paulis) + (carry or [])
    gates: list[Gate] = []

    def emit(kind: str, *qubits: int) -> None:
        g = Gate(kind, qubits)
        gates.append(g)
        _conjugate_rows(work, g)

    for j in range(len(paulis)):
        p = work[j]
        # Fast path: already exactly +-Z_j.
        zbit = 1 << j
        if p.x == 0 and p.z == zbit:
            if p.sign < 0:
                emit("X", j)
            continue

        hi = ~((1 << j) - 1)  # qubits >= j
        if p.x & hi == 0:
            zs = p.z & hi
            if zs == 0:
                # Supported only on already-fixed qubits: dependent set.
                raise DependentSetError(
                    f"Pauli {j} reduces to a product of already-fixed rows"
                )
            emit("H", (zs & -zs).bit_length() - 1)
            p = work[j]

        # Make every supported site at qubit >= j a pure X.
        for q in range(j, n):
            b = 1 << q
            if p.z & b:
                emit("Sdg" if p.x & b else "H", q)
                p = work[j]

        pivot = (p.x & hi & -(p.x & hi)).bit_length() - 1
        for q in range(pivot + 1, n):
            if p.x & (1 << q):
                emit("CNOT", pivot, q)
        p = work[j]

        # Clear Z components on already-fixed qubits (< j).
        for q in range(j):
            if p.z & (1 << q):
                emit("CZ", q, pivot)
        p = work[j]

        emit("H", pivot)
        if pivot != j:
            emit("SWAP", pivot, j)
        if work[j].sign < 0:
            emit("X", j)

    for j in range(len(paulis)):
        w = work[j]
        if w.x or w.z != 1 << j or w.sign < 0:
            raise InvariantError("diagonalization post-check failed")
    if carry is not None:
        carry[:] = work[len(paulis) :]
    return gates


def diagonalize_commuting_set(paulis: list[PauliProduct]) -> CliffordTableau:
    """A Clifford C with C P_j C^dagger == +Z_j for every input P_j.

    Inputs must pairwise commute and be independent (no nonempty subset with
    bit product identity); built by symplectic Gaussian elimination.
    """
    gates = _diagonalize_with_gates(paulis)
    return CliffordTableau.from_circuit(Circuit.on_qubits(paulis[0].n, gates))


def _adjoint_gates(gates: list[Gate]) -> list[Gate]:
    return [inverse_gate(g) for g in reversed(gates)]


def _lower_gate(g: Gate) -> list[Gate]:
    """Rewrite onto the {H, S, CNOT, X, Z} synthesis target set."""
    if g.kind == "Sdg":
        s = Gate("S", g.qubits)
        return [s, s, s]
    if g.kind == "CZ":
        c, t = g.qubits
        return [Gate("H", (t,)), Gate("CNOT", (c, t)), Gate("H", (t,))]
    if g.kind == "SWAP":
        a, b = g.qubits
        return [Gate("CNOT", (a, b)), Gate("CNOT", (b, a)), Gate("CNOT", (a, b))]
    if g.kind == "Y":
        return [Gate("Z", g.qubits), Gate("X", g.qubits)]
    return [g]


def synthesize_gates(t: CliffordTableau) -> list[Gate]:
    """Gates (application order) whose tableau equals ``t``; no optimality."""
    n = t.n
    # d = diag ∘ t: t's X rows ride through the elimination of its Z rows,
    # which the post-check leaves exactly +Z_i.
    x_rows = list(t.x_images)
    diag_gates = _diagonalize_with_gates(list(t.z_images), carry=x_rows)
    d = CliffordTableau(n, x_rows, tuple(PauliProduct.single(n, i, "Z") for i in range(n)))

    # d fixes every Z_i exactly, so it is a layer of S/CZ gates up to Pauli-Z
    # sign corrections on the X images.
    for i in range(n):
        if d.x_images[i].x != 1 << i:
            raise InvariantError("X rows acquired extra X support")

    phase_gates: list[Gate] = []
    for i in range(n):
        zmask = d.x_images[i].z
        if (zmask >> i) & 1:
            phase_gates.append(Gate("S", (i,)))
        for j in range(i + 1, n):
            if (zmask >> j) & 1:
                if not (d.x_images[j].z >> i) & 1:
                    raise InvariantError("asymmetric phase coupling")
                phase_gates.append(Gate("CZ", (i, j)))

    layer = CliffordTableau.from_circuit(Circuit.on_qubits(n, phase_gates))
    for i in range(n):
        if layer.x_images[i].sign != d.x_images[i].sign:
            phase_gates.append(Gate("Z", (i,)))
            layer = layer.apply_gate(Gate("Z", (i,)))
    if layer != d:
        raise InvariantError("phase-layer reconstruction failed")

    # t == diag^-1 ∘ d, with d realized by phase_gates applied first.
    return phase_gates + _adjoint_gates(diag_gates)


def synthesize(t: CliffordTableau) -> Circuit:
    """A circuit over {H, S, CNOT, X, Z} whose tableau equals ``t``."""
    gates = [low for g in synthesize_gates(t) for low in _lower_gate(g)]
    return Circuit.on_qubits(t.n, gates)
