"""Clifford-group elements as stabilizer tableaux.

A :class:`CliffordTableau` stores the images of the X_i and Z_i generators
under conjugation as 2n integer rows, in the row layout of Aaronson and
Gottesman (quant-ph/0406196): row r < n is the image of X_r and row n + q
the image of Z_q, each the operator i^k X^x Z^z as its X mask x, Z mask z
and exponent k.  Signs are load-bearing: they tell a +P rotation axis from
a -P one.  Only the public edges convert a row to or from a signed
:class:`~trotopt.pauli.PauliProduct`: :func:`_rows` is the one way in for
a list of them, with the one width check, beside :func:`_exponent` for one
and :func:`_pauli` for the way out.
Conjugation, composition, inversion, the diagonalization of commuting sets
that layer synthesis runs, and synthesis back to gates all live here.

Each Clifford gate kind is defined once, in :data:`_GATE_IMAGES`, as a
local tableau on two slots (a 1-qubit kind fixes slot 1), off which the
forward rule and the preimage plan are read at import.  The forward rule
is one 16-entry table per kind (:data:`_RULES`), which a gate places on
its qubits in constant time; the preimage plan
(:data:`_PREIMAGES`) lists each changed row as one or two old rows and an
i exponent, so extraction's per-gate update runs no generic product loop.
Every gate that synthesis emits is interned (:func:`~trotopt.circuit._g`),
and its lowering onto {H, S, CNOT, X, Z} and its inverse's are looked up in
one table memoized on (kind, qubits) (:func:`_lowerings`).  The
diagonalizer walks the set bits of a pivot row's masks, so each of its
loops costs one step per gate it emits, not one per qubit.
Public methods return new tableaux.  The underscored in-place updates
(:func:`_conjugate_rows`, ``_apply_s_rotation``, ``_precompose_inverse``)
are for callers that own the rows: extraction's inverse prefix, the fold's
frame, and synthesis's diagonalizer and scratch phase layer.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np

from .circuit import Circuit, Gate, UnsupportedGateError, _g
from .pauli import PauliProduct


class InvariantError(RuntimeError):
    """An internal consistency check failed (indicates a tableau bug)."""


class NonCommutingError(ValueError):
    """An operation required pairwise-commuting Paulis and got a bad pair."""


class DependentSetError(ValueError):
    """Some nonempty subset of the given Paulis multiplies to +-identity."""


# ----------------------------------------------------------------------
# row algebra on int rows: row r is i**ks[r] * X**xs[r] * Z**zs[r], which is
# Hermitian iff ks[r] and |xs[r] & zs[r]| have the same parity


def _exponent(p: PauliProduct) -> int:
    """The row exponent k of ``p``: p == i^k X^x Z^z."""
    return ((p.x & p.z).bit_count() + 1 - p.sign) & 3


def _pauli(n: int, x: int, z: int, k: int) -> PauliProduct:
    """The signed Pauli i^k X^x Z^z, for a Hermitian row."""
    return PauliProduct(n, x, z, 1 - ((k - (x & z).bit_count()) & 3))


def _rows(paulis: Iterable[PauliProduct], n: int) -> tuple[list[int], list[int], list[int]]:
    """The X masks, Z masks and row exponents of signed Paulis on ``n`` qubits."""
    xs, zs, ks = [], [], []
    for p in paulis:
        if p.n != n:
            raise ValueError(f"qubit count mismatch: {n} vs {p.n}")
        xs.append(p.x)
        zs.append(p.z)
        ks.append(_exponent(p))
    return xs, zs, ks


def _product(
    xs: list[int], zs: list[int], ks: list[int], selected: int, k: int
) -> tuple[int, int, int]:
    """i^k times the product of the rows whose bits are set in ``selected``,
    taken in ascending order, as (x, z, k').

    The exponent sums the rows' and adds 2 per (Z of an earlier row, X of
    a later row) overlap, from moving every X^x left past the Z^z before
    it.  A k' of the wrong parity for |x&z| means a Hermitian input came
    out anti-Hermitian.
    """
    ox = oz = 0
    while selected:
        r = (selected & -selected).bit_length() - 1
        selected &= selected - 1
        xr = xs[r]
        k += ks[r] + 2 * (oz & xr).bit_count()
        ox ^= xr
        oz ^= zs[r]
    if (k ^ (ox & oz).bit_count()) & 1:
        raise InvariantError("conjugation produced an anti-Hermitian phase")
    return ox, oz, k & 3


def _conjugate_rows(
    xs: list[int], zs: list[int], ks: list[int], gate: Gate, start: int = 0
) -> None:
    """Conjugate rows ``start`` and up by ``gate`` in place; a gate fixes
    every row off its qubits.  Rows below ``start`` are left as they are:
    the caller knows the gate fixes them.

    The kind's rule (:data:`_RULES`) is placed on the gate's first and last
    qubits p and q, the same qubit for a 1-qubit gate.  A meeting row's
    bits there, x_p x_q z_p z_q from the low bit up, index the rule once,
    which gives the slot bits to flip and the phase to add.
    """
    rule = _RULES.get(gate.kind)
    if rule is None:
        raise UnsupportedGateError(f"{gate.kind} is not a Clifford tableau update")
    p, q = gate.qubits[0], gate.qubits[-1]
    place = (0, 1 << p, 1 << q, 1 << p | 1 << q)  # slot bits -> qubit bits
    mask = place[3]
    for r in range(start, len(xs)):
        x, z = xs[r], zs[r]
        if (x | z) & mask:
            key = x >> p & 1 | (x >> q & 1) << 1 | (z >> p & 1) << 2 | (z >> q & 1) << 3
            dx, dz, dk = rule[key]
            xs[r] = x ^ place[dx]
            zs[r] = z ^ place[dz]
            ks[r] = (ks[r] + dk) & 3


class CliffordTableau:
    """Images of the X_i / Z_i generators under a Clifford unitary.

    Built from ``PauliProduct`` rows; compared, hashed and printed by value.
    """

    __slots__ = ("n", "_x", "_z", "_k")

    def __init__(
        self, n: int, x_images: Iterable[PauliProduct], z_images: Iterable[PauliProduct]
    ) -> None:
        x_images, z_images = tuple(x_images), tuple(z_images)
        if len(x_images) != n or len(z_images) != n:
            raise ValueError("tableau must hold exactly n X rows and n Z rows")
        self.n = n
        self._x, self._z, self._k = _rows(x_images + z_images, n)

    @classmethod
    def _from_rows(cls, n: int, x: list[int], z: list[int], k: list[int]) -> CliffordTableau:
        """A tableau that takes ownership of the row lists, unchecked."""
        t = cls.__new__(cls)
        t.n, t._x, t._z, t._k = n, x, z, k
        return t

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def identity(cls, n: int) -> CliffordTableau:
        ones = [1 << q for q in range(n)]
        return cls._from_rows(n, ones + [0] * n, [0] * n + ones, [0] * (2 * n))

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> CliffordTableau:
        """The gates' tableau: the 2n generator rows pushed through every gate."""
        t = cls.identity(circuit.n)
        for g in circuit.gates:
            _conjugate_rows(t._x, t._z, t._k, g)
        return t

    @classmethod
    def s_rotation(cls, axis: PauliProduct) -> CliffordTableau:
        """Tableau of the square of the quarter-rotation about ``axis``."""
        if axis.is_identity:
            raise ValueError("rotation axis must not be the identity")
        t = cls.identity(axis.n)
        t._apply_s_rotation(axis.x, axis.z, _exponent(axis))
        return t

    # ------------------------------------------------------------------
    # rows

    def _row(self, r: int) -> PauliProduct:
        return _pauli(self.n, self._x[r], self._z[r], self._k[r])

    @property
    def x_images(self) -> tuple[PauliProduct, ...]:
        return tuple(map(self._row, range(self.n)))

    @property
    def z_images(self) -> tuple[PauliProduct, ...]:
        return tuple(map(self._row, range(self.n, 2 * self.n)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return (self.n, self._x, self._z, self._k) == (other.n, other._x, other._z, other._k)

    def __hash__(self) -> int:
        return hash((self.n, tuple(self._x), tuple(self._z), tuple(self._k)))

    def __repr__(self) -> str:
        return f"CliffordTableau(n={self.n}, x_images={self.x_images}, z_images={self.z_images})"

    def __str__(self) -> str:
        lines = [f"CliffordTableau(n={self.n})"]
        for i in range(self.n):
            lines.append(f"  X{i} -> {self._row(i)}   Z{i} -> {self._row(self.n + i)}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # row operations; the in-place ones are for tableaux the caller owns

    def _conjugate(self, x: int, z: int, k: int) -> tuple[int, int, int]:
        """C (i^k X^x Z^z) C^dagger as (x', z', k'): the X rows selected by
        x, then the Z rows selected by z."""
        return _product(self._x, self._z, self._k, x | z << self.n, k)

    def _apply_s_rotation(
        self, ax: int, az: int, ak: int, rows: Iterable[int] | None = None
    ) -> None:
        """Apply the square of the quarter-rotation about i^ak X^ax Z^az after C.

        That Clifford, (1+i)/2 (1 - i*axis), fixes every Pauli that commutes
        with the axis and maps an anticommuting P to i*P*axis, so only the
        anticommuting rows change.  ``rows`` lists the rows to test, all 2n
        when None; the caller vouches that every row left out commutes with
        the axis.
        """
        xs, zs, ks = self._x, self._z, self._k
        base = ak + 1  # the axis, and the extra factor of i
        for r in range(2 * self.n) if rows is None else rows:
            x, z = xs[r], zs[r]
            if ((x & az) ^ (z & ax)).bit_count() & 1:
                # row * axis, phase as in _product()
                nx, nz = x ^ ax, z ^ az
                k = ks[r] + base + 2 * (z & ax).bit_count()
                if (k ^ (nx & nz).bit_count()) & 1:
                    raise InvariantError("anti-Hermitian image in s_rotation")
                xs[r], zs[r], ks[r] = nx, nz, k & 3

    def _precompose_inverse(self, gate: Gate) -> None:
        """Make C into C composed with gate^-1 applied first.

        Only the X and Z rows of the gate's qubits change (at most four),
        each to i^k times one old row or the product of two, as the kind's
        plan in :data:`_PREIMAGES` says; a product's phase is
        :func:`_product`'s, written out for two rows.  The plan's slots are
        the rows X_p, X_q, Z_p, Z_q of the gate's first and last qubits p
        and q, the same qubit for a 1-qubit gate.
        """
        plan = _PREIMAGES.get(gate.kind)
        if plan is None:
            raise UnsupportedGateError(f"{gate.kind} is not a Clifford tableau update")
        xs, zs, ks = self._x, self._z, self._k
        p, q, n = gate.qubits[0], gate.qubits[-1], self.n
        at = (p, q, p + n, q + n)
        new = []
        for dst, a, b, k in plan:
            a = at[a]
            x, z, k = xs[a], zs[a], ks[a] + k
            if b:
                b = at[b]
                k += ks[b] + 2 * (z & xs[b]).bit_count()
                x ^= xs[b]
                z ^= zs[b]
                if (k ^ (x & z).bit_count()) & 1:
                    raise InvariantError("conjugation produced an anti-Hermitian phase")
            new.append((at[dst], x, z, k & 3))
        for r, x, z, k in new:
            xs[r], zs[r], ks[r] = x, z, k

    # ------------------------------------------------------------------
    # core operations

    def conjugate(self, p: PauliProduct) -> PauliProduct:
        """Return C p C^dagger with exact sign.

        Assembles the image by multiplying the rows selected by p's bits and
        folding all i phases; a Hermitian input must come out Hermitian, so
        an odd total i exponent raises :class:`InvariantError`.
        """
        if p.n != self.n:
            raise ValueError(f"qubit count mismatch: {self.n} vs {p.n}")
        return _pauli(self.n, *self._conjugate(p.x, p.z, _exponent(p)))

    def compose(self, other: CliffordTableau) -> CliffordTableau:
        """Tableau of (self after other): ``other`` acts first."""
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} vs {other.n}")
        xs, zs, ks = map(list, zip(*map(self._conjugate, other._x, other._z, other._k)))
        return CliffordTableau._from_rows(self.n, xs, zs, ks)

    def invert(self) -> CliffordTableau:
        """The inverse Clifford: conjugating by it undoes self exactly.

        The symplectic bit matrix M (rows x|z) inverts as L M^T L, L the
        off-diagonal form: inverse row X_i (Z_i) is column n+i (i) of M with
        its halves swapped.  Each sign comes from a forward round trip.
        """
        n = self.n
        cols = _transpose_bits([x | z << n for x, z in zip(self._x, self._z)], 2 * n)
        low = (1 << n) - 1
        cols = cols[n:] + cols[:n]  # inverse row r is column r + n (mod 2n)
        xs, zs, ks = [col >> n for col in cols], [col & low for col in cols], []
        for r, (x, z) in enumerate(zip(xs, zs)):
            xz = (x & z).bit_count()
            fx, fz, fk = self._conjugate(x, z, xz)  # the Hermitian P(x, z)
            if fx | fz << n != 1 << r:
                raise InvariantError("symplectic inverse does not round-trip")
            ks.append((xz - fk) & 3)
        return CliffordTableau._from_rows(n, xs, zs, ks)

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check symplectic validity; raises InvariantError on failure."""
        n, xs, zs = self.n, self._x, self._z
        for r in range(2 * n):
            for s in range(r + 1, 2 * n):
                anticommute = ((xs[r] & zs[s]) ^ (zs[r] & xs[s])).bit_count() & 1
                if anticommute != (s == n + r):
                    if s == n + r:
                        raise InvariantError(f"X_{r} and Z_{r} images must anticommute")
                    raise InvariantError(f"rows for qubits {r % n},{s % n} break symplectic form")


def _transpose_bits(masks: list[int], width: int) -> list[int]:
    """Transpose a width x width bit matrix: bit j of out[i] is bit i of masks[j]."""
    nbytes = (width + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), np.uint8)
    bits = np.unpackbits(raw.reshape(width, nbytes), axis=1, bitorder="little")[:, :width]
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


# ----------------------------------------------------------------------
# the Clifford gate kinds, each as its own small tableau

# Images of X, then Z, on a gate's qubits in operand order (qubit 0 first).
_GATE_IMAGES = {
    "H": ("Z", "X"),
    "S": ("Y", "Z"),
    "Sdg": ("-Y", "Z"),
    "X": ("X", "-Z"),
    "Y": ("-X", "-Z"),
    "Z": ("-X", "Z"),
    "CNOT": ("XX", "IX", "ZI", "ZZ"),
    "CZ": ("XZ", "ZX", "ZI", "IZ"),
    "SWAP": ("IX", "XI", "IZ", "ZI"),
}


def _local_tableau(images: tuple[str, ...]) -> CliffordTableau:
    """The kind's tableau on two slots; a 1-qubit kind is the identity on
    slot 1, so placed on p == q, where slot 1 repeats slot 0's bits and
    their phase, only slot 0's image changes the row."""
    if len(images) == 2:
        images = (images[0] + "I", "IX", images[1] + "I", "IZ")
    rows = [PauliProduct.from_label(label) for label in images]
    local = CliffordTableau(2, rows[:2], rows[2:])
    local.validate()
    return local


def _forward_rule(local: CliffordTableau) -> tuple[tuple[int, int, int], ...]:
    """Entry ``key`` (X bits, then Z bits << 2, on the gate's two slots) is
    (dx, dz, dk): conjugating X^x Z^z flips the bits dx, dz and adds dk to
    the i exponent."""
    rule = []
    for key in range(16):
        x, z = key & 3, key >> 2
        xz = (x & z).bit_count()
        nx, nz, nk = local._conjugate(x, z, xz)  # the Hermitian P(x, z)
        rule.append((x ^ nx, z ^ nz, (nk - xz) & 3))
    return tuple(rule)


def _preimage_plan(inverse: CliffordTableau) -> tuple[tuple[int, int, int, int], ...]:
    """How precomposing a gate's inverse rewrites its qubits' rows.

    The two-slot local rows X_0, X_1, Z_0, Z_1 are the slots X_p, X_q,
    Z_p, Z_q (see :meth:`CliffordTableau._precompose_inverse`).  An entry
    (d, f, g, k) says: the row in slot d becomes i^k times the old row in
    slot f, or times the product of the old rows in slots f < g when g is
    nonzero, which are the bits and phase of the inverse's local row.
    Rows the gate fixes, slot 1 of a 1-qubit kind among them, have no entry.
    """
    plan = []
    for j in range(4):
        x, z, k = inverse._x[j], inverse._z[j], inverse._k[j]
        f, *rest = [f for f in range(4) if (x | z << 2) >> f & 1]
        if len(rest) > 1:
            raise InvariantError("a gate's preimage row is a product of more than two rows")
        if rest or f != j or k:
            plan.append((j, f, *(rest or [0]), k))
    return tuple(plan)


_LOCAL = {kind: _local_tableau(images) for kind, images in _GATE_IMAGES.items()}
_RULES = {kind: _forward_rule(local) for kind, local in _LOCAL.items()}
_LOCAL_INVERSE = {kind: local.invert() for kind, local in _LOCAL.items()}
_PREIMAGES = {kind: _preimage_plan(inverse) for kind, inverse in _LOCAL_INVERSE.items()}
_INVERSE_KIND = {
    kind: next(other for other, t in _LOCAL.items() if t == inverse)
    for kind, inverse in _LOCAL_INVERSE.items()
}


def inverse_gate(gate: Gate) -> Gate:
    """The inverse Clifford gate; a self-inverse gate is returned as it is."""
    kind = _INVERSE_KIND.get(gate.kind)
    if kind is None:
        raise UnsupportedGateError(f"{gate.kind} has no Clifford inverse")
    return gate if kind == gate.kind else _g(kind, *gate.qubits)


# ----------------------------------------------------------------------
# diagonalization and synthesis


def _dependent_indices(rows: list[int]) -> list[int]:
    """Indices of the rows (``x | z << n`` bits) that are a product of earlier ones.

    Signs do not enter; the count is ``len(rows)`` minus the GF(2) rank.
    """
    pivots: dict[int, int] = {}
    dependent: list[int] = []
    for j, v in enumerate(rows):
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
        else:
            dependent.append(j)
    return dependent


def _diagonalize_with_gates(
    xs: list[int], zs: list[int], ks: list[int], n: int, m: int
) -> list[Gate]:
    """Gates, in application order, of a Clifford C with C R_j C^dagger == +Z_j
    for the first ``m`` int rows R_j = i^ks[j] X^xs[j] Z^zs[j] on ``n`` qubits.

    Symplectic Gaussian elimination on the rows, which every emitted gate
    conjugates in place; rows m and up are never a pivot and ride along,
    so they end as their images under C.  A gate skips the rows with no
    support on its qubits, and while pivot j is eliminated it also skips
    rows 0..j-1, the fixed pivots: they are already +Z_i, and each gate
    pivot j emits is a CZ, which is diagonal, or acts only on qubits >= j.
    A gate fixes every row it skips exactly, so row j is always input j
    conjugated by every gate emitted so far.  The post-check "row j is
    exactly +Z_j for every j < m" is therefore the condition
    C R_j C^dagger == +Z_j on the gates' tableau, at O(1) per row and with
    no tableau built.

    Each caller error is raised at the pivot j that meets it, where rows
    0..j-1 are +Z_0..+Z_{j-1} and conjugation has kept commutation: an X
    bit of row j on a qubit i < j means inputs i and j anticommute
    (:class:`NonCommutingError`), and no support on qubits >= j means input
    j is the identity or a product of earlier ones (:class:`DependentSetError`).
    The input rows, copied before the first gate, must confirm either, or
    it is a broken gate rule (:class:`InvariantError`); the messages print
    them.  On several defects the first failing pivot decides, and the pair
    named is the first by j, then by i."""
    if not m:
        raise ValueError("need at least one Pauli to diagonalize")
    x0, z0, k0 = xs[:m], zs[:m], ks[:m]  # the input rows
    gates: list[Gate] = []

    def emit(kind: str, *qubits: int) -> None:
        g = _g(kind, *qubits)
        gates.append(g)
        _conjugate_rows(xs, zs, ks, g, j)

    for j in range(m):
        # Fast path: already exactly +-Z_j.
        zbit = 1 << j
        if xs[j] == 0 and zs[j] == zbit:
            if ks[j]:
                emit("X", j)
            continue

        below = xs[j] & (zbit - 1)  # X bits on fixed pivots: row j anticommutes with them
        if below:
            i = (below & -below).bit_length() - 1
            if not ((x0[i] & z0[j]) ^ (z0[i] & x0[j])).bit_count() & 1:
                raise InvariantError(f"Paulis {i} and {j} commute, but their rows do not")
            a, b = (_pauli(n, x0[r], z0[r], k0[r]) for r in (i, j))
            raise NonCommutingError(f"Paulis {i} ({a}) and {j} ({b}) anticommute")

        # Each loop below walks the set bits of a mask, lowest first; a gate
        # changes row j only on its own qubits, so the bits not yet reached
        # are the ones the loop started with.
        hi = -zbit  # qubits >= j
        if xs[j] & hi == 0:
            zhi = zs[j] & hi
            if zhi == 0:  # a product of +Z_i, i < j
                if j not in _dependent_indices([x | z << n for x, z in zip(x0[: j + 1], z0)]):
                    raise InvariantError(f"independent Pauli {j} reduced to the pivots")
                raise DependentSetError(f"Pauli {j} is the identity or a product of earlier ones")
            emit("H", (zhi & -zhi).bit_length() - 1)

        # Make every supported site at qubit >= j a pure X.
        bits = zs[j] & hi
        while bits:
            b = bits & -bits
            bits ^= b
            emit("Sdg" if xs[j] & b else "H", b.bit_length() - 1)

        x = xs[j] & hi
        pivot = (x & -x).bit_length() - 1
        bits = x & -(2 << pivot)  # the CNOT targets, above the pivot
        while bits:
            b = bits & -bits
            bits ^= b
            emit("CNOT", pivot, b.bit_length() - 1)

        # Clear Z components on already-fixed qubits (< j).
        bits = zs[j] & (zbit - 1)
        while bits:
            b = bits & -bits
            bits ^= b
            emit("CZ", b.bit_length() - 1, pivot)

        emit("H", pivot)
        if pivot != j:
            emit("SWAP", pivot, j)
        if ks[j]:
            emit("X", j)

    for j in range(m):
        if xs[j] or zs[j] != 1 << j or ks[j]:
            raise InvariantError("diagonalization post-check failed")
    return gates


def _adjoint_gates(gates: list[Gate]) -> list[Gate]:
    return [inverse_gate(g) for g in reversed(gates)]


def _lower_gate(g: Gate) -> tuple[Gate, ...]:
    """Rewrite onto the {H, S, CNOT, X, Z} synthesis target set, as interned gates."""
    if g.kind == "Sdg":
        s = _g("S", *g.qubits)
        return (s, s, s)
    if g.kind == "CZ":
        c, t = g.qubits
        return (_g("H", t), _g("CNOT", c, t), _g("H", t))
    if g.kind == "SWAP":
        a, b = g.qubits
        return (_g("CNOT", a, b), _g("CNOT", b, a), _g("CNOT", a, b))
    if g.kind == "Y":
        return (_g("Z", *g.qubits), _g("X", *g.qubits))
    return (g,)


@lru_cache(maxsize=1 << 16)
def _lowerings(kind: str, *qubits: int) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
    """(``_lower_gate(g)``, ``_lower_gate(inverse_gate(g))``) for g = ``_g(kind, *qubits)``.

    Memoized on (kind, qubits), as :func:`~trotopt.circuit._g` is, so a
    gate met again costs one lookup and no ``Gate`` hash.
    """
    g = _g(kind, *qubits)
    return _lower_gate(g), _lower_gate(inverse_gate(g))


def synthesize_gates(t: CliffordTableau) -> list[Gate]:
    """Gates (application order) whose tableau equals ``t``; no optimality."""
    n = t.n
    # d = diag ∘ t: t's X rows ride through the elimination of its Z rows,
    # which the post-check leaves exactly +Z_i.
    xs, zs, ks = (rows[n:] + rows[:n] for rows in (t._x, t._z, t._k))
    diag_gates = _diagonalize_with_gates(xs, zs, ks, n, n)
    dx, dz, dk = xs[n:], zs[n:], ks[n:]
    ones = [1 << i for i in range(n)]
    d = CliffordTableau._from_rows(n, dx + [0] * n, dz + ones, dk + [0] * n)

    # d fixes every Z_i exactly, so it is a layer of S/CZ gates up to Pauli-Z
    # sign corrections on the X images; the final compare checks all of it.
    phase_gates: list[Gate] = []
    for i in range(n):
        zmask = dz[i]
        if (zmask >> i) & 1:
            phase_gates.append(_g("S", i))
        for j in range(i + 1, n):
            if (zmask >> j) & 1:
                phase_gates.append(_g("CZ", i, j))

    layer = CliffordTableau.from_circuit(Circuit.on_qubits(n, phase_gates))
    for i in range(n):
        if layer._k[i] != dk[i]:
            phase_gates.append(_g("Z", i))
            _conjugate_rows(layer._x, layer._z, layer._k, phase_gates[-1])
    if layer != d:
        raise InvariantError("phase-layer reconstruction failed")

    # t == diag^-1 ∘ d, with d realized by phase_gates applied first.
    return phase_gates + _adjoint_gates(diag_gates)


def synthesize(t: CliffordTableau) -> Circuit:
    """A circuit over {H, S, CNOT, X, Z} whose tableau equals ``t``."""
    gates = [low for g in synthesize_gates(t) for low in _lowerings(g.kind, *g.qubits)[0]]
    return Circuit.on_qubits(t.n, gates)
