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
local tableau on two slots (a 1-qubit kind fixes slot 1), off which two
tables are read at import.  The forward rule (:data:`_RULES`) gives, for
the 16 values of a row's bits on the two slots, the bits to flip and the
phase to add; the preimage plan (:data:`_PREIMAGES`) lists each row that
precomposing the gate's inverse changes as one or two old rows and an i
exponent.  Each table is then written out as straight-line Python, one
function per kind, and all of them are compiled from one source string
(:func:`_compile_kernels`), so no update interprets a table per row or
per plan entry.  A forward kernel is a decision tree over only the slot
bits its rule reads, whose leaves store only what their entry changes; a
preimage kernel spells out its plan's copies and two-row products.  The
forward kernels are trees rather than the rule's algebraic normal form
(slot bits shifted to 0/1, the monomials XORed) because most rows a gate
is run over miss it, and a tree dismisses such a row after a test or two
and writes nothing, where the normal form computes every monomial.
Every gate that synthesis emits is interned (:func:`~trotopt.circuit._g`)
and handed back lowered onto {H, S, CNOT, X, Z}, by its own lowering or its
inverse's, looked up in one table memoized on (kind, qubits)
(:func:`_lowerings`): tableau synthesis returns only such gates.  The
diagonalizer walks the set bits of a pivot row's masks, so each of its
loops costs one step per gate it emits, not one per qubit.
Public methods return new tableaux.  Callers that own the rows update
them in place, each calling a kind's kernel with the gate's qubit tuple:
from :data:`_FORWARD_KERNELS` the diagonalizer and tableau synthesis, which
rebuilds its phase layer on n X rows apart from the diagonalizer's gates,
and from :data:`_PREIMAGE_KERNELS` extraction's inverse prefix.  The fold's
frame runs ``_apply_s_rotation``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping

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
            kernel = _FORWARD_KERNELS.get(g.kind)
            if kernel is None:
                raise UnsupportedGateError(f"{g.kind} is not a Clifford tableau update")
            kernel(t._x, t._z, t._k, g.qubits, 0)
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

    The two-slot local rows X_0, X_1, Z_0, Z_1 are the rows X_p, X_q, Z_p,
    Z_q of the gate's first and last qubits, which the preimage kernels
    (:func:`_preimage_source`) read and write.  An entry
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
_INVERSE_KIND = {
    kind: next(other for other, t in _LOCAL.items() if t == inverse)
    for kind, inverse in ((kind, local.invert()) for kind, local in _LOCAL.items())
}
_PREIMAGES = {kind: _preimage_plan(_LOCAL[inverse]) for kind, inverse in _INVERSE_KIND.items()}


# ----------------------------------------------------------------------
# each kind's tables written out as straight-line kernels, compiled once

_TESTS = ("x & P", "x & Q", "z & P", "z & Q")  # rule key bit j -> its test on a row
_MASKS = ("", "P", "Q", "M")  # slot bits -> the kernel's qubit masks


def _forward_source(kind: str, rule: tuple[tuple[int, int, int], ...]) -> str:
    """``forward_<kind>(xs, zs, ks, qubits, start)`` conjugates rows
    ``start`` and up in place by the gate; the rule's slots are its first
    and last qubits p and q, one qubit for a 1-qubit gate.  One decision
    tree per group of the outputs dx, dz, dk that read a common test, over
    the tests the group reads; a leaf stores only what its rule entry
    changes, so a row off the gate's qubits is not written.
    Every kind is read on the same four tests, one per bit of the rule's
    key.  A 1-qubit kind's rule never reads slot 1, so its trees drop the
    slot-1 tests; the prologue binds Q only for a body using slot 1, and
    M = P | Q only for a leaf that flips both slots (a dx or dz of 3)."""
    groups: list[tuple[list[int], int]] = []  # (outputs, tests read), no test in two
    for out in range(3):
        col = [e[out] for e in rule]
        flips = ([col[key ^ 1 << j] for key in range(16)] for j in range(4))
        reads = sum(1 << j for j, flipped in enumerate(flips) if flipped != col)
        outs = [out]
        for group in [g for g in groups if g[1] & reads]:
            groups.remove(group)
            outs += group[0]
            reads |= group[1]
        if reads:
            groups.append((sorted(outs), reads))
    loaded = {_TESTS[j][0] for _, reads in groups for j in range(4) if reads >> j & 1}

    def tree(outs: list[int], vals: list[tuple[int, ...]], j: int, indent: str) -> list[str]:
        """Lines storing ``vals``, the outputs' values indexed by the
        outcomes of tests j and up, test j in the low bit; no lines when
        they change nothing."""
        if len(vals) > 1:
            taken, other = vals[1::2], vals[::2]
            if taken == other:  # test j is not read
                return tree(outs, other, j + 1, indent)
            taken = tree(outs, taken, j + 1, indent + "    ")
            other = tree(outs, other, j + 1, indent + "    ")
            test = _TESTS[j]
            if not taken:
                return [indent + "if not " + test + ":"] + other
            return [indent + "if " + test + ":"] + taken + (other and [indent + "else:"] + other)
        lines = []
        for out, d in zip(outs, vals[0]):
            name = "xzk"[out]
            if d and out == 2:
                lines.append("%sks[r] = ks[r] + %d & 3" % (indent, d))
            elif d:
                old = name if name in loaded else name + "s[r]"
                lines.append("%s%ss[r] = %s ^ %s" % (indent, name, old, _MASKS[d]))
        return lines

    slot1 = any(reads & 0b1010 for _, reads in groups) or any((dx | dz) & 2 for dx, dz, _ in rule)
    both = any(3 in (dx, dz) for dx, dz, _ in rule)
    lines = [
        "def forward_%s(xs, zs, ks, qubits, start):" % kind,
        "    P = 1 << qubits[0]" + "; Q = 1 << qubits[-1]" * slot1 + "; M = P | Q" * both,
        "    for r in range(start, len(xs)):",
    ]
    lines += ["        %s = %ss[r]" % (name, name) for name in sorted(loaded)]
    for outs, _ in groups:
        lines += tree(outs, [tuple(e[o] for o in outs) for e in rule], 0, "        ")
    return "\n".join(lines)


def _preimage_source(kind: str, plan: tuple[tuple[int, int, int, int], ...]) -> str:
    """``preimage_<kind>(xs, zs, ks, qubits, n)`` makes the tableau C on
    these rows into C after the gate's inverse.  Only the slot rows change,
    and the prologue binds those the plan reads.  The two-row products take
    :func:`_product`'s phase and are all checked before any row is stored,
    so an anti-Hermitian one raises and leaves the rows as they were."""
    rows = ("p", "q", "pn", "qn")
    read = {s for d, f, g, _ in plan for s in (d, f, g or f)}  # g == 0: no second row
    qubit = ("qubits[0]", "qubits[-1]")
    lines = ["def preimage_%s(xs, zs, ks, qubits, n):" % kind]
    lines += ["    %s = %s" % (rows[s], qubit[s]) for s in (0, 1) if s in read]
    lines += ["    %s = %s + n" % (rows[s], rows[s - 2] if s - 2 in read else qubit[s - 2])
              for s in (2, 3) if s in read]
    targets, values, parities = [], [], []
    for d, f, g, k in plan:
        a, b, dst, phase = rows[f], rows[g], rows[d], " + %d" % k if k else ""
        if g:  # the product of rows a and b, with _product()'s phase
            lines.append("    x%d = xs[%s] ^ xs[%s]; z%d = zs[%s] ^ zs[%s]; "
                         "k%d = ks[%s] + ks[%s]%s + 2 * (zs[%s] & xs[%s]).bit_count()"
                         % (d, a, b, d, a, b, d, a, b, phase, a, b))
            parities.append("k%d ^ (x%d & z%d).bit_count()" % (d, d, d))
            values += ["x%d" % d, "z%d" % d, "k%d & 3" % d]
        else:
            values += ["xs[%s]" % a, "zs[%s]" % a] * (f != d)
            values.append("ks[%s]%s & 3" % (a, phase) if k else "ks[%s]" % a)
        targets += ["xs[%s]" % dst, "zs[%s]" % dst] * (f != d or g > 0) + ["ks[%s]" % dst]
    if parities:
        lines.append("    if (%s) & 1:" % " | ".join(parities))
        lines.append('        raise InvariantError("conjugation produced an anti-Hermitian phase")')
    lines.append("    %s = %s" % (", ".join(targets), ", ".join(values)))
    return "\n".join(lines)


def _compile_kernels() -> tuple[dict, dict]:
    """Every kind's forward and preimage kernel, compiled from one source."""
    source = "\n".join(
        _forward_source(kind, _RULES[kind]) + "\n" + _preimage_source(kind, _PREIMAGES[kind])
        for kind in _GATE_IMAGES
    )
    namespace = {"InvariantError": InvariantError}
    exec(compile(source, "<trotopt gate kernels>", "exec"), namespace)
    return (
        {kind: namespace[f"forward_{kind}"] for kind in _GATE_IMAGES},
        {kind: namespace[f"preimage_{kind}"] for kind in _GATE_IMAGES},
    )


_FORWARD_KERNELS, _PREIMAGE_KERNELS = _compile_kernels()


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
    xs: list[int], zs: list[int], ks: list[int], n: int, m: int, budget: int | None = None
) -> list[Gate] | None:
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
    named is the first by j, then by i.

    With a ``budget``, each pivot first sums the lowered CNOTs of the gates
    emitted so far, and the elimination stops, returning None, at the first
    pivot where they exceed it."""
    if not m:
        raise ValueError("need at least one Pauli to diagonalize")
    x0, z0, k0 = xs[:m], zs[:m], ks[:m]  # the input rows
    gates: list[Gate] = []
    counted = spent = 0  # with a budget: the lowered CNOTs of gates[:counted]

    def emit(kind: str, *qubits: int) -> None:
        gates.append(_g(kind, *qubits))
        _FORWARD_KERNELS[kind](xs, zs, ks, qubits, j)

    for j in range(m):
        if budget is not None:
            spent += sum(_LOWERED_COUNTS[g.kind][0] for g in gates[counted:])
            counted = len(gates)
            if spent > budget:
                return None

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


# The CNOT and H counts of each Clifford kind's lowering; a kind's inverse
# lowers to as many of each.
_LOWERED_COUNTS = {
    kind: tuple(
        sum(low.kind == target for low in _lower_gate(_g(kind, *range(len(images) // 2))))
        for target in ("CNOT", "H")
    )
    for kind, images in _GATE_IMAGES.items()
}


def _lowered_counts(kinds: Mapping[str, int]) -> tuple[int, int]:
    """The (CNOT, H) counts of lowering gates of these kinds, the number of
    each given; non-Clifford kinds count nothing."""
    cnots = hs = 0
    for kind, (c, h) in _LOWERED_COUNTS.items():
        count = kinds.get(kind, 0)
        cnots += c * count
        hs += h * count
    return cnots, hs


@lru_cache(maxsize=1 << 16)
def _lowerings(kind: str, *qubits: int) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
    """(``_lower_gate(g)``, ``_lower_gate(inverse_gate(g))``) for g = ``_g(kind, *qubits)``.

    Memoized on (kind, qubits), as :func:`~trotopt.circuit._g` is, so a
    gate met again costs one lookup and no ``Gate`` hash.
    """
    g = _g(kind, *qubits)
    return _lower_gate(g), _lower_gate(inverse_gate(g))


def synthesize_gates(t: CliffordTableau, budget: int | None = None) -> list[Gate] | None:
    """Gates over {H, S, CNOT, X, Z}, in application order, with tableau
    ``t``; no optimality: P, of S, CZ and Z gates, lowered, then the inverse
    of the elimination W of t's Z rows, lowered gate by gate from W's last.
    P is checked on n rows, X_i conjugated by it in place against W's images
    of t's X rows.  A non-symplectic ``t`` raises ``validate``'s error.
    With a ``budget``, None once W's gates, lowered, hold more CNOTs than
    that: the elimination checks at each pivot and stops there."""
    n = t.n
    if not n:
        return []
    # d = diag ∘ t: t's X rows ride through the elimination of its Z rows,
    # which the post-check leaves exactly +Z_i.
    xs, zs, ks = (rows[n:] + rows[:n] for rows in (t._x, t._z, t._k))
    try:
        diag_gates = _diagonalize_with_gates(xs, zs, ks, n, n, budget)
    except (NonCommutingError, DependentSetError):
        t.validate()
        raise
    if diag_gates is None:
        return None
    dx, dz, dk = xs[n:], zs[n:], ks[n:]

    # d fixes every Z_i exactly, so it is a layer of S/CZ gates up to Pauli-Z
    # sign corrections on the X images; the n-row check covers all of it.
    # S, CZ and Z leave every X mask as it is, so row r stays X_r times Z's;
    # a gate whose first qubit is i meets no row r < i and starts at row i.
    phase_gates: list[Gate] = []
    for i in range(n):
        zmask = dz[i]
        if (zmask >> i) & 1:
            phase_gates.append(_g("S", i))
        for j in range(i + 1, n):
            if (zmask >> j) & 1:
                phase_gates.append(_g("CZ", i, j))

    lx, lz, lk = [1 << i for i in range(n)], [0] * n, [0] * n
    for g in phase_gates:
        _FORWARD_KERNELS[g.kind](lx, lz, lk, g.qubits, g.qubits[0])
    for i in range(n):
        if lk[i] != dk[i]:
            phase_gates.append(_g("Z", i))
            _FORWARD_KERNELS["Z"](lx, lz, lk, (i,), i)
    if (lx, lz, lk) != (dx, dz, dk):
        raise InvariantError("phase-layer reconstruction failed")
    gates = [low for g in phase_gates for low in _lowerings(g.kind, *g.qubits)[0]]
    gates += [low for g in reversed(diag_gates) for low in _lowerings(g.kind, *g.qubits)[1]]
    return gates


def synthesize(t: CliffordTableau) -> Circuit:
    """The circuit of :func:`synthesize_gates`: its tableau equals ``t``."""
    return Circuit.on_qubits(t.n, synthesize_gates(t))
