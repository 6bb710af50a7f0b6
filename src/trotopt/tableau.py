"""Clifford-group elements as stabilizer tableaux.

A tableau stores the images of the X_i and Z_i generators under
conjugation, each as a full signed :class:`~trotopt.pauli.PauliProduct`.
Signs are load-bearing: they distinguish a +P rotation axis from a -P one
downstream.  Gate application, composition, inversion, diagonalization of
commuting sets, and synthesis back to gates all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circuit import Circuit, Gate, UnsupportedGateError
from .pauli import PauliProduct, _mul_bits


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


_INVERSE_KIND = {
    "H": "H",
    "S": "Sdg",
    "Sdg": "S",
    "X": "X",
    "Y": "Y",
    "Z": "Z",
    "CNOT": "CNOT",
    "CZ": "CZ",
    "SWAP": "SWAP",
}


def inverse_gate(gate: Gate) -> Gate:
    try:
        return Gate(_INVERSE_KIND[gate.kind], gate.qubits)
    except KeyError:
        raise UnsupportedGateError(f"{gate.kind} has no Clifford inverse") from None


def _transpose_bits(masks: list[int], width: int) -> list[int]:
    """Transpose a width x width bit matrix: bit j of out[i] is bit i of masks[j]."""
    nbytes = (width + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), np.uint8)
    bits = np.unpackbits(raw.reshape(width, nbytes), axis=1, bitorder="little")[:, :width]
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


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
        t = cls.identity(circuit.n)
        for g in circuit.gates:
            t = t.apply_gate(g)
        return t

    @classmethod
    def s_rotation(cls, axis: PauliProduct) -> CliffordTableau:
        """Tableau of the square of the quarter-rotation about ``axis``."""
        return cls.identity(axis.n).apply_s_rotation(axis)

    # ------------------------------------------------------------------
    # core operations

    def apply_gate(self, gate: Gate) -> CliffordTableau:
        """Tableau of (gate applied after self); rows off the gate are reused."""
        mask = sum(1 << q for q in gate.qubits)

        def image(row: PauliProduct) -> PauliProduct:
            return conjugate_by_gate(gate, row) if (row.x | row.z) & mask else row

        return self._map_rows(image)

    def apply_s_rotation(self, axis: PauliProduct) -> CliffordTableau:
        """Tableau of (the square of the quarter-rotation about ``axis``) after self.

        That Clifford, (1+i)/2 (1 - i*axis), fixes every Pauli that commutes
        with the axis and maps an anticommuting P to i*P*axis: O(n) row work.
        """
        if axis.is_identity:
            raise ValueError("rotation axis must not be the identity")

        def image(row: PauliProduct) -> PauliProduct:
            if row.commutes(axis):
                return row
            prod, k = row.mul(axis)
            k = (k + 1) % 4  # extra factor of i
            if k % 2:
                raise InvariantError("anti-Hermitian image in s_rotation")
            return prod if k == 0 else -prod

        return self._map_rows(image)

    def precompose_inverse(self, gate: Gate) -> CliffordTableau:
        """Tableau of (self composed with gate^-1 applied first).

        Only the X and Z rows of the gate's qubits change (at most four), so a
        running inverse-prefix tableau is cheap to maintain.
        """
        inv = inverse_gate(gate)
        xs = list(self.x_images)
        zs = list(self.z_images)
        for q in gate.qubits:
            xs[q] = self.conjugate(conjugate_by_gate(inv, PauliProduct.single(self.n, q, "X")))
            zs[q] = self.conjugate(conjugate_by_gate(inv, PauliProduct.single(self.n, q, "Z")))
        return CliffordTableau(self.n, tuple(xs), tuple(zs))

    def conjugate(self, p: PauliProduct) -> PauliProduct:
        """Return C p C^dagger with exact sign.

        Assembles the image by multiplying the rows selected by p's bits and
        folding all i phases; a Hermitian input must come out Hermitian, so
        an odd total i exponent raises :class:`InvariantError`.
        """
        if p.n != self.n:
            raise ValueError(f"qubit count mismatch: {p.n} vs {self.n}")
        k = (p.x & p.z).bit_count() + (0 if p.sign > 0 else 2)
        x = z = 0
        rest = p.x
        while rest:
            q = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            row = self.x_images[q]
            x, z, dk = _mul_bits(x, z, row.x, row.z)
            k += dk + (0 if row.sign > 0 else 2)
        rest = p.z
        while rest:
            q = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            row = self.z_images[q]
            x, z, dk = _mul_bits(x, z, row.x, row.z)
            k += dk + (0 if row.sign > 0 else 2)
        k %= 4
        if k % 2:
            raise InvariantError("conjugation produced an anti-Hermitian phase")
        return PauliProduct(self.n, x, z, 1 if k == 0 else -1)

    def compose(self, other: CliffordTableau) -> CliffordTableau:
        """Tableau of (self after other): ``other`` acts first."""
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} vs {other.n}")
        return other._map_rows(self.conjugate)

    def _map_rows(self, image: Callable[[PauliProduct], PauliProduct]) -> CliffordTableau:
        """The tableau whose every row is ``image`` of the matching row here."""
        return CliffordTableau(
            self.n, tuple(map(image, self.x_images)), tuple(map(image, self.z_images))
        )

    def invert(self) -> CliffordTableau:
        """The inverse Clifford: conjugating by it undoes self exactly.

        The symplectic bit matrix M (rows x|z) inverts as L M^T L, L the
        off-diagonal form: inverse row X_i (Z_i) is column n+i (i) of M with
        its halves swapped.  Each sign comes from a forward round trip.
        """
        n = self.n
        cols = _transpose_bits([r.x | r.z << n for r in self.x_images + self.z_images], 2 * n)
        low = (1 << n) - 1
        xs, zs = [], []
        for i in range(n):
            for col, basis_letter, out in ((cols[n + i], "X", xs), (cols[i], "Z", zs)):
                candidate = PauliProduct(n, col >> n, col & low, 1)
                forward = self.conjugate(candidate)
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


def _gf2_rank(masks: list[int]) -> int:
    rank = 0
    rows = list(masks)
    while rows:
        pivot = rows.pop()
        if pivot == 0:
            continue
        rank += 1
        top = 1 << (pivot.bit_length() - 1)
        rows = [r ^ pivot if r & top else r for r in rows]
    return rank


def check_independent(paulis: list[PauliProduct]) -> bool:
    """True iff no nonempty subset has bit product equal to the identity."""
    if not paulis:
        return True
    n = paulis[0].n
    return _gf2_rank([p.x | (p.z << n) for p in paulis]) == len(paulis)


def _diagonalize_with_gates(
    paulis: list[PauliProduct],
) -> tuple[CliffordTableau, list[Gate]]:
    if not paulis:
        raise ValueError("need at least one Pauli to diagonalize")
    n = paulis[0].n
    for j, p in enumerate(paulis):
        if p.n != n:
            raise ValueError("mixed qubit counts in Pauli set")
        if p.is_identity:
            raise ValueError(f"Pauli {j} is the identity")
    for i in range(len(paulis)):
        for j in range(i + 1, len(paulis)):
            if not paulis[i].commutes(paulis[j]):
                raise NonCommutingError(
                    f"Paulis {i} ({paulis[i]}) and {j} ({paulis[j]}) anticommute"
                )
    if not check_independent(paulis):
        raise DependentSetError(
            "a nonempty subset of the Paulis multiplies to the identity"
        )

    work = list(paulis)
    gates: list[Gate] = []

    def emit(kind: str, *qubits: int) -> None:
        g = Gate(kind, qubits)
        gates.append(g)
        mask = sum(1 << q for q in qubits)
        for idx, w in enumerate(work):
            if (w.x | w.z) & mask:  # a gate fixes every Pauli off its qubits
                work[idx] = conjugate_by_gate(g, w)

    for j in range(len(work)):
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

    tableau = CliffordTableau.identity(n)
    for g in gates:
        tableau = tableau.apply_gate(g)
    for j, p in enumerate(paulis):
        if tableau.conjugate(p) != PauliProduct.single(n, j, "Z"):
            raise InvariantError("diagonalization post-check failed")
    return tableau, gates


def diagonalize_commuting_set(paulis: list[PauliProduct]) -> CliffordTableau:
    """A Clifford C with C P_j C^dagger == +Z_j for every input P_j.

    Inputs must pairwise commute and be independent (no nonempty subset with
    bit product identity); built by symplectic Gaussian elimination.
    """
    tableau, _ = _diagonalize_with_gates(paulis)
    return tableau


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
    diag, diag_gates = _diagonalize_with_gates(list(t.z_images))
    d = diag.compose(t)

    # d fixes every Z_i exactly, so it is a layer of S/CZ gates up to Pauli-Z
    # sign corrections on the X images.
    for i in range(n):
        if d.z_images[i] != PauliProduct.single(n, i, "Z"):
            raise InvariantError("Z rows not fixed after diagonalization")
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
