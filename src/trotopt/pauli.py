"""Signed Pauli products in binary-symplectic form.

An n-qubit Pauli product is stored as two bit masks (one X bit and one Z
bit per qubit; both set means Y) plus an overall sign of +1 or -1.  Masks
are plain Python ints, so a commutation check costs a few bitwise ops per
machine word of register width.

Phase convention: the unsigned operator encoded by masks ``(x, z)`` is
``prod_q i^(x_q z_q) X_q^(x_q) Z_q^(z_q)``, i.e. the Hermitian letter
I/X/Y/Z on each qubit.  Products and their powers of i are formed only by
the tableau's row algebra, whose int row (x, z, k) is the operator
``i^k X^x Z^z``: the product of two rows adds their exponents and 2 per
qubit where a Z of the first meets an X of the second.  A signed product
is the row with k = |x & z| + 1 - sign (mod 4).
"""

from __future__ import annotations

from dataclasses import dataclass

_LETTER_OF_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS_OF_LETTER = {v: k for k, v in _LETTER_OF_BITS.items()}


@dataclass(frozen=True, slots=True)
class PauliProduct:
    """A Hermitian n-qubit Pauli operator with an explicit +/-1 sign.

    The sign domain is restricted to +-1, so a PauliProduct is always a
    Hermitian operator; i phases live only in the tableau's row exponents.
    """

    n: int
    x: int
    z: int
    sign: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("bit mask exceeds the qubit register")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_label(cls, label: str) -> PauliProduct:
        """Parse a label like ``"XIZ"``, ``"+YY"`` or ``"-ZZ"`` (qubit 0 first)."""
        sign = 1
        body = label.strip()
        if body[:1] in ("+", "-", "−"):
            sign = -1 if body[0] in ("-", "−") else 1
            body = body[1:]
        if not body:
            raise ValueError(f"empty Pauli label {label!r}")
        x = z = 0
        for q, letter in enumerate(body):
            try:
                xb, zb = _BITS_OF_LETTER[letter.upper()]
            except KeyError:
                raise ValueError(f"bad Pauli letter {letter!r} in {label!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(len(body), x, z, sign)

    # ------------------------------------------------------------------
    # queries

    def letter(self, qubit: int) -> str:
        return _LETTER_OF_BITS[(self.x >> qubit) & 1, (self.z >> qubit) & 1]

    def label(self) -> str:
        """Render as sign prefix plus one letter per qubit, e.g. ``-XIZ``."""
        prefix = "+" if self.sign > 0 else "-"
        return prefix + "".join(self.letter(q) for q in range(self.n))

    def __str__(self) -> str:
        return self.label()

    def __repr__(self) -> str:
        return f"PauliProduct({self.label()!r})"

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    # ------------------------------------------------------------------
    # algebra

    def commutes(self, other: PauliProduct) -> bool:
        """True iff the two operators commute (symplectic inner product = 0).

        Signs never affect commutation and are ignored.
        """
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} vs {other.n}")
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    def __neg__(self) -> PauliProduct:
        return PauliProduct(self.n, self.x, self.z, -self.sign)
