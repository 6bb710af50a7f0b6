"""Conversion between Clifford+T circuits and quarter-rotation products.

A circuit over {Clifford, T, Tdg} is rewritten as an ordered list of pi/4
rotations about signed Pauli axes followed by one trailing Clifford: every
T contributes one rotation whose axis is the prefix-conjugated Z of its
target qubit, and all Clifford gates accumulate into the tail.  Extraction
keeps the inverse Clifford prefix as one tableau, whose integer rows (X
mask, Z mask and i exponent per generator image) it rewrites in place, at
most four per Clifford gate, by the gate kind's plan compiled at import.
A :class:`RotationForm` holds its rotations as int rows of the same kind,
which extraction copies off the prefix and the fold reads and returns, so
neither builds a :class:`Rotation` or a :class:`~trotopt.pauli.PauliProduct`;
``RotationForm.rotations`` builds them on first read, for the public edges
(layer synthesis, the DOT dump, the public constructor's callers).  A form
holds its tail one way, as a function that builds the tail's inverse:
extraction's returns the prefix, the fold's composes its frame with its
input's inverse tail, and the public constructor's inverts the tableau it
was given.  The tail, where not given, is one ``invert()`` of that inverse,
built only when read.  The way back is layer synthesis: each layer of
commuting rotations becomes one parallel T layer, with ancillas for
dependent layers, and each diagonalizing gate is lowered, forward and
adjoint, by one lookup in the tableau module's memoized table;
resynthesis is the schedule of singleton layers.  Global
phase is dropped throughout; equivalence is always modulo phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice
from typing import Iterable, Sequence

from .circuit import Circuit, Gate, UnsupportedGateError, _g
from .pauli import PauliProduct
from .tableau import (
    CliffordTableau,
    DependentSetError,
    _dependent_indices,
    _diagonalize_with_gates,
    _lowerings,
    _pauli,
    _rows,
    synthesize,
)


@dataclass(frozen=True, slots=True)
class Rotation:
    """One pi/4 rotation about a signed Pauli axis.

    ``origin`` is the index of the source T/Tdg gate in the circuit the
    rotation was extracted from; synthetic rotations carry None.
    """

    pauli: PauliProduct
    origin: int | None = None

    def __post_init__(self) -> None:
        if self.pauli.is_identity:
            raise ValueError("rotation axis must not be the identity")

    def __str__(self) -> str:
        at = f" @{self.origin}" if self.origin is not None else ""
        return f"{self.pauli}{at}"


@dataclass(frozen=True)
class EditPlan:
    """Per-gate edits against an extracted circuit: delete or T->S replace.

    Indices refer to T/Tdg gates of the source circuit; anything not listed
    is kept.  A replacement substitutes the phase gate that squares the one
    in place (T -> S, Tdg -> Sdg).
    """

    deletions: frozenset[int] = frozenset()
    replacements: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "deletions", frozenset(self.deletions))
        object.__setattr__(self, "replacements", frozenset(self.replacements))
        if self.deletions & self.replacements:
            raise ValueError("a gate index cannot be both deleted and replaced")


class RotationForm:
    """Ordered rotations (index 0 acts first) plus the absorbed tail Clifford.

    The rotations are held as int rows, as in a tableau: X masks x, Z masks
    z, exponents k for the axis i^k X^x Z^z, and origins.
    :attr:`rotations` views them as :class:`Rotation` objects, built on
    first read; a form built from rotations keeps the tuple it was given.
    The tail is held one way, as ``_inverse``: a no-argument function that
    builds the tail's inverse, called once, on the first read of
    :attr:`_inverse_tail`.  The tail is one ``invert()`` of that; a form
    built from a tableau reads it as the tableau it was given.  Two
    rotations may not share an origin gate; synthetic ones (None) may.
    """

    def __init__(
        self,
        n: int,
        rotations: Iterable[Rotation],
        tail: CliffordTableau,
        source: Circuit | None = None,
    ) -> None:
        rotations = tuple(rotations)
        self._x, self._z, self._k = _rows((r.pauli for r in rotations), n)
        if tail.n != n:
            raise ValueError("tail Clifford width does not match qubit count")
        self._origins = [r.origin for r in rotations]
        given = [origin for origin in self._origins if origin is not None]
        if len(set(given)) != len(given):
            raise ValueError("two rotations share an origin gate")
        self.n, self.source, self._inverse = n, source, tail.invert
        self.rotations = rotations
        self.tail_clifford = tail

    @classmethod
    def _from_rows(cls, n, xs, zs, ks, origins, inverse_tail, source) -> RotationForm:
        """A form that takes ownership of the row lists, unchecked.

        ``inverse_tail`` is a no-argument function that builds the tail's
        inverse, called once, when either is first read.
        """
        form = cls.__new__(cls)
        form.n, form.source, form._inverse = n, source, inverse_tail
        form._x, form._z, form._k, form._origins = xs, zs, ks, origins
        return form

    @cached_property
    def rotations(self) -> tuple[Rotation, ...]:
        n = self.n
        return tuple(
            Rotation(_pauli(n, x, z, k), origin)
            for x, z, k, origin in zip(self._x, self._z, self._k, self._origins)
        )

    @cached_property
    def tail_clifford(self) -> CliffordTableau:
        return self._inverse_tail.invert()

    @cached_property
    def _inverse_tail(self) -> CliffordTableau:
        return self._inverse()

    def dump(self) -> str:
        """One rotation per line: ``+-PAULI @gate_index``."""
        return "\n".join(str(r) for r in self.rotations)


def to_rotation_form(circuit: Circuit) -> RotationForm:
    """Single left-to-right pass over one tableau, the inverse Clifford prefix.

    A Clifford gate rewrites only its qubits' rows in place; a T on qubit q
    copies its axis straight off the Z row for q (a Tdg flips its sign) into
    the form's rows.  The form keeps the prefix as its tail's inverse; the
    tail is one ``invert()`` of it, built on first read.
    """
    n = circuit.n
    inverse_prefix = CliffordTableau.identity(n)
    precompose = inverse_prefix._precompose_inverse
    xs, zs, ks = inverse_prefix._x, inverse_prefix._z, inverse_prefix._k
    axes_x: list[int] = []
    axes_z: list[int] = []
    axes_k: list[int] = []
    origins: list[int | None] = []
    for index, gate in enumerate(circuit.gates):
        kind = gate.kind
        if kind == "T" or kind == "Tdg":
            r = n + gate.qubits[0]
            axes_x.append(xs[r])
            axes_z.append(zs[r])
            axes_k.append(ks[r] ^ 2 if kind == "Tdg" else ks[r])
            origins.append(index)
            continue
        try:
            precompose(gate)
        except UnsupportedGateError:
            raise UnsupportedGateError(
                f"{kind} at index {index}: expand() the circuit first"
            ) from None

    return RotationForm._from_rows(
        n, axes_x, axes_z, axes_k, origins, lambda: inverse_prefix, circuit
    )


def extend_with_ancillas(layer: Sequence[Rotation], t: int) -> list[Rotation]:
    """Widen each rotation by ``t`` trailing ancilla qubits and tag with Z,
    each on its own ancilla, only the rotations whose axes are products of
    earlier axes in the layer.

    Ancilla components are always I or Z, so ancillas prepared in |0> stay
    in |0> and the anticommutation structure is untouched.  The result is
    independent; more than ``t`` dependent rotations raise
    :class:`DependentSetError`.  With ``t`` = 0 the rotations are returned
    as they are.
    """
    if t < 0:
        raise ValueError("ancilla count must be nonnegative")
    rotations = list(layer)
    if not rotations:
        return []
    n = rotations[0].pauli.n
    xs, zs, ks = _rows((r.pauli for r in rotations), n)
    dependent = _dependent_indices([x | z << n for x, z in zip(xs, zs)])
    if len(dependent) > t:
        raise DependentSetError(
            f"{t} ancilla(s) cannot make {len(rotations)} rotations independent"
        )
    if not t:
        return rotations
    for a, j in enumerate(dependent):
        zs[j] |= 1 << (n + a)
    return [
        Rotation(_pauli(n + t, x, z, k), r.origin) for x, z, k, r in zip(xs, zs, ks, rotations)
    ]


def synthesize_layer(layer: Sequence[Rotation]) -> Circuit:
    """Realize pairwise-commuting independent rotations with one T layer.

    Emits C, then a parallel T/Tdg per rotation sign, then C-adjoint, where
    C maps axis j onto Z of qubit j.  Dependent sets raise; extend with
    ancillas first.
    """
    axes = [r.pauli for r in layer]
    if not axes:
        return Circuit.on_qubits(0)
    n = axes[0].n
    xs, zs, signed = _rows(axes, n)
    ks = [(x & z).bit_count() & 3 for x, z in zip(xs, zs)]  # the +axes P(x, z)
    # each axis's sign, read before the diagonalizer rewrites ks in place
    phases = [_g("T" if k == s else "Tdg", j) for j, (k, s) in enumerate(zip(ks, signed))]
    basis = [
        _lowerings(g.kind, *g.qubits) for g in _diagonalize_with_gates(xs, zs, ks, n, len(ks))
    ]
    gates: list[Gate] = [low for forward, _ in basis for low in forward] + phases
    gates.extend(low for _, adjoint in reversed(basis) for low in adjoint)
    return Circuit.on_qubits(n, gates)


def synthesize_schedule(form: RotationForm, layers: Sequence[Sequence[int]]) -> Circuit:
    """One T layer per entry of ``layers`` (rotation indices), then the tail.

    All layers share t = max(|layer| - GF(2) rank) ancillas, the fewest that
    make every layer independent; they follow the data qubits as the first
    free names among anc0, anc1, .., start in |0> and end in |0>.  Qubit
    names and .i/.o come from ``form.source``; with ancillas and no .i, the
    .i line lists the data qubits, so a reader starts the ancillas in |0>.

    The layers must list every rotation index exactly once (else ValueError);
    their order is the caller's to keep: anticommuting rotations keep theirs.
    """
    n, xs, zs = form.n, form._x, form._z
    if sorted(v for layer in layers for v in layer) != list(range(len(xs))):
        raise ValueError("layers must list every rotation index exactly once")
    bits = ([xs[v] | zs[v] << n for v in layer] for layer in layers)
    t = max((len(_dependent_indices(b)) for b in bits), default=0)
    rotations = form.rotations
    gates: list[Gate] = []
    for layer in layers:
        members = [rotations[v] for v in layer]
        gates.extend(synthesize_layer(extend_with_ancillas(members, t)).gates)
    gates.extend(synthesize(form.tail_clifford).gates)
    source = form.source if form.source is not None else Circuit.on_qubits(form.n)
    spare = (f"anc{i}" for i in count() if f"anc{i}" not in source.qubit_names)
    names = source.qubit_names + tuple(islice(spare, t))
    inputs = source.qubit_names if source.inputs is None and t else source.inputs
    return Circuit(names, tuple(gates), inputs, source.outputs)


def from_rotation_form_resynth(form: RotationForm) -> Circuit:
    """Re-emit every rotation as its own T layer plus a synthesized tail.

    Each rotation becomes W, T (or Tdg for a negative axis) on qubit 0,
    W-adjoint, where W diagonalizes the axis onto Z_0; the tail Clifford is
    synthesized by Gaussian elimination.  CNOT count may grow in this mode.
    """
    return synthesize_schedule(form, [(i,) for i in range(len(form.rotations))])


def apply_edit_plan(circuit: Circuit, plan: EditPlan) -> Circuit:
    """Apply deletions/replacements in place; all other gates keep position."""
    _REPLACEMENT = {"T": "S", "Tdg": "Sdg"}
    for index in plan.deletions | plan.replacements:
        if not 0 <= index < len(circuit.gates):
            raise ValueError(f"edit index {index} out of range")
        if circuit.gates[index].kind not in _REPLACEMENT:
            raise ValueError(
                f"edit index {index} is a {circuit.gates[index].kind}, not T/Tdg"
            )
    out: list[Gate] = []
    for index, gate in enumerate(circuit.gates):
        if index in plan.deletions:
            continue
        if index in plan.replacements:
            out.append(_g(_REPLACEMENT[gate.kind], *gate.qubits))
        else:
            out.append(gate)
    # every gate is the circuit's own or a phase gate on the same qubit
    return circuit._with_gates_unchecked(out)
