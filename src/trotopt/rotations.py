"""Conversion between Clifford+T circuits and quarter-rotation products.

A circuit over {Clifford, T, Tdg} is rewritten as an ordered list of pi/4
rotations about signed Pauli axes followed by one trailing Clifford: every
T contributes one rotation whose axis is the prefix-conjugated Z of its
target qubit, and all Clifford gates accumulate into the tail.  Extraction
keeps the inverse Clifford prefix as one mutable array of integer rows (X
mask, Z mask and i exponent per generator image) and rewrites at most four
of them per Clifford gate, with no tableau object built; it freezes and
inverts the array once, only when the tail is read.  The way back is layer
synthesis: each layer of commuting rotations becomes one parallel T layer,
with ancillas for dependent layers; resynthesis is the schedule of
singleton layers.  Global phase is dropped throughout; equivalence is
always modulo phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice
from typing import Callable, Sequence

from .circuit import Circuit, Gate, UnsupportedGateError
from .pauli import PauliProduct
from .tableau import (
    CliffordTableau,
    DependentSetError,
    _Rows,
    _adjoint_gates,
    _dependent_indices,
    _diagonalize_with_gates,
    _lower_gate,
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


@dataclass(frozen=True)
class RotationForm:
    """Ordered rotations (index 0 acts first) plus the absorbed tail Clifford.

    ``tail`` is the tableau or a no-argument function that builds it, called
    once, on the first read of :attr:`tail_clifford`: an unread tail is free.
    """

    n: int
    rotations: tuple[Rotation, ...]
    tail: CliffordTableau | Callable[[], CliffordTableau]
    source: Circuit | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rotations", tuple(self.rotations))
        for r in self.rotations:
            if r.pauli.n != self.n:
                raise ValueError("rotation width does not match qubit count")
        if not callable(self.tail):
            self.tail_clifford  # a given tableau is checked at once

    @cached_property
    def tail_clifford(self) -> CliffordTableau:
        tail = self.tail() if callable(self.tail) else self.tail
        if tail.n != self.n:
            raise ValueError("tail Clifford width does not match qubit count")
        return tail

    def t_count(self) -> int:
        return len(self.rotations)

    def dump(self) -> str:
        """One rotation per line: ``+-PAULI @gate_index``."""
        return "\n".join(str(r) for r in self.rotations)


def to_rotation_form(circuit: Circuit) -> RotationForm:
    """Single left-to-right pass over one row array, the inverse Clifford prefix.

    A Clifford gate rewrites only its qubits' rows in place; a T on qubit q
    reads its axis straight off the Z row for q (a Tdg flips its sign).  The
    tail, the prefix itself, is that array's inverse, built on first read.
    """
    inverse_prefix = _Rows.identity(circuit.n)
    rotations: list[Rotation] = []
    for index, gate in enumerate(circuit.gates):
        if gate.kind in ("T", "Tdg"):
            axis = inverse_prefix.row(circuit.n + gate.qubits[0])
            if gate.kind == "Tdg":
                axis = -axis
            rotations.append(Rotation(axis, origin=index))
        elif gate.is_clifford:
            inverse_prefix.precompose_inverse(gate)
        else:
            raise UnsupportedGateError(
                f"{gate.kind} at index {index}: expand() the circuit first"
            )

    def tail() -> CliffordTableau:
        return inverse_prefix.tableau().invert()

    return RotationForm(circuit.n, tuple(rotations), tail, source=circuit)


def extend_with_ancillas(layer: Sequence[Rotation], t: int) -> list[Rotation]:
    """Widen each rotation by ``t`` trailing ancilla qubits and tag with Z,
    each on its own ancilla, only the rotations whose axes are products of
    earlier axes in the layer.

    Ancilla components are always I or Z, so ancillas prepared in |0> stay
    in |0> and the anticommutation structure is untouched.  The result is
    independent; more than ``t`` dependent rotations raise
    :class:`DependentSetError`.
    """
    if t < 0:
        raise ValueError("ancilla count must be nonnegative")
    rotations = list(layer)
    if not rotations:
        return []
    dependent = _dependent_indices([r.pauli for r in rotations])
    if len(dependent) > t:
        raise DependentSetError(
            f"{t} ancilla(s) cannot make {len(rotations)} rotations independent"
        )
    n = rotations[0].pauli.n
    tags = {j: 1 << (n + a) for a, j in enumerate(dependent)}
    extended: list[Rotation] = []
    for j, rotation in enumerate(rotations):
        pauli = rotation.pauli.extend(t)
        if j in tags:
            pauli = PauliProduct(n + t, pauli.x, pauli.z | tags[j], pauli.sign)
        extended.append(Rotation(pauli, origin=rotation.origin))
    return extended


def synthesize_layer(layer: Sequence[Rotation]) -> Circuit:
    """Realize pairwise-commuting independent rotations with one T layer.

    Emits C, then a parallel T/Tdg per rotation sign, then C-adjoint, where
    C maps axis j onto Z of qubit j.  Dependent sets raise; extend with
    ancillas first.
    """
    rotations = list(layer)
    if not rotations:
        return Circuit.on_qubits(0)
    n = rotations[0].pauli.n
    basis_gates = _diagonalize_with_gates([r.pauli.unsigned() for r in rotations])
    gates: list[Gate] = [low for g in basis_gates for low in _lower_gate(g)]
    for j, rotation in enumerate(rotations):
        gates.append(Gate("T" if rotation.pauli.sign > 0 else "Tdg", (j,)))
    gates.extend(low for g in _adjoint_gates(basis_gates) for low in _lower_gate(g))
    return Circuit.on_qubits(n, gates)


def synthesize_schedule(form: RotationForm, layers: Sequence[Sequence[int]]) -> Circuit:
    """One T layer per entry of ``layers`` (rotation indices), then the tail.

    All layers share t = max(|layer| - GF(2) rank) ancillas, the fewest that
    make every layer independent; they follow the data qubits as the first
    free names among anc0, anc1, .., start in |0> and end in |0>.  Qubit
    names and .i/.o come from ``form.source``; with ancillas and no .i, the
    .i line lists the data qubits, so a reader starts the ancillas in |0>.
    """
    members = [[form.rotations[v] for v in layer] for layer in layers]
    t = max((len(_dependent_indices([r.pauli for r in m])) for m in members), default=0)
    gates: list[Gate] = []
    for m in members:
        gates.extend(synthesize_layer(extend_with_ancillas(m, t)).gates)
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
            out.append(Gate(_REPLACEMENT[gate.kind], gate.qubits))
        else:
            out.append(gate)
    return circuit.with_gates(out)
