"""Conversion between Clifford+T circuits and quarter-rotation products.

A circuit over {Clifford, T, Tdg} is rewritten as an ordered list of pi/4
rotations about signed Pauli axes followed by one trailing Clifford: every
T contributes one rotation whose axis is the prefix-conjugated Z of its
target qubit, and all Clifford gates accumulate into the tail.  Extraction
rewrites at most four rows of one tableau per Clifford gate and inverts it
once, only when the tail is read.  Global phase is dropped throughout;
equivalence is always modulo phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .circuit import Circuit, Gate, UnsupportedGateError
from .pauli import PauliProduct
from .tableau import CliffordTableau, _diagonalize_with_gates, _adjoint_gates, \
    _lower_gate, synthesize_gates


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
    """Single left-to-right pass over one tableau, the inverse Clifford prefix.

    A Clifford gate rewrites only its qubits' rows; a T on qubit q reads its
    axis straight off the tableau's Z row for q (a Tdg flips its sign).  The
    tail, the prefix itself, is that tableau's inverse, built on first read.
    """
    inverse_prefix = CliffordTableau.identity(circuit.n)
    rotations: list[Rotation] = []
    for index, gate in enumerate(circuit.gates):
        if gate.kind in ("T", "Tdg"):
            axis = inverse_prefix.z_images[gate.qubits[0]]
            if gate.kind == "Tdg":
                axis = -axis
            rotations.append(Rotation(axis, origin=index))
        elif gate.is_clifford:
            inverse_prefix = inverse_prefix.precompose_inverse(gate)
        else:
            raise UnsupportedGateError(
                f"{gate.kind} at index {index}: expand() the circuit first"
            )
    return RotationForm(circuit.n, tuple(rotations), inverse_prefix.invert, source=circuit)


def from_rotation_form_resynth(form: RotationForm) -> Circuit:
    """Re-emit every rotation as conjugated-T gates plus a synthesized tail.

    Each rotation becomes W, T (or Tdg for a negative axis) on qubit 0,
    W-adjoint, where W diagonalizes the axis onto Z_0; the tail Clifford is
    synthesized by Gaussian elimination.  CNOT count may grow in this mode.
    """
    gates: list[Gate] = []
    for rotation in form.rotations:
        axis = rotation.pauli
        _, w_gates = _diagonalize_with_gates([axis.unsigned()])
        gates.extend(low for g in w_gates for low in _lower_gate(g))
        gates.append(Gate("T" if axis.sign > 0 else "Tdg", (0,)))
        gates.extend(low for g in _adjoint_gates(w_gates) for low in _lower_gate(g))
    gates.extend(
        low for g in synthesize_gates(form.tail_clifford) for low in _lower_gate(g)
    )
    names = form.source.qubit_names if form.source is not None else None
    if names is not None:
        return Circuit(names, tuple(gates))
    return Circuit.on_qubits(form.n, gates)


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
