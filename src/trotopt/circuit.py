"""Gate-level circuit IR over named qubits, plus the ``.qc`` text format.

The gate list is a flat ordered sequence; the gate at index 0 is applied
first.  Multi-controlled phase gates (CCZ, Toffoli) are carried verbatim
by the IR and lowered to Clifford+T by :func:`expand`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

# gate kind -> number of qubit operands
ARITY = {
    "H": 1,
    "X": 1,
    "Y": 1,
    "Z": 1,
    "S": 1,
    "Sdg": 1,
    "T": 1,
    "Tdg": 1,
    "CNOT": 2,
    "CZ": 2,
    "SWAP": 2,
    "CCZ": 3,
    "TOFFOLI": 3,
}

CLIFFORD_KINDS = frozenset({"H", "X", "Y", "Z", "S", "Sdg", "CNOT", "CZ", "SWAP"})


class ParseError(ValueError):
    """A malformed ``.qc`` input; carries the 1-based source line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


class UnsupportedGateError(ValueError):
    """A gate kind outside the set a routine can handle."""


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate application: kind plus operand qubits, controls first."""

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ARITY:
            raise UnsupportedGateError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if len(self.qubits) != ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} takes {ARITY[self.kind]} qubit(s), got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit in {self.kind} {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")

    @property
    def target(self) -> int:
        return self.qubits[-1]

    @property
    def is_clifford(self) -> bool:
        return self.kind in CLIFFORD_KINDS


def _g(kind: str, *qubits: int) -> Gate:
    return Gate(kind, qubits)


@dataclass(frozen=True)
class GateCounts:
    t_count: int
    cnot_count: int
    h_count: int
    gate_count: int
    by_kind: Mapping[str, int]

    def as_dict(self) -> dict:
        return {
            "t_count": self.t_count,
            "cnot_count": self.cnot_count,
            "h_count": self.h_count,
            "gate_count": self.gate_count,
            **{f"n_{kind}": v for kind, v in sorted(self.by_kind.items())},
        }


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over a fixed register of named qubits."""

    qubit_names: tuple[str, ...]
    gates: tuple[Gate, ...] = ()
    inputs: tuple[str, ...] | None = None
    outputs: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubit_names", tuple(self.qubit_names))
        object.__setattr__(self, "gates", tuple(self.gates))
        if len(set(self.qubit_names)) != len(self.qubit_names):
            raise ValueError("duplicate qubit names")
        for g in self.gates:
            if max(g.qubits) >= self.n:
                raise ValueError(f"gate {g} references qubit outside register of {self.n}")
        for names in (self.inputs, self.outputs):
            if names is not None:
                unknown = set(names) - set(self.qubit_names)
                if unknown:
                    raise ValueError(f"undeclared qubits in .i/.o: {sorted(unknown)}")

    @classmethod
    def on_qubits(cls, n: int, gates: Iterable[Gate] = ()) -> Circuit:
        """A circuit on ``n`` anonymous qubits named q0..q{n-1}."""
        return cls(tuple(f"q{i}" for i in range(n)), tuple(gates))

    @property
    def n(self) -> int:
        return len(self.qubit_names)

    def with_gates(self, gates: Iterable[Gate]) -> Circuit:
        return replace(self, gates=tuple(gates))

    def counts(self) -> GateCounts:
        by_kind = Counter(g.kind for g in self.gates)
        return GateCounts(
            t_count=by_kind["T"] + by_kind["Tdg"],
            cnot_count=by_kind["CNOT"],
            h_count=by_kind["H"],
            gate_count=len(self.gates),
            by_kind=dict(by_kind),
        )

    def expand(self) -> Circuit:
        """Lower every CCZ/Toffoli to the 7-T, 6-CNOT network; else unchanged."""
        out: list[Gate] = []
        for g in self.gates:
            if g.kind == "CCZ":
                out.extend(_ccz_network(*g.qubits))
            elif g.kind == "TOFFOLI":
                a, b, t = g.qubits
                out.append(_g("H", t))
                out.extend(_ccz_network(a, b, t))
                out.append(_g("H", t))
            else:
                out.append(g)
        return self.with_gates(out)


def _ccz_network(a: int, b: int, t: int) -> list[Gate]:
    # 7 T, 6 CNOT; equals diag(1,...,1,-1) exactly (checked by the dense oracle
    # in the test suite before anything else relies on it).
    return [
        _g("CNOT", b, t),
        _g("Tdg", t),
        _g("CNOT", a, t),
        _g("T", t),
        _g("CNOT", b, t),
        _g("Tdg", t),
        _g("CNOT", a, t),
        _g("T", b),
        _g("T", t),
        _g("CNOT", a, b),
        _g("T", a),
        _g("Tdg", b),
        _g("CNOT", a, b),
    ]


# ----------------------------------------------------------------------
# .qc format


def _parse_gate_tokens(mnemonic: str, operands: Sequence[int], line: int) -> Gate:
    upper = mnemonic.upper()
    k = len(operands)
    if upper in ("H", "Y", "S", "T", "S*", "T*"):
        if k != 1:
            raise ParseError(f"{mnemonic} takes one qubit, got {k}", line)
        kind = {"S*": "Sdg", "T*": "Tdg"}.get(upper, upper)
        return _g(kind, operands[0])
    if upper == "X":
        if k != 1:
            raise ParseError(f"X takes one qubit, got {k}", line)
        return _g("X", operands[0])
    if upper == "Z":
        if k == 1:
            return _g("Z", operands[0])
        if k == 2:
            return _g("CZ", *operands)
        if k == 3:
            return _g("CCZ", *operands)
        raise ParseError(f"Z with {k - 1} controls is not supported (max 2)", line)
    if upper == "TOF":
        if k == 1:
            return _g("X", operands[0])
        if k == 2:
            return _g("CNOT", *operands)
        if k == 3:
            return _g("TOFFOLI", *operands)
        raise ParseError(f"tof with {k - 1} controls is not supported (max 2)", line)
    if upper == "CNOT":
        if k != 2:
            raise ParseError(f"cnot takes two qubits, got {k}", line)
        return _g("CNOT", *operands)
    if upper == "SWAP":
        if k != 2:
            raise ParseError(f"swap takes two qubits, got {k}", line)
        return _g("SWAP", *operands)
    raise ParseError(f"unsupported gate mnemonic {mnemonic!r}", line)


def parse_qc(text: str) -> Circuit:
    """Parse ``.qc`` text: ``.v/.i/.o`` header, then gates between BEGIN/END.

    Gate lines name a mnemonic followed by qubit identifiers; for
    multi-qubit gates the rightmost identifier is the target and the rest
    are controls.  ``#`` starts a comment.  Rotation-angle gates and more
    than two controls are rejected.
    """
    names: list[str] | None = None
    inputs: tuple[str, ...] | None = None
    outputs: tuple[str, ...] | None = None
    gates: list[Gate] = []
    index: dict[str, int] = {}
    in_body = False
    body_done = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if head.upper() == "BEGIN":
            if len(tokens) != 1:
                raise ParseError("BEGIN takes no arguments", lineno)
            if names is None:
                raise ParseError("BEGIN before .v header", lineno)
            if in_body or body_done:
                raise ParseError("duplicate BEGIN", lineno)
            in_body = True
            continue
        if head.upper() == "END":
            if not in_body:
                raise ParseError("END without BEGIN", lineno)
            in_body = False
            body_done = True
            continue

        if not in_body:
            if body_done:
                raise ParseError("content after END", lineno)
            if head == ".v":
                if names is not None:
                    raise ParseError("duplicate .v header", lineno)
                names = tokens[1:]
                if not names:
                    raise ParseError(".v declares no qubits", lineno)
                if len(set(names)) != len(names):
                    raise ParseError("duplicate qubit name in .v", lineno)
                index = {name: i for i, name in enumerate(names)}
            elif head in (".i", ".o"):
                if names is None:
                    raise ParseError(f"{head} before .v header", lineno)
                unknown = [t for t in tokens[1:] if t not in index]
                if unknown:
                    raise ParseError(f"undeclared qubit(s) {unknown} in {head}", lineno)
                if head == ".i":
                    inputs = tuple(tokens[1:])
                else:
                    outputs = tuple(tokens[1:])
            else:
                raise ParseError(f"unexpected directive or gate outside BEGIN/END: {head!r}", lineno)
            continue

        # gate line
        operands = []
        for tok in tokens[1:]:
            if tok not in index:
                raise ParseError(f"undeclared qubit {tok!r}", lineno)
            operands.append(index[tok])
        if len(set(operands)) != len(operands):
            raise ParseError("repeated qubit operand", lineno)
        gates.append(_parse_gate_tokens(head, operands, lineno))

    if names is None:
        raise ParseError("missing .v header")
    if in_body:
        raise ParseError("missing END")
    if not body_done:
        raise ParseError("missing BEGIN/END body")
    return Circuit(tuple(names), tuple(gates), inputs, outputs)


_WRITE_MNEMONIC = {
    "H": "H",
    "X": "X",
    "Y": "Y",
    "Z": "Z",
    "S": "S",
    "Sdg": "S*",
    "T": "T",
    "Tdg": "T*",
    "CNOT": "tof",
    "TOFFOLI": "tof",
    "CZ": "Z",
    "CCZ": "Z",
    "SWAP": "swap",
}


def write_qc(circuit: Circuit) -> str:
    """Serialize to ``.qc`` text; inverse of :func:`parse_qc` up to whitespace."""
    lines = [".v " + " ".join(circuit.qubit_names)]
    if circuit.inputs is not None:
        lines.append(".i " + " ".join(circuit.inputs))
    if circuit.outputs is not None:
        lines.append(".o " + " ".join(circuit.outputs))
    lines.append("")
    lines.append("BEGIN")
    for g in circuit.gates:
        ops = " ".join(circuit.qubit_names[q] for q in g.qubits)
        lines.append(f"{_WRITE_MNEMONIC[g.kind]} {ops}")
    lines.append("END")
    return "\n".join(lines) + "\n"
