"""Gate-level circuit IR over named qubits, plus the ``.qc`` text format.

The gate list is a flat ordered sequence; the gate at index 0 is applied
first.  Multi-controlled phase gates (CCZ, Toffoli) are carried verbatim
by the IR and lowered to Clifford+T by :func:`expand`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
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


@lru_cache(maxsize=1 << 16)
def _g(kind: str, *qubits: int) -> Gate:
    """The gate ``kind`` on ``qubits``, interned: the constructor that
    parsing, expansion, editing and synthesis build their gates with.

    Equal arguments return the same validated :class:`Gate`, so each
    distinct (kind, qubits) runs ``__post_init__`` once while it stays in
    the bounded memo.  An invalid gate is not memoized and raises on every
    call.
    """
    return Gate(kind, qubits)


@lru_cache(maxsize=64)
def _anonymous_names(n: int) -> tuple[str, ...]:
    """The names q0..q{n-1}, built once per width while it stays in the memo."""
    return tuple(f"q{i}" for i in range(n))


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
        n = len(self.qubit_names)
        if len(set(self.qubit_names)) != n:
            raise ValueError("duplicate qubit names")
        if max([q for g in self.gates for q in g.qubits], default=-1) >= n:
            g = next(g for g in self.gates if max(g.qubits) >= n)
            raise ValueError(f"gate {g} references qubit outside register of {n}")
        for names in (self.inputs, self.outputs):
            if names is not None:
                unknown = set(names) - set(self.qubit_names)
                if unknown:
                    raise ValueError(f"undeclared qubits in .i/.o: {sorted(unknown)}")
                if len(set(names)) != len(names):
                    raise ValueError("repeated qubit name in .i/.o")

    @classmethod
    def on_qubits(cls, n: int, gates: Iterable[Gate] = ()) -> Circuit:
        """A circuit on ``n`` anonymous qubits named q0..q{n-1}."""
        return cls(_anonymous_names(n), tuple(gates))

    @property
    def n(self) -> int:
        return len(self.qubit_names)

    def with_gates(self, gates: Iterable[Gate]) -> Circuit:
        return replace(self, gates=tuple(gates))

    def _with_gates_unchecked(self, gates: Iterable[Gate]) -> Circuit:
        """:meth:`with_gates` without the checks, for gates that act only on
        qubits this circuit's gates already act on."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, gates=tuple(gates))
        return out

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
        """Lower every CCZ/Toffoli to the 7-T, 6-CNOT network; a circuit
        with neither is returned as it is."""
        if not any(g.kind in ("CCZ", "TOFFOLI") for g in self.gates):
            return self
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


# .qc mnemonic, upper-cased -> the gate kind it names with k operands, at
# entry k - 1; None marks an operand count the mnemonic does not take
_KINDS_OF_MNEMONIC = {
    "H": ("H",),
    "X": ("X",),
    "Y": ("Y",),
    "S": ("S",),
    "T": ("T",),
    "S*": ("Sdg",),
    "T*": ("Tdg",),
    "Z": ("Z", "CZ", "CCZ"),
    "TOF": ("X", "CNOT", "TOFFOLI"),
    "CNOT": (None, "CNOT"),
    "SWAP": (None, "SWAP"),
}


def _parse_gate_tokens(mnemonic: str, operands: Sequence[int], line: int) -> Gate:
    kinds = _KINDS_OF_MNEMONIC.get(mnemonic.upper())
    if kinds is None:
        raise ParseError(f"unsupported gate mnemonic {mnemonic!r}", line)
    k = len(operands)
    kind = kinds[k - 1] if 0 < k <= len(kinds) else None
    if kind is not None:
        return _g(kind, *operands)
    takes = [count for count, named in enumerate(kinds, start=1) if named]
    if len(takes) > 1 and k > takes[-1]:
        raise ParseError(
            f"{mnemonic} with {k - 1} controls is not supported (max {takes[-1] - 1})", line
        )
    counts = f"{takes[0]} to {takes[-1]}" if len(takes) > 1 else f"{takes[0]}"
    raise ParseError(f"{mnemonic} takes {counts} qubit(s), got {k}", line)


def parse_qc(text: str) -> Circuit:
    """Parse ``.qc`` text: ``.v/.i/.o`` header, then gates between BEGIN/END.

    Gate lines name a mnemonic followed by qubit identifiers; for
    multi-qubit gates the rightmost identifier is the target and the rest
    are controls.  ``#`` starts a comment.  Rotation-angle gates and more
    than two controls are rejected.  A gate line repeated in the body, up to
    comments and the whitespace around it, is tokenized only once.
    """
    names: list[str] | None = None
    inputs: tuple[str, ...] | None = None
    outputs: tuple[str, ...] | None = None
    gates: list[Gate] = []
    index: dict[str, int] = {}
    parsed: dict[str, Gate] = {}  # gate line text -> its gate, for lines that parsed
    in_body = False
    body_done = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_body:
            gate = parsed.get(line)
            if gate is not None:
                gates.append(gate)
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
                if (inputs if head == ".i" else outputs) is not None:
                    raise ParseError(f"duplicate {head} header", lineno)
                listed = tuple(tokens[1:])
                unknown = [t for t in listed if t not in index]
                if unknown:
                    raise ParseError(f"undeclared qubit(s) {unknown} in {head}", lineno)
                if len(set(listed)) != len(listed):
                    raise ParseError(f"duplicate qubit name in {head}", lineno)
                if head == ".i":
                    inputs = listed
                else:
                    outputs = listed
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
        gate = parsed[line] = _parse_gate_tokens(head, operands, lineno)
        gates.append(gate)

    if names is None:
        raise ParseError("missing .v header")
    if in_body:
        raise ParseError("missing END")
    if not body_done:
        raise ParseError("missing BEGIN/END body")
    return Circuit(tuple(names), tuple(gates), inputs, outputs)


# gate kind -> its .qc mnemonic and the space before the operands
_WRITE_PREFIX = {
    "H": "H ",
    "X": "X ",
    "Y": "Y ",
    "Z": "Z ",
    "S": "S ",
    "Sdg": "S* ",
    "T": "T ",
    "Tdg": "T* ",
    "CNOT": "tof ",
    "TOFFOLI": "tof ",
    "CZ": "Z ",
    "CCZ": "Z ",
    "SWAP": "swap ",
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
    names, prefix = circuit.qubit_names, _WRITE_PREFIX
    # one and two operands, the gates synthesis emits, need no list or join
    lines += [
        prefix[g.kind] + (
            names[qs[0]] if len(qs := g.qubits) == 1
            else names[qs[0]] + " " + names[qs[1]] if len(qs) == 2
            else " ".join([names[q] for q in qs])
        )
        for g in circuit.gates
    ]
    lines.append("END")
    return "\n".join(lines) + "\n"
