"""Reference `.qc` reader, writer and statevector simulator for the benchmark.

Nothing here imports trotopt: the checks in ``run.py`` compare trotopt's
outputs against these routines, so they must not share code with it.
Toffoli and CCZ gates are simulated as the true 3-qubit gates, so the
checks also cover trotopt's own Clifford+T lowering.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# gate kinds are trotopt's names, with TOF for Toffoli; Sdg/Tdg are adjoints
PHASE = frozenset({"S", "Sdg", "T", "Tdg"})

_MNEMONIC = {
    "H": "H", "X": "X", "Y": "Y", "Z": "Z", "S": "S", "Sdg": "S*",
    "T": "T", "Tdg": "T*", "CNOT": "tof", "TOF": "tof", "CZ": "Z",
    "CCZ": "Z", "SWAP": "swap",
}


class QcError(ValueError):
    """A `.qc` text this reader cannot interpret."""


class Circ:
    """Named qubits plus a gate list of ``(kind, qubit-index tuple)``."""

    def __init__(self, names, gates=()):
        self.names = list(names)
        self.gates = [(k, tuple(q)) for k, q in gates]

    @property
    def n(self) -> int:
        return len(self.names)

    def add(self, kind: str, *qubits: int) -> None:
        self.gates.append((kind, qubits))


def read_qc(text: str) -> Circ:
    names = None
    index: dict[str, int] = {}
    gates = []
    in_body = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head.upper() == "BEGIN":
            in_body = True
            continue
        if head.upper() == "END":
            in_body = False
            continue
        if not in_body:
            if head == ".v":
                names = tokens[1:]
                index = {name: i for i, name in enumerate(names)}
            continue
        try:
            ops = tuple(index[t] for t in tokens[1:])
        except KeyError as exc:
            raise QcError(f"undeclared qubit {exc}") from None
        gates.append((_kind(head, len(ops)), ops))
    if names is None:
        raise QcError("missing .v header")
    return Circ(names, gates)


def _kind(mnemonic: str, k: int) -> str:
    upper = mnemonic.upper()
    if upper in ("S*", "T*"):
        return upper[0] + "dg"
    if upper in ("H", "X", "Y", "S", "T") and k == 1:
        return upper
    if upper == "Z" and 1 <= k <= 3:
        return ("Z", "CZ", "CCZ")[k - 1]
    if upper == "TOF" and 1 <= k <= 3:
        return ("X", "CNOT", "TOF")[k - 1]
    if upper == "CNOT" and k == 2:
        return "CNOT"
    if upper == "SWAP" and k == 2:
        return "SWAP"
    raise QcError(f"unsupported gate {mnemonic} on {k} qubit(s)")


def write_qc(circ: Circ, inputs=None) -> str:
    lines = [".v " + " ".join(circ.names)]
    if inputs is not None:
        lines.append(".i " + " ".join(inputs))
    lines += ["", "BEGIN"]
    for kind, qubits in circ.gates:
        lines.append(f"{_MNEMONIC[kind]} " + " ".join(circ.names[q] for q in qubits))
    lines.append("END")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# counts and structure


def counts(circ: Circ) -> Counter:
    """Gate counts after the standard 7-T / 6-CNOT lowering of CCZ and Toffoli."""
    c = Counter()
    for kind, _ in circ.gates:
        if kind in ("TOF", "CCZ"):
            c["T"] += 7
            c["CNOT"] += 6
            c["H"] += 2 if kind == "TOF" else 0
        elif kind in ("T", "Tdg"):
            c["T"] += 1
        else:
            c[kind] += 1
    return c


def non_phase_skeleton(circ: Circ) -> list:
    """The non-phase gate sequence of the lowered circuit.

    CCZ(a, b, t) lowers to CNOT(b,t) CNOT(a,t) CNOT(b,t) CNOT(a,t) CNOT(a,b)
    CNOT(a,b) with phase gates in between; Toffoli adds H(t) on both sides.
    """
    out = []
    for kind, qubits in circ.gates:
        if kind in ("TOF", "CCZ"):
            a, b, t = qubits
            h = [("H", (t,))] if kind == "TOF" else []
            out += h + [("CNOT", (b, t)), ("CNOT", (a, t)), ("CNOT", (b, t)),
                        ("CNOT", (a, t)), ("CNOT", (a, b)), ("CNOT", (a, b))] + h
        elif kind not in PHASE:
            out.append((kind, qubits))
    return out


# ----------------------------------------------------------------------
# statevector simulation on a batch of states

_W = np.exp(1j * math.pi / 4)
_PHASE = {"Z": -1.0, "S": 1j, "Sdg": -1j, "T": _W, "Tdg": np.conj(_W)}


def random_states(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` random normalised n-qubit states, shape (2,)*n + (k,)."""
    psi = rng.normal(size=(1 << n, k)) + 1j * rng.normal(size=(1 << n, k))
    psi /= np.linalg.norm(psi, axis=0)
    return psi.reshape((2,) * n + (k,))


def _at(n: int, fixed: dict) -> tuple:
    return tuple(fixed.get(q, slice(None)) for q in range(n))


def simulate(circ: Circ, psi: np.ndarray) -> np.ndarray:
    """Apply every gate of ``circ`` to a copy of the state batch ``psi``."""
    s = psi.copy()
    n = circ.n
    for kind, qs in circ.gates:
        if kind in _PHASE:
            s[_at(n, {qs[0]: 1})] *= _PHASE[kind]
        elif kind == "H":
            a, b = s[_at(n, {qs[0]: 0})], s[_at(n, {qs[0]: 1})]
            a, b = (a + b) / math.sqrt(2), (a - b) / math.sqrt(2)
            s[_at(n, {qs[0]: 0})], s[_at(n, {qs[0]: 1})] = a, b
        elif kind in ("X", "Y"):
            i0, i1 = _at(n, {qs[0]: 0}), _at(n, {qs[0]: 1})
            a, b = s[i0].copy(), s[i1].copy()
            if kind == "Y":
                a, b = -1j * a, 1j * b
            s[i0], s[i1] = b, a
        elif kind in ("CNOT", "TOF"):
            *controls, t = qs
            fixed = {c: 1 for c in controls}
            i0, i1 = _at(n, {**fixed, t: 0}), _at(n, {**fixed, t: 1})
            a = s[i0].copy()
            s[i0] = s[i1]
            s[i1] = a
        elif kind in ("CZ", "CCZ"):
            s[_at(n, {q: 1 for q in qs})] *= -1
        elif kind == "SWAP":
            a, b = qs
            i01, i10 = _at(n, {a: 0, b: 1}), _at(n, {a: 1, b: 0})
            x = s[i01].copy()
            s[i01] = s[i10]
            s[i10] = x
        else:
            raise QcError(f"cannot simulate {kind}")
    return s


def same_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-7) -> bool:
    """True iff a == lambda * b for one unit scalar lambda over the whole batch."""
    fa, fb = a.reshape(-1), b.reshape(-1)
    i = int(np.argmax(np.abs(fb)))
    if abs(fb[i]) < tol:
        return False
    lam = fa[i] / fb[i]
    return abs(abs(lam) - 1) < tol and float(np.max(np.abs(fa - lam * fb))) < tol


def equivalent(ref: Circ, out: Circ, rng: np.random.Generator, k: int = 2) -> bool:
    """Statevector check that ``out`` equals ``ref`` up to global phase.

    ``out`` may carry extra trailing ancilla qubits; they start in |0> and
    must end in |0>.
    """
    n, extra = ref.n, out.n - ref.n
    if extra < 0:
        return False
    psi = random_states(n, k, rng)
    want = simulate(ref, psi)
    wide = np.zeros((2,) * out.n + (k,), dtype=complex)
    wide[(Ellipsis,) + (0,) * extra + (slice(None),)] = psi
    got = simulate(out, wide).reshape(1 << n, 1 << extra, k)
    if extra and float(np.max(np.abs(got[:, 1:, :]), initial=0.0)) > 1e-7:
        return False
    return same_up_to_phase(got[:, 0, :], want.reshape(1 << n, k))
