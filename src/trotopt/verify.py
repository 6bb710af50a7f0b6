"""Ground-truth dense-unitary oracle for small registers.

Everything here is built directly from 2x2 matrix definitions, independent
of the tableau machinery, so it can arbitrate sign and phase conventions.
Qubit 0 is the most significant bit of the basis index (the leftmost
Kronecker factor).

:func:`unitary_of` holds the unitary as a tensor of shape ``(2,)*n + (2^n,)``
and applies each gate to its own qubit axes only: a 2x2 contraction for H
and Y, a block phase for diagonal gates, a block swap for X/CNOT/Toffoli and
an axis swap for SWAP.  That is O(4^n) work per gate and never forms a
2^n x 2^n gate matrix.  :func:`gate_matrix`, :func:`pauli_matrix` and
:func:`rotation_matrix` build full matrices from Kronecker products; they are
the references the kernel is tested against.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .circuit import Circuit, Gate
from .pauli import PauliProduct
from .rotations import RotationForm
from .tableau import synthesize

DEFAULT_QUBIT_CAP = 10

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_T = np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex)

_ONE_QUBIT = {
    "H": _H,
    "X": _X,
    "Y": _Y,
    "Z": _Z,
    "S": _S,
    "Sdg": _S.conj().T,
    "T": _T,
    "Tdg": _T.conj().T,
}

# Diagonal gates: the phase on the block where all of their qubits are 1.
_PHASE = {kind: _ONE_QUBIT[kind][1, 1] for kind in ("Z", "S", "Sdg", "T", "Tdg")}
_PHASE.update(CZ=-1, CCZ=-1)

_PROJ0 = np.diag([1, 0]).astype(complex)
_PROJ1 = np.diag([0, 1]).astype(complex)


def _embed1(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    left = np.eye(1 << qubit, dtype=complex)
    right = np.eye(1 << (n - qubit - 1), dtype=complex)
    return np.kron(np.kron(left, op), right)


def gate_matrix(gate: Gate, n: int) -> np.ndarray:
    """Full 2^n matrix of one gate on an n-qubit register."""
    if gate.kind in _ONE_QUBIT:
        return _embed1(_ONE_QUBIT[gate.kind], gate.qubits[0], n)
    if gate.kind == "CNOT":
        c, t = gate.qubits
        return _embed1(_PROJ0, c, n) + _embed1(_PROJ1, c, n) @ _embed1(_X, t, n)
    if gate.kind == "CZ":
        c, t = gate.qubits
        return _embed1(_PROJ0, c, n) + _embed1(_PROJ1, c, n) @ _embed1(_Z, t, n)
    if gate.kind == "SWAP":
        a, b = gate.qubits
        cnot_ab = gate_matrix(Gate("CNOT", (a, b)), n)
        cnot_ba = gate_matrix(Gate("CNOT", (b, a)), n)
        return cnot_ab @ cnot_ba @ cnot_ab
    if gate.kind == "CCZ":
        a, b, t = gate.qubits
        both = _embed1(_PROJ1, a, n) @ _embed1(_PROJ1, b, n)
        return np.eye(1 << n, dtype=complex) + both @ (_embed1(_Z, t, n) - np.eye(1 << n))
    if gate.kind == "TOFFOLI":
        a, b, t = gate.qubits
        both = _embed1(_PROJ1, a, n) @ _embed1(_PROJ1, b, n)
        return np.eye(1 << n, dtype=complex) + both @ (_embed1(_X, t, n) - np.eye(1 << n))
    raise ValueError(f"no dense matrix for gate kind {gate.kind!r}")


def pauli_matrix(p: PauliProduct) -> np.ndarray:
    """Dense matrix of a signed Pauli product."""
    letters = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}
    m = np.eye(1, dtype=complex)
    for q in range(p.n):
        m = np.kron(m, letters[p.letter(q)])
    return p.sign * m


def rotation_matrix(p: PauliProduct) -> np.ndarray:
    """The pi/4 rotation about ``p``: (1+e^{i pi/4})/2 I + (1-e^{i pi/4})/2 P."""
    w = np.exp(1j * math.pi / 4)
    dim = 1 << p.n
    return (1 + w) / 2 * np.eye(dim, dtype=complex) + (1 - w) / 2 * pauli_matrix(p)


def _check_unitary(u: np.ndarray) -> np.ndarray:
    dim = u.shape[0]
    err = np.linalg.norm(u.conj().T @ u - np.eye(dim), "fro")
    if err > 1e-9:
        raise ValueError(f"matrix is not unitary (Frobenius defect {err:.2e})")
    return u


class VerificationCapError(ValueError):
    """T_ROT_OPT_VERIFY_CAP is set to something that is not an integer."""


def verification_cap() -> int:
    """Qubit cap for dense verification; T_ROT_OPT_VERIFY_CAP overrides."""
    raw = os.environ.get("T_ROT_OPT_VERIFY_CAP")
    if raw is None:
        return DEFAULT_QUBIT_CAP
    try:
        return int(raw)
    except ValueError:
        raise VerificationCapError(
            f"T_ROT_OPT_VERIFY_CAP must be an integer, got {raw!r}"
        ) from None


def _ones(n: int, qubits) -> tuple:
    """Index of the block where every qubit in ``qubits`` is 1, keeping all axes."""
    idx = [slice(None)] * (n + 1)
    for q in qubits:
        idx[q] = slice(1, 2)
    return tuple(idx)


def _apply(u: np.ndarray, gate: Gate) -> np.ndarray:
    """Left-multiply the (2,)*n + (dim,) tensor ``u`` by one gate, on its axes only.

    Works in place where it can (``u`` must not be shared); returns the result.
    """
    n = u.ndim - 1
    kind, qubits = gate.kind, gate.qubits
    if kind in _PHASE:  # scale the block where all the gate's qubits are 1
        u[_ones(n, qubits)] *= _PHASE[kind]
    elif kind in ("X", "CNOT", "TOFFOLI"):  # flip the target where all controls are 1
        block = _ones(n, qubits[:-1])
        u[block] = np.flip(u[block], axis=qubits[-1])
    elif kind == "SWAP":
        u = np.swapaxes(u, *qubits)
    elif kind in _ONE_QUBIT:
        q = qubits[0]
        u = np.moveaxis(np.tensordot(_ONE_QUBIT[kind], u, axes=([1], [q])), 0, q)
    else:
        raise ValueError(f"no dense matrix for gate kind {kind!r}")
    return u


def unitary_of(obj: Circuit | RotationForm, max_qubits: int | None = None) -> np.ndarray:
    """Exact gate-by-gate (or rotation-by-rotation) dense unitary.

    Each gate touches only its own tensor axes, so it costs O(4^n) rather
    than the O(8^n) of a full matrix product.
    """
    if not isinstance(obj, (Circuit, RotationForm)):
        raise TypeError(f"cannot build a unitary from {type(obj).__name__}")
    cap = DEFAULT_QUBIT_CAP if max_qubits is None else max_qubits
    if obj.n > cap:
        raise ValueError(f"{obj.n} qubits exceeds the verification cap of {cap}")
    n, dim = obj.n, 1 << obj.n
    u = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    if isinstance(obj, Circuit):
        gates = obj.gates
    else:
        w = np.exp(1j * math.pi / 4)
        for rotation in obj.rotations:
            # R(P) U = (1+w)/2 U + (1-w)/2 P U, with P applied letter by letter.
            p = rotation.pauli
            pu = u.copy()
            for q in p.support():
                pu = _apply(pu, Gate(p.letter(q), (q,)))
            u = (1 + w) / 2 * u + (1 - w) / 2 * p.sign * pu
        gates = synthesize(obj.tail_clifford).gates
    for gate in gates:
        u = _apply(u, gate)
    return _check_unitary(u.reshape(dim, dim))


def equivalent_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> bool:
    """True iff a == lambda * b for some unit scalar lambda.

    The phase is read off at b's largest-magnitude entry, which keeps the
    comparison stable against near-zero entries.
    """
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    flat = np.argmax(np.abs(b))
    idx = np.unravel_index(flat, b.shape)
    if abs(b[idx]) < tol:
        return bool(np.max(np.abs(a)) < tol)
    lam = a[idx] / b[idx]
    if abs(abs(lam) - 1) > tol:
        return False
    return bool(np.max(np.abs(a - lam * b)) <= tol)
