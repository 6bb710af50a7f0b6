"""Ground-truth dense-unitary oracle for small circuits.

Everything here is built directly from 2x2 matrix definitions, independent
of the tableau machinery, so it can arbitrate sign and phase conventions:
the oracle takes a :class:`~trotopt.circuit.Circuit` only, and this module
imports nothing from the rotation or tableau code it checks.  Qubit 0 is
the most significant bit of the basis index (the leftmost Kronecker
factor).

:func:`unitary_of` holds the unitary as a tensor of shape ``(2,)*n + (2^n,)``
and applies each gate to its own qubit axes only: a 2x2 contraction for H
and Y, a block phase for diagonal gates, a block swap for X/CNOT/Toffoli and
an axis swap for SWAP.  That is O(4^n) work per gate and never forms a
2^n x 2^n gate matrix.  Toffoli and CCZ are applied as written, one block op
each, never through their Clifford+T network, so a circuit compared with its
optimized form also checks the expansion the optimizer started from.  A
unitary over ``_MAX_UNITARY_BYTES`` (1 GiB, so n <= 13) is refused before
anything is allocated.  :func:`pauli_matrix` and :func:`rotation_matrix`
build full matrices from Kronecker products; they are references the kernel
is tested against.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import Circuit, Gate
from .pauli import PauliProduct

DEFAULT_QUBIT_CAP = 10

# Largest 2^n x 2^n complex128 unitary the oracle allocates: 1 GiB, n = 13.
_MAX_UNITARY_BYTES = 1 << 30

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
    if not err <= 1e-9:  # a NaN defect compares False both ways, so it fails here
        raise ValueError(f"matrix is not unitary (Frobenius defect {err:.2e})")
    return u


class VerificationCapError(ValueError):
    """The register is over the oracle's qubit cap, or its unitary over the memory budget."""


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


def unitary_of(circuit: Circuit, max_qubits: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Exact gate-by-gate dense unitary of a circuit.

    Each gate touches only its own tensor axes, so it costs O(4^n) rather
    than the O(8^n) of a full matrix product.
    """
    if not isinstance(circuit, Circuit):
        raise TypeError(f"cannot build a unitary from {type(circuit).__name__}")
    n, dim = circuit.n, 1 << circuit.n
    if n > max_qubits:
        raise VerificationCapError(f"{n} qubits exceeds the verification cap of {max_qubits}")
    try:
        if 16 * dim * dim > _MAX_UNITARY_BYTES:  # complex128: refuse before numpy allocates
            raise MemoryError
        u = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    except (ValueError, MemoryError):
        raise VerificationCapError(f"cannot allocate the 2^{n} x 2^{n} unitary") from None
    for gate in circuit.gates:
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
