"""Ground-truth dense-unitary oracle for small circuits.

Everything here is built directly from 2x2 matrix definitions, independent
of the tableau machinery, so it can arbitrate sign and phase conventions:
the oracle takes a :class:`~trotopt.circuit.Circuit` only, and this module
imports nothing from the rotation or tableau code it checks.  Qubit 0 is
the most significant bit of the basis index (the leftmost Kronecker
factor).

:func:`unitary_of` uses the fact that every gate but H sends a basis
state to one basis state times a power of omega = e^{i pi/4}.  A run of
such gates (T/Tdg, S/Sdg, X, Y, Z, CNOT, CZ, SWAP, Toffoli, CCZ) is held as
one pending phased permutation, O(2^n) work per gate; each gate's power of
omega is read off its 2x2 definition.  Only an H, and the end of the
circuit, touch the 2^n x 2^n matrix: one row gather that applies the
pending permutation and phases, then for an H an add and a subtract of the
two half-blocks of its qubit, O(4^n) each, between two preallocated
buffers.  No gate matrix is ever formed.  Toffoli and CCZ are applied as
written, one update of the pending permutation or phase each, never through
their Clifford+T network, so a circuit compared with its optimized form
also checks the expansion the optimizer started from.  A unitary over
``_MAX_UNITARY_BYTES`` (1 GiB, so n <= 13) is refused before anything is
allocated.  :func:`pauli_matrix` and :func:`rotation_matrix` build full
matrices from Kronecker products; they are references the kernel is tested
against.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import Circuit
from .pauli import PauliProduct

DEFAULT_QUBIT_CAP = 10

# Largest 2^n x 2^n complex128 unitary the oracle allocates: 1 GiB, n = 13.
_MAX_UNITARY_BYTES = 1 << 30

# Largest block of u^dagger u the unitarity check forms: 64 MiB, so a unitary
# of up to 11 qubits is checked in one block.
_CHECK_BLOCK_BYTES = 1 << 26

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

_SQRT_HALF = 1 / math.sqrt(2)
_OMEGA = (1 + 1j) * _SQRT_HALF
# omega^k for k = 0..7, each entry exact in floating point.
_OMEGA_POWERS = np.array([1, _OMEGA, 1j, 1j * _OMEGA, -1, -_OMEGA, -1j, -1j * _OMEGA])


def _eighth_root_exponent(z: complex) -> int:
    """The k with z == omega^k, from a 2x2 definition; raises unless z is one."""
    k = round(math.atan2(z.imag, z.real) / (math.pi / 4)) % 8
    if not abs(z - _OMEGA_POWERS[k]) < 1e-12:
        raise AssertionError(f"{z} is not an 8th root of unity")
    return k


# Each non-H gate as a power of omega: on the all-ones block for diagonal
# gates, and on Y|b> = omega^k_b |1-b> for Y, indexed by the input bit b.
_EXPONENT = {kind: _eighth_root_exponent(z) for kind, z in _PHASE.items()}
_Y_EXPONENTS = (_eighth_root_exponent(_Y[1, 0]), _eighth_root_exponent(_Y[0, 1]))


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
    """``u``, unless the Frobenius norm of u^dagger u - I exceeds 1e-9.

    The defect's squares are summed over blocks of u^dagger u's rows, each
    ``u[:, a:b].conj().T @ u`` holding at most ``_CHECK_BLOCK_BYTES``, so
    the check adds one block's temporaries, not two unitaries; a unitary
    that small is one block.
    """
    dim = u.shape[0]
    if not np.isfinite(u).all():  # u^dagger u would warn on an infinite entry
        raise ValueError("matrix is not unitary (non-finite entry)")
    rows = max(1, _CHECK_BLOCK_BYTES // (16 * dim))
    squares = 0.0
    for a in range(0, dim, rows):
        b = min(a + rows, dim)
        block = u[:, a:b].conj().T @ u - np.eye(b - a, dim, a)  # rows a..b-1 of u^dagger u - I
        squares += np.linalg.norm(block, "fro") ** 2
    err = math.sqrt(squares)
    if not err <= 1e-9:  # a NaN defect compares False both ways, so it fails here
        raise ValueError(f"matrix is not unitary (Frobenius defect {err:.2e})")
    return u


class VerificationCapError(ValueError):
    """The register is over the oracle's qubit cap, or its unitary over the memory budget."""


def _check_width(n: int, max_qubits: int) -> None:
    """Refuse an n-qubit register over the cap, or whose complex128 unitary is over budget.

    Callers that verify after a long computation call this first, so that
    the refusal costs nothing.
    """
    if n > max_qubits:
        raise VerificationCapError(f"{n} qubits exceeds the verification cap of {max_qubits}")
    if 16 << 2 * n > _MAX_UNITARY_BYTES:
        raise VerificationCapError(f"cannot allocate the 2^{n} x 2^{n} unitary")


def _dense_step(u, spare, perm, phase, h_bit):
    """Apply the pending phased permutation to the rows of ``u``, then H if
    ``h_bit`` is given.

    The permutation sends basis row x to row ``perm[x]`` with phase
    omega^``phase[x]``; ``None`` stands for the identity and for no phase.
    ``h_bit`` is the basis-index bit of the H's qubit, or ``None`` at the end
    of the circuit.  Works between ``u`` and the preallocated ``spare`` of
    the same shape; returns ``(result, spare)``.
    """
    if perm is not None:  # one row gather: output row perm[x] is input row x
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        np.take(u, inv, axis=0, out=spare, mode="clip")  # "clip" writes straight into ``spare``
        u, spare = spare, u
        if phase is not None:
            phase = phase[inv]
    scale = _SQRT_HALF if h_bit is not None else 1.0
    if phase is not None:
        u *= (_OMEGA_POWERS[phase & 7] * scale)[:, None]
    elif h_bit is not None:
        u *= scale
    if h_bit is not None:  # add and subtract the two half-blocks of the H's qubit
        src = u.reshape(-1, 2, h_bit * len(u))
        dst = spare.reshape(src.shape)
        np.add(src[:, 0], src[:, 1], out=dst[:, 0])
        np.subtract(src[:, 0], src[:, 1], out=dst[:, 1])
        u, spare = spare, u
    return u, spare


def unitary_of(circuit: Circuit, max_qubits: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Exact gate-by-gate dense unitary of a circuit.

    Every gate but H sends each basis state to one basis state times a power
    of omega = e^{i pi/4}, so a run of them is held as one phased
    permutation, O(2^n) per gate; only an H, and the end of the circuit,
    apply it to the dense matrix, O(4^n) each.
    """
    if not isinstance(circuit, Circuit):
        raise TypeError(f"cannot build a unitary from {type(circuit).__name__}")
    n, dim = circuit.n, 1 << circuit.n
    _check_width(n, max_qubits)  # before numpy allocates
    try:
        u = np.eye(dim, dtype=complex)
        spare = np.empty_like(u)
    except (ValueError, MemoryError):
        raise VerificationCapError(f"cannot allocate the 2^{n} x 2^{n} unitary") from None
    # The pending phased permutation sends basis state x to the state whose
    # qubit q is planes[q, x], with phase omega^phase[x]; each is None while
    # it is the identity.  Its bit planes take each gate in one or two numpy
    # calls; the int permutation is formed once per dense step.
    weights = dim >> 1 + np.arange(n)  # qubit 0 is the top bit
    basis_planes = (np.arange(dim) & weights[:, None]) != 0
    planes = phase = None
    for gate in circuit.gates:
        kind, qubits = gate.kind, gate.qubits
        if kind == "H":
            perm = None if planes is None else weights @ planes
            u, spare = _dense_step(u, spare, perm, phase, dim >> 1 + qubits[0])
            planes = phase = None
            continue
        if phase is None and (kind in _EXPONENT or kind == "Y"):
            phase = np.zeros(dim, dtype=weights.dtype)
        if kind in _EXPONENT:  # the phase where all of the gate's qubits are 1
            on = basis_planes if planes is None else planes
            ones = on[qubits[0]]
            for q in qubits[1:]:
                ones = ones & on[q]
            phase += _EXPONENT[kind] * ones
            continue
        if planes is None:
            planes = basis_planes.copy()
        if kind == "SWAP":
            planes[list(qubits)] = planes[list(qubits[::-1])]
            continue
        # X, Y, CNOT, TOFFOLI: flip the target where all controls are 1
        target = planes[qubits[-1]]
        if kind == "Y":
            phase += np.where(target, _Y_EXPONENTS[1], _Y_EXPONENTS[0])
        if len(qubits) == 1:
            np.logical_not(target, out=target)
        elif len(qubits) == 2:
            target ^= planes[qubits[0]]
        else:
            target ^= planes[qubits[0]] & planes[qubits[1]]
    perm = None if planes is None else weights @ planes
    u, spare = _dense_step(u, spare, perm, phase, None)
    del spare  # free the second buffer before the check allocates its own
    return _check_unitary(u)


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
