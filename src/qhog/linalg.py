"""Dense complex linear algebra for few-qubit states and operators.

Everything here operates on plain numpy arrays: operators are square
complex matrices, multi-qubit pure states are flat amplitude vectors of
length 2**n.  Qubit 0 is the most significant bit of a basis index, so
``np.kron(a, b)`` puts ``a`` on qubit 0.  Every tolerance is 1e-10
unless the caller passes another.
"""

from __future__ import annotations

import math

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)

_MAX_JACOBI_SWEEPS = 100


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def is_hermitian(m, tol: float = 1e-10) -> bool:
    m = _as_square(m)
    return float(np.max(np.abs(m - m.conj().T))) <= tol


def is_unitary(m) -> bool:
    m = _as_square(m)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))) <= 1e-10


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the first factor on the more significant qubits."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def num_qubits_of(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def partial_trace(rho, keep) -> np.ndarray:
    """Reduce a multi-qubit density matrix to the qubits listed in ``keep``.

    Args:
        rho: 2**n x 2**n density matrix (qubit 0 = most significant bit).
        keep: distinct qubit indices; the result is ordered as given.

    Returns:
        2**len(keep) square reduced density matrix.
    """
    rho = _as_square(rho)
    n = num_qubits_of(rho.shape[0])
    keep = [int(q) for q in keep]
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubit indices in keep={keep}")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"qubit index out of range in keep={keep} for n={n}")
    traced = [q for q in range(n) if q not in keep]
    perm = keep + traced + [n + q for q in keep] + [n + q for q in traced]
    t = rho.reshape([2] * (2 * n)).transpose(perm)
    k, m = len(keep), len(traced)
    t = t.reshape(2**k, 2**m, 2**k, 2**m)
    return np.trace(t, axis1=1, axis2=3)


def hermitian_eig(h, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix by cyclic complex Jacobi rotations.

    Returns (eigenvalues sorted in descending order, matrix whose columns
    are the matching orthonormal eigenvectors).  Intended for the small
    (<= 4x4) matrices this package works with; converges quadratically.
    """
    h = _as_square(h)
    if not is_hermitian(h, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    n = h.shape[0]
    a = (h + h.conj().T) / 2.0
    v = np.eye(n, dtype=complex)
    scale = float(np.linalg.norm(a))
    if scale == 0.0 or n == 1:
        vals = np.real(np.diag(a)).copy()
        order = np.argsort(-vals)
        return vals[order], v[:, order]

    for _ in range(_MAX_JACOBI_SWEEPS):
        mask = np.abs(a) ** 2
        np.fill_diagonal(mask, 0.0)
        off = math.sqrt(float(np.sum(mask)))
        if off <= 1e-14 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag <= 1e-18 * scale:
                    continue
                phase = apq / mag
                tau = (a[p, p].real - a[q, q].real) / (2.0 * mag)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # two-sided rotation zeroing a[p, q]
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp + s * np.conj(phase) * cq
                a[:, q] = -s * phase * cp + c * cq
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp + s * phase * rq
                a[q, :] = -s * np.conj(phase) * rp + c * rq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp + s * np.conj(phase) * vq
                v[:, q] = -s * phase * vp + c * vq
    else:
        raise RuntimeError("Jacobi diagonalization did not converge")

    vals = np.real(np.diag(a)).copy()
    order = np.argsort(-vals)
    return vals[order], v[:, order]


def psd_sqrt(rho, tol: float = 1e-10) -> np.ndarray:
    """Positive-semidefinite square root via the Jacobi eigendecomposition."""
    vals, vecs = hermitian_eig(rho, tol)
    if float(vals[-1]) < -tol:
        raise ValueError(f"matrix has negative eigenvalue {vals[-1]:.3e} beyond tolerance")
    root = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * root) @ vecs.conj().T


def trace_norm(a) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    vals, _ = hermitian_eig(a)
    return float(np.sum(np.abs(vals)))
