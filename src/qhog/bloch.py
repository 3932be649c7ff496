"""Single-qubit states in the half-radius Bloch convention.

A state is rho = I/2 + w.sigma with |w| <= 1/2: pure states sit on the
sphere |w| = 1/2 and the trace distance Tr|rho - omega| = 2|w - v| ranges
up to 2 for orthogonal pure states.  Most textbooks scale the Bloch
vector to the unit ball; every formula in this package uses the
half-radius convention, so keep that in mind when comparing.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .linalg import I2, PAULIS, is_hermitian

BLOCH_RADIUS = 0.5
_RADIUS_TOL = 1e-12
_PURE_TOL = 1e-9


def _length(x, y, z):
    """sqrt((x*x + y*y) + z*z): every Bloch length, summed in this one order.

    Python floats give a float and numpy columns one length per row, alike to the bit on any CPU.
    """
    s = (x * x + y * y) + z * z
    return np.sqrt(s) if isinstance(s, np.ndarray) else math.sqrt(s)


def _checked_bloch(w, rows: bool = False) -> np.ndarray:
    """``w`` as floats, checked to be a finite 3-vector (``rows``: a stack) of length <= 1/2."""
    w = np.asarray(w, dtype=float)
    if w.shape != (3,) and not (rows and w.shape[-1:] == (3,)):
        raise ValueError(f"Bloch vector must have 3 components, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"Bloch vector components must be finite, got {w.tolist()}")
    with np.errstate(over="ignore"):  # components near 1e154 square to inf
        r = float(_length(*np.moveaxis(w, -1, 0)).max()) if rows else _length(*w.tolist())
    if r > BLOCH_RADIUS + _RADIUS_TOL:
        raise ValueError(f"Bloch vector length {r} exceeds 1/2")
    return w


def density_from_bloch(w) -> np.ndarray:
    """Density matrix I/2 + w.sigma for a Bloch vector with |w| <= 1/2."""
    w = _checked_bloch(w)
    return 0.5 * I2 + w[0] * PAULIS[0] + w[1] * PAULIS[1] + w[2] * PAULIS[2]


def bloch_from_density(rho) -> np.ndarray:
    """Bloch vector w_k = Tr(rho sigma_k)/2 of a valid 2x2 density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    if not is_hermitian(rho, 1e-10):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        raise ValueError("density matrix does not have unit trace")
    w = np.array([0.5 * np.trace(rho @ p).real for p in PAULIS])
    if _length(*w.tolist()) > BLOCH_RADIUS + 1e-9:
        raise ValueError("matrix is not positive semidefinite")
    return w


class QubitState:
    """Immutable qubit state wrapping a Bloch vector."""

    __slots__ = ("w",)

    def __init__(self, w):
        w = _checked_bloch(np.array(w, dtype=float))
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    def __setattr__(self, name, value):
        raise AttributeError("QubitState is immutable")

    def __repr__(self):
        return f"QubitState(w=({self.w[0]:.6g}, {self.w[1]:.6g}, {self.w[2]:.6g}))"

    @classmethod
    def from_density(cls, rho) -> "QubitState":
        return cls(bloch_from_density(rho))

    def density(self) -> np.ndarray:
        return density_from_bloch(self.w)

    def affine(self) -> np.ndarray:
        """The 4-vector (1, wx, wy, wz) the affine step matrix acts on."""
        return np.array([1.0, self.w[0], self.w[1], self.w[2]])

    def purity_radius(self) -> float:
        return _length(*self.w.tolist())

    def is_pure(self) -> bool:
        return abs(self.purity_radius() - BLOCH_RADIUS) <= _PURE_TOL


def trace_distance(a: QubitState, b: QubitState) -> float:
    """Tr|rho_a - rho_b| = 2|w_a - w_b|; between 0 and 2."""
    return 2.0 * _length(*(a.w - b.w).tolist())


def random_state(rng: np.random.Generator) -> QubitState:
    """Bloch vector uniform in the ball of radius 1/2 (rejection sampling)."""
    while True:
        w = rng.uniform(-BLOCH_RADIUS, BLOCH_RADIUS, size=3)
        if _length(*w.tolist()) <= BLOCH_RADIUS:
            return QubitState(w)


def random_pure_state(rng: np.random.Generator) -> QubitState:
    """Bloch vector uniform on the sphere |w| = 1/2."""
    while True:
        g = rng.normal(size=3)
        r = _length(*g.tolist())
        if r > 1e-12:
            return QubitState(BLOCH_RADIUS * g / r)


def ket_from_bloch(w) -> np.ndarray:
    """Two-component unit vector for a pure state (|w| = 1/2 required).

    The angles come from ``math``/``cmath``: numpy's ufuncs pick a SIMD loop
    by CPU feature, and their last bits follow it.
    """
    x, y, z = np.asarray(w, dtype=float).tolist()
    r = _length(x, y, z)
    if not abs(r - BLOCH_RADIUS) <= _PURE_TOL:  # NaN too
        raise ValueError(f"Bloch vector of length {r} is not pure")
    theta = math.acos(min(max(z / r, -1.0), 1.0))
    phi = math.atan2(y / r, x / r)
    return np.array([math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)])

