"""Partial-swap dynamics of a qubit colliding with identically prepared qubits.

The two-qubit partial swap P(eta) = cos(eta) I + i sin(eta) S drives the
system qubit toward the reservoir state xi.  On Bloch vectors one
collision acts affinely,

    w' = s^2 t + c^2 w - 2 c s (t x w),       s = sin(eta), c = cos(eta),

a contraction with coefficient cos(eta) and fixed point t, so iterating
converges to xi for every eta in (0, pi/2].  This module provides the
one-step maps for both colliding qubits, the 4x4 affine matrix of the
map, the closed-form n-step iterate, delta-precision budgets, and a
numeric test for which two-qubit unitaries leave identical pairs alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bloch import (QubitState, _checked_bloch, _length, density_from_bloch, random_pure_state,
                    random_state)
from .linalg import is_unitary, partial_trace, tensor_product, trace_norm

log = logging.getLogger(__name__)

# the longest trajectory run_trajectory records; a million steps hold about 700 MB
MAX_STEPS = 1 << 20

SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


class SwapAngle:
    """Interaction angle eta with cached s = sin(eta), c = cos(eta).

    Angles are canonicalized into [0, pi/2] (so s, c >= 0); values outside
    that range are folded by reflecting the signs of sin and cos, which
    leaves every distance and convergence statement unchanged.
    """

    __slots__ = ("eta", "s", "c")

    def __init__(self, eta: float):
        eta = float(eta)
        if not math.isfinite(eta):
            raise ValueError(f"the swap angle must be finite, got {eta}")
        s, c = math.sin(eta), math.cos(eta)
        folded = math.atan2(abs(s), abs(c))
        if abs(folded - eta) > 1e-15:
            log.info("folding swap angle %.6g into [0, pi/2] as %.6g", eta, folded)
        object.__setattr__(self, "eta", folded)
        object.__setattr__(self, "s", abs(s))
        object.__setattr__(self, "c", abs(c))

    def __setattr__(self, name, value):
        raise AttributeError("SwapAngle is immutable")

    def __repr__(self):
        return f"SwapAngle(eta={self.eta:.6g})"

    @classmethod
    def from_sin_squared(cls, s2: float) -> "SwapAngle":
        if not 0.0 <= s2 <= 1.0:
            raise ValueError(f"sin^2(eta) must lie in [0, 1], got {s2}")
        return cls(math.asin(math.sqrt(s2)))


def partial_swap_unitary(angle: SwapAngle) -> np.ndarray:
    """The 4x4 unitary cos(eta) I + i sin(eta) SWAP."""
    return angle.c * np.eye(4, dtype=complex) + 1j * angle.s * SWAP


def _step(w, t, s2: float, c2: float, cs2: float) -> tuple[float, float, float]:
    """s2 t + c2 w - cs2 (t x w) on float 3-sequences, with np.cross's terms in its order."""
    (w0, w1, w2), (t0, t1, t2) = w, t
    return (s2 * t0 + c2 * w0 - cs2 * (t1 * w2 - t2 * w1),
            s2 * t1 + c2 * w1 - cs2 * (t2 * w0 - t0 * w2),
            s2 * t2 + c2 * w2 - cs2 * (t0 * w1 - t1 * w0))


def _weights(angle: SwapAngle) -> tuple[float, float, float]:
    """(s^2, c^2, 2cs) as the one-step maps group them."""
    return angle.s**2, angle.c**2, 2.0 * (angle.c * angle.s)


def step_system(rho: QubitState, xi: QubitState, angle: SwapAngle) -> QubitState:
    """System qubit after one collision: c^2 rho + s^2 xi + i c s [xi, rho]."""
    return QubitState(_step(rho.w.tolist(), xi.w.tolist(), *_weights(angle)))


def step_reservoir(rho: QubitState, xi: QubitState, angle: SwapAngle) -> QubitState:
    """Reservoir qubit after its collision: s^2 rho + c^2 xi + i c s [rho, xi].

    P commutes with SWAP, so this is the system step with the roles exchanged.
    """
    return QubitState(_step(xi.w.tolist(), rho.w.tolist(), *_weights(angle)))


@dataclass(frozen=True)
class AffineSuperOp:
    """4x4 real matrix acting on (1, wx, wy, wz) affine state vectors."""

    matrix: np.ndarray

    def apply(self, rho: QubitState) -> QubitState:
        out = self.matrix @ rho.affine()
        return QubitState(out[1:])

    @property
    def block(self) -> np.ndarray:
        """The lower-right 3x3 block acting on the Bloch vector alone."""
        return self.matrix[1:, 1:]


def superoperator(xi: QubitState, angle: SwapAngle) -> AffineSuperOp:
    """Affine matrix of one collision step for reservoir state xi."""
    tx, ty, tz = xi.w
    s2, c2, cs2 = _weights(angle)
    m = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [s2 * tx, c2, cs2 * tz, -cs2 * ty],
            [s2 * ty, -cs2 * tz, c2, cs2 * tx],
            [s2 * tz, cs2 * ty, -cs2 * tx, c2],
        ]
    )
    return AffineSuperOp(m)


def contraction_coefficient(angle: SwapAngle) -> float:
    """Pairwise trace distances shrink by at least cos(eta) per step."""
    return angle.c


def closed_form_system(rho0: QubitState, xi: QubitState, angle: SwapAngle, n: int) -> QubitState:
    """System state after n collisions: w_n = (1 - c^(2n)) t + B^n w_0.

    B is the 3x3 Bloch block of the step matrix; the geometric sum of the
    affine parts collapses to (1 - c^(2n)) t because B t = c^2 t.
    """
    if n < 0:
        raise ValueError("step count must be non-negative")
    block = superoperator(xi, angle).block
    w = (1.0 - angle.c ** (2 * n)) * xi.w + np.linalg.matrix_power(block, n) @ rho0.w
    return QubitState(w)


@dataclass(frozen=True)
class TrajectoryStep:
    n: int
    system: QubitState
    reservoir_out: QubitState
    d_system: float
    d_reservoir: float


@dataclass(frozen=True)
class Trajectory:
    """Per-collision record of the system and outgoing reservoir states (row 0: the inputs)."""

    xi: QubitState
    angle: SwapAngle
    system: np.ndarray
    reservoir_out: np.ndarray
    d_system: np.ndarray
    d_reservoir: np.ndarray

    def __len__(self):
        return len(self.d_system)

    def __iter__(self):
        return iter(self.steps)

    @cached_property
    def steps(self) -> list[TrajectoryStep]:
        ds = zip(self.d_system.tolist(), self.d_reservoir.tolist())
        return [TrajectoryStep(n, QubitState(w), QubitState(t), *d)
                for n, (w, t, d) in enumerate(zip(self.system, self.reservoir_out, ds))]

    def to_csv(self) -> str:
        rows = ["n,wx,wy,wz,txp,typ,tzp,D_sys,D_res"]
        cols = np.column_stack([self.system, self.reservoir_out, self.d_system, self.d_reservoir])
        for n, vals in enumerate(cols.tolist()):
            rows.append(f"{n}," + ",".join(f"{v:.17g}" for v in vals))
        return "\n".join(rows) + "\n"


def run_trajectory(rho0: QubitState, xi: QubitState, angle: SwapAngle, n_steps: int) -> Trajectory:
    """Iterate the one-step maps on floats, recording distances to xi after each collision."""
    if not 1 <= n_steps <= MAX_STEPS:
        raise ValueError(f"a trajectory takes 1 to {MAX_STEPS} steps, got {n_steps}")
    weights = _weights(angle)
    w, t = rho0.w.tolist(), xi.w.tolist()
    systems, reservoirs = [w], [t]
    for _ in range(n_steps):
        reservoirs.append(_step(t, w, *weights))
        w = _step(w, t, *weights)
        systems.append(w)
    states = _checked_bloch([systems, reservoirs], rows=True)  # QubitState's checks, once
    d_system, d_reservoir = 2.0 * _length(*np.moveaxis(states - xi.w, -1, 0))
    return Trajectory(xi, angle, states[0], states[1], d_system, d_reservoir)


@dataclass(frozen=True)
class HomogenizationBudget:
    """Angle and step-count bounds that guarantee delta-precision output.

    Keeping every once-collided reservoir qubit within trace distance
    delta of xi requires sin(eta) <= sqrt(delta/2); running with equality
    then needs n_delta = ceil(ln(delta/2) / ln(1 - delta/2)) collisions to
    bring a worst-case (orthogonal pure) system qubit within delta too.
    """

    delta: float
    eta_max: float
    n_delta: int


def budget_from_delta(delta: float) -> HomogenizationBudget:
    if not 0.0 < delta < 2.0:
        raise ValueError(f"delta must lie in (0, 2), got {delta}")
    if 1.0 - delta / 2.0 == 1.0:
        raise ValueError(f"delta {delta} is too small: 1 - delta/2 rounds to 1")
    eta_max = math.asin(math.sqrt(delta / 2.0))
    n_delta = math.ceil(math.log(delta / 2.0) / math.log(1.0 - delta / 2.0))
    return HomogenizationBudget(delta, eta_max, n_delta)


class UniversalityResult(NamedTuple):
    ok: bool
    max_residual: float


def check_universality(u) -> UniversalityResult:
    """Test whether a two-qubit unitary leaves every identical pair unchanged.

    Samples 64 random pure and as many random mixed qubit states rho (seed
    0) and checks that both partial traces of U (rho x rho) U+ equal rho
    within 1e-9.  The residual is the largest trace-norm deviation seen.
    Partial swaps pass for every angle; generic unitaries fail.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {u.shape}")
    if not is_unitary(u):
        raise ValueError("matrix is not unitary within tolerance")
    rng = np.random.default_rng(0)
    worst = 0.0
    samples = [random_pure_state(rng) for _ in range(64)]
    samples += [random_state(rng) for _ in range(64)]
    for state in samples:
        rho = density_from_bloch(state.w)
        out = u @ tensor_product(rho, rho) @ u.conj().T
        for qubit in (0, 1):
            resid = trace_norm(partial_trace(out, [qubit]) - rho)
            worst = max(worst, resid)
    return UniversalityResult(worst <= 1e-9, worst)
