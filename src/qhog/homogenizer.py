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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bloch import (QubitState, _checked_bloch, _length, density_from_bloch, random_pure_state,
                    random_state)
from .linalg import is_unitary, partial_trace, tensor_product, trace_norm

# the longest trajectory run_trajectory records; homogenize peaks at about 195 MiB there
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
        object.__setattr__(self, "eta", math.atan2(abs(s), abs(c)))
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
    return step_system(xi, rho, angle)


def superoperator(xi: QubitState, angle: SwapAngle) -> np.ndarray:
    """Affine 4x4 matrix of one collision step on (1, wx, wy, wz) for reservoir state xi."""
    tx, ty, tz = xi.w
    s2, c2, cs2 = _weights(angle)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [s2 * tx, c2, cs2 * tz, -cs2 * ty],
            [s2 * ty, -cs2 * tz, c2, cs2 * tx],
            [s2 * tz, cs2 * ty, -cs2 * tx, c2],
        ]
    )


def closed_form_system(rho0: QubitState, xi: QubitState, angle: SwapAngle, n: int) -> QubitState:
    """System state after n collisions: w_n = (1 - c^(2n)) t + B^n w_0.

    B is the 3x3 Bloch block of the step matrix; the geometric sum of the
    affine parts collapses to (1 - c^(2n)) t because B t = c^2 t.
    """
    if n < 0:
        raise ValueError("step count must be non-negative")
    block = superoperator(xi, angle)[1:, 1:]
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

    system: np.ndarray
    reservoir_out: np.ndarray
    d_system: np.ndarray
    d_reservoir: np.ndarray

    @cached_property
    def steps(self) -> list[TrajectoryStep]:
        ds = zip(self.d_system.tolist(), self.d_reservoir.tolist())
        return [TrajectoryStep(n, QubitState(w), QubitState(t), *d)
                for n, (w, t, d) in enumerate(zip(self.system, self.reservoir_out, ds))]


def run_trajectory(rho0: QubitState, xi: QubitState, angle: SwapAngle, n_steps: int) -> Trajectory:
    """Iterate the one-step maps on floats, recording distances to xi after each collision."""
    if not 1 <= n_steps <= MAX_STEPS:
        raise ValueError(f"a trajectory takes 1 to {MAX_STEPS} steps, got {n_steps}")
    from array import array  # an extension module: the other commands do not load it
    weights = _weights(angle)
    w, t = rho0.w.tolist(), xi.w.tolist()
    systems, reservoirs = array("d", w), array("d", t)  # flat rows: 24 bytes per state
    for _ in range(n_steps):
        reservoirs.extend(_step(t, w, *weights))
        w = _step(w, t, *weights)
        systems.extend(w)
    states = [_checked_bloch(np.frombuffer(a).reshape(-1, 3), rows=True)  # QubitState's checks
              for a in (systems, reservoirs)]
    d_system, d_reservoir = (2.0 * _length(*(s - xi.w).T) for s in states)
    return Trajectory(*states, d_system, d_reservoir)


@dataclass(frozen=True)
class HomogenizationBudget:
    """Angle and step-count bounds that guarantee delta-precision output on the reservoir's axis.

    Keeping every once-collided reservoir qubit within trace distance
    delta of xi requires sin(eta) <= sqrt(delta/2); running with equality
    then needs n_delta = ceil(ln(delta/2) / ln(1 - delta/2)) collisions to
    bring a worst-case (orthogonal pure) system qubit within delta too.
    Both hold for a system on the Bloch axis of xi, where the distance to xi
    shrinks by cos^2(eta) per step.  Off it, coherence decays only as cos(eta)
    per step: |+> against |0> ends 0.10 from xi after the 459 steps of 0.02.
    """

    delta: float
    eta_max: float
    n_delta: int


def budget_from_delta(delta: float) -> HomogenizationBudget:
    """The budget of precision ``delta``, for system states on the reservoir's Bloch axis."""
    if not 0.0 < delta < 2.0:
        raise ValueError(f"delta must lie in (0, 2), got {delta}")
    if 1.0 - delta / 2.0 == 1.0:
        raise ValueError(f"delta {delta} is too small: 1 - delta/2 rounds to 1")
    eta_max = math.asin(math.sqrt(delta / 2.0))
    n_delta = math.ceil(math.log(delta / 2.0) / math.log(1.0 - delta / 2.0))
    return HomogenizationBudget(delta, eta_max, n_delta)


def check_universality(u) -> tuple[bool, float]:
    """Test whether a two-qubit unitary leaves every identical pair unchanged.

    Samples 64 random pure and as many random mixed qubit states rho (seed
    0) and checks that both partial traces of U (rho x rho) U+ equal rho
    within 1e-9.  Returns it and the residual, the largest trace-norm deviation seen.
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
    return worst <= 1e-9, worst
