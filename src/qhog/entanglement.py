"""Wootters concurrence, one-vs-rest tangles, and CKW monogamy accounting.

For the |1> system / |0> reservoir start the pairwise concurrences have
simple closed forms: once both partners of a reservoir pair (j, k) have
collided, C_jk = 2 s^2 c^(j+k-2) and never changes again, while the
system-reservoir value C_0k = 2 s c^(n+k-1) decays with every further
collision n.  The CKW monogamy bound holds with equality throughout, and
the total pairwise tangle approaches 2 under the best-homogenization
schedule.  Everything here is either a numeric measure on simulator
states or one of those closed forms, so each can check the other.  The
pair reductions own the package's one thread pool (``_pool_map``).
"""

from __future__ import annotations

import math
import os

import numpy as np

from .collision import CollisionState
from .homogenizer import SwapAngle
from .linalg import SY, hermitian_eig, is_hermitian, psd_sqrt, tensor_product

SIGMA_YY = tensor_product(SY, SY)

_ROUNDOFF = 1e-10
# how far from Hermitian and from unit trace a concurrence input may be
_STATE_TOL = 1e-8
# spin-flip eigenvalues below _ZERO_EIG are exact zeros, so concurrences below its root read 0.0
_ZERO_EIG = 1e-14
CONCURRENCE_FLOOR = math.sqrt(_ZERO_EIG)  # exactly 1e-7


def _workers() -> int:
    """The number of usable CPUs."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool_map(fn, items) -> list:
    """``list(map(fn, items))`` on one thread per usable CPU.

    Each call must own the buffers it writes; numpy's loops release the GIL,
    so the calls run side by side with the bits of one-at-a-time calls.
    """
    # imported here: concurrent.futures loads logging, which no other command needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_workers()) as pool:
        return list(pool.map(fn, items))


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    Uses the Hermitian form: the eigenvalues of
    sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho) are the squares of the
    usual spin-flip singular values lambda_i, which keeps the spectrum
    real and non-negative by construction.

    Eigenvalues below ``_ZERO_EIG`` (1e-14) are exact zeros, so a concurrence
    whose lambda_1 lies below ``CONCURRENCE_FLOOR`` (1e-7; for a pure state,
    any concurrence below it) reads as exactly 0.0.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if not is_hermitian(rho, _STATE_TOL):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > _STATE_TOL:
        raise ValueError("density matrix does not have unit trace")
    root = psd_sqrt(rho, _STATE_TOL)
    m = root @ SIGMA_YY @ rho.conj() @ SIGMA_YY @ root
    vals, _ = hermitian_eig(m)
    if float(vals[-1]) < -_ROUNDOFF:
        raise ValueError("spin-flip spectrum came out negative; input is not a state")
    # eigenvalues at roundoff scale are exact zeros of the rank-deficient
    # product; the square root would blow their noise up to ~1e-8
    vals = np.where(vals < _ZERO_EIG, 0.0, np.clip(vals, 0.0, None))
    lam = np.sqrt(vals)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _tangle(rho) -> float:
    """4 det of a one-qubit reduced state, clipped to [0, 1]."""
    det = (rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real
    return float(min(1.0, max(0.0, 4.0 * det)))


def tangle_one_vs_rest(state: CollisionState, j: int) -> float:
    """Tangle between qubit j and everything else: 4 det of its reduced state."""
    return _tangle(state.reduced(j))


def ckw_sum(state: CollisionState, j: int) -> float:
    """Sum of squared pairwise concurrences between qubit j and each other qubit."""
    total = 0.0
    for k in range(state.num_qubits):
        if k == j:
            continue
        total += concurrence(state.reduced([j, k])) ** 2
    return total


# exchanging the two qubits of a pair state swaps the |01> and |10> rows and columns
_EXCHANGE = np.ix_([0, 2, 1, 3], [0, 2, 1, 3])


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(j, k) for j in range(n) for k in range(j + 1, n)]


def pair_states(state: CollisionState) -> dict[tuple[int, int], np.ndarray]:
    """Reduced density matrix of every pair (j, k), j < k: one reduction each."""
    pairs = _pairs(state.num_qubits)
    return dict(zip(pairs, _pool_map(state.reduced, pairs)))


def concurrence_table(rhos) -> dict[tuple[int, int], float]:
    """Numeric concurrence C_jk of every pair state ``rhos`` (see :func:`pair_states`)."""
    return {pair: concurrence(rho) for pair, rho in rhos.items()}


def one_zero_start(system, reservoir) -> bool:
    """Whether the kets are system |1> and reservoir |0> to 1e-12."""
    one = np.allclose(np.asarray(system, dtype=complex), [0.0, 1.0], atol=1e-12)
    return one and np.allclose(np.asarray(reservoir, dtype=complex), [1.0, 0.0], atol=1e-12)


def entanglement_tables(state: CollisionState, system, reservoir) -> tuple[list, list]:
    """Pair rows {j, k, C} and tangle rows {j, tau, S} of a run from ``system`` and ``reservoir``.

    Every pair and every qubit is reduced once, all in one pass of
    ``_pool_map``; the concurrences and tangles are then taken in
    order on the calling thread.  S_j adds C(rho_jk)^2 in k order, as
    :func:`ckw_sum` does; for k < j the pair state is rho_kj with its qubits
    exchanged, and its concurrence is taken anew, because the numeric
    concurrence is not symmetric under the exchange to the last bit.  For a
    |1>/|0> start collided in the order 1..n, where the closed forms apply,
    each row also holds C_closed or S_closed (the closed form of tau_j and
    of S_j) and its residual.
    """
    keys = _pairs(state.num_qubits)
    reduced = _pool_map(state.reduced, keys + list(range(state.num_qubits)))
    rhos, singles = dict(zip(keys, reduced)), reduced[len(keys):]
    table = concurrence_table(rhos)
    n, angle = len(state.log), state.angle
    closed = one_zero_start(system, reservoir) and state.log == list(range(1, n + 1))
    pairs, tangles = [], []
    for (j, k), c in sorted(table.items()):
        row = {"j": j, "k": k, "C": c}
        if closed:
            w = closed_pair_concurrence(j, k, n, angle)
            row |= {"C_closed": w, "residual": abs(c - w)}
        pairs.append(row)
    for j in range(state.num_qubits):
        tau, s = _tangle(singles[j]), 0.0
        for k in range(state.num_qubits):
            if k < j:
                s += concurrence(rhos[(k, j)][_EXCHANGE]) ** 2
            elif k > j:
                s += table[(j, k)] ** 2
        row = {"j": j, "tau": tau, "S": s}
        if closed:
            w = closed_tangle(j, n, angle)
            row |= {"S_closed": w, "residual": max(abs(tau - w), abs(s - w))}
        tangles.append(row)
    return pairs, tangles


def closed_pair_concurrence(j: int, k: int, n: int, angle: SwapAngle) -> float:
    """Closed-form C_jk after n collisions for the |1>/|0> initial condition."""
    if not 0 <= j < k:
        raise ValueError(f"need 0 <= j < k, got ({j}, {k})")
    s, c = angle.s, angle.c
    if n < k:
        return 0.0
    if j == 0:
        return 2.0 * s * c ** (n + k - 1)
    return 2.0 * s**2 * c ** (j + k - 2)


def closed_form_concurrences(n: int, n_reservoir: int, angle: SwapAngle) -> dict:
    """Closed-form C_jk of all pairs 0 <= j < k <= N after n collisions.

    The forms hold for the |1>/|0> start only; :func:`entanglement_tables`
    attaches them to a run after checking that with :func:`one_zero_start`.
    """
    if not 0 <= n <= n_reservoir:
        raise ValueError(f"collision count {n} out of range 0..{n_reservoir}")
    return {(j, k): closed_pair_concurrence(j, k, n, angle)
            for j in range(n_reservoir + 1) for k in range(j + 1, n_reservoir + 1)}


def closed_tangle(j: int, n: int, angle: SwapAngle) -> float:
    """Closed-form one-vs-rest tangle (= CKW sum, the bound is saturated)."""
    s, c = angle.s, angle.c
    if j == 0:
        return 4.0 * c ** (2 * n) * (1.0 - c ** (2 * n))
    if n < j:
        return 0.0
    a = s**2 * c ** (2 * (j - 1))
    return 4.0 * a * (1.0 - a)


def total_tangle_sum(n_reservoir: int, angle: SwapAngle) -> float:
    """Sum of squared concurrences over all pairs after the full N-collision run.

    Half the sum of the per-qubit CKW sums, each of which is its closed
    tangle, so O(N); approaches 2 as N grows along the best-homogenization
    schedule.
    """
    return 0.5 * sum(closed_tangle(j, n_reservoir, angle) for j in range(n_reservoir + 1))
