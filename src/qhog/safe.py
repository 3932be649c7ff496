"""Unwinding sweeps: recovering the stored qubit needs the collision order.

After homogenizing |1> against nine |0> reservoir qubits, applying the
inverse partial swap in the exact reverse order restores the original
state; any other order does not.  This module replays every possible
unwinding order, reads off the sigma_z parameter z of the qubit guessed
to be the system (z = -1 means perfect recovery of |1>), and bins the
results into a fixed 21-bin histogram over [-1, 1].

The sweeps run in the one-excitation sector.  With a unit phase per
inverse collision divided out, unwinding the chosen qubit j against slot
k changes only b_j and b_k, and each slot is read once, at its forward
value.  So unwinding in the order (k_1, ..., k_N) is the Horner
recurrence b_j <- u b_j + v b_(k_i), i = 1..N, with u = c^2 + ics and
v = s^2 - ics (c = cos eta, s = sin eta), and z = 1 - 2|b_j|^2.  One
kernel runs that recurrence step by step over a table of orders, all
rows at once.  The exhaustive sweep writes every order as a short prefix
followed by a row of one shared table of the min(N, 7)! suffix
permutations; the sampled sweep draws its orders in fixed-size batches.
Memory stays bounded for any N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .collision import (CollisionState, ExcitationState, apply_two_qubit, excitation_collide,
                        excitation_forward_run)
from .homogenizer import SwapAngle

EXACT_REVERSAL_TOL = 1e-9
NEAR_REVERSAL_TOL = 1e-6

NUM_BINS = 21

# length of the suffix shared by all exhaustive orders (a 7! x 7 table)
SUFFIX_LEN = 7
# order-table entries per sampled batch
SAMPLE_BATCH_SLOTS = 1 << 15


def bin_centers() -> list[float]:
    return [(i - 10) / 10.0 for i in range(NUM_BINS)]


def bin_index(z: float) -> int:
    """Bin of z for centers -1.0, -0.9, ..., 1.0 with width 0.1.

    Bins are half-open [center - 0.05, center + 0.05); values within 1e-9
    of a boundary are assigned upward, and the outermost bins absorb the
    closed endpoints -1 and +1.
    """
    z = min(1.0, max(-1.0, z))
    idx = int((z + 1.05) * 10.0 + 1e-9)
    return min(NUM_BINS - 1, max(0, idx))


@dataclass(frozen=True)
class UnwindTrial:
    chosen_system: int
    order: tuple[int, ...]
    z: float


@dataclass(frozen=True)
class UnwindHistogram:
    """Binned z counts of one sweep plus reversal bookkeeping."""

    counts: tuple[int, ...]
    total_trials: int
    n_reservoir: int
    eta: float
    chosen_system_mode: str
    exact_reversals: int
    near_reversals: int

    def to_csv(self) -> str:
        rows = ["z_center,count"]
        for center, count in zip(bin_centers(), self.counts):
            rows.append(f"{center!r},{count}")
        return "\n".join(rows) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "N": self.n_reservoir,
            "eta": self.eta,
            "chosen_system_mode": self.chosen_system_mode,
            "total_trials": self.total_trials,
            "exact_reversals": self.exact_reversals,
            "near_reversals": self.near_reversals,
            "bins": [
                {"z_center": center, "count": count}
                for center, count in zip(bin_centers(), self.counts)
            ],
        }


def unwind(state: CollisionState, chosen_system: int, order) -> UnwindTrial:
    """Full-vector unwinding: inverse swaps between the chosen qubit and ``order``.

    ``order`` must be a permutation of all other qubit indices.  The input
    state is not modified.  Returns the sigma_z expectation of the chosen
    qubit's reduced state after the replay.
    """
    n = state.num_qubits
    order = tuple(int(q) for q in order)
    expected = set(range(n)) - {chosen_system}
    if sorted(order) != sorted(expected):
        raise ValueError(f"order {order} is not a permutation of the other qubits")
    vec = state.vector.copy()
    for q in order:
        apply_two_qubit(vec, n, state.angle, chosen_system, q, inverse=True)
    rho = CollisionState(vec, state.angle, []).reduced(chosen_system)
    z = float((rho[0, 0] - rho[1, 1]).real)
    return UnwindTrial(chosen_system, order, z)


def unwind_z_excitation(amplitudes, chosen: int, order, angle: SwapAngle) -> float:
    """Replay one unwinding inside the excitation sector; returns z of ``chosen``.

    Slots 0 and ``chosen`` trade amplitudes, so the chosen qubit takes the
    system slot and qubit 0 takes slot ``chosen``; each step of ``order`` is
    then one inverse :func:`excitation_collide`.
    """
    amps = np.array(amplitudes, dtype=complex)
    amps[[0, chosen]] = amps[[chosen, 0]]
    es = ExcitationState(amps)
    for k in order:
        es = excitation_collide(es, chosen if k == 0 else k, angle, inverse=True)
    return 1.0 - 2.0 * float(abs(es.amplitudes[0]) ** 2)


def bin_indices(z: np.ndarray) -> np.ndarray:
    """``bin_index`` of every entry of ``z``, with the same clip, shift and truncation."""
    idx = ((np.clip(z, -1.0, 1.0) + 1.05) * 10.0 + 1e-9).astype(np.intp)
    return np.clip(idx, 0, NUM_BINS - 1)


def _unwind_steps(re, im, steps, wr, wi, u: complex):
    """Run b_j <- u*b_j + v*b_k over the slots k of ``steps``, one step per entry.

    ``re``/``im`` are b_j as scalars or one value per row, ``steps[i]`` is
    the slot (or per-row slots) unwound at step i, and ``wr``/``wi`` are
    the parts of v*b_k for the forward amplitudes.  The real arithmetic
    spells out Python's complex product term by term, so every row is
    bit-identical to the scalar recurrence.
    """
    ur, ui = u.real, u.imag
    for k in steps:
        re, im = ur * re - ui * im + wr[k], ur * im + ui * re + wi[k]
    return re, im


def _exhaustive(b, chosen_list, wr, wi, u):
    """(re, im) of b_j for every order, one shared-suffix block per prefix."""
    n = b.size - 1
    m = min(SUFFIX_LEN, n)
    suffixes = np.array(list(itertools.permutations(range(m))), dtype=np.intp).T
    for chosen in chosen_list:
        pool = [q for q in range(n + 1) if q != chosen]
        for prefix in itertools.permutations(pool, n - m):
            re, im = _unwind_steps(b[chosen].real, b[chosen].imag, prefix, wr, wi, u)
            rest = np.array([q for q in pool if q not in prefix], dtype=np.intp)
            yield _unwind_steps(re, im, rest[suffixes], wr, wi, u)


def _sampled(b, chosen_list, wr, wi, u, sample: int, seed: int):
    """(re, im) of b_j for ``sample`` seeded random (chosen, order) draws, in batches."""
    rng = np.random.default_rng(seed)
    n = b.size - 1
    rows = max(1, SAMPLE_BATCH_SLOTS // n)
    for start in range(0, sample, rows):
        picks = np.empty(min(rows, sample - start), dtype=np.intp)
        orders = np.tile(np.arange(n), (picks.size, 1))
        for r in range(picks.size):
            picks[r] = rng.integers(len(chosen_list))
            rng.shuffle(orders[r])  # the shuffle rng.permutation(n) runs on its arange
        chosen = np.asarray(chosen_list)[picks]
        orders += orders >= chosen[:, None]  # index into the pool -> qubit
        yield _unwind_steps(b.real[chosen], b.imag[chosen], orders.T, wr, wi, u)


def _sweep(mode: str, n_reservoir: int, angle, sample, seed) -> UnwindHistogram:
    if angle is None:
        raise ValueError("an interaction angle is required")
    if n_reservoir < 1:
        raise ValueError(f"the sweeps need at least one reservoir qubit, got {n_reservoir}")
    if sample is not None and sample < 1:
        raise ValueError(f"the sample size must be at least 1, got {sample}")
    b = excitation_forward_run(n_reservoir, angle).amplitudes
    c, s = angle.c, angle.s
    u = complex(c * c, c * s)
    v = complex(s * s, -c * s)
    wr = v.real * b.real - v.imag * b.imag
    wi = v.real * b.imag + v.imag * b.real
    chosen_list = [0] if mode == "correct" else list(range(1, n_reservoir + 1))
    if sample is None:
        blocks = _exhaustive(b, chosen_list, wr, wi, u)
    else:
        blocks = _sampled(b, chosen_list, wr, wi, u, sample, seed)
    counts = np.zeros(NUM_BINS, dtype=np.int64)
    total = exact = near = 0
    for re, im in blocks:
        z = 1.0 - 2.0 * (re * re + im * im)
        counts += np.bincount(bin_indices(z), minlength=NUM_BINS)
        d = np.abs(z + 1.0)
        near += int(np.count_nonzero(d <= NEAR_REVERSAL_TOL))
        exact += int(np.count_nonzero(d <= EXACT_REVERSAL_TOL))
        total += z.size
    return UnwindHistogram(
        tuple(int(x) for x in counts), total, n_reservoir, angle.eta, mode, exact, near
    )


def sweep_correct(
    n_reservoir: int, angle: SwapAngle, *, sample: int | None = None, seed: int = 0
) -> UnwindHistogram:
    """Unwind with the system qubit correctly identified, over all N! orders.

    Exactly one order (the reverse of the forward run) recovers |1>,
    i.e. z = -1.  ``sample`` switches to that many random orders instead
    of the exhaustive sweep.
    """
    return _sweep("correct", n_reservoir, angle, sample, seed)


def sweep_incorrect(
    n_reservoir: int, angle: SwapAngle, *, sample: int | None = None, seed: int = 0
) -> UnwindHistogram:
    """Unwind with each reservoir qubit wrongly taken to be the system.

    Covers all N * N! combinations of wrong choice and order; none of
    them reverses the homogenization.
    """
    return _sweep("incorrect", n_reservoir, angle, sample, seed)
