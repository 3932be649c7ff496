"""Unwinding sweeps: recovering the stored qubit needs the collision order.

After homogenizing |1> against nine |0> reservoir qubits, applying the
inverse partial swap in the exact reverse order restores the original
state.  For 0 < eta < pi/2 no other order does; a full swap lets (N-1)!
of the N! orders do it, and eta = 0 every order.  This module replays
every possible unwinding order, reads off the sigma_z parameter z of the
qubit guessed to be the system (z = -1 means perfect recovery of |1>),
and bins the results into a fixed 21-bin histogram over [-1, 1].  A sweep
returns the counts and trial totals only; ``qhog.cli`` writes them as CSV
or JSON.

The sweeps run in the one-excitation sector.  With a unit phase per
inverse collision divided out, unwinding the chosen qubit j against slot
k changes only b_j and b_k, and each slot is read once, at its forward
value.  So unwinding in the order (k_1, ..., k_N) is the Horner
recurrence b_j <- u b_j + v b_(k_i), i = 1..N, with u = c^2 + ics and
v = s^2 - ics (c = cos eta, s = sin eta), and z = 1 - 2|b_j|^2.  One
kernel runs that recurrence step by step over a table of orders, all
rows at once.  The exhaustive sweep writes every order as a short prefix
followed by a row of one shared table of the min(N, 7)! suffix
permutations; the sampled sweep draws its orders in batches of at most
2^13 // N (at least one).  Memory stays bounded for any N.

The sampled sweep's seeded trials are those of ``rng.integers(len(chosen))``
followed by ``rng.shuffle(arange(N))`` per trial on ``default_rng(seed)``,
but they are read in bulk from the PCG64 stream.  That stream,
``default_rng(seed).bit_generator.random_raw``, is computed here
(``_PCG64``: numpy's seeding in Python ints, then 2^12 lanes in uint64
limbs), so no command loads ``numpy.random``; it comes in rounds of 2^12
64-bit outputs, 2^13 32-bit draws (low half first).  A window of whole
rounds holds the draws of the next trials, and numpy replays each call's
rejection sampling on the whole window at once, every trial of a batch
moving on from a rejected draw in one full-width step.  The pick is
Lemire's method on one draw; Fisher-Yates step i = N-1, ..., 1 keeps the
first draw whose low bit_length(i) bits are at most i.  So every pick and
order is bit-identical to the per-trial calls, and depends only on the
PCG64 stream.  Finding where each trial ends runs every sampler over every
draw of the window, about 1.3 N^2 draw tests per trial, so the bulk read
beats the per-trial calls up to N of about 15 and loses above.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .collision import CollisionState, apply_two_qubit, excitation_forward_run, reduced_from_vector
from .homogenizer import SwapAngle

EXACT_REVERSAL_TOL = 1e-9
NEAR_REVERSAL_TOL = 1e-6

NUM_BINS = 21

# length of the suffix shared by all exhaustive orders (a 7! x 7 table)
SUFFIX_LEN = 7


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
class UnwindHistogram:
    """Binned z counts of one sweep (bins at ``bin_centers()``) plus reversal bookkeeping."""

    counts: tuple[int, ...]
    total_trials: int
    exact_reversals: int
    near_reversals: int


def unwind(state: CollisionState, chosen_system: int, order) -> float:
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
    rho = reduced_from_vector(vec, n, [chosen_system])
    return float((rho[0, 0] - rho[1, 1]).real)


def unwind_z_excitation(amplitudes, chosen, orders, angle: SwapAngle) -> np.ndarray:
    """z of qubit ``chosen`` unwound in each row of ``orders`` from the sector ``amplitudes``.

    ``chosen`` is one qubit or one per row, and each row is a permutation of
    the other qubits; the sweeps' Horner kernel runs all rows at once.
    """
    b = np.asarray(amplitudes, dtype=complex)
    u, wr, wi = _recurrence(b, angle)
    steps = np.asarray(orders, dtype=np.intp).T
    return _z(*_unwind_steps(b.real[chosen], b.imag[chosen], steps, wr, wi, u))


def _recurrence(b: np.ndarray, angle: SwapAngle):
    """u and the parts of v*b_k of the unwinding recurrence over the forward amplitudes ``b``."""
    c, s = angle.c, angle.s
    u = complex(c * c, c * s)
    v = complex(s * s, -c * s)
    return u, v.real * b.real - v.imag * b.imag, v.real * b.imag + v.imag * b.real


def _z(re, im):
    return 1.0 - 2.0 * (re * re + im * im)


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


def _exhaustive(b, chosen_list, angle):
    """z for every order, one shared-suffix block per prefix."""
    u, wr, wi = _recurrence(b, angle)
    n = b.size - 1
    m = min(SUFFIX_LEN, n)
    suffixes = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(m))),
                           np.intp, count=m * math.factorial(m)).reshape(-1, m).T
    for chosen in chosen_list:
        pool = [q for q in range(n + 1) if q != chosen]
        for prefix in itertools.permutations(pool, n - m):
            re, im = _unwind_steps(b[chosen].real, b[chosen].imag, prefix, wr, wi, u)
            rest = np.array([q for q in pool if q not in prefix], dtype=np.intp)
            yield _z(*_unwind_steps(re, im, rest[suffixes], wr, wi, u))


def _draw_steps(n: int, k: int) -> list[tuple[int, bool]]:
    """The rejection samplers of one trial, in stream order, as ``(bound, lemire)``.

    ``rng.integers(k)`` is one Lemire pick below k (none for k = 1), and
    ``rng.shuffle`` of n entries is one masked pick in 0..i per step i = n-1, ..., 1.
    """
    return [(k, True)] * (k > 1) + [(i, False) for i in range(n - 1, 0, -1)]


def _accepted(draws: np.ndarray, bound: int, lemire: bool) -> np.ndarray:
    """Whether each 32-bit draw passes one rejection sampler of ``_draw_steps``."""
    if lemire:  # m = x * k is rejected while m mod 2^32 < (2^32 - k) mod k
        return draws * np.uint32(bound) >= (2**32 - bound) % bound
    return draws & ((1 << bound.bit_length()) - 1) <= bound  # rejected while above i


def _picked(draws: np.ndarray, bound: int, lemire: bool) -> np.ndarray:
    """The value that one sampler returns for each accepted 32-bit draw."""
    if lemire:
        return (draws.astype(np.uint64) * bound >> 32).astype(np.intp)
    return (draws & ((1 << bound.bit_length()) - 1)).astype(np.intp)


def _trial_ends(draws: np.ndarray, steps) -> np.ndarray:
    """Position after the last draw of a trial started at each position 0..L of ``draws``.

    A trial that runs past the window ends at L + 1.  Each sampler maps a
    position to one past its next accepted draw, for every position at once.
    """
    size = draws.size
    ends = np.arange(size + 1)
    for bound, lemire in steps:
        accepted = _accepted(draws, bound, lemire)
        if accepted.all():  # the sampler takes the draw it starts at
            ends = np.minimum(ends + 1, size + 1)
            continue
        past = np.append(np.flatnonzero(accepted) + 1, (size + 1, size + 1))
        before = np.zeros(size + 2, dtype=np.intp)  # accepted draws ahead of each position
        np.cumsum(accepted, out=before[1:size + 1])
        before[size + 1] = before[size] + 1
        ends = past[before[ends]]
    return ends


def _draw_trials(n: int, k: int, sample: int, rounds):
    """Picks and orders of ``sample`` trials, in batches of max(1, 2 * _LANES // n).

    ``rounds`` yields whole rounds of _LANES 64-bit outputs; with the rounds
    of ``_PCG64(seed)``, trial r is bit for bit ``rng.integers(k)`` then
    ``rng.shuffle(arange(n))`` on ``default_rng(seed)``.  Each batch finds
    every trial's end in the window of 32-bit draws, walks from its first
    draw to the starts of its trials and replays them.  When the next
    trial runs past the window, the window gains one round, or as many as
    it holds when no trial fitted, and trials that take no draws read none.
    """
    steps = _draw_steps(n, k)
    rows = max(1, 2 * _LANES // n)
    draws = np.empty(0, dtype=np.uint32)
    done = 0
    while done < sample:
        size = draws.size
        ends = memoryview(_trial_ends(draws, steps))
        starts, pos = [], 0
        for _ in range(min(rows, sample - done)):
            end = ends[pos]
            if end > size:
                break
            starts.append(pos)
            pos = end
        if starts:
            yield _replay_trials(draws, np.array(starts), n, steps)
            done += len(starts)
        draws = draws[pos:]
        if ends[pos] > size and done < sample:  # the next trial runs past the window
            more = [next(rounds) for _ in range(1 + draws.size // (2 * _LANES))]
            draws = np.concatenate([draws, np.concatenate(more).astype("<u8").view("<u4")])


def _replay_trials(draws: np.ndarray, starts: np.ndarray, n: int, steps):
    """Picks and shuffled ``arange(n)`` rows of the trials that start at ``starts``."""
    picks = np.zeros(starts.size, dtype=np.intp)
    orders = np.tile(np.arange(n), starts.size)
    base = np.arange(0, orders.size, n)  # first entry of each row
    pos = starts
    for bound, lemire in steps:
        taken = _accepted(draws[pos], bound, lemire)
        while not taken.all():  # move each rejected trial on to its next draw, over all rows
            pos += ~taken
            taken = _accepted(draws[pos], bound, lemire)
        value = _picked(draws[pos], bound, lemire)
        pos += 1
        if lemire:
            picks = value
        else:  # Fisher-Yates step i: swap entries i and j of every row
            i, j = base + bound, base + value
            orders[i], orders[j] = orders[j], orders[i]
    return picks, orders.reshape(-1, n)


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# outputs per round of the stream, one 128-bit state each (doubled: a power of 2)
_LANES = 1 << 12


def _hashmix(const: int, mult: int):
    """numpy SeedSequence's 32-bit hash, whose constant steps by ``mult`` at every call."""

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """PCG64's (initstate, initseq): numpy's ``SeedSequence(seed).generate_state(4, uint64)``."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"the seed must be a non-negative integer, got {seed}")
    # 32-bit words, least significant first; seed 0 is one word
    entropy = [seed >> 32 * i & _M32 for i in range(max(1, -(-seed.bit_length() // 32)))]
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    words = list(map(_hashmix(0x8B51F9DD, 0x58F38DED), pool * 2))  # cycling the pool
    w = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]  # four 64-bit words
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


def _words(value: int):
    """High and low words of a 128-bit Python int, as np.uint64."""
    return np.uint64(value >> 64), np.uint64(value & _M64)


def _mul_add(xh, xl, yh, yl, zh, zl):
    """High and low words of x * y + z mod 2^128: x in uint64 arrays, y, z arrays or np.uint64."""
    m32, s32 = np.uint64(_M32), np.uint64(32)
    x0, x1, y0, y1 = xl & m32, xl >> s32, yl & m32, yl >> s32
    p01, p10 = x0 * y1, x1 * y0
    mid = (x0 * y0 >> s32) + (p01 & m32) + (p10 & m32)
    lo = xl * yl + zl
    hi = x1 * y1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)  # high word of xl * yl
    hi += xl * yh + xh * yl + zh + (lo < zl).astype(np.uint64)
    return hi, lo


def _xsl_rr(hi, lo):
    """PCG64's output of each state: (hi ^ lo) rotated right by hi >> 58."""
    rot, value = hi >> np.uint64(58), hi ^ lo
    return value >> rot | value << (np.uint64(64) - rot & np.uint64(63))


class _PCG64:
    """The PCG64 stream of ``numpy.random.default_rng(seed)``, in rounds of _LANES outputs.

    M. E. O'Neill, HMC-CS-2014-0905: each output steps the 128-bit state
    s <- s * _PCG_MULT + inc and returns ``_xsl_rr`` of the new s; the seed
    goes through numpy's SeedSequence and PCG64's srandom.  Lane j holds
    the state of output j of the next round.  The lanes double from lane
    0, a s + inc with a = _PCG_MULT: lanes w..2w-1 are lanes 0..w-1 stepped
    by the jump (a_w, c_w) of w outputs, with a_1 = a, c_1 = inc, a_2w =
    a_w^2 and c_2w = c_w (a_w + 1).  Each round returns the lanes' outputs
    and steps every lane by the jump of _LANES outputs.
    """

    def __init__(self, seed: int):
        initstate, initseq = _pcg64_seed(seed)
        inc = (initseq << 1 | 1) & _M128
        a, c = _PCG_MULT, inc
        state = ((inc + initstate) * a + inc) & _M128
        hi, lo = (np.array([x]) for x in _words((a * state + inc) & _M128))
        while hi.size < _LANES:
            step = _mul_add(hi, lo, *_words(a), *_words(c))
            hi, lo = np.concatenate([hi, step[0]]), np.concatenate([lo, step[1]])
            a, c = a * a & _M128, c * (a + 1) & _M128
        self._lanes = hi, lo
        self._round = (*_words(a), *_words(c))

    def __iter__(self):
        return self

    def __next__(self) -> np.ndarray:
        out = _xsl_rr(*self._lanes)
        self._lanes = _mul_add(*self._lanes, *self._round)
        return out


def _sampled(b, chosen_list, angle, sample: int, seed: int):
    """z for ``sample`` seeded random (chosen, order) draws, in batches.

    Trial r draws ``rng.integers(len(chosen_list))`` and then
    ``rng.shuffle(arange(N))`` on ``default_rng(seed)``; ``_draw_trials``
    reads those draws in bulk from the rounds of ``_PCG64(seed)``, the
    same stream, one batch of trials per window of whole rounds, and each
    batch goes through the kernel as one table.
    """
    n = b.size - 1
    for picks, orders in _draw_trials(n, len(chosen_list), sample, _PCG64(seed)):
        chosen = np.asarray(chosen_list)[picks]
        orders += orders >= chosen[:, None]  # index into the pool -> qubit
        yield unwind_z_excitation(b, chosen, orders, angle)


def _sweep(mode: str, n_reservoir: int, angle, sample, seed) -> UnwindHistogram:
    if angle is None:
        raise ValueError("an interaction angle is required")
    if n_reservoir < 1:
        raise ValueError(f"the sweeps need at least one reservoir qubit, got {n_reservoir}")
    if sample is not None and sample < 1:
        raise ValueError(f"the sample size must be at least 1, got {sample}")
    b = excitation_forward_run(n_reservoir, angle).amplitudes
    chosen_list = [0] if mode == "correct" else list(range(1, n_reservoir + 1))
    if sample is None:
        blocks = _exhaustive(b, chosen_list, angle)
    else:
        blocks = _sampled(b, chosen_list, angle, sample, seed)
    counts = np.zeros(NUM_BINS, dtype=np.int64)
    total = exact = near = 0
    for z in blocks:
        counts += np.bincount(bin_indices(z), minlength=NUM_BINS)
        d = np.abs(z + 1.0)
        near += int(np.count_nonzero(d <= NEAR_REVERSAL_TOL))
        exact += int(np.count_nonzero(d <= EXACT_REVERSAL_TOL))
        total += z.size
    return UnwindHistogram(tuple(int(x) for x in counts), total, exact, near)


def sweep_correct(
    n_reservoir: int, angle: SwapAngle, *, sample: int | None = None, seed: int = 0
) -> UnwindHistogram:
    """Unwind with the system qubit correctly identified, over all N! orders.

    For 0 < eta < pi/2 exactly one order (the reverse of the forward run)
    recovers |1>, i.e. z = -1; a full swap lets (N-1)! orders do it, and
    eta = 0 every order.  ``sample`` switches to that many random orders
    instead of the exhaustive sweep.
    """
    return _sweep("correct", n_reservoir, angle, sample, seed)


def sweep_incorrect(
    n_reservoir: int, angle: SwapAngle, *, sample: int | None = None, seed: int = 0
) -> UnwindHistogram:
    """Unwind with each reservoir qubit wrongly taken to be the system.

    Covers all N * N! combinations of wrong choice and order; for
    0 < eta < pi/2 none of them reverses the homogenization, while a full
    swap lets (N-1) (N-1)! of them do it.
    """
    return _sweep("incorrect", n_reservoir, angle, sample, seed)
