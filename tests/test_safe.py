import itertools
import json
import math

import numpy as np
import pytest

from qhog import safe
from qhog.cli import main
from qhog.collision import excitation_forward_run, run_pure
from qhog.homogenizer import SwapAngle, budget_from_delta
from qhog.safe import (
    NUM_BINS,
    _draw_trials,
    _pcg64_rounds,
    bin_centers,
    bin_index,
    bin_indices,
    sweep_correct,
    sweep_incorrect,
    unwind,
    unwind_z_excitation,
)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)

ANGLE = SwapAngle.from_sin_squared(0.1)
DELTA_ANGLE = SwapAngle(budget_from_delta(0.1).eta_max)  # the README's --delta 0.1

# histograms of the README's --delta 0.1 sweeps as the earlier
# prefix-sharing depth-first implementation produced them, bin for bin
CORRECT_9_COUNTS = (
    312, 8285, 32823, 72264, 100596, 90728, 47602, 10270, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
)
INCORRECT_9_COUNTS = (
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 21362, 1195651, 2048907,
)
INCORRECT_9_SAMPLE_10000_SEED_1_COUNTS = (
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 67, 3696, 6237,
)


def test_bin_centers():
    centers = bin_centers()
    assert len(centers) == NUM_BINS
    assert centers[0] == -1.0 and centers[10] == 0.0 and centers[20] == 1.0


def test_bin_index_pinned():
    assert bin_index(-1.0) == 0
    assert bin_index(-0.96) == 0
    assert bin_index(-0.95) == 1  # boundary values go to the upper bin
    assert bin_index(-0.05) == 10
    assert bin_index(0.0) == 10
    assert bin_index(0.049) == 10
    assert bin_index(0.05) == 11
    assert bin_index(0.949) == 19
    assert bin_index(1.0) == 20
    assert bin_index(1.5) == 20  # clamped
    assert bin_index(-1.5) == 0


def test_unwind_exact_reverse_recovers_input():
    n = 6
    initial = run_pure(KET1, KET0, n, ANGLE, [])
    forward = initial.run()
    assert unwind(forward, 0, range(n, 0, -1)) == pytest.approx(-1.0, abs=1e-9)
    assert forward.log == list(range(1, n + 1))  # input untouched


def test_unwind_single_reservoir_recovers_both():
    initial = run_pure(KET1, KET0, 1, ANGLE, [])
    forward = initial.run()
    assert unwind(forward, 0, [1]) == pytest.approx(-1.0, abs=1e-12)


def test_unwind_validates_order():
    forward = run_pure(KET1, KET0, 3, ANGLE, []).run()
    with pytest.raises(ValueError):
        unwind(forward, 0, [1, 2])  # missing an index
    with pytest.raises(ValueError):
        unwind(forward, 0, [0, 1, 2])  # includes the chosen qubit


def test_identity_order_z_frozen():
    # value computed independently by the full-vector replay and the
    # excitation-sector replay; frozen here
    forward = run_pure(KET1, KET0, 9, ANGLE, []).run()
    z = unwind(forward, 0, range(1, 10))
    assert z == pytest.approx(0.61646275354907, abs=1e-11)
    (fast,) = unwind_z_excitation(
        excitation_forward_run(9, ANGLE).amplitudes, 0, [range(1, 10)], ANGLE
    )
    assert fast == pytest.approx(z, abs=1e-12)


def _replay(n, angle, orders):
    """Histogram, exact and near reversals of a naive replay of ``orders``."""
    amps = excitation_forward_run(n, angle).amplitudes
    counts = [0] * NUM_BINS
    exact = near = 0
    for chosen, order in orders:
        z = _unwind_z_written_out(amps, chosen, order, angle)
        counts[bin_index(z)] += 1
        exact += abs(z + 1.0) <= 1e-9
        near += abs(z + 1.0) <= 1e-6
    return tuple(counts), exact, near


@pytest.mark.parametrize(
    "mode,n,eta",
    [
        (mode, n, eta)
        for mode in ("correct", "incorrect")
        for n in (1, 5, 8)
        for eta in (0.3, 1.2)
        if (mode, n, eta) != ("incorrect", 8, 1.2)  # 8 x 8! naive replays once is enough
    ],
)
def test_exhaustive_sweep_matches_naive_replay(mode, n, eta):
    # n = 8 is longer than the shared 7-slot suffix, so orders are split
    angle = SwapAngle(eta)
    chosen_list = [0] if mode == "correct" else range(1, n + 1)
    orders = [
        (chosen, perm)
        for chosen in chosen_list
        for perm in itertools.permutations([q for q in range(n + 1) if q != chosen])
    ]
    sweep = sweep_correct if mode == "correct" else sweep_incorrect
    hist = sweep(n, angle)
    assert hist.total_trials == len(orders)
    assert (hist.counts, hist.exact_reversals, hist.near_reversals) == _replay(n, angle, orders)


def test_sweep_trial_counts():
    for n in range(1, 10):
        assert sweep_correct(n, ANGLE).total_trials == math.factorial(n)
    for n in range(1, 9):
        hist = sweep_incorrect(n, ANGLE)
        assert hist.total_trials == sum(hist.counts) == n * math.factorial(n)


@pytest.mark.parametrize("mode", ["correct", "incorrect"])
def test_sampled_sweep_matches_seeded_replay(mode):
    n, sample, seed = 9, 8000, 13  # several batches, the last one partial
    chosen_list = [0] if mode == "correct" else list(range(1, n + 1))
    rng = np.random.default_rng(seed)
    orders = []
    for _ in range(sample):
        chosen = chosen_list[int(rng.integers(len(chosen_list)))]
        pool = [q for q in range(n + 1) if q != chosen]
        orders.append((chosen, [pool[i] for i in rng.permutation(n)]))
    sweep = sweep_correct if mode == "correct" else sweep_incorrect
    hist = sweep(n, ANGLE, sample=sample, seed=seed)
    assert hist.total_trials == sample
    assert (hist.counts, hist.exact_reversals, hist.near_reversals) == _replay(n, ANGLE, orders)


def test_bin_indices_match_bin_index_at_boundaries():
    edges = [(i - 10) / 10.0 + 0.05 for i in range(NUM_BINS - 1)]
    zs = [-1.0, 1.0, -1.5, 1.5, 0.0, -0.0]
    zs += [math.nextafter(-1.0, -2.0), math.nextafter(1.0, 2.0)]
    zs += [math.nextafter(-1.0, 0.0), math.nextafter(1.0, 0.0)]
    for edge in edges:
        for off in (0.0, 1e-10, -1e-10, 5e-11, -5e-11, 1e-9, -1e-9):
            zs.append(edge + off)
        zs += [math.nextafter(edge, -2.0), math.nextafter(edge, 2.0)]
    zs += bin_centers()
    assert bin_indices(np.array(zs)).tolist() == [bin_index(z) for z in zs]


def _exhaustive_per_prefix(b, chosen_list, angle):
    """The exhaustive sweep's earlier kernel: every prefix runs the Horner steps of its suffixes."""
    u, wr, wi = safe._recurrence(b, angle)
    n = b.size - 1
    m = min(safe.SUFFIX_LEN, n)
    suffixes = np.array(list(itertools.permutations(range(m))), dtype=np.intp).T
    for chosen in chosen_list:
        pool = [q for q in range(n + 1) if q != chosen]
        for prefix in itertools.permutations(pool, n - m):
            re, im = safe._unwind_steps(b[chosen].real, b[chosen].imag, prefix, wr, wi, u)
            rest = np.array([q for q in pool if q not in prefix], dtype=np.intp)
            yield safe._z(*safe._unwind_steps(re, im, rest[suffixes], wr, wi, u))


def _assert_far_from_every_edge(z, margin=1e-12):
    """No z lies within ``margin`` of a step of ``bin_indices`` or of a reversal tolerance."""
    t = (z + 1.05) * 10.0 + 1e-9  # bin_indices steps where t crosses an integer
    assert np.abs(t - np.rint(t)).min() > 10.0 * margin
    for tol in (safe.EXACT_REVERSAL_TOL, safe.NEAR_REVERSAL_TOL):
        assert np.abs(np.abs(z + 1.0) - tol).min() > margin


def _tally(z):
    """The histogram, exact and near reversals that ``_sweep`` takes of the z of a sweep."""
    d = np.abs(z + 1.0)
    return (np.bincount(bin_indices(z), minlength=NUM_BINS).tolist(),
            np.count_nonzero(d <= safe.EXACT_REVERSAL_TOL),
            np.count_nonzero(d <= safe.NEAR_REVERSAL_TOL))


# the angle of the pinned safe outputs (--delta 0.1: their exhaustive sweeps are
# correct N = 9 and incorrect N = 8) and three seeded random angles
@pytest.mark.parametrize("angle", [DELTA_ANGLE, *map(SwapAngle, np.random.default_rng(
    2718).uniform(0.0, math.pi / 2, 3).tolist())])
def test_suffix_sums_keep_every_bin_of_the_per_prefix_kernel(angle):
    # u^m x + S rounds otherwise than m more Horner steps from x: every z must
    # stay far enough from the bin edges and the reversal tolerances that the
    # histogram, exact_reversals and near_reversals cannot move
    for mode, top in (("correct", 9), ("incorrect", 8)):
        for n in range(1, top + 1):
            b = excitation_forward_run(n, angle).amplitudes
            chosen_list = [0] if mode == "correct" else list(range(1, n + 1))
            new = np.concatenate(list(safe._exhaustive(b, chosen_list, angle)))
            old = np.concatenate(list(_exhaustive_per_prefix(b, chosen_list, angle)))
            assert new.size == old.size == len(chosen_list) * math.factorial(n)
            _assert_far_from_every_edge(new)
            _assert_far_from_every_edge(old)
            assert np.abs(np.sort(new) - np.sort(old)).max() <= 1e-13, (mode, n)
            assert _tally(new) == _tally(old), (mode, n)


def test_canonical_histograms_pinned():
    hist = sweep_correct(9, DELTA_ANGLE)
    assert hist.counts == CORRECT_9_COUNTS
    assert (hist.exact_reversals, hist.near_reversals) == (1, 1)
    hist = sweep_incorrect(9, DELTA_ANGLE)
    assert hist.counts == INCORRECT_9_COUNTS
    assert (hist.exact_reversals, hist.near_reversals) == (0, 0)
    hist = sweep_incorrect(9, DELTA_ANGLE, sample=10000, seed=1)
    assert hist.counts == INCORRECT_9_SAMPLE_10000_SEED_1_COUNTS
    assert hist.total_trials == 10000


def test_enumerate_full_vector_spot_check():
    n = 6
    angle = SwapAngle.from_sin_squared(0.3)
    forward_full = run_pure(KET1, KET0, n, angle, []).run()
    amps = excitation_forward_run(n, angle).amplitudes
    rng = np.random.default_rng(31)
    orders = [[int(q) + 1 for q in rng.permutation(n)] for _ in range(25)]
    for order, z_fast in zip(orders, unwind_z_excitation(amps, 0, orders, angle)):
        assert unwind(forward_full, 0, order) == pytest.approx(z_fast, abs=1e-12)


def _unwind_z_written_out(amps, chosen, order, angle):
    """The inverse sector collision spelled out on the chosen qubit's own slot."""
    c, s = angle.c, angle.s
    amps = np.array(amps, dtype=complex)
    for k in order:
        a0, ak = amps[chosen], amps[k]
        amps *= complex(c, -s)
        amps[chosen] = c * a0 - 1j * s * ak
        amps[k] = -1j * s * a0 + c * ak
    return 1.0 - 2.0 * float(abs(amps[chosen]) ** 2)


def _unwind_z_horner_written_out(amps, chosen, order, angle):
    """The same unwinding with the phase c - is of every step divided out, in complex arithmetic.

    b_j <- u b_j + v b_k over the forward b_k, with u = c^2 + ics and v = s^2 - ics.
    """
    c, s = angle.c, angle.s
    u, v = complex(c * c, c * s), complex(s * s, -c * s)
    b = complex(amps[chosen])
    for k in order:
        b = u * b + v * complex(amps[k])
    return 1.0 - 2.0 * (b.real * b.real + b.imag * b.imag)


@pytest.mark.parametrize("angle", [SwapAngle(0.3), SwapAngle(1.2), DELTA_ANGLE])
def test_unwind_z_excitation_bitwise_matches_written_out_replay(angle):
    # bit for bit the Horner recurrence; within 1e-12 the inverse collisions
    for n in (1, 2, 3, 4, 5):
        amps = excitation_forward_run(n, angle).amplitudes
        for chosen in range(n + 1):
            orders = list(itertools.permutations([q for q in range(n + 1) if q != chosen]))
            for order, got in zip(orders, unwind_z_excitation(amps, chosen, orders, angle)):
                want = np.float64(_unwind_z_horner_written_out(amps, chosen, order, angle))
                assert got.view(np.uint64) == want.view(np.uint64), (n, chosen, order)
                assert abs(got - _unwind_z_written_out(amps, chosen, order, angle)) <= 1e-12


def test_sweep_correct_small():
    hist = sweep_correct(5, ANGLE)
    assert hist.total_trials == 120
    assert sum(hist.counts) == 120
    assert hist.exact_reversals == 1


def test_sweep_incorrect_small():
    hist = sweep_incorrect(4, ANGLE)
    assert hist.total_trials == 4 * 24
    assert sum(hist.counts) == hist.total_trials
    assert hist.exact_reversals == 0
    assert hist.near_reversals == 0


def test_sweep_sampled_mode():
    a = sweep_correct(7, ANGLE, sample=500, seed=3)
    b = sweep_correct(7, ANGLE, sample=500, seed=3)
    assert a == b
    assert a.total_trials == 500
    c = sweep_correct(7, ANGLE, sample=500, seed=4)
    assert c != a  # different seed shuffles differently


def test_sweep_requires_angle():
    with pytest.raises(ValueError):
        sweep_correct(5, None)


def test_sweep_rejects_bad_sizes():
    for sweep in (sweep_correct, sweep_incorrect):
        for n in (0, -1):
            with pytest.raises(ValueError):
                sweep(n, ANGLE)
        for sample in (0, -5):
            with pytest.raises(ValueError):
                sweep(4, ANGLE, sample=sample)


def test_histogram_serialization(capsys):
    argv = ["safe", "--eta", str(ANGLE.eta), "--n", "4", "--mode", "correct"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "z_center,count"
    assert len(lines) == 1 + NUM_BINS
    assert lines[1].startswith("-1,") or lines[1].startswith("-1.0,")

    assert main([*argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["N"] == 4
    assert payload["chosen_system_mode"] == "correct"
    assert payload["total_trials"] == 24
    assert len(payload["bins"]) == NUM_BINS
    json.dumps(payload)  # must be serializable as-is


def test_histogram_counts_match_replay():
    n = 5
    hist = sweep_correct(n, ANGLE)
    amps = excitation_forward_run(n, ANGLE).amplitudes
    counts = [0] * NUM_BINS
    for perm in itertools.permutations(range(1, n + 1)):
        counts[bin_index(_unwind_z_written_out(amps, 0, perm, ANGLE))] += 1
    assert hist.counts == tuple(counts)


def _per_call_trials(n, k, sample, seed):
    """Picks and orders from one ``rng.integers(k)`` and one ``rng.shuffle`` per trial."""
    rng = np.random.default_rng(seed)
    picks = np.empty(sample, dtype=np.intp)
    orders = np.tile(np.arange(n), (sample, 1))
    for r in range(sample):
        picks[r] = rng.integers(k)
        rng.shuffle(orders[r])
    return picks, orders


def _numpy_rounds(seed):
    """numpy's own stream of ``default_rng(seed)``, in rounds of ``_LANES`` outputs."""
    bit_generator = np.random.default_rng(seed).bit_generator
    while True:
        yield bit_generator.random_raw(safe._LANES)


def _bulk_trials(n, k, sample, rounds):
    batches = list(_draw_trials(n, k, sample, rounds))
    assert all(picks.size == orders.shape[0] >= 1 for picks, orders in batches)
    assert max(picks.size for picks, _ in batches) <= max(1, 2 * safe._LANES // n)
    return (np.concatenate([picks for picks, _ in batches]),
            np.concatenate([orders for _, orders in batches]))


def _assert_same_trials(got, want):
    assert got[0].dtype.kind == want[0].dtype.kind == "i"
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 12])
@pytest.mark.parametrize("k_is_n", [False, True])
def test_bulk_draws_match_per_trial_calls(monkeypatch, n, k_is_n):
    # small rounds and batches, so that 20 seeds cross many batch and round boundaries
    k = n if k_is_n else 1
    monkeypatch.setattr(safe, "_LANES", 20)
    rows = max(1, 40 // n)
    for seed in range(20):
        sample = 3 * rows + seed % 5  # the last batch partial unless seed % 5 == 0
        _assert_same_trials(_bulk_trials(n, k, sample, _numpy_rounds(seed)),
                            _per_call_trials(n, k, sample, seed))


@pytest.mark.parametrize("n", [1, 9, 12])
def test_bulk_draws_match_per_trial_calls_across_full_batches(n):
    sample = 2 * max(1, 2 * safe._LANES // n) + 3
    for seed in (0, 7):
        _assert_same_trials(_bulk_trials(n, n, sample, _numpy_rounds(seed)),
                            _per_call_trials(n, n, sample, seed))


def _scalar_trials(draws, n, k, count):
    """The trials that per-call draws make of a stream of 32-bit draws, one draw at a time."""
    stream = iter(int(x) for x in draws)
    picks, orders = [], []
    for _ in range(count):
        pick = 0
        if k > 1:  # Lemire: m = x * k, rejected while m mod 2^32 < (2^32 - k) mod k
            m = next(stream) * k
            while m % 2**32 < (2**32 - k) % k:
                m = next(stream) * k
            pick = m >> 32
        row = list(range(n))
        for i in range(n - 1, 0, -1):  # Fisher-Yates with masked rejection
            mask = (1 << i.bit_length()) - 1
            j = next(stream) & mask
            while j > i:
                j = next(stream) & mask
            row[i], row[j] = row[j], row[i]
        picks.append(pick)
        orders.append(row)
    return np.array(picks, dtype=np.intp), np.array(orders, dtype=np.intp).reshape(count, n)


def _crafted_rounds(draws):
    """Whole rounds of ``_LANES`` 64-bit outputs over fixed 32-bit draws, low half first."""
    words = np.asarray(draws, dtype="<u4").view("<u8").astype(np.uint64)
    for start in range(0, words.size - safe._LANES + 1, safe._LANES):
        yield words[start:start + safe._LANES]
    pytest.fail("the routine read past the crafted stream")


def test_scalar_emulation_matches_per_trial_calls():
    n, k, sample, seed = 9, 9, 300, 4
    draws = np.random.default_rng(seed).bit_generator.random_raw(4000).astype("<u8").view("<u4")
    _assert_same_trials(_scalar_trials(draws, n, k, sample), _per_call_trials(n, k, sample, seed))


def test_bulk_draws_on_crafted_stream(monkeypatch):
    """Lemire rejections and long masked-rejection runs, against the scalar emulation."""
    n, k, count = 9, 9, 60
    assert (2**32 - k) % k == 4  # so x = 0 gives m mod 2^32 = 0 < 4: a rejected pick
    rng = np.random.default_rng(11)
    draws = rng.bit_generator.random_raw(3 * 4096).astype("<u8").view("<u4").copy()
    draws[[0, 1, 2]] = 0  # three rejected picks at the start of the stream
    draws[200:203] = 0
    # 15 and 2^32 - 1 pass the pick and i = 7, 3, 1 only: runs of 100 and 400
    # rejections for whichever of i = 8, 6, 5, 4, 2 meets them
    draws[40:140] = 15
    draws[1000:1400] = 0xFFFFFFFF
    want = _scalar_trials(draws, n, k, count)
    assert want[0][0] == int(draws[3]) * k >> 32
    for lanes in (20, 200, 4096):
        monkeypatch.setattr(safe, "_LANES", lanes)
        _assert_same_trials(_bulk_trials(n, k, count, _crafted_rounds(draws)), want)


def test_bulk_draws_single_trial_longer_than_its_window(monkeypatch):
    # one trial per batch, and a run of 500 rejections in its first step
    monkeypatch.setattr(safe, "_LANES", 20)
    n, count = 60, 3
    assert (n - 1) & n  # i = n - 1 is not 2^b - 1, so x = 2^32 - 1 is rejected
    draws = np.random.default_rng(5).bit_generator.random_raw(2000).astype("<u8").view("<u4")
    draws = draws.copy()
    draws[:500] = 0xFFFFFFFF
    _assert_same_trials(_bulk_trials(n, 1, count, _crafted_rounds(draws)),
                        _scalar_trials(draws, n, 1, count))


def test_trials_without_draws_read_no_round(monkeypatch):
    # N = 1 with one candidate runs no sampler: the stream stays unread, and
    # the batch cap still splits the trials
    monkeypatch.setattr(safe, "_LANES", 2)

    def unread():
        pytest.fail("a trial that takes no draws read a round")
        yield

    sample = 3 * 2 * safe._LANES + 1
    picks, orders = _bulk_trials(1, 1, sample, unread())
    assert np.array_equal(picks, np.zeros(sample))
    assert np.array_equal(orders, np.zeros((sample, 1)))


_PCG64_CASES = [(lanes, seed) for lanes in (2**12, 8, 2, 1)
                for seed in (0, 1, 2**32 - 1, 2**32, 2**64, 10**23, 2**130 + 5)]


@pytest.mark.parametrize("lanes,seed", _PCG64_CASES, ids=[
    str(seed) if lanes == 2**12 else f"{seed}-lanes{lanes}" for lanes, seed in _PCG64_CASES])
def test_pcg64_stream_equals_numpy_random_raw(monkeypatch, lanes, seed):
    # 10**23 is a --seed the CLI takes; 2**130 + 5 has more 32-bit words than
    # the seed pool.  The lanes are doubled from one (one lane: no doubling
    # pass), and nine rounds step them by the round's jump eight times
    monkeypatch.setattr(safe, "_LANES", lanes)
    stream = _pcg64_rounds(seed)
    got = np.concatenate([next(stream) for _ in range(9)])
    want = np.random.default_rng(seed).bit_generator.random_raw(9 * lanes)
    assert got.dtype == np.uint64 and np.array_equal(got, want)


@pytest.mark.parametrize("seed,error", [(-1, ValueError), (1.0, TypeError)])
def test_pcg64_rejects_what_default_rng_rejects(seed, error):
    # the seed is checked when the stream is built, before any round is read:
    # a sampled sweep at N = 1 takes no draws and still rejects it
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        _pcg64_rounds(seed)
    with pytest.raises(error):
        sweep_incorrect(1, ANGLE, sample=5, seed=seed)
