import json
import math
import os
import sys

import numpy as np
import pytest

from qhog.cli import _csv
from qhog.collision import reduced_from_vector, run_pure
from qhog.entanglement import (
    SIGMA_YY,
    ckw_sum,
    closed_form_concurrences,
    closed_pair_concurrence,
    closed_tangle,
    concurrence,
    concurrence_table,
    entanglement_tables,
    pair_states,
    tangle_one_vs_rest,
    total_tangle_sum,
)
from qhog.homogenizer import SwapAngle
from qhog.linalg import tensor_product

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


def spin_flip_lambdas_reference(rho) -> np.ndarray:
    """Square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).

    Independent route to the same lambdas through the non-Hermitian
    product matrix, for cross-checking the Hermitian form of ``concurrence``.
    """
    rho = np.asarray(rho, dtype=complex)
    r = rho @ SIGMA_YY @ rho.conj() @ SIGMA_YY
    vals = np.linalg.eigvals(r)
    vals = np.clip(vals.real, 0.0, None)
    return np.sqrt(np.sort(vals)[::-1])


def random_two_qubit_density(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_concurrence_product_state():
    rho = tensor_product(np.diag([0.6, 0.4]), np.diag([0.3, 0.7])).astype(complex)
    assert concurrence(rho) == 0.0


def test_concurrence_bell_state():
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    assert concurrence(np.outer(bell, bell.conj())) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_pure_two_qubit_formula():
    # for a pure state a|01> + b|10> the concurrence is 2|a||b|
    for a, b in ((0.6, 0.8), (0.3, math.sqrt(1 - 0.09))):
        psi = np.zeros(4, dtype=complex)
        psi[1], psi[2] = a, 1j * b
        rho = np.outer(psi, psi.conj())
        assert concurrence(rho) == pytest.approx(2 * a * b, abs=1e-12)


def test_concurrence_rejects_bad_input():
    with pytest.raises(ValueError):
        concurrence(np.eye(4, dtype=complex))  # trace 4
    with pytest.raises(ValueError):
        concurrence(np.triu(np.ones((4, 4))).astype(complex) / 4)


def test_concurrence_matches_reference_route():
    rng = np.random.default_rng(43)
    for _ in range(50):
        rho = random_two_qubit_density(rng)
        lam = spin_flip_lambdas_reference(rho)
        want = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
        assert concurrence(rho) == pytest.approx(want, abs=1e-9)
    # rank-deficient states: the reference route itself carries sqrt(eps)
    # noise in its vanishing lambdas, so compare more loosely
    for rank in (1, 2, 3):
        for _ in range(20):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            lam = spin_flip_lambdas_reference(rho)
            want = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
            assert concurrence(rho) == pytest.approx(want, abs=1e-7)


def test_pair_concurrence_after_joint_interaction():
    # C = 2 c s (1 - a) with a the pre-collision population on the
    # reservoir state; holds for every collision count
    angle = SwapAngle.from_sin_squared(0.3)
    sys_ket = np.array([0.6, 0.8j], dtype=complex)
    state = run_pure(sys_ket, KET0, 4, angle, [])
    for k in range(1, 5):
        a_prev = state.reduced(0)[0, 0].real
        state = state.run([k])
        got = concurrence(state.reduced([0, k]))
        assert got == pytest.approx(2 * angle.c * angle.s * (1 - a_prev), abs=1e-10)


def test_tangle_zero_before_interaction():
    state = run_pure(KET1, KET0, 4, SwapAngle.from_sin_squared(0.2), [])
    for j in range(5):
        assert tangle_one_vs_rest(state, j) == pytest.approx(0.0, abs=1e-12)


def test_tangle_closed_forms_along_run():
    n = 6
    angle = SwapAngle.from_sin_squared(0.15)
    c, s = angle.c, angle.s
    state = run_pure(KET1, KET0, n, angle, [])
    for step in range(1, n + 1):
        state = state.run([step])
        # system vs rest: 4 c^(2n) (1 - c^(2n))
        want0 = 4 * c ** (2 * step) * (1 - c ** (2 * step))
        assert tangle_one_vs_rest(state, 0) == pytest.approx(want0, abs=1e-10)
        # collided reservoir qubit j: 4 s^2 c^(2j-2) (1 - s^2 c^(2j-2))
        for j in range(1, step + 1):
            aj = s**2 * c ** (2 * (j - 1))
            assert tangle_one_vs_rest(state, j) == pytest.approx(4 * aj * (1 - aj), abs=1e-10)
        for j in range(step + 1, n + 1):
            assert tangle_one_vs_rest(state, j) == pytest.approx(0.0, abs=1e-12)


def test_ckw_sum_saturates_tangle():
    n = 6
    angle = SwapAngle.from_sin_squared(0.1)
    state = run_pure(KET1, KET0, n, angle, []).run()
    for j in range(n + 1):
        assert ckw_sum(state, j) == pytest.approx(tangle_one_vs_rest(state, j), abs=1e-8)
    assert ckw_sum(state, 0) == pytest.approx(closed_tangle(0, n, angle), abs=1e-8)


def test_ckw_sum_uncollided_qubit():
    state = run_pure(KET1, KET0, 5, SwapAngle.from_sin_squared(0.2), []).run([1, 2])
    assert ckw_sum(state, 4) == pytest.approx(0.0, abs=1e-10)


def test_closed_pair_concurrence_values():
    angle = SwapAngle.from_sin_squared(0.1)
    assert closed_pair_concurrence(1, 2, 1, angle) == 0.0  # second partner not collided
    assert closed_pair_concurrence(0, 1, 1, angle) == pytest.approx(0.6, abs=1e-12)  # 2sc
    half = SwapAngle.from_sin_squared(0.5)
    # 2 s^2 c^(j+k-2) at j=1, k=2
    assert closed_pair_concurrence(1, 2, 2, half) == pytest.approx(
        math.sqrt(0.5), abs=1e-12
    )
    with pytest.raises(ValueError):
        closed_pair_concurrence(2, 1, 3, angle)


def test_closed_form_table_matches_simulator():
    n = 6
    for s2 in (0.1, 0.5):
        angle = SwapAngle.from_sin_squared(s2)
        state = run_pure(KET1, KET0, n, angle, [])
        for step in range(n + 1):
            if step:
                state = state.run([step])
            table = closed_form_concurrences(step, n, angle)
            numeric = concurrence_table(pair_states(state))
            for pair in sorted(table):
                assert numeric[pair] == pytest.approx(table[pair], abs=1e-8), (pair, step, s2)


def test_concurrence_floor():
    # cos t|01> + sin t|10> has C = sin 2t; spin-flip eigenvalues below 1e-14
    # read as zeros, so every C below 1e-7 comes out as exactly 0.0
    def pair(c):
        ket = np.array([0.0, math.cos(c / 2), math.sin(c / 2), 0.0], dtype=complex)
        return np.outer(ket, ket.conj())

    assert concurrence(pair(5e-8)) == 0.0
    assert concurrence(pair(1e-7)) == 0.0
    assert concurrence(pair(2e-7)) == pytest.approx(2e-7, rel=1e-12)


def test_closed_form_regime_guard():
    angle = SwapAngle.from_sin_squared(0.1)
    with pytest.raises(ValueError):
        closed_form_concurrences(5, 4, angle)


def test_total_tangle_full_swap_is_zero():
    assert total_tangle_sum(1, SwapAngle(math.pi / 2)) == pytest.approx(0.0, abs=1e-12)


def test_total_tangle_matches_pairwise_sum():
    n = 8
    angle = SwapAngle.from_sin_squared(0.1)
    closed = closed_form_concurrences(n, n, angle)
    pairwise = sum(v**2 for v in closed.values())
    assert total_tangle_sum(n, angle) == pytest.approx(pairwise, abs=1e-12)


def test_total_tangle_matches_simulator():
    n = 10
    angle = SwapAngle.from_sin_squared(0.05)
    state = run_pure(KET1, KET0, n, angle, []).run()
    numeric = sum(v**2 for v in concurrence_table(pair_states(state)).values())
    assert total_tangle_sum(n, angle) == pytest.approx(numeric, abs=1e-9)


def test_total_tangle_limit_along_budget_schedule():
    from qhog.homogenizer import budget_from_delta

    deviations = []
    for delta in (0.1, 0.05, 0.01):
        budget = budget_from_delta(delta)
        angle = SwapAngle(budget.eta_max)
        total = total_tangle_sum(10 * budget.n_delta, angle)
        deviations.append(abs(total - 2.0))
    assert deviations[-1] <= 0.02
    assert deviations[0] > deviations[1] > deviations[2]


def test_local_unitary_invariance():
    rng = np.random.default_rng(47)
    for _ in range(20):
        rho = random_two_qubit_density(rng)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(g)
        u2 = q * (np.diag(r) / np.abs(np.diag(r)))
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(g)
        v2 = q * (np.diag(r) / np.abs(np.diag(r)))
        u = tensor_product(u2, v2)
        assert concurrence(u @ rho @ u.conj().T) == pytest.approx(
            concurrence(rho), abs=1e-9
        )


def test_table_and_record_serialization():
    n = 3
    angle = SwapAngle.from_sin_squared(0.1)
    state = run_pure(KET1, KET0, n, angle, []).run()
    pairs, tangles = entanglement_tables(state, KET1, KET0)
    assert json.loads(json.dumps([pairs, tangles])) == [pairs, tangles]
    lines = _csv(pairs).strip().split("\n")
    assert lines[0] == "j,k,C,C_closed,residual"
    assert len(lines) == 1 + 6  # all pairs of 4 qubits
    for row in pairs:
        j, k = row["j"], row["k"]
        assert row["C"] == concurrence(state.reduced([j, k]))
        assert row["C_closed"] == closed_pair_concurrence(j, k, n, angle)
        assert row["residual"] == abs(row["C"] - row["C_closed"]) <= 1e-8

    lines = _csv(tangles).strip().split("\n")
    assert lines[0] == "j,tau,S,S_closed,residual"
    assert len(lines) == 1 + 4
    assert [row["j"] for row in tangles] == [0, 1, 2, 3]
    for row in tangles:
        j, tau, s = row["j"], row["tau"], row["S"]
        w = closed_tangle(j, n, angle)
        assert (tau, s) == (tangle_one_vs_rest(state, j), ckw_sum(state, j))
        assert (row["S_closed"], row["residual"]) == (w, max(abs(tau - w), abs(s - w)))
        # CKW inequality as stored: S never exceeds tau beyond roundoff
        assert s <= tau + 1e-9

    # out of collision order the rows carry no closed forms
    scrambled = run_pure(KET1, KET0, n, angle, []).run([2, 1, 3])
    pairs, tangles = entanglement_tables(scrambled, KET1, KET0)
    assert _csv(pairs).split("\n")[0] == "j,k,C"
    assert _csv(tangles).split("\n")[0] == "j,tau,S"


def test_pair_path_equals_per_call_definitions():
    # the per-call definitions the shared pair path replaced: one reduction
    # per ordered pair, each CKW term measured anew
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    reservoir = np.array([0.6, 0.8j], dtype=complex)
    state = run_pure(plus, reservoir, 6, SwapAngle(0.7), []).run([4, 2, 6, 1, 5, 3])
    n = state.num_qubits
    old_table = {(j, k): concurrence(state.reduced([j, k]))
                 for j in range(n) for k in range(j + 1, n)}
    old_record = {j: (tangle_one_vs_rest(state, j), ckw_sum(state, j)) for j in range(n)}
    rhos = pair_states(state)
    for (j, k), rho in rhos.items():
        assert np.array_equal(rho.view(np.uint64), state.reduced([j, k]).view(np.uint64))
    assert concurrence_table(rhos) == old_table
    pairs, tangles = entanglement_tables(state, plus, reservoir)
    assert [(r["j"], r["k"]) for r in pairs] == sorted(old_table)
    assert {(r["j"], r["k"]): r["C"] for r in pairs} == old_table
    assert {r["j"]: (r["tau"], r["S"]) for r in tangles} == old_record
    assert all(len(r) == 3 for r in pairs + tangles)  # no closed forms for this start
    assert max(old_table.values()) > 0.1


def test_pair_path_reduces_each_pair_once(monkeypatch):
    import qhog.collision as col

    calls = []
    reduce = col.reduced_from_vector

    def counted(vec, num_qubits, keep):
        calls.append(tuple(keep))
        return reduce(vec, num_qubits, keep)

    state = run_pure(KET1, KET0, 5, SwapAngle(0.4), []).run()
    monkeypatch.setattr(col, "reduced_from_vector", counted)
    entanglement_tables(state, KET1, KET0)
    pairs = [q for q in calls if len(q) == 2]
    assert sorted(pairs) == [(j, k) for j in range(6) for k in range(j + 1, 6)]
    assert sorted(q for q in calls if len(q) == 1) == [(j,) for j in range(6)]


def _bits(values) -> np.ndarray:
    return np.array(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("system,reservoir,order,dense", [
    (KET1, KET0, None, False),
    (KET1, KET0, [5, 2, 7, 1, 6, 3, 4], False),
    (np.array([0.6, 0.8j]), np.array([1, 1]) / math.sqrt(2), [3, 1, 2, 7, 4, 6, 5], True),
], ids=["canonical", "scrambled", "dense"])
def test_tables_match_a_serial_loop_to_the_bit(monkeypatch, system, reservoir, order, dense):
    # the reductions run on a thread pool; every value must keep the bits of
    # reducing and measuring one state at a time, also with more threads than
    # cores switching as often as the interpreter allows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    state = run_pure(system, reservoir, 7, SwapAngle(0.4), order)
    vec, n = state.vector, state.num_qubits
    assert (np.count_nonzero(vec) == vec.size) == dense
    c = {(j, k): concurrence(reduced_from_vector(vec, n, [j, k]))
         for j in range(n) for k in range(j + 1, n)}
    taus, sums = [], []
    for j in range(n):
        r = reduced_from_vector(vec, n, [j])
        taus.append(min(1.0, max(0.0, 4.0 * (r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]).real)))
        s = 0.0
        for k in range(n):
            if k != j:
                s += concurrence(reduced_from_vector(vec, n, [j, k])) ** 2
        sums.append(s)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pairs, tangles = entanglement_tables(state, system, reservoir)
    finally:
        sys.setswitchinterval(interval)
    assert [(r["j"], r["k"]) for r in pairs] == list(c)
    assert np.array_equal(_bits([r["C"] for r in pairs]), _bits(list(c.values())))
    assert np.array_equal(_bits([r["tau"] for r in tangles]), _bits(taus))
    assert np.array_equal(_bits([r["S"] for r in tangles]), _bits(sums))
    assert max(c.values()) > 0.05
