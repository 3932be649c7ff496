"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or on
failure) and asserts its runtime budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qhog.bloch import QubitState, random_state, trace_distance
from qhog.cli import main
from qhog.collision import run_pure
from qhog.entanglement import (
    ckw_sum,
    closed_pair_concurrence,
    concurrence,
    tangle_one_vs_rest,
    total_tangle_sum,
)
from qhog.homogenizer import (
    SwapAngle,
    budget_from_delta,
    check_universality,
    closed_form_system,
    partial_swap_unitary,
    run_trajectory,
    step_system,
    superoperator,
)
from qhog.linalg import partial_trace, tensor_product
from qhog.safe import sweep_correct, sweep_incorrect

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


@contextmanager
def criterion(num, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d} [{name}]: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s over budget {budget_seconds}s"


def random_angle(rng):
    return SwapAngle(rng.uniform(0.0, math.pi / 2))


def test_criterion_01_fixed_point():
    with criterion(1, "fixed point", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            xi = random_state(rng)
            out = step_system(xi, xi, random_angle(rng))
            assert np.max(np.abs(out.w - xi.w)) <= 1e-12


def test_criterion_02_contraction():
    with criterion(2, "contraction", 1.0):
        rng = np.random.default_rng(102)
        for _ in range(1000):
            rho, omega, xi = random_state(rng), random_state(rng), random_state(rng)
            angle = random_angle(rng)
            before = trace_distance(rho, omega)
            after = trace_distance(
                step_system(rho, xi, angle), step_system(omega, xi, angle)
            )
            assert after <= angle.c * before + 1e-12


def test_criterion_03_three_way_agreement():
    with criterion(3, "three-way step agreement", 5.0):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            rho, xi = random_state(rng), random_state(rng)
            angle = random_angle(rng)
            direct = step_system(rho, xi, angle)
            via_matrix = QubitState((superoperator(xi, angle) @ rho.affine())[1:])
            p = partial_swap_unitary(angle)
            joint = p @ tensor_product(rho.density(), xi.density()) @ p.conj().T
            via_unitary = QubitState.from_density(partial_trace(joint, [0]))
            assert np.max(np.abs(direct.w - via_matrix.w)) <= 1e-12
            assert np.max(np.abs(direct.w - via_unitary.w)) <= 1e-12


def test_criterion_04_budget_reproduction():
    with criterion(4, "delta budget", 1.0):
        budget = budget_from_delta(0.2)
        assert budget.n_delta == 22
        angle = SwapAngle(budget.eta_max)
        assert angle.s == pytest.approx(math.sqrt(0.1), abs=1e-15)
        xi = QubitState([0, 0, 0.5])
        rho0 = QubitState([0, 0, -0.5])
        d22 = trace_distance(closed_form_system(rho0, xi, angle, 22), xi)
        d21 = trace_distance(closed_form_system(rho0, xi, angle, 21), xi)
        assert d22 <= 0.2
        assert d21 > 0.2 * (1.0 - 1e-6)
        traj = run_trajectory(rho0, xi, angle, 22)
        res_dists = [st.d_reservoir for st in traj.steps[1:]]
        assert max(res_dists) == pytest.approx(0.2, abs=1e-9)
        assert res_dists.index(max(res_dists)) == 0  # attained at the first collision


def test_criterion_05_simulator_marginal_consistency():
    with criterion(5, "simulator marginals", 5.0):
        n = 10
        rng = np.random.default_rng(105)
        cases = [(KET1, KET0)]
        for _ in range(2):
            g = rng.normal(size=2) + 1j * rng.normal(size=2)
            sys_ket = g / np.linalg.norm(g)
            g = rng.normal(size=2) + 1j * rng.normal(size=2)
            res_ket = g / np.linalg.norm(g)
            cases.append((sys_ket, res_ket))
        for sys_ket, res_ket in cases:
            angle = random_angle(rng)
            rho0, xi = (QubitState.from_density(np.outer(k, k.conj())) for k in (sys_ket, res_ket))
            state = run_pure(sys_ket, res_ket, n, angle, [])
            for step in range(1, n + 1):
                state = state.run([step])
                got = QubitState.from_density(state.reduced(0))
                want = closed_form_system(rho0, xi, angle, step)
                assert np.max(np.abs(got.w - want.w)) <= 1e-10


def test_criterion_06_concurrence_closed_forms():
    with criterion(6, "concurrence closed forms", 30.0):
        n = 10
        for s2 in (0.05, 0.1, 0.5):
            angle = SwapAngle.from_sin_squared(s2)
            state = run_pure(KET1, KET0, n, angle, [])
            for step in range(n + 1):
                if step:
                    state = state.run([step])
                for j in range(n + 1):
                    for k in range(j + 1, n + 1):
                        got = concurrence(state.reduced([j, k]))
                        want = closed_pair_concurrence(j, k, step, angle)
                        assert abs(got - want) <= 1e-8, (s2, step, j, k)


def test_criterion_07_ckw_saturation():
    with criterion(7, "CKW saturation", 30.0):
        n = 10
        angle = SwapAngle.from_sin_squared(0.1)
        state = run_pure(KET1, KET0, n, angle, [])
        for step in range(n + 1):
            if step:
                state = state.run([step])
            for j in range(n + 1):
                gap = abs(ckw_sum(state, j) - tangle_one_vs_rest(state, j))
                assert gap <= 1e-8, (step, j)


def test_criterion_08_total_tangle_limit():
    with criterion(8, "total tangle limit", 1.0):
        deviations = []
        for delta in (0.1, 0.05, 0.01):
            budget = budget_from_delta(delta)
            angle = SwapAngle(budget.eta_max)
            total = total_tangle_sum(10 * budget.n_delta, angle)
            deviations.append(abs(total - 2.0))
        assert deviations[-1] <= 0.02
        assert deviations[0] > deviations[1] > deviations[2]


def test_criterion_09_quantum_safe_correct_sweep(tmp_path):
    with criterion(9, "correct-system sweep", 60.0):
        angle = SwapAngle(budget_from_delta(0.1).eta_max)  # sin^2(eta) = 0.05
        hist = sweep_correct(9, angle)
        assert hist.total_trials == 362_880
        assert hist.exact_reversals == 1
        in_low_bins = sum(hist.counts[:11])  # bins centered at -1.0 .. 0.0
        assert in_low_bins > hist.total_trials / 2
        out_file = tmp_path / "correct.csv"
        argv = ["safe", "--delta", "0.1", "--n", "9", "--mode", "correct", "--out", str(out_file)]
        assert main(argv) == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "z_center,count" and len(lines) == 22


def test_criterion_10_quantum_safe_incorrect_sweep():
    with criterion(10, "wrong-system sweep", 600.0):
        angle = SwapAngle(budget_from_delta(0.1).eta_max)
        hist = sweep_incorrect(9, angle)
        assert hist.total_trials == 3_265_920
        assert hist.near_reversals == 0  # nothing within 1e-6 of z = -1


def test_criterion_11_universality_gate():
    with criterion(11, "universality gate", 5.0):
        rng = np.random.default_rng(111)
        for _ in range(20):
            ok, residual = check_universality(partial_swap_unitary(random_angle(rng)))
            assert ok, residual
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        ok, residual = check_universality(cnot)
        assert not ok and residual > 0.05
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(g)
        random_u = q * (np.diag(r) / np.abs(np.diag(r)))
        ok, residual = check_universality(random_u)
        assert not ok and residual > 0.05
