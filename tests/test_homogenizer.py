import math
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

from qhog.bloch import QubitState, random_pure_state, random_state, trace_distance
from qhog.cli import _trajectory_csv
from qhog.homogenizer import (
    MAX_STEPS,
    SWAP,
    SwapAngle,
    budget_from_delta,
    check_universality,
    closed_form_system,
    partial_swap_unitary,
    run_trajectory,
    step_reservoir,
    step_system,
    superoperator,
)
from qhog.linalg import is_unitary, partial_trace, tensor_product


def conjugate_and_trace(rho: QubitState, xi: QubitState, angle: SwapAngle) -> QubitState:
    """Brute-force oracle: conjugate rho x xi by the partial swap, trace out qubit 1."""
    p = partial_swap_unitary(angle)
    joint = p @ tensor_product(rho.density(), xi.density()) @ p.conj().T
    return QubitState.from_density(partial_trace(joint, [0]))


def test_swap_angle_canonicalization():
    assert SwapAngle(0.3).eta == pytest.approx(0.3)
    assert SwapAngle(-0.3).eta == pytest.approx(0.3)
    folded = SwapAngle(2.0)  # cos < 0 there; folds back into [0, pi/2]
    assert 0 <= folded.eta <= math.pi / 2
    assert folded.s == pytest.approx(abs(math.sin(2.0)), abs=1e-15)
    assert folded.c == pytest.approx(abs(math.cos(2.0)), abs=1e-15)
    assert folded.s**2 + folded.c**2 == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(AttributeError):
        folded.eta = 0.0


def test_swap_angle_rejects_non_finite():
    for eta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            SwapAngle(eta)


def test_from_sin_squared_rejects_values_outside_unit_interval():
    for s2 in (1.5, -0.1):
        with pytest.raises(ValueError, match=re.escape(f"sin^2(eta) must lie in [0, 1], got {s2}")):
            SwapAngle.from_sin_squared(s2)


def test_partial_swap_limits():
    assert np.allclose(partial_swap_unitary(SwapAngle(0.0)), np.eye(4))
    assert np.allclose(partial_swap_unitary(SwapAngle(math.pi / 2)), 1j * SWAP, atol=1e-15)


def test_partial_swap_entries():
    angle = SwapAngle.from_sin_squared(0.1)
    p = partial_swap_unitary(angle)
    assert p[1, 1] == pytest.approx(math.sqrt(0.9))
    assert p[1, 2] == pytest.approx(1j * math.sqrt(0.1))
    assert is_unitary(p)
    assert np.max(np.abs(p.conj().T @ p - np.eye(4))) <= 1e-12


def test_step_system_fixed_point():
    rng = np.random.default_rng(7)
    for _ in range(100):
        xi = random_state(rng)
        angle = SwapAngle(rng.uniform(0, math.pi / 2))
        out = step_system(xi, xi, angle)
        assert np.allclose(out.w, xi.w, atol=1e-12)


def test_step_system_commuting_example():
    # both vectors along z: one step mixes the z components linearly
    out = step_system(QubitState([0, 0, -0.5]), QubitState([0, 0, 0.5]), SwapAngle.from_sin_squared(0.1))
    assert np.allclose(out.w, [0, 0, -0.4], atol=1e-15)


def test_step_system_cross_term_against_oracle():
    angle = SwapAngle.from_sin_squared(0.5)
    rho = QubitState([0, 0.5, 0])
    xi = QubitState([0.5, 0, 0])
    direct = step_system(rho, xi, angle)
    # s^2 t + c^2 w - 2cs (t x w) with s = c = sqrt(1/2)
    assert np.allclose(direct.w, [0.25, 0.25, -0.25], atol=1e-15)
    assert np.allclose(direct.w, conjugate_and_trace(rho, xi, angle).w, atol=1e-12)


def test_step_reservoir_examples():
    angle = SwapAngle.from_sin_squared(0.1)
    xi = QubitState([0, 0, 0.5])
    rho = QubitState([0, 0, -0.5])
    assert np.allclose(step_reservoir(rho, xi, angle).w, [0, 0, 0.4], atol=1e-15)
    assert np.allclose(step_reservoir(xi, xi, angle).w, xi.w, atol=1e-15)
    # full swap hands the reservoir qubit the system state
    full = SwapAngle(math.pi / 2)
    assert np.allclose(step_reservoir(rho, xi, full).w, rho.w, atol=1e-15)


def test_superoperator_structure():
    angle = SwapAngle.from_sin_squared(0.3)
    mixed = QubitState([0, 0, 0])
    m = superoperator(mixed, angle)
    assert np.allclose(m, np.diag([1.0, angle.c**2, angle.c**2, angle.c**2]), atol=1e-15)

    xi = QubitState([0, 0, 0.5])
    half = SwapAngle.from_sin_squared(0.5)
    m = superoperator(xi, half)
    assert m[0, 0] == 1.0 and np.allclose(m[0, 1:], 0.0)
    assert m[1, 2] == pytest.approx(0.5, abs=1e-15)  # 2 c s t_z


def test_superoperator_fixed_point_block():
    rng = np.random.default_rng(13)
    for _ in range(100):
        xi = random_state(rng)
        angle = SwapAngle(rng.uniform(0, math.pi / 2))
        block = superoperator(xi, angle)[1:, 1:]
        assert np.allclose(block @ xi.w, angle.c**2 * xi.w, atol=1e-12)


def test_superoperator_matches_step():
    rng = np.random.default_rng(29)
    for _ in range(200):
        rho, xi = random_state(rng), random_state(rng)
        angle = SwapAngle(rng.uniform(0, math.pi / 2))
        assert np.allclose(
            QubitState((superoperator(xi, angle) @ rho.affine())[1:]).w,
            step_system(rho, xi, angle).w,
            atol=1e-12,
        )


def test_closed_form_boundaries():
    rho0 = QubitState([0.2, -0.1, 0.3])
    xi = QubitState([-0.3, 0.2, 0.1])
    angle = SwapAngle.from_sin_squared(0.1)
    assert np.allclose(closed_form_system(rho0, xi, angle, 0).w, rho0.w)
    far = closed_form_system(rho0, xi, angle, 10_000)
    assert np.allclose(far.w, xi.w, atol=1e-10)
    with pytest.raises(ValueError):
        closed_form_system(rho0, xi, angle, -1)


def test_closed_form_commuting_two_steps():
    # antipodal pure states along z: w_n = (1 - 2 c^(2n)) t
    angle = SwapAngle.from_sin_squared(0.1)
    out = closed_form_system(QubitState([0, 0, -0.5]), QubitState([0, 0, 0.5]), angle, 2)
    assert out.w[2] == pytest.approx((1 - 2 * 0.81) * 0.5, abs=1e-12)


def test_closed_form_equals_iteration():
    rng = np.random.default_rng(41)
    rho0, xi = random_state(rng), random_state(rng)
    angle = SwapAngle(rng.uniform(0, math.pi / 2))
    state = rho0
    for n in range(1, 60):
        state = step_system(state, xi, angle)
        closed = closed_form_system(rho0, xi, angle, n)
        assert np.allclose(closed.w, state.w, atol=1e-10)


def test_contraction_coefficient():
    assert SwapAngle(0.0).c == 1.0
    assert SwapAngle(math.pi / 2).c == pytest.approx(0.0, abs=1e-15)
    assert SwapAngle.from_sin_squared(0.1).c == pytest.approx(
        math.sqrt(0.9), abs=1e-15
    )


def test_trajectory_constant_at_fixed_point():
    xi = QubitState([0.1, 0.2, 0.3])
    traj = run_trajectory(xi, xi, SwapAngle.from_sin_squared(0.2), 5)
    assert len(traj.steps) == 6
    for st in traj.steps:
        assert st.d_system == pytest.approx(0.0, abs=1e-12)
        assert st.d_reservoir == pytest.approx(0.0, abs=1e-12)


def test_trajectory_length_bounds():
    # the CLI rejects both lengths before the library sees them
    xi = QubitState([0.1, 0.2, 0.3])
    for n_steps in (0, MAX_STEPS + 1):
        with pytest.raises(ValueError, match=f"takes 1 to 1048576 steps, got {n_steps}$"):
            run_trajectory(xi, xi, SwapAngle(0.3), n_steps)


def test_trajectory_monotone_and_weights():
    rng = np.random.default_rng(51)
    rho0, xi = random_state(rng), random_state(rng)
    angle = SwapAngle.from_sin_squared(0.15)
    traj = run_trajectory(rho0, xi, angle, 30)
    res = [st.d_reservoir for st in traj.steps[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(res, res[1:]))
    # commuting inputs: the weight of xi in the system state is 1 - c^(2n)
    up, down = QubitState([0, 0, 0.5]), QubitState([0, 0, -0.5])
    traj = run_trajectory(down, up, angle, 10)
    for st in traj.steps:
        expected = closed_form_system(down, up, angle, st.n)
        assert np.allclose(st.system.w, expected.w, atol=1e-12)


def test_trajectory_csv_shape():
    traj = run_trajectory(QubitState([0, 0, -0.5]), QubitState([0, 0, 0.5]), SwapAngle(0.2), 3)
    lines = "".join(_trajectory_csv(traj)).strip().split("\n")
    assert lines[0] == "n,wx,wy,wz,txp,typ,tzp,D_sys,D_res"
    assert len(lines) == 5
    assert lines[1].startswith("0,")
    assert len(traj.steps) == 4 and [st.n for st in traj.steps] == [0, 1, 2, 3]


def _trajectory_by_steps(rho0, xi, angle, n_steps):
    """The per-step loop written out: np.cross on arrays, one checked QubitState per
    state and one trace_distance per distance."""
    s2, c2, cs = angle.s**2, angle.c**2, angle.c * angle.s

    def step(w, t):
        return QubitState(s2 * t + c2 * w - 2.0 * cs * np.cross(t, w))

    system, reservoir = [rho0], [xi]
    for _ in range(n_steps):
        reservoir.append(step(xi.w, system[-1].w))
        system.append(step(system[-1].w, xi.w))
    d_sys = [trace_distance(st, xi) for st in system]
    d_res = [0.0] + [trace_distance(st, xi) for st in reservoir[1:]]
    return [st.w for st in system], [st.w for st in reservoir], d_sys, d_res


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("eta", [0.0, 0.3, math.pi / 2])
def test_run_trajectory_bitwise_matches_step_loop(eta):
    rng = np.random.default_rng(round(eta * 1000) + 8)
    angle = SwapAngle(eta)
    same = random_state(rng)
    starts = [(random_state(rng), random_state(rng)) for _ in range(3)]
    starts += [(random_pure_state(rng), random_pure_state(rng)) for _ in range(3)]
    starts += [(random_pure_state(rng), random_state(rng)), (same, same)]
    for rho0, xi in starts:
        traj = run_trajectory(rho0, xi, angle, 40)
        want = _trajectory_by_steps(rho0, xi, angle, 40)
        got = (traj.system, traj.reservoir_out, traj.d_system, traj.d_reservoir)
        for g, w in zip(got, want):
            assert np.array_equal(_bits(g), _bits(w))
        assert np.array_equal(_bits([st.system.w for st in traj.steps]), _bits(want[0]))
        assert [st.d_reservoir for st in traj.steps] == want[3]
        assert np.array_equal(_bits(step_system(rho0, xi, angle).w), _bits(want[0][1]))
        assert np.array_equal(_bits(step_reservoir(rho0, xi, angle).w), _bits(want[1][1]))


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the kernel setting names an x86-64 CPU")
def test_run_trajectory_bitwise_matches_step_loop_on_sse2_kernel():
    # the stacked distances and trace_distance sum each length in one fixed
    # order, so an SSE2 BLAS kernel must not move a bit of either
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    test = f"{__file__}::test_run_trajectory_bitwise_matches_step_loop"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout.decode()[-2000:]


def test_budget_examples():
    assert math.sin(budget_from_delta(0.02).eta_max) == pytest.approx(0.1, abs=1e-12)
    # ln(0.1)/ln(0.9) = 21.854... so 22 steps
    assert budget_from_delta(0.2).n_delta == 22
    assert budget_from_delta(1.0).n_delta == 1
    assert budget_from_delta(0.5).n_delta == 5
    for bad in (0.0, -1.0, 2.0, 2.5):
        with pytest.raises(ValueError):
            budget_from_delta(bad)


def test_check_universality_accepts_partial_swaps():
    rng = np.random.default_rng(61)
    for _ in range(5):
        angle = SwapAngle(rng.uniform(0, math.pi / 2))
        ok, residual = check_universality(partial_swap_unitary(angle))
        assert ok, residual
    ok, residual = check_universality(np.eye(4, dtype=complex))
    assert ok


def test_check_universality_rejects_cnot():
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    ok, residual = check_universality(cnot)
    assert not ok
    assert residual > 0.1


def test_check_universality_rejects_non_unitary():
    with pytest.raises(ValueError):
        check_universality(np.ones((4, 4), dtype=complex))
    with pytest.raises(ValueError, match=re.escape("expected a 4x4 matrix, got shape (2, 2)")):
        check_universality(np.eye(2))


def test_contraction_property():
    rng = np.random.default_rng(71)
    for _ in range(200):
        rho, omega, xi = random_state(rng), random_state(rng), random_state(rng)
        angle = SwapAngle(rng.uniform(0, math.pi / 2))
        before = trace_distance(rho, omega)
        after = trace_distance(step_system(rho, xi, angle), step_system(omega, xi, angle))
        assert after <= angle.c * before + 1e-12
