"""Every documented invariant, via the shared verify suites."""

import dataclasses
import math

import numpy as np
import pytest

import qhog.entanglement
import qhog.homogenizer
from qhog import collision as col
from qhog import safe, verify
from qhog.homogenizer import SwapAngle

# the names and order `qhog verify` prints; one check_<layer>_<name> function each
CHECK_NAMES = [
    "core.trace_preservation",
    "core.partial_trace_composition",
    "core.eig_reconstruction",
    "core.trace_norm_bound",
    "bloch.metric",
    "bloch.trace_norm_agreement",
    "homogenizer.fixed_point",
    "homogenizer.contraction",
    "homogenizer.three_way_agreement",
    "homogenizer.closed_form",
    "homogenizer.monotone_reservoir",
    "homogenizer.worst_case_step",
    "homogenizer.budget_soundness",
    "collision.norm_conservation",
    "collision.marginal_consistency",
    "collision.sector",
    "collision.uncollided_product",
    "collision.grown_product",
    "entanglement.ckw_saturation",
    "entanglement.closed_form_match",
    "entanglement.persistence",
    "entanglement.decay",
    "entanglement.vanishing",
    "entanglement.local_unitary_invariance",
    "safe.reversibility",
    "safe.determinism",
    "safe.full_swap",
]


def test_check_names_and_order_are_pinned():
    assert list(verify.ALL_CHECKS) == CHECK_NAMES
    for name, fn in verify.ALL_CHECKS.items():
        assert fn.__name__ == "check_" + name.replace(".", "_")


KET_ZERO = np.array([1.0, 0.0], dtype=complex)
KET_ONE = np.array([0.0, 1.0], dtype=complex)


def _sector_conservation(rng):
    n = 6
    angle = SwapAngle(rng.uniform(0.0, math.pi / 2))
    state = col.run_pure(KET_ONE, KET_ZERO, n, angle, [])
    one_hot = [1 << (n - j) for j in range(n + 1)]
    for k in range(1, n + 1):
        state = state.run([k])
        rest = state.vector.copy()
        rest[one_hot] = 0.0
        assert not rest.any(), f"weight outside the sector after collision {k}"


def _fast_path(rng):
    n = 12
    angle = SwapAngle(rng.uniform(0.0, math.pi / 2))
    state = col.run_pure(KET_ONE, KET_ZERO, n, angle, [])
    for k in range(1, n + 1):
        state = state.run([k])
        f = col.excitation_forward_run(n, angle, range(1, k + 1)).amplitudes
        for j in range(n + 1):
            rho = state.reduced(j)
            z_full = float((rho[0, 0] - rho[1, 1]).real)
            assert abs(z_full - (1.0 - 2.0 * abs(f[j]) ** 2)) <= 1e-12


def _sector_diagonality(rng):
    n = 6
    angle = SwapAngle.from_sin_squared(0.1)
    forward = col.run_pure(KET_ONE, KET_ZERO, n, angle, []).run()
    for _ in range(10):
        order = [int(q) + 1 for q in rng.permutation(n)]
        z = safe.unwind(forward, 0, order)
        assert -1.0 - 1e-12 <= z <= 1.0 + 1e-12, f"z out of range: {z}"
        vec = forward.vector.copy()
        for q in order:
            col.apply_two_qubit(vec, n + 1, angle, 0, q, inverse=True)
        for j in range(n + 1):
            assert abs(col.reduced_from_vector(vec, n + 1, [j])[0, 1]) <= 1e-12


def _fast_path_spot(rng):
    n = 9
    angle = SwapAngle.from_sin_squared(0.1)
    forward = col.run_pure(KET_ONE, KET_ZERO, n, angle, []).run()
    f = col.excitation_forward_run(n, angle).amplitudes
    orders = [[int(q) + 1 for q in rng.permutation(n)] for _ in range(1000)]
    for order, z in zip(orders, safe.unwind_z_excitation(f, 0, orders, angle)):
        assert abs(safe.unwind(forward, 0, order) - z) <= 1e-12


# the sector-vs-full-vector assertions that `verify` runs inside collision.sector,
# each on its own instance here so that a failure names the property it breaks
SECTOR_CASES = {
    "collision.sector_conservation": _sector_conservation,
    "collision.fast_path": _fast_path,
    "safe.sector_diagonality": _sector_diagonality,
    "safe.fast_path_spot": _fast_path_spot,
}


@pytest.mark.parametrize("name", sorted([*verify.ALL_CHECKS, *SECTOR_CASES]))
def test_invariant_suite(name):
    if name in SECTOR_CASES:
        SECTOR_CASES[name](np.random.default_rng(0))
        return
    result = verify.run_check(name, seed=0, quick=False)
    assert result.ok, f"{name}: {result.detail}"


def test_suites_catch_sign_mutation(monkeypatch):
    """Flipping the commutator sign in the step matrix must trip the oracle suite."""
    real = qhog.homogenizer.superoperator

    def flipped(xi, angle):
        m = real(xi, angle)
        m[1:, 1:] = m[1:, 1:].T  # transposing the block flips the cross-product part
        return m

    monkeypatch.setattr(qhog.homogenizer, "superoperator", flipped)
    result = verify.run_check("homogenizer.three_way_agreement", seed=0, quick=False)
    assert not result.ok


def test_suites_catch_swapped_pair_states(monkeypatch):
    """The stepwise entanglement suites read the tables that entanglement reduces on its pool."""
    real = qhog.entanglement._pool_map

    def swapped(fn, keeps):
        out = real(fn, keeps)
        out[0], out[1] = out[1], out[0]
        return out

    monkeypatch.setattr(qhog.entanglement, "_pool_map", swapped)
    for name in ("entanglement.closed_form_match", "entanglement.ckw_saturation"):
        assert not verify.run_check(name, seed=0, quick=False).ok, name


def test_suites_catch_a_late_trajectory(monkeypatch):
    """homogenizer.closed_form reads the system states that run_trajectory records."""
    real = qhog.homogenizer.run_trajectory

    def late(rho0, xi, angle, n_steps):
        traj = real(rho0, xi, angle, n_steps)
        return dataclasses.replace(traj, system=np.concatenate([traj.system[:1], traj.system[:-1]]))

    monkeypatch.setattr(qhog.homogenizer, "run_trajectory", late)
    assert not verify.run_check("homogenizer.closed_form", seed=0, quick=False).ok


def test_suites_catch_a_dropped_collision(monkeypatch):
    """collision.marginal_consistency reads the states that run_pure grows."""
    real = col.run_pure

    def short(system, reservoir, n, angle, order=None):
        order = list(range(1, n + 1)) if order is None else list(order)
        return real(system, reservoir, n, angle, order[:-1])

    monkeypatch.setattr(col, "run_pure", short)
    assert not verify.run_check("collision.marginal_consistency", seed=0, quick=False).ok


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("quick", [True, False])
def test_suites_catch_a_dropped_collision_in_a_mixed_run(monkeypatch, seed, quick):
    """collision.marginal_consistency reads the system states that a mixed simulate streams."""
    real = col._system_states

    def short(systems, reservoir, n, angle, order):
        return real(systems, reservoir, n, angle, order[:-1])

    monkeypatch.setattr(col, "_system_states", short)
    assert not verify.run_check("collision.marginal_consistency", seed=seed, quick=quick).ok


def test_suites_catch_a_wrong_pcg64_stream(monkeypatch):
    """safe.determinism compares the sampled sweep's own PCG64 stream with numpy's."""
    real = safe._xsl_rr
    monkeypatch.setattr(safe, "_xsl_rr", lambda hi, lo: real(lo, hi))
    assert not verify.run_check("safe.determinism", seed=0, quick=True).ok


def test_checks_are_deterministic():
    a = verify.run_check("homogenizer.fixed_point", seed=1, quick=False)
    b = verify.run_check("homogenizer.fixed_point", seed=1, quick=False)
    assert a.detail == b.detail


def test_quick_mode_runs_everything():
    results = verify.run_checks(None, seed=2, quick=True)
    assert len(results) == len(verify.ALL_CHECKS)
    assert all(r.ok for r in results), [r.name for r in results if not r.ok]
