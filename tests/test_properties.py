"""Every documented invariant, via the shared verify suites."""

import pytest

import qhog.homogenizer
from qhog import verify
from qhog.homogenizer import AffineSuperOp

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
    "collision.sector_conservation",
    "collision.fast_path",
    "collision.uncollided_product",
    "collision.grown_product",
    "entanglement.ckw_saturation",
    "entanglement.closed_form_match",
    "entanglement.persistence",
    "entanglement.decay",
    "entanglement.vanishing",
    "entanglement.local_unitary_invariance",
    "safe.reversibility",
    "safe.sector_diagonality",
    "safe.fast_path_spot",
    "safe.determinism",
]


def test_check_names_and_order_are_pinned():
    assert list(verify.ALL_CHECKS) == CHECK_NAMES
    for name, fn in verify.ALL_CHECKS.items():
        assert fn.__name__ == "check_" + name.replace(".", "_")


@pytest.mark.parametrize("name", sorted(verify.ALL_CHECKS))
def test_invariant_suite(name):
    result = verify.run_check(name, seed=0, quick=False)
    assert result.ok, f"{name}: {result.detail}"


def test_suites_catch_sign_mutation(monkeypatch):
    """Flipping the commutator sign in the step matrix must trip the oracle suite."""
    real = qhog.homogenizer.superoperator

    def flipped(xi, angle):
        m = real(xi, angle).matrix.copy()
        m[1:, 1:] = m[1:, 1:].T  # transposing the block flips the cross-product part
        return AffineSuperOp(m)

    monkeypatch.setattr(qhog.homogenizer, "superoperator", flipped)
    result = verify.run_check("homogenizer.three_way_agreement", seed=0, quick=False)
    assert not result.ok


def test_checks_are_deterministic():
    a = verify.run_check("homogenizer.fixed_point", seed=1, quick=False)
    b = verify.run_check("homogenizer.fixed_point", seed=1, quick=False)
    assert a.detail == b.detail


def test_quick_mode_runs_everything():
    results = verify.run_checks(None, seed=2, quick=True)
    assert len(results) == len(verify.ALL_CHECKS)
    assert all(r.ok for r in results), [r.name for r in results if not r.ok]
