import numpy as np
import pytest

from qhog.bloch import (
    QubitState,
    bloch_from_density,
    bloch_from_ket,
    density_from_bloch,
    ket_from_bloch,
    random_pure_state,
    random_state,
    trace_distance,
)
from qhog.linalg import I2, trace_norm


def test_density_maximally_mixed():
    assert np.allclose(density_from_bloch([0, 0, 0]), I2 / 2)


def test_density_poles():
    assert np.allclose(density_from_bloch([0, 0, 0.5]), np.diag([1.0, 0.0]))
    assert np.allclose(density_from_bloch([0, 0, -0.5]), np.diag([0.0, 1.0]))


def test_density_plus_state():
    # expand I/2 + sx/2 by hand
    assert np.allclose(density_from_bloch([0.5, 0, 0]), np.full((2, 2), 0.5))


def test_density_rejects_long_vector():
    with pytest.raises(ValueError):
        density_from_bloch([0.5, 0.5, 0.0])


def test_bloch_round_trip():
    for w in ([0, 0, 0], [0, 0, 0.5], [0.5, 0, 0], [0.1, -0.2, 0.3]):
        back = bloch_from_density(density_from_bloch(w))
        assert np.allclose(back, w, atol=1e-12)


def test_bloch_from_density_rejects_garbage():
    with pytest.raises(ValueError):
        bloch_from_density(np.array([[1, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        bloch_from_density(np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(ValueError):
        bloch_from_density(np.diag([1.5, -0.5]).astype(complex))  # not PSD


def test_trace_distance_examples():
    rho = QubitState([0.1, 0.2, -0.3])
    assert trace_distance(rho, rho) == 0.0
    up = QubitState([0, 0, 0.5])
    down = QubitState([0, 0, -0.5])
    assert trace_distance(up, down) == pytest.approx(2.0, abs=1e-15)
    assert trace_distance(up, QubitState([0, 0, 0])) == pytest.approx(1.0, abs=1e-15)


def test_trace_distance_matches_matrix_norm():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = random_state(rng), random_state(rng)
        direct = trace_distance(a, b)
        assert direct == pytest.approx(trace_norm(a.density() - b.density()), abs=1e-12)
        assert 0.0 <= direct <= 2.0


def test_qubit_state_immutable():
    state = QubitState([0.1, 0.0, 0.0])
    with pytest.raises(AttributeError):
        state.w = np.zeros(3)
    with pytest.raises(ValueError):
        state.w[0] = 1.0


def test_text_round_trip():
    state = QubitState([0.125, -0.25, 0.0625])
    again = QubitState.from_text(state.to_text())
    assert np.array_equal(again.w, state.w)
    with pytest.raises(ValueError):
        QubitState.from_text("0.1,0.2")


def test_samplers_respect_radius():
    rng = np.random.default_rng(17)
    for _ in range(200):
        assert random_state(rng).purity_radius() <= 0.5 + 1e-12
        assert random_pure_state(rng).purity_radius() == pytest.approx(0.5, abs=1e-12)


def test_ket_bloch_round_trip():
    assert np.allclose(ket_from_bloch([0, 0, 0.5]), [1, 0])
    assert np.allclose(ket_from_bloch([0, 0, -0.5]), [0, 1], atol=1e-12)
    assert np.allclose(ket_from_bloch([0.5, 0, 0]), [1 / np.sqrt(2), 1 / np.sqrt(2)])
    rng = np.random.default_rng(23)
    for _ in range(50):
        w = random_pure_state(rng).w
        assert np.allclose(bloch_from_ket(ket_from_bloch(w)), w, atol=1e-12)
    with pytest.raises(ValueError):
        ket_from_bloch([0.1, 0, 0])  # mixed state has no ket
    with pytest.raises(ValueError):
        ket_from_bloch([np.nan, 0, 0.5])
