import numpy as np
import pytest

from qhog.linalg import (
    I2,
    SX,
    SY,
    SZ,
    hermitian_eig,
    is_hermitian,
    is_unitary,
    partial_trace,
    psd_sqrt,
    tensor_product,
    trace_norm,
)


def test_tensor_product_identities():
    assert np.array_equal(tensor_product(I2, I2), np.eye(4))


def test_tensor_product_zz_parity():
    zz = tensor_product(SZ, SZ)
    ket01 = np.array([0, 1, 0, 0], dtype=complex)
    assert np.allclose(zz @ ket01, -ket01)


def test_tensor_product_yy_antidiagonal():
    # hand expansion of the Kronecker product of sigma_y with itself
    expected = np.array(
        [
            [0, 0, 0, -1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
        ],
        dtype=complex,
    )
    assert np.allclose(tensor_product(SY, SY), expected, atol=1e-15)


def test_partial_trace_product_state():
    rho_a = np.array([[0.7, 0.1j], [-0.1j, 0.3]], dtype=complex)
    rho_b = np.array([[0.25, 0], [0, 0.75]], dtype=complex)
    assert np.allclose(partial_trace(tensor_product(rho_a, rho_b), [0]), rho_a, atol=1e-12)
    assert np.allclose(partial_trace(tensor_product(rho_a, rho_b), [1]), rho_b, atol=1e-12)


def test_partial_trace_bell_state():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(rho, [0]), I2 / 2, atol=1e-12)


def test_partial_trace_ghz_keep_two():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    rho = np.outer(ghz, ghz.conj())
    # tracing the third qubit kills the coherence, leaving the classical mixture
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.allclose(partial_trace(rho, [0, 1]), expected, atol=1e-12)


def test_partial_trace_keep_order():
    rho_a = np.diag([0.9, 0.1]).astype(complex)
    rho_b = np.diag([0.2, 0.8]).astype(complex)
    joint = tensor_product(rho_a, rho_b)
    swapped = partial_trace(joint, [1, 0])
    assert np.allclose(swapped, tensor_product(rho_b, rho_a), atol=1e-12)


def test_partial_trace_errors():
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError):
        partial_trace(rho, [0, 0])
    with pytest.raises(ValueError):
        partial_trace(rho, [2])
    with pytest.raises(ValueError):
        partial_trace(np.eye(3), [0])


def test_hermitian_eig_sigma_z():
    vals, vecs = hermitian_eig(SZ)
    assert np.allclose(vals, [1, -1])
    assert np.allclose(np.abs(vecs[:, 0]), [1, 0])


def test_hermitian_eig_sigma_x():
    vals, vecs = hermitian_eig(SX)
    assert np.allclose(vals, [1, -1])
    plus = np.array([1, 1]) / np.sqrt(2)
    overlap = abs(np.vdot(plus, vecs[:, 0]))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_hermitian_eig_bloch_pure_state():
    # eigenvalues of I/2 + w.sigma are 1/2 +- |w|; here |w| = 0.5
    h = 0.5 * I2 + 0.3 * SX + 0.4 * SZ
    vals, _ = hermitian_eig(h)
    assert np.allclose(vals, [1.0, 0.0], atol=1e-12)


def test_hermitian_eig_residuals_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g + g.conj().T
        vals, vecs = hermitian_eig(h)
        for i in range(4):
            assert np.linalg.norm(h @ vecs[:, i] - vals[i] * vecs[:, i]) <= 1e-10
        assert np.allclose((vecs * vals) @ vecs.conj().T, h, atol=1e-9)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_psd_sqrt_identity_and_projector():
    assert np.allclose(psd_sqrt(I2), I2, atol=1e-12)
    proj = np.array([[1, 0], [0, 0]], dtype=complex)
    assert np.allclose(psd_sqrt(proj), proj, atol=1e-12)


def test_psd_sqrt_diagonal():
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert np.allclose(psd_sqrt(rho), np.diag([0.5, np.sqrt(0.75)]), atol=1e-12)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    root = psd_sqrt(rho)
    assert np.allclose(root @ root, rho, atol=1e-9)
    vals, _ = hermitian_eig(root, 1e-9)
    assert vals[-1] >= -1e-9


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -0.5]).astype(complex))


def test_trace_norm_values():
    assert trace_norm(np.zeros((2, 2), dtype=complex)) == 0.0
    assert trace_norm(SZ) == pytest.approx(2.0, abs=1e-12)
    # r.sigma has eigenvalues +-|r|
    h = 0.3 * SX
    assert trace_norm(h) == pytest.approx(0.6, abs=1e-12)


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        trace_norm(np.array([[0, 1], [0, 0]], dtype=complex))


def test_predicates():
    assert is_hermitian(SX)
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert is_unitary(SY)
    assert not is_unitary(2 * I2)
