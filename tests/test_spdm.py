import math

import numpy as np
import pytest

from specpool.errors import DataError
from specpool.spdm import (FIXED_TRANSFORMS, eig_sym, fixed_transform,
                           g_dim, g_vec, mpf_eval, mpf_q_matrix,
                           normalized_spectrum, power_grid, softmax,
                           softmax_backward)

from conftest import (random_rotation, random_simplex, random_spd,
                      reference_backward, reference_forward,
                      reference_scatter, unhalved_q)


EPS = 1e-3  # the default log_eps; only the log_reg and log_max kinds read it


def scatter_full(vec, d):
    """Rebuild the symmetric matrix whose upper triangle is ``vec``."""
    m = np.zeros((d, d))
    m[np.triu_indices(d)] = vec
    return m + np.triu(m, 1).T


class TestEig:
    def test_identity(self):
        U, lam = eig_sym(np.eye(3))
        assert np.array_equal(lam, np.ones(3))
        np.testing.assert_allclose(np.abs(U.T @ U), np.eye(3), atol=1e-14)

    def test_diagonal_descending(self):
        U, lam = eig_sym(np.diag([1.0, 4.0]))
        assert np.array_equal(lam, [4.0, 1.0])
        np.testing.assert_allclose(np.abs(U), [[0, 1], [1, 0]], atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            H = random_spd(rng, 6)
            U, lam = eig_sym(H)
            np.testing.assert_allclose((U * lam) @ U.T, H, atol=1e-10)
            assert np.all(np.diff(lam) <= 0)

    def test_negative_roundoff_clamped(self):
        v = np.array([1.0, 1e-9, -1e-9])
        H = np.outer(v, v)
        _, lam = eig_sym(0.5 * (H + H.T))
        assert np.all(lam >= 0.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(DataError, match="symmetric"):
            eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(DataError, match="square"):
            eig_sym(np.ones((2, 3)))


class TestTriangleVector:
    def test_g_vec_row_major(self):
        m = np.array([[1.0, 2.0, 3.0],
                      [2.0, 4.0, 5.0],
                      [3.0, 5.0, 6.0]])
        assert np.array_equal(g_vec(m), [1, 2, 3, 4, 5, 6])
        assert g_dim(3) == 6

    def test_scatter_halves_offdiagonals(self):
        # the reference backward's scatter, against which Q^T is checked
        s = reference_scatter(np.array([1.0, 4.0, 9.0]), 2)
        assert np.array_equal(s, [[1.0, 2.0], [2.0, 9.0]])
        full = reference_scatter(np.array([1.0, 4.0, 9.0]), 2, offdiag=1.0)
        assert np.array_equal(full, [[1.0, 4.0], [4.0, 9.0]])

    def test_scatter_length_check(self):
        with pytest.raises(ValueError):
            reference_scatter(np.ones(4), 2)

    def test_offdiag_slots(self):
        # the injected unhalved scatter doubles exactly the off-diagonal rows
        assert np.array_equal(unhalved_q(np.ones((3, 1))).ravel(), [1, 2, 1])
        assert unhalved_q(np.ones((g_dim(4), 2))).sum() == 2 * (4 + 2 * 6)


class TestMixtureOfPowers:
    def test_power_grid(self):
        assert np.array_equal(power_grid(10), np.arange(11) / 10.0)
        with pytest.raises(DataError):
            power_grid(0)

    def test_one_exactly_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            gamma = random_simplex(rng, 11)
            assert mpf_eval(gamma, 1.0) == 1.0

    def test_zero_gives_first_weight(self):
        rng = np.random.default_rng(2)
        gamma = random_simplex(rng, 11)
        assert mpf_eval(gamma, 0.0) == gamma[0]

    def test_identity_component(self):
        gamma = np.zeros(11)
        gamma[-1] = 1.0
        for x in (0.0, 0.3, 2.5):
            assert mpf_eval(gamma, x) == x

    def test_half_power_component(self):
        gamma = np.zeros(11)
        gamma[5] = 1.0
        assert abs(mpf_eval(gamma, 0.25) - 0.5) < 1e-15

    def test_uniform_at_zero(self):
        assert mpf_eval(np.full(11, 1.0 / 11.0), 0.0) == 1.0 / 11.0

    def test_monotone_and_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            gamma = random_simplex(rng, int(rng.integers(2, 12)))
            x = np.sort(rng.uniform(0.0, 3.0, size=2))
            f0, f1 = mpf_eval(gamma, x[0]), mpf_eval(gamma, x[1])
            assert f0 >= 0.0
            assert f1 >= f0 - 1e-15

    def test_negative_input_rejected(self):
        with pytest.raises(DataError):
            mpf_eval(np.full(11, 1.0 / 11.0), -0.1)
        with pytest.raises(DataError):
            mpf_eval(np.array([1.0]), 0.5)


class TestMPFParams:
    """The mixture's parameters are logits omega; gamma = softmax(omega)."""

    def test_softmax_shift_invariant(self):
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0),
                                   rtol=1e-12)
        assert abs(softmax(x).sum() - 1.0) < 1e-15

    def test_softmax_flushes_subnormal_weights(self):
        # exp(-720) is subnormal, exp(-700) normal and exp(-800) exactly 0
        x = np.array([0.0, -720.0, -700.0, -800.0, -1.0])
        e = np.exp(x)
        unflushed = e / e.sum()
        assert 0.0 < unflushed[1] < np.finfo(float).tiny
        gamma = softmax(x)
        assert gamma[1] == 0.0
        keep = np.array([0, 2, 3, 4])
        assert np.array_equal(gamma[keep], unflushed[keep])
        q = np.random.default_rng(15).normal(size=(21, 5))
        assert np.array_equal(q @ gamma, q @ unflushed)


def one_hot_params(n_mix, hot):
    # exp(-1000) underflows to exactly 0, so gamma is an exact one-hot
    omega = np.zeros(n_mix + 1)
    omega[hot] = 1000.0
    return omega


def q_factor(H, n_mix=10):
    """The Q factor of H, built as the stnet feature set builds it."""
    U, lam = normalized_spectrum(H)
    return mpf_q_matrix(U, lam[:, None] ** power_grid(n_mix)[None, :])


def q_forward(H, omega):
    return q_factor(H, len(omega) - 1) @ softmax(omega)


def q_backward(H, omega, grad):
    return softmax_backward(softmax(omega),
                            q_factor(H, len(omega) - 1).T @ grad)


class TestForward:
    def test_isotropic_input(self):
        omega = np.linspace(-1.0, 1.0, 11)
        d = 4
        vec = q_forward(5.0 * np.eye(d), omega)
        expected = mpf_eval(softmax(omega), 1.0 / math.sqrt(d))
        full = scatter_full(vec, d)
        np.testing.assert_allclose(full, expected * np.eye(d), atol=1e-12)

    def test_identity_mixture_is_spectrum_normalization(self):
        vec = q_forward(np.diag([4.0, 1.0]), one_hot_params(10, 10))
        s = math.sqrt(17.0)
        np.testing.assert_allclose(vec, [4.0 / s, 0.0, 1.0 / s], atol=1e-12)

    def test_spectral_mapping(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = int(rng.integers(2, 8))
            H = random_spd(rng, d)
            omega = rng.normal(size=11)
            vec = q_forward(H, omega)
            evals, evecs = np.linalg.eigh(H)
            lam = evals / np.linalg.norm(evals)
            ref = sum(mpf_eval(softmax(omega), max(lam[i], 0.0))
                      * np.outer(evecs[:, i], evecs[:, i])
                      for i in range(d))
            np.testing.assert_allclose(scatter_full(vec, d), ref, atol=1e-10)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(5)
        H = random_spd(rng, 5)
        R = random_rotation(rng, 5)
        omega = rng.normal(size=11)
        vec = q_forward(H, omega)
        vec_rot = q_forward(R @ H @ R.T, omega)
        np.testing.assert_allclose(scatter_full(vec_rot, 5),
                                   R @ scatter_full(vec, 5) @ R.T, atol=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DataError, match="zero"):
            q_forward(np.zeros((3, 3)), np.zeros(11))

    def test_normalized_spectrum_unit_norm(self):
        rng = np.random.default_rng(6)
        _, lam = normalized_spectrum(random_spd(rng, 7))
        assert abs(np.linalg.norm(lam) - 1.0) < 1e-12


def assert_matches_finite_differences(H, omega, w, h=1e-5):
    # the loss w . g(U f(Lambda) U^T), reconstructed explicitly, with the
    # eigendecomposition held constant as the backward assumes
    U, lam = normalized_spectrum(H)

    def loss(om):
        return float(w @ reference_forward(U, lam, softmax(om)))

    grad = q_backward(H, omega, w)
    for i in range(len(omega)):
        e = np.zeros(len(omega))
        e[i] = h
        fd = (loss(omega + e) - loss(omega - e)) / (2 * h)
        assert abs(grad[i] - fd) <= 1e-6 * max(1.0, abs(fd))


class TestBackward:
    def test_zero_gradient_passthrough(self):
        rng = np.random.default_rng(7)
        out = q_backward(random_spd(rng, 4), np.zeros(11),
                         np.zeros(g_dim(4)))
        assert np.array_equal(out, np.zeros(11))

    def test_softmax_backward_kills_constant_direction(self):
        gamma = softmax(np.array([0.3, -1.0, 2.0]))
        out = softmax_backward(gamma, np.full(3, 3.7))
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        H = random_spd(rng, 5)
        omega = rng.normal(size=11) * 0.5
        assert_matches_finite_differences(H, omega, rng.normal(size=g_dim(5)))

    def test_repeated_eigenvalues(self):
        # isotropic input: every direction is an eigenvector, but the map
        # depends only on the spectrum so the gradient stays well defined
        rng = np.random.default_rng(9)
        omega = rng.normal(size=11) * 0.3
        w = rng.normal(size=g_dim(4))
        assert_matches_finite_differences(2.0 * np.eye(4), omega, w)

    def test_corrupt_scatter_differs(self):
        rng = np.random.default_rng(10)
        H = random_spd(rng, 4)
        omega = rng.normal(size=11)
        w = rng.normal(size=g_dim(4))
        U, lam = normalized_spectrum(H)
        bad = reference_backward(U, lam, softmax(omega), w, offdiag=1.0)
        assert not np.allclose(q_backward(H, omega, w), bad)


class TestQFactorization:
    def test_forward_equivalence(self):
        rng = np.random.default_rng(12)
        H = random_spd(rng, 6)
        omega = rng.normal(size=11)
        U, lam = normalized_spectrum(H)
        np.testing.assert_allclose(q_forward(H, omega),
                                   reference_forward(U, lam, softmax(omega)),
                                   atol=1e-12)

    def test_backward_equivalence(self):
        rng = np.random.default_rng(13)
        H = random_spd(rng, 6)
        omega = rng.normal(size=11)
        w = rng.normal(size=g_dim(6))
        U, lam = normalized_spectrum(H)
        np.testing.assert_allclose(q_backward(H, omega, w),
                                   reference_backward(U, lam, softmax(omega),
                                                      w),
                                   atol=1e-12)

    def test_corrupt_variants_agree(self):
        rng = np.random.default_rng(14)
        H = random_spd(rng, 5)
        gamma = softmax(rng.normal(size=11))
        w = rng.normal(size=g_dim(5))
        U, lam = normalized_spectrum(H)
        via_q = softmax_backward(gamma, unhalved_q(q_factor(H)).T @ w)
        direct = reference_backward(U, lam, gamma, w, offdiag=1.0)
        np.testing.assert_allclose(via_q, direct, atol=1e-12)


class TestFixedTransforms:
    def test_half_power(self):
        out = fixed_transform(np.diag([4.0, 1.0]), "half_power", EPS)
        q = 17.0 ** 0.25
        np.testing.assert_allclose(out, [2.0 / q, 0.0, 1.0 / q], atol=1e-12)

    def test_l2_norm(self):
        H = np.array([[3.0, 1.0], [1.0, -2.0]])
        out = fixed_transform(H, "l2_norm", EPS)
        ref = np.array([3.0, 1.0, -2.0])
        np.testing.assert_allclose(out, ref / np.linalg.norm(ref),
                                   rtol=1e-15)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_ssn(self):
        H = np.array([[4.0, -9.0], [-9.0, 1.0]])
        out = fixed_transform(H, "ssn", EPS)
        ref = np.array([2.0, -3.0, 1.0])
        np.testing.assert_allclose(out, ref / np.linalg.norm(ref),
                                   rtol=1e-14)

    def test_log_max(self):
        # spectrum (0.8, 0.6) already unit norm; eps floors the small one
        out = fixed_transform(np.diag([0.8, 0.6]), "log_max", eps=0.7)
        np.testing.assert_allclose(out, [math.log(0.8), 0.0, math.log(0.7)],
                                   atol=1e-12)

    def test_log_reg(self):
        out = fixed_transform(np.diag([0.8, 0.6]), "log_reg", eps=0.2)
        np.testing.assert_allclose(out, [0.0, 0.0, math.log(0.8)],
                                   atol=1e-12)

    def test_log_e_rejects_singular(self):
        with pytest.raises(DataError, match="zero eigenvalue"):
            fixed_transform(np.diag([1.0, 0.0]), "log_e", EPS)

    def test_log_e_full_rank(self):
        out = fixed_transform(np.diag([0.8, 0.6]), "log_e", EPS)
        np.testing.assert_allclose(out, [math.log(0.8), 0.0, math.log(0.6)],
                                   atol=1e-12)

    def test_spectral_kinds_rotation_equivariant(self):
        rng = np.random.default_rng(15)
        H = random_spd(rng, 4)
        R = random_rotation(rng, 4)
        for kind in ("log_reg", "log_max", "half_power"):
            a = scatter_full(fixed_transform(H, kind, EPS), 4)
            b = scatter_full(fixed_transform(R @ H @ R.T, kind, EPS), 4)
            np.testing.assert_allclose(b, R @ a @ R.T, atol=1e-9)

    def test_bad_kind_and_eps(self):
        with pytest.raises(DataError, match="unknown transform"):
            fixed_transform(np.eye(2), "nope", EPS)
        for kind in ("log_reg", "log_max"):
            with pytest.raises(DataError):
                fixed_transform(np.eye(2), kind, eps=0.0)

    def test_all_kinds_listed(self):
        assert FIXED_TRANSFORMS == ("log_e", "log_reg", "log_max",
                                    "half_power", "l2_norm", "ssn")
