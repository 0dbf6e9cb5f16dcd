import numpy as np
import pytest

from specpool.descriptors import DescriptorField
from specpool.errors import DataError
from specpool.pooling import (PooledSPD, PoolWeights, cloud_weights,
                              mesh_weights, pool_first_order,
                              pool_second_order)


def field_of(values):
    return DescriptorField(np.asarray(values, dtype=np.float64), "hks")


class TestWeights:
    def test_mesh_weights_normalized(self):
        w = mesh_weights(np.array([1.0, 3.0]))
        np.testing.assert_allclose(w.pi, [0.25, 0.75], rtol=1e-15)

    def test_cloud_weights_uniform(self):
        w = cloud_weights(4)
        assert np.array_equal(w.pi, np.full(4, 0.25))
        with pytest.raises(DataError):
            cloud_weights(0)

    def test_validation(self):
        with pytest.raises(DataError, match="non-positive"):
            PoolWeights(np.array([0.5, 0.5, 0.0]))
        with pytest.raises(DataError, match="sum"):
            PoolWeights(np.array([0.5, 0.6]))
        with pytest.raises(DataError):
            PoolWeights(np.empty(0))


class TestSecondOrder:
    def test_two_point_example(self):
        # pi = (1/2, 1/2), h = e1, e2 -> H = diag(1/2, 1/2)
        field = field_of([[1.0, 0.0], [0.0, 1.0]])
        out = pool_second_order(field, cloud_weights(2))
        assert np.array_equal(out.H, np.diag([0.5, 0.5]))

    def test_constant_field_rank_one(self):
        c = np.array([2.0, -1.0, 3.0])
        field = field_of(np.tile(c, (7, 1)))
        out = pool_second_order(field, cloud_weights(7))
        np.testing.assert_allclose(out.H, np.outer(c, c), rtol=1e-14)

    def test_matches_outer_product_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(1, 17))
            n = int(rng.integers(1, 51))
            h = rng.normal(size=(n, d))
            pi = rng.uniform(0.1, 1.0, size=n)
            pi /= pi.sum()
            out = pool_second_order(field_of(h), PoolWeights(pi))
            ref = np.zeros((d, d))
            for s in range(n):
                ref += pi[s] * np.outer(h[s], h[s])
            scale = np.abs(ref).max()
            assert np.abs(out.H - ref).max() <= 1e-13 * max(scale, 1.0)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(30, 6))
        out = pool_second_order(field_of(h), cloud_weights(30))
        x = rng.normal(size=(100, 6))
        assert np.all(np.einsum("ij,jk,ik->i", x, out.H, x) >= -1e-12)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(25, 9)) * 100.0
        out = pool_second_order(field_of(h), cloud_weights(25))
        assert np.array_equal(out.H, out.H.T)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(12, 4))
        pi = rng.uniform(0.5, 1.5, size=12)
        pi /= pi.sum()
        perm = rng.permutation(12)
        a = pool_second_order(field_of(h), PoolWeights(pi))
        b = pool_second_order(field_of(h[perm]), PoolWeights(pi[perm]))
        np.testing.assert_allclose(a.H, b.H, atol=1e-15)

    def test_uniform_mesh_equals_cloud(self):
        # equal-area weights and the uniform cloud rule give the same H
        rng = np.random.default_rng(6)
        h = rng.normal(size=(16, 5))
        a = pool_second_order(field_of(h), mesh_weights(np.full(16, 2.5)))
        b = pool_second_order(field_of(h), cloud_weights(16))
        assert np.array_equal(a.H, b.H)

    def test_trace_identity(self):
        # tr H = sum_s pi(s) |h(s)|^2
        rng = np.random.default_rng(7)
        h = rng.normal(size=(20, 8))
        pi = rng.uniform(0.1, 1.0, size=20)
        pi /= pi.sum()
        out = pool_second_order(field_of(h), PoolWeights(pi))
        ref = float(pi @ (h ** 2).sum(axis=1))
        assert abs(np.trace(out.H) - ref) <= 1e-9 * ref

    def test_rank_bound(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(3, 10))
        out = pool_second_order(field_of(h), cloud_weights(3))
        assert np.linalg.matrix_rank(out.H, tol=1e-10) <= 3

    def test_size_mismatch(self):
        with pytest.raises(DataError, match="points"):
            pool_second_order(field_of(np.ones((3, 2))), cloud_weights(4))


class TestFirstOrder:
    def test_two_point_example(self):
        field = field_of([[1.0, 0.0], [0.0, 1.0]])
        out = pool_first_order(field, cloud_weights(2))
        assert np.array_equal(out, [0.5, 0.5])

    def test_matches_loop(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(15, 6))
        pi = rng.uniform(0.1, 1.0, size=15)
        pi /= pi.sum()
        out = pool_first_order(field_of(h), PoolWeights(pi))
        ref = np.zeros(6)
        for s in range(15):
            ref += pi[s] * h[s]
        np.testing.assert_allclose(out, ref, atol=1e-14)

    def test_size_mismatch(self):
        with pytest.raises(DataError):
            pool_first_order(field_of(np.ones((3, 2))), cloud_weights(2))


class TestPooledSPD:
    def test_validation(self):
        with pytest.raises(DataError, match="square"):
            PooledSPD(np.ones((2, 3)))
        with pytest.raises(DataError, match="symmetric"):
            PooledSPD(np.array([[1.0, 2.0], [2.1, 1.0]]))
        with pytest.raises(DataError, match="finite"):
            PooledSPD(np.array([[np.inf]]))
        assert PooledSPD(np.eye(3)).H.shape == (3, 3)
