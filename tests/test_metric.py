import math

import numpy as np
import pytest

from specpool import storage
from specpool.errors import DataError
from specpool.metric import (EmbeddingParams, classify_loss, embed_rows,
                             embed_rows_backward, init_embedding, load_model,
                             normalize_rows, save_model, softmax_rows,
                             triplet_loss_rows)

from conftest import (assert_rel_close, clamped_classify_loss,
                      random_rotation)


class TestEmbeddingParams:
    def test_shapes_and_properties(self):
        p = EmbeddingParams(np.zeros((3, 7)), np.zeros((4, 3)), np.zeros(4))
        assert p.W.shape == (3, 7) and p.d_in == 7 and p.n_classes == 4
        assert EmbeddingParams(np.zeros((2, 2))).n_classes is None

    def test_from_blocks(self):
        # a model's blocks carry omega beside the head; a retrieval model
        # has no classifier
        blocks = {"omega": np.zeros(11), "W": np.ones((3, 7)),
                  "C": np.ones((4, 3)), "bias": np.arange(4.0)}
        p = EmbeddingParams.from_blocks(blocks)
        assert np.array_equal(p.W, blocks["W"])
        assert np.array_equal(p.C, blocks["C"])
        assert np.array_equal(p.bias, blocks["bias"])
        retrieval = EmbeddingParams.from_blocks({"W": np.ones((3, 7))})
        assert retrieval.C is None and retrieval.bias is None

    def test_validation(self):
        with pytest.raises(DataError, match="2-d"):
            EmbeddingParams(np.zeros(3))
        with pytest.raises(DataError, match="expand"):
            EmbeddingParams(np.zeros((5, 3)))
        with pytest.raises(DataError, match="both C and bias"):
            EmbeddingParams(np.zeros((2, 3)), C=np.zeros((4, 2)))
        with pytest.raises(DataError, match="does not match"):
            EmbeddingParams(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros(4))
        with pytest.raises(DataError, match="bias length"):
            EmbeddingParams(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(3))

    def test_init_deterministic_and_bounded(self):
        a = init_embedding(20, 5, seed=3, n_classes=4)
        b = init_embedding(20, 5, seed=3, n_classes=4)
        assert np.array_equal(a.W, b.W) and np.array_equal(a.C, b.C)
        assert np.abs(a.W).max() <= math.sqrt(6.0 / 25.0)
        assert np.abs(a.C).max() <= math.sqrt(6.0 / 9.0)
        assert np.array_equal(a.bias, np.zeros(4))
        c = init_embedding(20, 5, seed=4)
        assert not np.array_equal(a.W, c.W)
        assert c.C is None

    def test_init_class_count(self):
        with pytest.raises(DataError):
            init_embedding(10, 3, seed=0, n_classes=1)


class TestEmbedding:
    def test_normalizes_then_projects(self):
        p = EmbeddingParams(np.eye(2))
        f, (xt, norms) = embed_rows(np.array([[3.0, 4.0]]), p)
        np.testing.assert_allclose(f, [[0.6, 0.8]], rtol=1e-15)
        assert norms[0] == 5.0
        np.testing.assert_allclose(xt, [[0.6, 0.8]], rtol=1e-15)

    def test_zero_weights_zero_output(self):
        p = EmbeddingParams(np.zeros((2, 3)))
        f, _ = embed_rows(np.ones((4, 3)), p)
        assert np.array_equal(f, np.zeros((4, 2)))

    def test_zero_row_rejected(self):
        with pytest.raises(DataError, match="zero descriptor"):
            normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 8))
        p = EmbeddingParams(rng.normal(size=(3, 8)))
        base, _ = embed_rows(x, p)
        exact, _ = embed_rows(4.0 * x, p)  # power-of-two scale: bit-equal
        assert np.array_equal(base, exact)
        close, _ = embed_rows(1.7 * x, p)
        np.testing.assert_allclose(close, base, rtol=1e-12)

    def test_norm_bounded_by_top_singular_value(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(4, 9))
        p = EmbeddingParams(W)
        smax = np.linalg.svd(W, compute_uv=False)[0]
        f, _ = embed_rows(rng.normal(size=(50, 9)), p)
        assert np.linalg.norm(f, axis=1).max() <= smax * (1.0 + 1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DataError, match="descriptor dim"):
            embed_rows(np.ones((2, 5)), EmbeddingParams(np.zeros((2, 3))))

    def test_backward_zero(self):
        rng = np.random.default_rng(2)
        p = EmbeddingParams(rng.normal(size=(3, 6)))
        _, cache = embed_rows(rng.normal(size=(4, 6)), p)
        dW, dx = embed_rows_backward(np.zeros((4, 3)), p, cache)
        assert np.array_equal(dW.left.T @ dW.right, np.zeros((3, 6)))
        assert np.array_equal(dx, np.zeros((4, 6)))

    def test_backward_orthogonal_to_input(self):
        # the normalization Jacobian projects out the radial direction
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 5))
        p = EmbeddingParams(rng.normal(size=(2, 5)))
        _, cache = embed_rows(x, p)
        _, dx = embed_rows_backward(rng.normal(size=(6, 2)), p, cache)
        assert np.abs(np.einsum("ij,ij->i", dx, x)).max() < 1e-12

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5))
        W = rng.normal(size=(2, 5))
        v = rng.normal(size=(3, 2))

        def loss(Wm, xm):
            f, _ = embed_rows(xm, EmbeddingParams(Wm))
            return float(np.sum(v * f))

        p = EmbeddingParams(W)
        _, cache = embed_rows(x, p)
        dW, dx = embed_rows_backward(v, p, cache)
        dW = dW.left.T @ dW.right
        h = 1e-6
        for idx in np.ndindex(W.shape):
            e = np.zeros_like(W)
            e[idx] = h
            fd = (loss(W + e, x) - loss(W - e, x)) / (2 * h)
            assert abs(dW[idx] - fd) <= 1e-6 * max(1.0, abs(fd))
        for idx in np.ndindex(x.shape):
            e = np.zeros_like(x)
            e[idx] = h
            fd = (loss(W, x + e) - loss(W, x - e)) / (2 * h)
            assert abs(dx[idx] - fd) <= 1e-6 * max(1.0, abs(fd))


class TestTripletLoss:
    def test_inactive_hinge_zero_loss(self):
        fa = fp = np.array([[0.0, 0.0]])
        fn = np.array([[3.0, 0.0]])
        loss, dfa, dfp, dfn = triplet_loss_rows(fa, fp, fn, margin=1.0,
                                                eta=5.0)
        assert loss == 0.0
        assert np.array_equal(dfa, np.zeros((1, 2)))

    def test_unit_hinge(self):
        fa = np.array([[0.0, 0.0]])
        fp = np.array([[1.0, 0.0]])
        fn = np.array([[0.0, 1.0]])
        loss, *_ = triplet_loss_rows(fa, fp, fn, margin=1.0, eta=0.0)
        assert abs(loss - 1.0) < 1e-12
        loss_eta, *_ = triplet_loss_rows(fa, fp, fn, margin=1.0, eta=2.0)
        assert abs(loss_eta - 3.0) < 1e-12

    def test_batch_sums(self):
        rng = np.random.default_rng(5)
        fa, fp, fn = (rng.normal(size=(4, 3)) for _ in range(3))
        total, *_ = triplet_loss_rows(fa, fp, fn, 2.0, 1.0)
        parts = sum(triplet_loss_rows(fa[i:i + 1], fp[i:i + 1],
                                      fn[i:i + 1], 2.0, 1.0)[0]
                    for i in range(4))
        assert abs(total - parts) < 1e-12

    def test_gradients_match_finite_differences(self):
        # keep the batch away from the hinge kink and coincident points
        rng = np.random.default_rng(6)
        while True:
            fa, fp, fn = (rng.normal(size=(3, 4)) for _ in range(3))
            d_pos = np.linalg.norm(fa - fp, axis=1)
            d_neg = np.linalg.norm(fa - fn, axis=1)
            hinge = 0.5 + d_pos - d_neg
            if np.all(np.abs(hinge) > 1e-3) and np.all(d_pos > 1e-3) \
                    and np.all(d_neg > 1e-3):
                break
        _, dfa, dfp, dfn = triplet_loss_rows(fa, fp, fn, 0.5, 0.7)
        h = 1e-6
        for arr, grad in ((fa, dfa), (fp, dfp), (fn, dfn)):
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                up = triplet_loss_rows(fa, fp, fn, 0.5, 0.7)[0]
                arr[idx] = orig - h
                dn = triplet_loss_rows(fa, fp, fn, 0.5, 0.7)[0]
                arr[idx] = orig
                fd = (up - dn) / (2 * h)
                assert abs(grad[idx] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_rotation_invariant(self):
        rng = np.random.default_rng(7)
        fa, fp, fn = (rng.normal(size=(5, 3)) for _ in range(3))
        R = random_rotation(rng)
        a = triplet_loss_rows(fa, fp, fn, 1.5, 0.3)[0]
        b = triplet_loss_rows(fa @ R.T, fp @ R.T, fn @ R.T, 1.5, 0.3)[0]
        assert abs(a - b) < 1e-10

    def test_coincident_points_finite(self):
        fa = np.array([[1.0, 1.0]])
        loss, dfa, dfp, dfn = triplet_loss_rows(fa, fa.copy(), fa.copy(),
                                                1.0, 0.5)
        assert np.isfinite(loss)
        for g in (dfa, dfp, dfn):
            assert np.all(np.isfinite(g))

    def test_bad_params(self):
        fa = np.ones((1, 2))
        with pytest.raises(DataError):
            triplet_loss_rows(fa, fa, fa, -1.0, 0.0)
        with pytest.raises(DataError):
            triplet_loss_rows(fa, fa, fa, 1.0, -0.5)
        with pytest.raises(DataError, match="empty"):
            triplet_loss_rows(np.empty((0, 2)), np.empty((0, 2)),
                              np.empty((0, 2)), 1.0, 0.0)


def uniform_prob_params(n_classes, d):
    return EmbeddingParams(np.eye(d), np.zeros((n_classes, d)),
                           np.zeros(n_classes))


class TestClassifyLoss:
    def test_uniform_probabilities_reference_value(self):
        # z = 0 gives p = 1/2 per class: bce charges both slots, 2 log 2
        p = uniform_prob_params(2, 3)
        f = np.zeros((1, 3))
        loss, *_ , probs = classify_loss(f, np.array([0]), p)
        assert abs(loss - 2.0 * math.log(2.0)) < 1e-12
        np.testing.assert_allclose(probs, [[0.5, 0.5]], rtol=1e-15)

    def test_confident_correct_loss_vanishes(self):
        p = EmbeddingParams(np.eye(2), np.zeros((3, 2)),
                            np.array([100.0, 0.0, 0.0]))
        loss, *_ = classify_loss(np.ones((4, 2)), np.zeros(4, dtype=int), p)
        assert loss < 1e-9

    def test_probabilities_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        p = EmbeddingParams(np.eye(5), rng.normal(size=(4, 5)),
                            rng.normal(size=4))
        f = rng.normal(size=(10, 5))
        *_, probs = classify_loss(f, rng.integers(0, 4, size=10), p)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(probs, softmax_rows(f @ p.C.T + p.bias))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=(4, 3))
        C = rng.normal(size=(3, 3)) * 0.5
        bias = rng.normal(size=3) * 0.1
        labels = np.array([0, 2, 1, 2])

        def loss_at(fm, Cm, bm):
            return classify_loss(fm, labels, EmbeddingParams(np.eye(3), Cm,
                                                             bm))[0]

        _, dF, dC, dbias, _ = classify_loss(
            f, labels, EmbeddingParams(np.eye(3), C, bias))
        h = 1e-6
        for arr, grad in ((f, dF), (C, dC), (bias, dbias)):
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss_at(f, C, bias)
                arr[idx] = orig - h
                dn = loss_at(f, C, bias)
                arr[idx] = orig
                fd = (up - dn) / (2 * h)
                assert abs(grad[idx] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_matches_clamped_formula_away_from_saturation(self):
        # the log-odds form and the clamped probability form are the same
        # loss wherever no probability is near 0 or 1. Each shape is held
        # on its own: a batch's dC and dbias sum over shapes and can
        # cancel, which scales any round-off gap up
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 200:
            m, d = rng.integers(2, 6), 4
            p = EmbeddingParams(np.eye(d), rng.normal(size=(m, d)),
                                rng.normal(size=m))
            f = rng.normal(size=(1, d))
            labels = rng.integers(0, m, size=1)
            loss, dF, dC, dbias, probs = classify_loss(f, labels, p)
            if probs.min() < 1e-3 or probs.max() > 1.0 - 1e-3:
                continue
            ref_loss, *ref_grads = clamped_classify_loss(f, labels, p)
            assert abs(loss - ref_loss) <= 1e-12 * ref_loss
            for grad, ref in zip((dF, dC, dbias), ref_grads):
                assert_rel_close(grad, ref, rtol=1e-12)
            checked += 1

    @pytest.mark.filterwarnings("error")
    def test_saturated_wrong_answer_keeps_gradient(self):
        # class 0 wins by 1000 but the label is 1: log p_1 and log(1 - p_0)
        # are both -1000, and dz = 2p - y - q_0 = [2, -2]; the clamped
        # form charges 2 (-log 1e-12) and gives no gradient at all
        p = EmbeddingParams(np.eye(2), np.zeros((2, 2)),
                            np.array([1000.0, 0.0]))
        f, labels = np.ones((1, 2)), np.array([1])
        loss, dF, dC, dbias, _ = classify_loss(f, labels, p)
        assert abs(loss - 2000.0) <= 1e-9
        np.testing.assert_allclose(dbias, [2.0, -2.0], rtol=1e-15)
        np.testing.assert_allclose(dC, [[2.0, 2.0], [-2.0, -2.0]],
                                   rtol=1e-15)
        assert np.all(dF == 0.0)  # C = 0
        assert all(not np.any(g)
                   for g in clamped_classify_loss(f, labels, p)[1:])

    @pytest.mark.filterwarnings("error")
    def test_extreme_logits_stay_finite(self):
        p = EmbeddingParams(np.eye(2), np.array([[1e4, 0.0], [0.0, 1e4]]),
                            np.zeros(2))
        loss, dF, dC, dbias, _ = classify_loss(np.array([[1.0, -1.0]]),
                                               np.array([1]), p)
        assert np.isfinite(loss)
        for g in (dF, dC, dbias):
            assert np.all(np.isfinite(g))

    def test_validation(self):
        p = uniform_prob_params(2, 3)
        with pytest.raises(DataError, match="label"):
            classify_loss(np.zeros((1, 3)), np.array([2]), p)
        with pytest.raises(DataError, match="classifier"):
            classify_loss(np.zeros((1, 3)),
                          np.array([0]), EmbeddingParams(np.eye(3)))


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        blocks = {"omega": rng.normal(size=11),
                  "W": rng.normal(size=(4, 20)),
                  "C": None, "bias": None}
        meta = {"mode": "stnet", "d_in": 20, "seed": 3}
        path = tmp_path / "model.npz"
        save_model(path, blocks, meta)
        loaded, meta2 = load_model(path)
        assert set(loaded) == {"omega", "W"}
        assert np.array_equal(loaded["omega"], blocks["omega"])
        assert np.array_equal(loaded["W"], blocks["W"])
        assert meta2["mode"] == "stnet"
        assert meta2["d_in"] == 20 and meta2["seed"] == 3

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.npz"
        storage.save_bundle(path, {"format_version": np.int64(99),
                                   "param_W": np.zeros((1, 1))})
        with pytest.raises(DataError, match="version 99"):
            load_model(path)

    def test_missing_version(self, tmp_path):
        path = tmp_path / "model.npz"
        storage.save_bundle(path, {"param_W": np.zeros((1, 1))})
        with pytest.raises(DataError, match="missing version"):
            load_model(path)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"not an archive")
        with pytest.raises(DataError, match="corrupt or unreadable"):
            load_model(path)
