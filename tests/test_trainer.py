import logging

import numpy as np
import pytest

from specpool import metric, spdm
from specpool.config import RunConfig
from specpool.errors import DataError
from specpool.trainer import (FeatureSet, build_triplets, gradcheck,
                              init_params, load_checkpoint, save_checkpoint,
                              sgd_step, toy_problem, train, triplet_count)


def static_features(rng, n_per_class, n_classes, dim):
    n = n_per_class * n_classes
    labels = np.repeat(np.arange(n_classes), n_per_class)
    x = rng.normal(size=(n, dim)) + labels[:, None] * 3.0
    ids = [f"s{i:02d}" for i in range(n)]
    return FeatureSet(ids, labels, [row[:, None] for row in x])


def static_rows(feats):
    return np.stack([q[:, 0] for q in feats.q])


def classification_config(**kw):
    base = dict(task="classification", batch_size=15, learning_rate=1.0,
                d_m=300)
    base.update(kw)
    return RunConfig(**base)


class TestTriplets:
    def test_count_formula(self):
        # 2 classes x 2 members: each anchor has 1 positive, 2 negatives
        labels = np.array([0, 0, 1, 1])
        assert triplet_count(labels) == 8
        assert triplet_count(np.array([0, 0, 0, 1])) == 6

    def test_exhaustive_enumeration(self):
        labels = np.array([0, 0, 1, 1])
        batches = build_triplets(labels, batch_size=3, seed=0, epoch=0)
        trips = np.concatenate(batches)
        assert len(trips) == 8
        assert [len(b) for b in batches] == [3, 3, 2]
        seen = {tuple(t) for t in trips.tolist()}
        assert len(seen) == 8
        for a, p, g in seen:
            assert labels[a] == labels[p] != labels[g] and a != p

    def test_seed_and_epoch_streams(self):
        labels = np.array([0, 0, 0, 1, 1, 1])
        a = build_triplets(labels, 4, seed=1, epoch=2)
        b = build_triplets(labels, 4, seed=1, epoch=2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = build_triplets(labels, 4, seed=1, epoch=3)
        assert not all(np.array_equal(x, y)
                       for x, y in zip(a, c))

    def test_subsampled_when_over_budget(self):
        labels = np.repeat(np.arange(4), 5)
        t_max = 2 * len(labels)
        batches = build_triplets(labels, 5, seed=0, epoch=0, t_max=t_max)
        trips = np.concatenate(batches)
        assert len(trips) == t_max
        for a, p, g in trips.tolist():
            assert labels[a] == labels[p] != labels[g] and a != p

    def test_singleton_class_logged(self, caplog):
        labels = np.array([0, 0, 1])
        with caplog.at_level(logging.WARNING, logger="specpool"):
            batches = build_triplets(labels, 4, seed=0, epoch=0)
        assert "single member" in caplog.text
        trips = np.concatenate(batches)
        assert set(trips[:, 0].tolist()) <= {0, 1}

    def test_errors(self):
        with pytest.raises(DataError, match="two classes"):
            build_triplets(np.array([0, 0, 0]), 2, 0, 0)
        with pytest.raises(DataError, match="two members"):
            build_triplets(np.array([0, 1, 2]), 2, 0, 0)


class TestSGD:
    def test_zero_gradient_no_move(self):
        params = {"w": np.array([1.0, 2.0])}
        sgd_step(params, {"w": np.zeros(2)}, 10.0)
        assert np.array_equal(params["w"], [1.0, 2.0])

    def test_single_step(self):
        params = {"w": np.array([1.0])}
        sgd_step(params, {"w": np.array([2.0])}, 0.5)
        assert np.array_equal(params["w"], [0.0])

    def test_quadratic_bowl_converges(self):
        params = {"w": np.array([5.0, -3.0])}
        for _ in range(50):
            sgd_step(params, {"w": 2.0 * params["w"]}, 0.4)
        assert np.abs(params["w"]).max() < 1e-3

    def test_nonfinite_gradient_names_block(self):
        params = {"omega": np.zeros(3), "W": np.zeros((2, 2))}
        grads = {"omega": np.zeros(3), "W": np.array([[np.nan, 0], [0, 0]])}
        with pytest.raises(DataError, match="W"):
            sgd_step(params, grads, 1.0)


class TestTrain:
    def small_config(self, **kw):
        base = dict(task="retrieval", batch_size=4, learning_rate=0.05,
                    margin=1.0, eta=0.1, epochs=5, seed=0, d_m=3,
                    early_stop_patience=50)
        base.update(kw)
        return RunConfig(**base)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        feats = static_features(rng, 3, 2, 6)
        cfg = self.small_config()
        b1, log1, _ = train(cfg, feats)
        b2, log2, _ = train(cfg, feats)
        assert all(np.array_equal(b1[k], b2[k]) for k in b1)
        assert [r[:2] for r in log1] == [r[:2] for r in log2]

    def test_learning_reduces_loss(self):
        rng = np.random.default_rng(1)
        feats = static_features(rng, 4, 3, 8)
        _, log, info = train(self.small_config(epochs=30), feats)
        assert log[-1][1] < log[0][1]
        assert info["epochs_run"] == len(log)

    def test_tiny_learning_rate_descends(self):
        rng = np.random.default_rng(2)
        feats = static_features(rng, 3, 2, 6)
        _, log, _ = train(self.small_config(learning_rate=1e-6, epochs=3),
                          feats)
        assert log[-1][1] <= log[0][1] + 1e-9

    def test_single_step_matches_manual_sgd(self):
        # one epoch, one batch: reproduce the update by hand
        rng = np.random.default_rng(3)
        feats = static_features(rng, 2, 2, 5)
        cfg = self.small_config(batch_size=8, epochs=1,
                                learning_rate=0.1)
        blocks, _, _ = train(cfg, feats)

        init = init_params(cfg, feats)
        assert set(init) == {"W"}
        batches = build_triplets(feats.labels, 8, cfg.seed, 0,
                                 t_max=cfg.t_max_factor * feats.n_shapes)
        assert len(batches) == 1
        trips = batches[0]
        x = static_rows(feats)
        params = metric.EmbeddingParams(init["W"])
        fa, cache = metric.embed_rows(x[trips[:, 0]], params)
        fp, _ = metric.embed_rows(x[trips[:, 1]], params)
        fn, _ = metric.embed_rows(x[trips[:, 2]], params)
        _, dfa, dfp, dfn = metric.triplet_loss_rows(fa, fp, fn, cfg.margin,
                                                    cfg.eta)
        xs = np.concatenate([x[trips[:, 0]], x[trips[:, 1]],
                             x[trips[:, 2]]])
        _, cache = metric.embed_rows(xs, params)
        dW, _ = metric.embed_rows_backward(np.concatenate([dfa, dfp, dfn]),
                                           params, cache)
        expected = init["W"] - 0.1 * dW / len(trips)
        np.testing.assert_allclose(blocks["W"], expected, atol=1e-12)

    def test_stnet_mode_learns_omega(self):
        feats = toy_problem()
        cfg = self.small_config(epochs=3, learning_rate=0.01)
        blocks, _, _ = train(cfg, feats)
        assert "omega" in blocks
        assert not np.array_equal(blocks["omega"],
                                  np.zeros_like(blocks["omega"]))

    def test_early_stopping(self):
        rng = np.random.default_rng(4)
        feats = static_features(rng, 3, 2, 6)
        cfg = self.small_config(epochs=200, learning_rate=1e-12,
                                early_stop_patience=3)
        _, log, info = train(cfg, feats)
        assert info["stopped_early"]
        assert len(log) < 200

    def test_classification_task(self):
        rng = np.random.default_rng(5)
        feats = static_features(rng, 4, 3, 8)
        cfg = classification_config(epochs=20, d_m=4, batch_size=6,
                                    learning_rate=0.05, seed=1,
                                    early_stop_patience=50)
        blocks, log, _ = train(cfg, feats)
        assert set(blocks) == {"W", "C", "bias"}
        assert blocks["C"].shape == (3, 4)
        assert log[-1][1] < log[0][1]

    def test_classification_infers_class_count(self):
        rng = np.random.default_rng(6)
        feats = static_features(rng, 3, 4, 6)
        cfg = classification_config(epochs=2, d_m=3, seed=0)
        blocks, _, _ = train(cfg, feats)
        assert blocks["C"].shape[0] == 4

    def test_checkpoint_resume_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        feats = static_features(rng, 3, 2, 6)
        cfg = self.small_config(epochs=6, checkpoint_every=3)
        full, full_log, _ = train(cfg, feats, checkpoint_dir=str(tmp_path))

        state = load_checkpoint(tmp_path / "checkpoint_00002.npz")
        assert state["epoch"] == 2 and state["seed"] == cfg.seed
        resumed, res_log, _ = train(cfg, feats, resume=state)
        assert all(np.array_equal(full[k], resumed[k]) for k in full)
        assert [r[:2] for r in full_log[3:]] == [r[:2] for r in res_log]

    def test_resume_from_last_epoch_names_it(self, tmp_path):
        rng = np.random.default_rng(7)
        feats = static_features(rng, 3, 2, 6)
        cfg = self.small_config(epochs=3, checkpoint_every=1)
        train(cfg, feats, checkpoint_dir=str(tmp_path))
        state = load_checkpoint(tmp_path / "checkpoint_00002.npz")
        with pytest.raises(DataError, match="epoch 2"):
            train(cfg, feats, resume=state)

    def test_checkpoint_round_trip(self, tmp_path):
        blocks = {"W": np.arange(6.0).reshape(2, 3)}
        save_checkpoint(tmp_path / "c.npz", blocks, 7, 0.25, 2, 9)
        state = load_checkpoint(tmp_path / "c.npz")
        assert np.array_equal(state["blocks"]["W"], blocks["W"])
        assert (state["epoch"], state["best_loss"], state["stale"],
                state["seed"]) == (7, 0.25, 2, 9)


class TestFeatureSet:
    def test_static_rows(self):
        x = np.arange(12.0).reshape(4, 3)
        feats = FeatureSet([f"i{k}" for k in range(4)],
                           np.array([0, 0, 1, 1]), [row[:, None] for row in x])
        assert feats.dim == 3 and feats.n_shapes == 4
        assert feats.n_weights == 1
        gamma = feats.gamma()
        assert np.array_equal(gamma, [1.0])
        assert np.array_equal(feats.rows(np.array([2, 0]), gamma), x[[2, 0]])
        assert "omega" not in init_params(RunConfig(d_m=2), feats)

    def test_stnet_rows_are_q_gamma(self):
        feats = toy_problem(n_shapes=4)
        assert np.array_equal(feats.gamma(), np.full(11, 1.0 / 11))
        gamma = spdm.softmax(np.linspace(-1, 1, 11))
        assert np.array_equal(feats.gamma({"omega": np.linspace(-1, 1, 11)}),
                              gamma)
        rows = feats.rows(np.array([1, 3]), gamma)
        assert np.array_equal(rows[0], feats.q[1] @ gamma)
        assert np.array_equal(rows[1], feats.q[3] @ gamma)
        omega = init_params(RunConfig(d_m=2), feats)["omega"]
        assert np.array_equal(omega, np.zeros(11))

    def test_pull_gamma_grad_matches_direct(self):
        feats = toy_problem(n_shapes=4)
        rng = np.random.default_rng(8)
        dx = rng.normal(size=(2, feats.dim))
        idx = np.array([0, 2])
        out = feats.pull_gamma_grad(idx, dx)
        ref = feats.q[0].T @ dx[0] + feats.q[2].T @ dx[1]
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_validation(self):
        with pytest.raises(DataError, match="one factor per shape"):
            FeatureSet(["a", "b"], np.array([0, 1]), [np.ones((2, 1))])
        with pytest.raises(DataError, match="one factor per shape"):
            FeatureSet([], np.array([]), [])


class TestGradcheck:
    def test_passes_and_is_fast(self):
        report = gradcheck()
        assert report.passed, report.format()
        assert report.max_error < 1e-5
        assert {"omega[retr]", "W[retr]", "omega[clf]", "W[clf]",
                "C[clf]", "bias[clf]"} <= set(report.block_errors)

    def test_corrupt_scatter_fails(self, unhalved_scatter):
        with unhalved_scatter():
            report = gradcheck()
        assert not report.passed
        assert report.block_errors["omega[retr]"] >= 1e-5
        assert report.block_errors["omega[clf]"] >= 1e-5

    def test_toy_problem_keeps_the_rank_of_deficient_shapes(self):
        # shapes 0 and 1 have rank dim - 3: their alpha > 0 columns are built
        # from those eigenpairs alone, not from round-off eigenvalues raised
        # to a small power
        dim = 12
        features = toy_problem(dim=dim)
        for i, q in enumerate(features.q):
            m = np.zeros((dim, dim))
            m[np.triu_indices(dim)] = q[:, 1]
            m += np.triu(m, 1).T
            rank = dim - 3 if i < 2 else dim
            assert np.linalg.matrix_rank(m) == rank
            assert np.array_equal(q[:, 0], spdm.g_vec(np.eye(dim)))

    def test_report_format(self):
        report = gradcheck()
        text = report.format()
        assert "PASS" in text and "threshold" in text
