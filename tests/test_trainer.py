import logging

import numpy as np
import pytest

from specpool import metric, spdm
from specpool.errors import DataError
from specpool.trainer import (FeatureSet, TrainConfig, build_triplets,
                              classification_defaults, gradcheck,
                              init_params, load_checkpoint, save_checkpoint,
                              sgd_step, toy_problem, train, triplet_count)


def static_features(rng, n_per_class, n_classes, dim):
    n = n_per_class * n_classes
    labels = np.repeat(np.arange(n_classes), n_per_class)
    x = rng.normal(size=(n, dim)) + labels[:, None] * 3.0
    ids = [f"s{i:02d}" for i in range(n)]
    return FeatureSet("o1", ids, labels, x=x)


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.batch_size, cfg.learning_rate, cfg.margin, cfg.eta) \
            == (5, 20.0, 60.0, 1.0)
        assert cfg.epochs == 200 and cfg.d_m == 100 and cfg.n_mix == 10

    def test_classification_defaults(self):
        cfg = classification_defaults(epochs=3)
        assert cfg.task == "classification"
        assert (cfg.batch_size, cfg.learning_rate, cfg.d_m) == (15, 1.0, 300)
        assert cfg.epochs == 3

    def test_validation(self):
        with pytest.raises(DataError):
            TrainConfig(task="segmentation")
        with pytest.raises(DataError):
            TrainConfig(batch_size=0)
        with pytest.raises(DataError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(DataError):
            TrainConfig(loss_variant="hinge")


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
        return TrainConfig(**base)

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

        init = init_params(cfg, feats.dim, learn_transform=False)
        batches = build_triplets(feats.labels, 8, cfg.seed, 0,
                                 t_max=cfg.t_max_factor * feats.n_shapes)
        assert len(batches) == 1
        trips = batches[0]
        params = metric.EmbeddingParams(init["W"])
        fa, cache = metric.embed_rows(feats.x[trips[:, 0]], params)
        fp, _ = metric.embed_rows(feats.x[trips[:, 1]], params)
        fn, _ = metric.embed_rows(feats.x[trips[:, 2]], params)
        _, dfa, dfp, dfn = metric.triplet_loss_rows(fa, fp, fn, cfg.margin,
                                                    cfg.eta)
        xs = np.concatenate([feats.x[trips[:, 0]], feats.x[trips[:, 1]],
                             feats.x[trips[:, 2]]])
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
        cfg = classification_defaults(epochs=20, d_m=4, batch_size=6,
                                      learning_rate=0.05, seed=1,
                                      early_stop_patience=50)
        blocks, log, _ = train(cfg, feats)
        assert set(blocks) == {"W", "C", "bias"}
        assert blocks["C"].shape == (3, 4)
        assert log[-1][1] < log[0][1]

    def test_classification_infers_class_count(self):
        rng = np.random.default_rng(6)
        feats = static_features(rng, 3, 4, 6)
        cfg = classification_defaults(epochs=2, d_m=3, seed=0)
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
        feats = FeatureSet("o2", [f"i{k}" for k in range(4)],
                           np.array([0, 0, 1, 1]), x=x)
        assert feats.dim == 3 and feats.n_shapes == 4
        assert np.array_equal(feats.rows(np.array([2, 0])), x[[2, 0]])

    def test_stnet_rows_are_q_gamma(self):
        feats = toy_problem(n_shapes=4)
        gamma = spdm.softmax(np.linspace(-1, 1, 11))
        rows = feats.rows(np.array([1, 3]), gamma)
        assert np.array_equal(rows[0], feats.qmats[1] @ gamma)
        assert np.array_equal(rows[1], feats.qmats[3] @ gamma)

    def test_pull_gamma_grad_matches_direct(self):
        feats = toy_problem(n_shapes=4)
        rng = np.random.default_rng(8)
        dx = rng.normal(size=(2, feats.dim))
        idx = np.array([0, 2])
        out = feats.pull_gamma_grad(idx, dx)
        ref = feats.qmats[0].T @ dx[0] + feats.qmats[2].T @ dx[1]
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_validation(self):
        with pytest.raises(DataError, match="unknown feature mode"):
            FeatureSet("bad", ["a"], np.array([0]), x=np.ones((1, 2)))
        with pytest.raises(DataError, match="one row per shape"):
            FeatureSet("o1", ["a", "b"], np.array([0, 1]),
                       x=np.ones((1, 2)))
        with pytest.raises(DataError, match="Q factor"):
            FeatureSet("stnet", ["a"], np.array([0]))


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

    def test_report_format(self):
        report = gradcheck()
        text = report.format()
        assert "PASS" in text and "threshold" in text
