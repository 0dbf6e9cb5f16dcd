import logging

import numpy as np
import pytest

from specpool import metric, spdm, trainer
from specpool.config import RunConfig
from specpool.errors import DataError
from specpool.trainer import (FeatureSet, build_triplets, gradcheck,
                              init_params, sgd_step, split_batches,
                              toy_problem, train, triplet_count)

from conftest import assert_rel_close, dense_sgd_step, reference_q


def static_features(rng, n_per_class, n_classes, dim):
    n = n_per_class * n_classes
    labels = np.repeat(np.arange(n_classes), n_per_class)
    x = rng.normal(size=(n, dim)) + labels[:, None] * 3.0
    ids = [f"s{i:02d}" for i in range(n)]
    return FeatureSet(ids, labels, static=list(x))


def static_rows(feats):
    return np.stack(feats.static)


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
        # the remainder of 2 joins the last full batch
        assert [len(b) for b in batches] == [3, 5]
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
        # once per training run, not once per epoch
        labels = np.array([0, 0, 1])
        rows = np.random.default_rng(5).normal(size=(3, 4))
        feats = FeatureSet(["a", "b", "c"], labels, static=list(rows))
        cfg = RunConfig(task="retrieval", batch_size=4, learning_rate=0.05,
                        margin=1.0, eta=0.1, epochs=3, d_m=2)
        with caplog.at_level(logging.WARNING, logger="specpool"):
            _, log, _ = train(cfg, feats)
        assert len(log) == 3
        assert sum("single member" in r.getMessage()
                   for r in caplog.records) == 1
        trips = np.concatenate(build_triplets(labels, 4, seed=0, epoch=0))
        assert set(trips[:, 0].tolist()) <= {0, 1}

    def test_errors(self):
        with pytest.raises(DataError, match="two classes"):
            build_triplets(np.array([0, 0, 0]), 2, 0, 0)
        with pytest.raises(DataError, match="two members"):
            build_triplets(np.array([0, 1, 2]), 2, 0, 0)


class TestSplitBatches:
    @pytest.mark.parametrize("n, size, lengths", [
        (8, 3, [3, 5]), (10, 5, [5, 5]), (14, 5, [5, 9]), (3, 5, [3]),
        (16, 15, [16]), (64, 15, [15, 15, 15, 19]), (2, 1, [1, 1])])
    def test_remainder_joins_last_full_batch(self, n, size, lengths):
        batches = split_batches(np.arange(n), size)
        assert [len(b) for b in batches] == lengths
        assert np.array_equal(np.concatenate(batches), np.arange(n))

    def test_classification_epochs_share_the_rule(self):
        # a 1-shape remainder of 16 shapes at batch 15 would step as far
        # as a full batch
        feats = static_features(np.random.default_rng(0), 4, 4, 3)
        for size, lengths in ((15, [16]), (5, [5, 5, 6])):
            cfg = classification_config(batch_size=size)
            batches = trainer._epoch_batches(feats, cfg, epoch=0)
            assert [len(b) for b in batches] == lengths
            assert sorted(np.concatenate(batches)) == list(range(16))


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
        factored = {"omega": np.zeros(3),
                    "W": metric.FactoredGrad(np.array([[np.nan, 0.0]]),
                                             np.array([[1.0, 0.0]]))}
        with pytest.raises(DataError, match="W"):
            sgd_step(params, factored, 1.0)
        assert np.array_equal(params["W"], np.zeros((2, 2)))

    @staticmethod
    def factored_grad(rng, batch, d_m, dim):
        x = rng.normal(size=(batch, dim))
        x /= np.linalg.norm(x, axis=1)[:, None]
        return metric.FactoredGrad(rng.normal(size=(batch, d_m)), x)

    @pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
    def test_factored_step_updates_w_in_place(self, layout):
        rng = np.random.default_rng(9)
        w = {"c": rng.normal(size=(4, 30)),
             "fortran": np.asfortranarray(rng.normal(size=(4, 30))),
             "strided": rng.normal(size=(4, 60))[:, ::2]}[layout]
        grad = self.factored_grad(rng, 3, 4, 30)
        expected = w - 0.5 * (grad.left.T @ grad.right)
        params = {"W": w}
        sgd_step(params, {"W": grad}, 0.5)
        assert params["W"] is w
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("batch", [1, 3, 8, 15])
    def test_factored_step_matches_dense_update(self, batch):
        # two full column blocks of the update and a partial third
        dim = 2 * trainer.UPDATE_COLUMNS + 7
        rng = np.random.default_rng(batch)
        w = rng.normal(size=(32, dim))
        grad = self.factored_grad(rng, batch, 32, dim)
        expected = w - 0.3 * ((grad.left / batch).T @ grad.right)
        grad.left[...] /= batch
        params = sgd_step({"W": w}, {"W": grad}, 0.3)
        err = np.linalg.norm(params["W"] - expected)
        assert err <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize("factor", ["left", "right"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_factor_names_block(self, factor, bad):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(4, 30))
        before = w.copy()
        grad = self.factored_grad(rng, 3, 4, 30)
        getattr(grad, factor)[1, 2] = bad
        with pytest.raises(DataError, match="W"):
            sgd_step({"W": w}, {"W": grad}, 0.5)
        assert np.array_equal(w, before)


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
        expected = init["W"] - 0.1 * (dW.left.T @ dW.right) / len(trips)
        np.testing.assert_allclose(blocks["W"], expected, atol=1e-12)

    @pytest.mark.parametrize("task", ["retrieval", "classification"])
    def test_matches_dense_sgd_reference(self, task, monkeypatch):
        feats = toy_problem()
        cfg = self.small_config(task=task, epochs=3, learning_rate=0.05,
                                batch_size=6)
        blocks, log, _ = train(cfg, feats)
        with monkeypatch.context() as m:
            m.setattr(trainer, "sgd_step", dense_sgd_step)
            ref, ref_log, _ = train(cfg, feats)
        assert set(blocks) == set(ref)
        assert len(log) == len(ref_log) == 3
        for name in ref:
            err = np.linalg.norm(blocks[name] - ref[name])
            assert err <= 1e-12 * np.linalg.norm(ref[name]), name

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


class TestDeadEpochWarning:
    def patch_init(self, monkeypatch, edit):
        real = trainer.init_params

        def init(config, features, n_classes=None):
            blocks = real(config, features, n_classes)
            edit(blocks)
            return blocks

        monkeypatch.setattr(trainer, "init_params", init)

    def test_saturated_head_warns_and_keeps_outputs(self, monkeypatch,
                                                    caplog):
        # W = 0 puts every embedding at the origin: each triplet charges
        # margin^2, and the distance subgradient at coincident points is
        # taken as 0, so every gradient is exactly 0 at a loss above 0
        feats = static_features(np.random.default_rng(9), 3, 2, 5)
        cfg = RunConfig(task="retrieval", epochs=3, d_m=4, batch_size=4,
                        seed=0)
        self.patch_init(monkeypatch, lambda b: b["W"].fill(0.0))
        init = trainer.init_params(cfg, feats)
        with caplog.at_level(logging.WARNING, logger="specpool"):
            blocks, log, _ = train(cfg, feats)
        dead = [r.getMessage() for r in caplog.records
                if "every gradient is exactly 0" in r.getMessage()]
        assert len(dead) == 3 and dead[0].startswith("epoch 0:")
        assert all(loss == cfg.margin ** 2 for _, loss, _ in log)
        # the warning only reports: the parameters stay where they began
        for name in init:
            assert np.array_equal(blocks[name], init[name]), name

    def test_saturated_classification_head_moves(self, monkeypatch,
                                                 caplog):
        # a bias that gives class 0 every probability saturates the
        # softmax; the log-likelihood still has a gradient there
        feats = static_features(np.random.default_rng(9), 3, 2, 5)
        cfg = classification_config(epochs=3, d_m=4, batch_size=4, seed=0)

        def saturate(blocks):
            blocks["bias"][0] = 1e3

        self.patch_init(monkeypatch, saturate)
        with caplog.at_level(logging.WARNING, logger="specpool"):
            blocks, log, _ = train(cfg, feats)
        assert not any("every gradient is exactly 0" in r.getMessage()
                       for r in caplog.records)
        assert blocks["bias"][0] < 1e3 - 1.0
        assert log[-1][1] < log[0][1]

    def test_live_run_does_not_warn(self, caplog):
        feats = static_features(np.random.default_rng(9), 3, 2, 5)
        cfg = classification_config(epochs=3, d_m=4, batch_size=4, seed=0)
        with caplog.at_level(logging.WARNING, logger="specpool"):
            train(cfg, feats)
        assert not any("every gradient is exactly 0" in r.getMessage()
                       for r in caplog.records)


class TestFeatureSet:
    def test_static_rows(self):
        x = np.arange(12.0).reshape(4, 3)
        feats = FeatureSet([f"i{k}" for k in range(4)],
                           np.array([0, 0, 1, 1]), static=list(x))
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
        assert_rel_close(rows[0], reference_q(feats, 1) @ gamma)
        assert_rel_close(rows[1], reference_q(feats, 3) @ gamma)
        omega = init_params(RunConfig(d_m=2), feats)["omega"]
        assert np.array_equal(omega, np.zeros(11))

    def test_pull_gamma_grad_matches_direct(self):
        feats = toy_problem(n_shapes=4)
        rng = np.random.default_rng(8)
        dx = rng.normal(size=(2, feats.dim))
        idx = np.array([0, 2])
        out = feats.pull_gamma_grad(idx, dx)
        ref = reference_q(feats, 0).T @ dx[0] + reference_q(feats, 2).T @ dx[1]
        assert_rel_close(out, ref)

    def test_validation(self):
        with pytest.raises(DataError, match="one factor per shape"):
            FeatureSet(["a", "b"], np.array([0, 1]), static=[np.ones(2)])
        with pytest.raises(DataError, match="one factor per shape"):
            FeatureSet([], np.array([]), static=[])
        with pytest.raises(DataError, match="static rows or spectra"):
            FeatureSet(["a"], np.array([0]))


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

    def test_reports_the_q_reference(self, monkeypatch):
        report = gradcheck()
        assert report.reference_error <= trainer.REFERENCE_THRESHOLD
        assert "vs the Q factor" in report.format()
        # a row that drifts from Q @ gamma by 1e-9 fails the check alone
        rows = FeatureSet.rows
        monkeypatch.setattr(FeatureSet, "rows", lambda self, idx, gamma:
                            rows(self, idx, gamma) * (1.0 + 1e-9))
        report = gradcheck()
        assert all(e < 1e-5 for e in report.block_errors.values())
        assert report.reference_error > trainer.REFERENCE_THRESHOLD
        assert not report.passed

    def test_toy_problem_keeps_the_rank_of_deficient_shapes(self):
        # shapes 0 and 1 have rank dim - 3: their alpha > 0 columns are built
        # from those eigenpairs alone, not from round-off eigenvalues raised
        # to a small power
        dim = 12
        features = toy_problem(dim=dim)
        for i in range(features.n_shapes):
            q = reference_q(features, i)
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
