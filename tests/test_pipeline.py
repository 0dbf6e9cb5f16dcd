import numpy as np
import pytest

from specpool import pipeline, spdm, storage
from specpool.config import RunConfig
from specpool.errors import DataError
from specpool.pipeline import (ABLATIONS, TRAINED_ABLATIONS, build_features,
                               classification_eval, embeddings,
                               extract_manifest, extract_shape, feature_mode,
                               retrieval_eval, train_run)
from specpool.shape_io import ManifestEntry
from specpool.synth import SynthSpec, generate


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    manifest = generate(SynthSpec(classes=("sphere", "torus"),
                                  instances_per_class=4, resolution=150,
                                  seed=7), root)
    return manifest


def run_config(**kw):
    base = dict(k_eig=20, d_m=8, epochs=4, batch_size=8, learning_rate=0.05,
                margin=1.0, eta=0.1, early_stop_patience=100)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def records(bench):
    recs, failures = extract_manifest(bench, run_config(), cache=None)
    assert not failures
    return recs


class TestExtraction:
    def test_record_contents(self, bench, records):
        rec = records["sphere_000"]
        assert rec.label == 0
        d = 150  # sihks (50) + wks (100)
        assert rec.o1.shape == (d,)
        assert rec.H.shape == (d, d)
        assert np.array_equal(rec.H, rec.H.T)
        assert abs(np.linalg.norm(rec.lam) - 1.0) < 1e-12
        assert np.max(np.abs(rec.U.T @ rec.U - np.eye(d))) < 1e-8

    def test_cache_round_trip(self, bench, tmp_path):
        storage.reset_counters()
        cache = storage.ShapeCache(tmp_path)
        run = run_config()
        entry = bench.entries[0]
        a = extract_shape(entry, bench, run, cache)
        stores = storage.counters["stores"]
        assert stores == 4  # spectrum, descriptor, pooled, eig
        b = extract_shape(entry, bench, run, cache)
        assert storage.counters["stores"] == stores
        assert storage.counters["misses"] == 4
        assert np.array_equal(a.H, b.H)
        assert np.array_equal(a.U, b.U)

    def test_spectral_records_shared_across_seeds(self, bench, tmp_path):
        cache = storage.ShapeCache(tmp_path)
        entry = bench.entries[0]
        extract_shape(entry, bench, run_config(seed=0), cache)
        storage.reset_counters()
        extract_shape(entry, bench, run_config(seed=1), cache)
        assert storage.counters["misses"] == 0

    def test_lsf_records_keyed_by_seed(self, bench, tmp_path):
        cache = storage.ShapeCache(tmp_path)
        entry = bench.entries[0]
        run = run_config(descriptor="lsf", n_points=200)
        extract_shape(entry, bench, run, cache)
        storage.reset_counters()
        extract_shape(entry, bench, run_config(descriptor="lsf",
                                               n_points=200, seed=1), cache)
        assert storage.counters["misses"] > 0

    @pytest.mark.parametrize("descriptor,upstream", [
        ("sihks_wks", "spectrum"), ("lsf", "cloud")])
    def test_warm_read_opens_only_pooled_and_eig(self, bench, tmp_path,
                                                 descriptor, upstream):
        cache = storage.ShapeCache(tmp_path)
        entry = bench.entries[0]
        run = run_config(descriptor=descriptor, n_points=200)
        cold = extract_shape(entry, bench, run, cache)
        for stage in (upstream, "descriptor"):
            (record,) = tmp_path.glob(f"{entry.shape_id}.{stage}.*.npz")
            record.unlink()
        storage.reset_counters()
        warm = extract_shape(entry, bench, run, cache)
        assert (storage.counters["hits"], storage.counters["misses"]) \
            == (2, 0)
        for name in ("H", "U", "lam"):
            assert np.array_equal(getattr(warm, name), getattr(cold, name))

    @pytest.mark.parametrize("stage,misses", [
        ("spectrum", 4), ("descriptor", 3), ("pooled", 2), ("eig", 1)])
    def test_code_version_bump_misses(self, bench, tmp_path, monkeypatch,
                                      stage, misses):
        # a stage's records, and those computed from them, miss
        cache = storage.ShapeCache(tmp_path)
        entry = bench.entries[0]
        extract_shape(entry, bench, run_config(), cache)
        monkeypatch.setitem(pipeline.CODE_VERSIONS, stage,
                            pipeline.CODE_VERSIONS[stage] + 1)
        storage.reset_counters()
        extract_shape(entry, bench, run_config(), cache)
        assert storage.counters["misses"] == misses

    def test_lsf_record_shape(self, bench):
        entry = bench.entries[0]
        rec = extract_shape(entry, bench,
                            run_config(descriptor="lsf", n_points=200),
                            cache=None)
        assert rec.H.shape == (625, 625)

    def test_failures_collected(self, bench, tmp_path, caplog):
        broken = tmp_path / "broken.off"
        broken.write_text("OFF\n4 2 0\n0 0 0\n")
        entries = [bench.entries[0],
                   ManifestEntry("broken", str(broken), 1, "train")]
        recs, failures = extract_manifest(bench, run_config(), None,
                                          entries=entries)
        assert set(recs) == {bench.entries[0].shape_id}
        assert len(failures) == 1 and failures[0][0] == "broken"


class TestFeatureModes:
    def test_mapping(self):
        assert feature_mode() == "stnet"
        assert feature_mode("st_net") == "stnet"
        assert feature_mode("surf_o1") == "o1"
        assert feature_mode("surf_o1_ml") == "o1"
        assert feature_mode("surf_o2") == "o2"
        assert feature_mode("surf_o2_ml") == "o2"
        assert feature_mode(transform="log_max") == "fixed:log_max"

    def test_transform_excludes_ablation(self):
        with pytest.raises(DataError, match="not both"):
            feature_mode("surf_o2", "log_max")
        assert feature_mode("st_net", "half_power") == "fixed:half_power"

    def test_unknown_ablation(self):
        with pytest.raises(DataError, match="unknown ablation"):
            feature_mode("surf_o3")

    def test_ablation_tuples(self):
        assert set(TRAINED_ABLATIONS) < set(ABLATIONS)


class TestBuildFeatures:
    def test_modes(self, bench, records):
        run = run_config()
        entries = bench.entries
        o1 = build_features(records, entries, "o1", run)
        assert o1.x.shape == (8, 150)
        assert np.array_equal(o1.x[0], records[entries[0].shape_id].o1)

        o2 = build_features(records, entries, "o2", run)
        assert o2.x.shape == (8, 150 * 151 // 2)
        assert np.array_equal(
            o2.x[0], spdm.g_vec(records[entries[0].shape_id].H))

        fixed = build_features(records, entries, "fixed:half_power", run)
        ref = spdm.fixed_transform(records[entries[0].shape_id].H,
                                   "half_power")
        np.testing.assert_allclose(fixed.x[0], ref, atol=1e-12)

        st = build_features(records, entries, "stnet", run)
        assert len(st.qmats) == 8
        assert st.qmats[0].shape == (150 * 151 // 2, run.n_mix + 1)

    def test_missing_record(self, bench, records):
        partial = {k: v for k, v in records.items() if k != "torus_001"}
        with pytest.raises(DataError, match="torus_001"):
            build_features(partial, bench.entries, "o1", run_config())

    def test_bad_mode(self, bench, records):
        with pytest.raises(DataError, match="feature mode"):
            build_features(records, bench.entries, "o3", run_config())


class TestEmbeddings:
    def test_baseline_rows_unit_norm(self, bench, records):
        feats = build_features(records, bench.entries, "o2", run_config())
        vecs = embeddings(feats)
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0,
                                   atol=1e-12)

    def test_stnet_baseline_uses_uniform_mixture(self, bench, records):
        run = run_config()
        feats = build_features(records, bench.entries, "stnet", run)
        vecs = embeddings(feats)
        gamma = np.full(run.n_mix + 1, 1.0 / (run.n_mix + 1))
        row = feats.qmats[0] @ gamma
        np.testing.assert_allclose(vecs[0], row / np.linalg.norm(row),
                                   rtol=1e-12)

    def test_trained_blocks_apply_head(self, bench, records):
        run = run_config()
        feats = build_features(records, bench.entries, "o1", run)
        blocks, _, _ = train_run(run, feats)
        vecs = embeddings(feats, blocks)
        assert vecs.shape == (8, run.d_m)


class TestEndToEnd:
    def test_retrieval(self, bench, records):
        run = run_config(epochs=10)
        feats = build_features(records, bench.entries, "stnet", run)
        blocks, log, _ = train_run(run, feats)
        report, lists = retrieval_eval(feats, blocks)
        assert report.n_queries == 8
        assert len(lists) == 8
        assert report.nn >= 0.5
        assert log[-1][1] <= log[0][1]

    def test_baseline_eval_needs_no_blocks(self, bench, records):
        feats = build_features(records, bench.entries, "o2", run_config())
        report, _ = retrieval_eval(feats)
        assert 0.0 <= report.nn <= 1.0

    def test_classification(self, bench, records):
        run = run_config(task="classification", epochs=30,
                         learning_rate=0.5, batch_size=4)
        feats = build_features(records, bench.entries, "stnet", run)
        blocks, _, _ = train_run(run, feats)
        preds, acc, probs = classification_eval(feats, blocks)
        assert preds.shape == (8,)
        assert probs.shape == (8, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert acc >= 0.75
