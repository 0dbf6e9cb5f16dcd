import numpy as np
import pytest

from specpool import pipeline, spdm, storage, trainer
from specpool.config import RunConfig
from specpool.errors import DataError
from specpool.pipeline import (ABLATIONS, TRAINED_ABLATIONS, build_features,
                               classification_eval, embeddings,
                               extract_manifest, extract_shape, feature_mode,
                               retrieval_eval)
from specpool.shape_io import ManifestEntry, TriMesh, load_mesh, save_mesh
from specpool.synth import SynthSpec, generate, icosphere
from specpool.trainer import train

from conftest import assert_rel_close, reference_q


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


def copied_entry(bench, tmp_path):
    """The first shape, with its mesh file copied to a path of its own."""
    entry = bench.entries[0]
    path = tmp_path / "mesh" / bench.full_path(entry).name
    path.parent.mkdir()
    path.write_bytes(bench.full_path(entry).read_bytes())
    return ManifestEntry(entry.shape_id, str(path), entry.label,
                         entry.split), path


def no_parse(path):
    raise AssertionError(f"parsed {path}")


class TestExtraction:
    def test_record_contents(self, bench, records):
        rec = records["sphere_000"]
        assert rec.label == 0
        d = 150  # sihks (50) + wks (100)
        assert rec.o1.shape == (d,)
        assert rec.H.shape == (d, d)
        assert np.array_equal(rec.H, rec.H.T)
        assert abs(np.linalg.norm(rec.lam) - 1.0) < 1e-12
        # only the eigenpairs above the round-off threshold are kept
        r = len(rec.lam)
        assert 1 <= r < d and rec.U.shape == (d, r)
        assert np.all(rec.lam > spdm.ZERO_EIGENVALUE_TOL)
        assert np.max(np.abs(rec.U.T @ rec.U - np.eye(r))) < 1e-8
        assert np.allclose((rec.U * rec.lam) @ rec.U.T,
                           rec.H / np.linalg.norm(np.linalg.eigvalsh(rec.H)),
                           rtol=0, atol=1e-10)

    def test_cache_round_trip(self, bench, tmp_path):
        storage.reset_counters()
        cache = storage.ShapeCache(tmp_path)
        run = run_config()
        entry = bench.entries[0]
        a = extract_shape(entry, bench, run, cache)
        # spectrum, descriptor, pooled, eig
        assert storage.counters == {"hits": 0, "misses": 4}
        b = extract_shape(entry, bench, run, cache)
        # a warm read opens only the pooled and eig records
        assert storage.counters == {"hits": 2, "misses": 4}
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
                                                 monkeypatch, descriptor,
                                                 upstream):
        cache = storage.ShapeCache(tmp_path)
        entry = bench.entries[0]
        run = run_config(descriptor=descriptor, n_points=200)
        cold = extract_shape(entry, bench, run, cache)
        for stage in (upstream, "descriptor"):
            (record,) = tmp_path.glob(f"{entry.shape_id}.{stage}.*.npz")
            record.unlink()
        storage.reset_counters()
        with monkeypatch.context() as m:
            m.setattr(pipeline, "load_mesh", no_parse)
            warm = extract_shape(entry, bench, run, cache)
        assert (storage.counters["hits"], storage.counters["misses"]) \
            == (2, 0)
        for name in ("H", "U", "lam"):
            assert np.array_equal(getattr(warm, name), getattr(cold, name))

    def test_rewritten_file_is_never_served_stale(self, bench, tmp_path):
        cache = storage.ShapeCache(tmp_path / "cache")
        entry, path = copied_entry(bench, tmp_path)
        before = extract_shape(entry, bench, run_config(), cache)
        mesh = load_mesh(path)
        save_mesh(path, TriMesh(mesh.vertices * [1.3, 1.0, 1.0], mesh.faces))
        storage.reset_counters()
        after = extract_shape(entry, bench, run_config(), cache)
        assert storage.counters["misses"] == 4
        assert not np.array_equal(after.H, before.H)

    def test_resaved_geometry_misses_once_with_equal_records(self, bench,
                                                             tmp_path):
        cache = storage.ShapeCache(tmp_path / "cache")
        entry, path = copied_entry(bench, tmp_path)
        extract_shape(entry, bench, run_config(), cache)
        path.write_text(path.read_text() + "# re-saved\n")
        storage.reset_counters()
        extract_shape(entry, bench, run_config(), cache)
        extract_shape(entry, bench, run_config(), cache)
        assert (storage.counters["misses"], storage.counters["hits"]) \
            == (4, 2)
        for stage in ("spectrum", "descriptor", "pooled", "eig"):
            old, new = (p.read_bytes() for p in (tmp_path / "cache").glob(
                f"{entry.shape_id}.{stage}.*.npz"))
            assert old == new

    @pytest.mark.parametrize("stage,misses", [
        ("mesh", 4), ("spectrum", 4), ("descriptor", 3), ("pooled", 2),
        ("eig", 1)])
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

    @pytest.mark.parametrize("k_eig", [2, 4])
    def test_hks_needs_two_distinct_eigenvalues(self, bench, tmp_path,
                                                k_eig):
        # a level-2 icosphere: lambda_1 = lambda_2 = lambda_3 to round-off
        path = tmp_path / "ico.off"
        save_mesh(path, TriMesh(*icosphere(2)))
        entry = ManifestEntry("ico", str(path), 0, "train")
        run = run_config(descriptor="hks", k_eig=k_eig)
        with pytest.raises(DataError, match=r"HKS needs two distinct "
                           r"positive eigenvalues among the k_eig = "
                           rf"{k_eig} retained modes"):
            extract_shape(entry, bench, run, cache=None)
        rec = extract_shape(entry, bench, run_config(descriptor="hks",
                                                     k_eig=k_eig + 3),
                            cache=None)
        assert np.all(np.isfinite(rec.H))

    def test_failures_collected(self, bench, tmp_path, caplog):
        broken = tmp_path / "broken.off"
        broken.write_text("OFF\n4 2 0\n0 0 0\n")
        entries = [bench.entries[0],
                   ManifestEntry("broken", str(broken), 1, "train")]
        recs, failures = extract_manifest(bench, run_config(), None,
                                          entries=entries)
        assert set(recs) == {bench.entries[0].shape_id}
        assert len(failures) == 1 and failures[0][0] == "broken"

    def test_non_utf8_file_is_a_per_shape_failure(self, bench, tmp_path):
        entry, path = copied_entry(bench, tmp_path)
        path.write_bytes(path.read_bytes() + b"# \xff\xfe\n")
        entries = [entry, bench.entries[1]]
        recs, failures = extract_manifest(bench, run_config(), None,
                                          entries=entries)
        assert set(recs) == {bench.entries[1].shape_id}
        assert [f[0] for f in failures] == [entry.shape_id]
        assert "is not UTF-8" in failures[0][1]

    @pytest.mark.parametrize("name,message", [
        ("absent.off", "cannot read file"),
        ("absent.stl", "unsupported mesh extension")])
    def test_unreadable_file_fails_alike_with_and_without_cache(
            self, bench, tmp_path, name, message):
        entries = [ManifestEntry("absent", str(tmp_path / name), 0, "train")]
        failures = [extract_manifest(bench, run_config(), cache,
                                     entries=entries)[1]
                    for cache in (None, storage.ShapeCache(tmp_path / "c"))]
        assert failures[0] == failures[1]
        assert message in failures[0][0][1]


class TestLapackIndependence:
    """Rows no longer depend on how an eigensolver resolves round-off."""

    @pytest.mark.parametrize("descriptor, rtol", [("lsf", 1e-8),
                                                  ("sihks_wks", 1e-4)])
    def test_numpy_and_scipy_eigh_rows_agree(self, bench, tmp_path,
                                              monkeypatch, descriptor, rtol):
        cache = storage.ShapeCache(tmp_path)
        run = run_config(descriptor=descriptor)
        entry = bench.entries[-1]
        recs = [extract_shape(entry, bench, run, cache)]
        # recompute only the eig stage, with NumPy's eigh in eig_sym
        monkeypatch.setitem(pipeline.CODE_VERSIONS, "eig",
                            pipeline.CODE_VERSIONS["eig"] + 1)
        monkeypatch.setattr(spdm.scipy.linalg, "eigh", np.linalg.eigh)
        recs.append(extract_shape(entry, bench, run, cache))
        assert np.array_equal(recs[0].H, recs[1].H)
        alphas = spdm.power_grid(run.n_mix)
        uniform = np.full(run.n_mix + 1, 1.0 / (run.n_mix + 1))
        alpha_01 = np.eye(run.n_mix + 1)[1]
        for gamma in (uniform, alpha_01):
            a, b = (spdm.mpf_q_matrix(r.U, r.lam[:, None] ** alphas[None, :])
                    @ gamma for r in recs)
            assert np.linalg.norm(a - b) <= rtol * np.linalg.norm(a)


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


def static_rows(feats):
    return np.stack(feats.static)


class TestBuildFeatures:
    def test_modes(self, bench, records):
        run = run_config()
        entries = bench.entries
        recs = [records[e.shape_id] for e in entries]
        o1 = build_features(records, entries, "o1", run)
        assert (o1.n_shapes, o1.dim, o1.n_weights) == (8, 150, 1)
        assert np.array_equal(static_rows(o1), np.stack([r.o1 for r in recs]))

        o2 = build_features(records, entries, "o2", run)
        assert (o2.n_shapes, o2.dim, o2.n_weights) == (8, 150 * 151 // 2, 1)
        assert np.array_equal(static_rows(o2),
                              np.stack([spdm.g_vec(r.H) for r in recs]))

        fixed = build_features(records, entries, "fixed:half_power", run)
        assert np.array_equal(
            static_rows(fixed),
            np.stack([spdm.fixed_transform(r.H, "half_power", run.log_eps)
                      for r in recs]))

        st = build_features(records, entries, "stnet", run)
        assert (st.n_shapes, st.dim, st.n_weights) == \
            (8, 150 * 151 // 2, run.n_mix + 1)
        # each shape keeps its eig record's U_r, and its rows agree with
        # the Q factor of (U_r, lam_r**alpha)
        assert st.spectra[3][0] is recs[3].U
        alphas = spdm.power_grid(run.n_mix)
        q = spdm.mpf_q_matrix(recs[3].U,
                              recs[3].lam[:, None] ** alphas[None, :])
        gamma = spdm.softmax(np.linspace(-1.0, 1.0, run.n_mix + 1))
        assert_rel_close(st.rows([3], gamma)[0], q @ gamma)

    def test_missing_record(self, bench, records):
        partial = {k: v for k, v in records.items() if k != "torus_001"}
        with pytest.raises(DataError, match="torus_001"):
            build_features(partial, bench.entries, "o1", run_config())

    def test_bad_mode(self, bench, records):
        with pytest.raises(DataError, match="feature mode"):
            build_features(records, bench.entries, "o3", run_config())


@pytest.fixture(scope="module")
def lsf_record(bench):
    rec = extract_shape(bench.entries[-1], bench,
                        run_config(descriptor="lsf"), cache=None)
    assert rec.H.shape == (625, 625)
    return rec


def spectrum_of_rank(rec, rank):
    """(U, lam): the record's top eigenpair, its own r eigenpairs, or all
    d normalized eigenpairs of H (the round-off ones included)."""
    if rank == "d":
        return spdm.normalized_spectrum(rec.H)
    if rank == 1:
        return rec.U[:, :1], rec.lam[:1]
    return rec.U, rec.lam


class TestFactoredTransform:
    """The stnet rows and gamma-gradients against ``spdm.mpf_q_matrix``'s Q
    built from (U, lam**alpha): the same map summed in another order."""

    @pytest.mark.parametrize("rank", [1, "r", "d"])
    @pytest.mark.parametrize("descriptor", ["sihks_wks", "lsf"])
    def test_rows_and_gradients_match_q(self, records, lsf_record,
                                        descriptor, rank):
        run = run_config()
        rec = lsf_record if descriptor == "lsf" else records["torus_001"]
        U, lam = spectrum_of_rank(rec, rank)
        feats = trainer.FeatureSet(
            ["s"], np.array([0]),
            spectra=[(U, spdm.shifted_powers(lam, run.n_mix))])
        alphas = spdm.power_grid(run.n_mix)
        q = spdm.mpf_q_matrix(U, lam[:, None] ** alphas[None, :])
        m = run.n_mix + 1
        rng = np.random.default_rng(21)
        gammas = {"uniform": np.full(m, 1.0 / m), "alpha_0": np.eye(m)[0],
                  "alpha_1": np.eye(m)[1],
                  "softmax": spdm.softmax(rng.normal(size=m))}
        for name, gamma in gammas.items():
            assert_rel_close(feats.rows([0], gamma)[0], q @ gamma)
        dx = rng.normal(size=(1, feats.dim))
        assert_rel_close(feats.pull_gamma_grad([0], dx), q.T @ dx[0])


class TestEmbeddings:
    def test_baseline_rows_unit_norm(self, bench, records):
        feats = build_features(records, bench.entries, "o2", run_config())
        vecs = embeddings(feats)
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0,
                                   atol=1e-12)
        rows = np.stack([spdm.g_vec(records[e.shape_id].H)
                         for e in bench.entries])
        norms = np.linalg.norm(rows, axis=1)
        assert np.array_equal(vecs, rows / norms[:, None])

    def test_stnet_baseline_uses_uniform_mixture(self, bench, records):
        run = run_config()
        feats = build_features(records, bench.entries, "stnet", run)
        vecs = embeddings(feats)
        gamma = np.full(run.n_mix + 1, 1.0 / (run.n_mix + 1))
        rows = np.stack([reference_q(feats, i) @ gamma
                         for i in range(feats.n_shapes)])
        norms = np.linalg.norm(rows, axis=1)
        assert_rel_close(vecs, rows / norms[:, None])

    def test_trained_blocks_apply_head(self, bench, records):
        run = run_config()
        feats = build_features(records, bench.entries, "o1", run)
        blocks, _, _ = train(run, feats)
        vecs = embeddings(feats, blocks)
        assert vecs.shape == (8, run.d_m)


class TestEndToEnd:
    def test_retrieval(self, bench, records):
        run = run_config(epochs=10)
        feats = build_features(records, bench.entries, "stnet", run)
        blocks, log, _ = train(run, feats)
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
        blocks, _, _ = train(run, feats)
        preds, acc, probs = classification_eval(feats, blocks)
        assert preds.shape == (8,)
        assert probs.shape == (8, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert acc >= 0.75
