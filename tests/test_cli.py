import shutil
from pathlib import Path

import numpy as np
import pytest

from specpool import metric, spdm, synth
from specpool.cli import main
from specpool.shape_io import (DatasetManifest, ManifestEntry, TriMesh,
                               load_manifest, load_mesh, save_manifest,
                               save_mesh)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny benchmark with a config file, mesh data and a warm cache."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--classes", "sphere,torus", "--instances", "4",
                 "--resolution", "150", "--seed", "7",
                 "--out", str(data)]) == 0
    cfg = root / "run.cfg"
    cfg.write_text("k_eig = 20\nd_m = 8\nepochs = 3\nbatch_size = 8\n"
                   "learning_rate = 0.05\nmargin = 1.0\neta = 0.1\n")
    assert main(["make-splits", "--manifest", str(data / "manifest.tsv"),
                 "--scheme", "fraction:0.5", "--seed", "0",
                 "--out", str(root / "splits")]) == 0
    return {"root": root, "data": data, "cfg": cfg,
            "split": root / "splits" / "split.tsv",
            "cache": root / "cache"}


def run_cli(workspace, *argv):
    return main([a.format(**{k: str(v) for k, v in workspace.items()})
                 if "{" in a else a for a in argv])


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["gradcheck", "--bogus"]) == 1

    def test_bad_config_file(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("epochs = soon\n")
        rc = main(["extract", "--manifest",
                   str(workspace["data"] / "manifest.tsv"),
                   "--config", str(bad), "--cache", str(tmp_path / "c")])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        rc = main(["extract", "--manifest", str(tmp_path / "nope.tsv"),
                   "--cache", str(tmp_path / "c")])
        assert rc == 3


class TestSynthAndSplits:
    def test_synth_output(self, workspace):
        files = sorted(p.name for p in workspace["data"].iterdir())
        assert "manifest.tsv" in files
        assert sum(f.endswith(".off") for f in files) == 8

    def test_split_paths_resolve(self, workspace):
        manifest = load_manifest(workspace["split"])
        train = manifest.subset("train")
        test = manifest.subset("test")
        assert len(train) == 4 and len(test) == 4
        mesh = load_mesh(manifest.full_path(train[0]))
        assert len(mesh.vertices) > 0

    def test_kfold_writes_folds(self, workspace, tmp_path):
        rc = main(["make-splits", "--manifest",
                   str(workspace["data"] / "manifest.tsv"),
                   "--scheme", "kfold:4", "--out", str(tmp_path)])
        assert rc == 0
        folds = sorted(p.name for p in tmp_path.iterdir())
        assert folds == [f"fold_{i}.tsv" for i in range(4)]

    def test_unknown_scheme(self, workspace, tmp_path, capsys):
        rc = main(["make-splits", "--manifest",
                   str(workspace["data"] / "manifest.tsv"),
                   "--scheme", "random:0.5", "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown scheme" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["fraction:x", "kfold:", "kfold:1.5",
                                        "disjoint:abc", "fraction:1.5",
                                        "fraction:0", "fraction:nan",
                                        "disjoint:0", "disjoint:1", "kfold:1",
                                        "kfold:-2"])
    def test_malformed_parameter(self, workspace, tmp_path, capsys, scheme):
        rc = main(["make-splits", "--manifest",
                   str(workspace["data"] / "manifest.tsv"),
                   "--scheme", scheme, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad ") and scheme in err
        assert not (tmp_path / "out").exists()

    def test_unsupported_split_leaves_no_output(self, workspace, tmp_path,
                                                capsys):
        # 4 shapes per class cannot make 5 stratified folds
        out = tmp_path / "out"
        rc = main(["make-splits", "--manifest",
                   str(workspace["data"] / "manifest.tsv"),
                   "--scheme", "kfold:5", "--out", str(out)])
        assert rc == 3
        assert "smallest class size" in capsys.readouterr().err
        assert not out.exists()


class TestExtract:
    def test_requires_cache(self, workspace, monkeypatch, capsys):
        monkeypatch.delenv("SPECPOOL_CACHE", raising=False)
        rc = main(["extract", "--manifest", str(workspace["split"]),
                   "--config", str(workspace["cfg"])])
        assert rc == 1
        assert "--cache" in capsys.readouterr().err

    def test_extract_then_reuse(self, workspace, capsys):
        args = ["extract", "--manifest", str(workspace["split"]),
                "--config", str(workspace["cfg"]),
                "--cache", str(workspace["cache"])]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "extracted 8 shapes" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 computed" in second

    def test_corrupt_record_recovered(self, workspace, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["extract", "--manifest", str(workspace["split"]),
                "--config", str(workspace["cfg"]), "--cache", str(cache)]
        assert main(args) == 0
        capsys.readouterr()
        # a warm extract reads the pooled and eig records, not the spectrum
        # and descriptor records they were computed from
        victim = next(p for p in cache.iterdir() if ".pooled." in p.name)
        victim.write_bytes(b"junk")
        assert main(args) == 0
        assert ", 1 computed)" in capsys.readouterr().out

    def test_single_mode_is_a_config_error(self, workspace, tmp_path,
                                           capsys):
        # every spectral descriptor needs a mode besides the constant one
        cfg = tmp_path / "hks.cfg"
        cfg.write_text("descriptor = hks\nk_eig = 1\n")
        cache = tmp_path / "cache"
        rc = main(["extract", "--manifest", str(workspace["split"]),
                   "--config", str(cfg), "--cache", str(cache)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "k_eig must be >= 2, got 1" in err
        assert not cache.exists() or not any(cache.iterdir())

    def test_non_utf8_mesh_fails_that_shape(self, workspace, tmp_path,
                                            capsys):
        # each case breaks one shape's file (a non-UTF-8 comment, a PLY face
        # row short of its arity, a NaN coordinate); only that shape fails
        def non_utf8(mesh):
            mesh.write_bytes(mesh.read_bytes() + b"# \xff\xfe\n")
            return mesh

        def short_face_ply(mesh):
            # an OFF body is PLY's; drop the last index of the first face
            lines = mesh.read_text().split("\n")
            nv, nf, _ = lines[1].split()
            lines[2 + int(nv)] = lines[2 + int(nv)].rsplit(" ", 1)[0]
            ply = mesh.with_suffix(".ply")
            ply.write_text("\n".join(
                ["ply", "format ascii 1.0", f"element vertex {nv}",
                 "property double x", "property double y",
                 "property double z", f"element face {nf}",
                 "property list uchar int vertex_indices", "end_header"]
                + lines[2:]))
            return ply

        def nan_off(mesh):
            lines = mesh.read_text().split("\n")
            lines[2] = "nan " + lines[2].split(" ", 1)[1]
            mesh.write_text("\n".join(lines))
            return mesh

        cases = {non_utf8: "not UTF-8", short_face_ply: "bad face line",
                 nan_off: ":3: bad vertex line 'nan "}
        for case, message in cases.items():
            data = tmp_path / case.__name__
            shutil.copytree(workspace["data"], data)
            manifest = load_manifest(data / "manifest.tsv")
            entry = manifest.entries[0]
            broken = case(manifest.full_path(entry))
            manifest.entries[0].relpath = broken.name
            save_manifest(data / "manifest.tsv", manifest)
            rc = main(["extract", "--manifest", str(data / "manifest.tsv"),
                       "--config", str(workspace["cfg"]),
                       "--cache", str(tmp_path / "cache")])
            assert rc == 3
            out, err = capsys.readouterr()
            n = len(manifest.entries)
            assert f"extracted {n - 1} shapes" in out
            assert err.count("FAILED") == 1
            assert f"FAILED {entry.shape_id}: {broken}" in err
            assert message in err and "Traceback" not in err

    def test_overflowing_mesh_fails_that_shape(self, workspace, tmp_path,
                                               capsys):
        verts, faces = synth.icosphere(2)
        entries = []
        for shape_id, scale in (("huge", 1e160), ("unit", 1.0)):
            save_mesh(tmp_path / f"{shape_id}.off",
                      TriMesh(verts * scale, faces))
            entries.append(ManifestEntry(shape_id, f"{shape_id}.off", 0,
                                         "train"))
        save_manifest(tmp_path / "manifest.tsv",
                      DatasetManifest(entries, 1))
        rc = main(["extract", "--manifest", str(tmp_path / "manifest.tsv"),
                   "--config", str(workspace["cfg"]),
                   "--cache", str(tmp_path / "cache")])
        assert rc == 3
        out, err = capsys.readouterr()
        assert "extracted 1 shapes" in out
        assert err.count("FAILED") == 1
        assert "FAILED huge: " in err and "non-finite cotangent" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def trained(workspace):
    out = workspace["root"] / "trained"
    rc = main(["train", "--manifest", str(workspace["split"]),
               "--config", str(workspace["cfg"]),
               "--cache", str(workspace["cache"]),
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    return out


# values that parse as their field's type but lie outside its range; each
# line replaces the base config's line for the same key
OUT_OF_RANGE = ("transform = log_banana", "learning_rate = 0",
                "batch_size = 0", "epochs = 0", "d_m = 0", "n_mix = 0",
                "k_eig = 0", "k_eig = 1", "n_points = 0",
                "neighbor_cap = 0", "t_max_factor = 0",
                "early_stop_patience = 0", "lsf_radius_frac = 0",
                "log_eps = 0", "margin = -1", "eta = -0.5",
                "early_stop_tol = -1e-4")
BASE_CONFIG = {"k_eig": "20", "d_m": "8"}


class TestConfigValues:
    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("line", OUT_OF_RANGE)
    def test_rejected_before_extraction(self, workspace, trained, tmp_path,
                                        capsys, command, line):
        bad = tmp_path / "bad.cfg"
        key, _, value = (part.strip() for part in line.partition("="))
        body = {**BASE_CONFIG, key: value}
        bad.write_text("".join(f"{k} = {v}\n" for k, v in body.items()))
        cache = tmp_path / "cache"
        model = ["--model", str(trained / "model.npz")] \
            if command == "eval" else []
        rc = main([command, "--manifest", str(workspace["split"]),
                   "--config", str(bad), "--cache", str(cache),
                   "--out", str(tmp_path / "out"), *model])
        assert rc == 1
        assert "config error" in capsys.readouterr().err
        assert not cache.exists() or not any(cache.iterdir())

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_bad_transform_flag_rejected_before_extraction(
            self, workspace, trained, tmp_path, capsys, command):
        cache = tmp_path / "cache"
        model = ["--model", str(trained / "model.npz")] \
            if command == "eval" else []
        rc = main([command, "--manifest", str(workspace["split"]),
                   "--config", str(workspace["cfg"]), "--cache", str(cache),
                   "--transform", "log_banana",
                   "--out", str(tmp_path / "out"), *model])
        assert rc == 1
        assert "config error: unknown transform 'log_banana'" \
            in capsys.readouterr().err
        assert not cache.exists() or not any(cache.iterdir())

    def test_checkpoint_every_is_an_unknown_key(self, workspace, tmp_path,
                                                capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(workspace["cfg"].read_text()
                       + "checkpoint_every = 5\n")
        cache = tmp_path / "cache"
        rc = main(["train", "--manifest", str(workspace["split"]),
                   "--config", str(cfg), "--cache", str(cache),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "unknown key 'checkpoint_every'" in capsys.readouterr().err
        assert not cache.exists() or not any(cache.iterdir())

    def test_loss_variant_is_an_unknown_key(self, workspace, tmp_path,
                                            capsys):
        # the classification loss has one form, so nothing selects it
        cfg = tmp_path / "old.cfg"
        lines = workspace["cfg"].read_text() + "loss_variant = bce\n"
        cfg.write_text(lines)
        cache = tmp_path / "cache"
        rc = main(["train", "--manifest", str(workspace["split"]),
                   "--config", str(cfg), "--cache", str(cache),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        lineno = lines.count("\n")
        assert f"old.cfg:{lineno}: unknown key 'loss_variant'" \
            in capsys.readouterr().err
        assert not cache.exists() or not any(cache.iterdir())


class TestTrain:
    def test_outputs(self, trained):
        assert (trained / "model.npz").exists()
        log = (trained / "train_log.tsv").read_text().splitlines()
        assert log[0] == "epoch\tmean_loss\twall_ms"
        assert len(log) == 4  # header + 3 epochs
        blocks, meta = metric.load_model(trained / "model.npz")
        assert set(blocks) == {"omega", "W"}
        assert meta["mode"] == "stnet"
        assert meta["task"] == "retrieval"

    def test_static_ablations_rejected(self, workspace, tmp_path, capsys):
        for ablation in ("surf_o1", "surf_o2"):
            rc = main(["train", "--manifest", str(workspace["split"]),
                       "--config", str(workspace["cfg"]),
                       "--cache", str(workspace["cache"]),
                       "--ablation", ablation, "--out", str(tmp_path)])
            assert rc == 1
            assert "no trainable" in capsys.readouterr().err

    def test_trainable_ablation(self, workspace, tmp_path):
        rc = main(["train", "--manifest", str(workspace["split"]),
                   "--config", str(workspace["cfg"]),
                   "--cache", str(workspace["cache"]),
                   "--ablation", "surf_o1_ml", "--out", str(tmp_path)])
        assert rc == 0
        _, meta = metric.load_model(tmp_path / "model.npz")
        assert meta["mode"] == "o1"


class TestEval:
    def test_stnet_needs_model(self, workspace, tmp_path, capsys):
        rc = main(["eval", "--manifest", str(workspace["split"]),
                   "--config", str(workspace["cfg"]),
                   "--cache", str(workspace["cache"]),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "--model" in capsys.readouterr().err

    def test_trained_model_report(self, workspace, trained, tmp_path,
                                  capsys):
        rc = main(["eval", "--manifest", str(workspace["split"]),
                   "--config", str(workspace["cfg"]),
                   "--cache", str(workspace["cache"]),
                   "--model", str(trained / "model.npz"),
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("method\tNN\t")
        report = (tmp_path / "report.tsv").read_text().splitlines()
        assert report[1].startswith("stnet\t")
        ranked = (tmp_path / "ranked_lists.tsv").read_text().splitlines()
        assert len(ranked) == 4  # one per test shape

    def test_static_baseline_no_model(self, workspace, tmp_path):
        rc = main(["eval", "--manifest", str(workspace["split"]),
                   "--config", str(workspace["cfg"]),
                   "--cache", str(workspace["cache"]),
                   "--ablation", "surf_o2", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "report.tsv").exists()

    def test_fixed_transform_no_model(self, workspace, tmp_path):
        rc = main(["eval", "--manifest", str(workspace["split"]),
                   "--config", str(workspace["cfg"]),
                   "--cache", str(workspace["cache"]),
                   "--transform", "half_power", "--out", str(tmp_path)])
        assert rc == 0
        report = (tmp_path / "report.tsv").read_text()
        assert "fixed:half_power" in report

    def test_transform_flag_wins_over_config(self, workspace, tmp_path):
        cfg = tmp_path / "log.cfg"
        cfg.write_text(workspace["cfg"].read_text()
                       + "transform = log_reg\n")
        rc = main(["eval", "--manifest", str(workspace["split"]),
                   "--config", str(cfg), "--cache", str(workspace["cache"]),
                   "--transform", "half_power", "--out", str(tmp_path)])
        assert rc == 0
        report = (tmp_path / "report.tsv").read_text()
        assert "fixed:half_power" in report and "log_reg" not in report

    def test_mode_mismatch(self, workspace, trained, tmp_path, capsys):
        rc = main(["eval", "--manifest", str(workspace["split"]),
                   "--config", str(workspace["cfg"]),
                   "--cache", str(workspace["cache"]),
                   "--model", str(trained / "model.npz"),
                   "--ablation", "surf_o2_ml", "--out", str(tmp_path)])
        assert rc == 1
        assert "trained for mode" in capsys.readouterr().err


class TestNoQFactor:
    def test_stnet_train_and_eval_build_no_q(self, workspace, tmp_path,
                                             monkeypatch):
        # the learned transform works from (U_r, P0); the dense Q factor
        # is only the gradient checker's reference
        def no_q(*args, **kwargs):
            raise AssertionError("built a dense Q factor")

        monkeypatch.setattr(spdm, "mpf_q_matrix", no_q)
        out = tmp_path / "model"
        assert main(["train", "--manifest", str(workspace["split"]),
                     "--config", str(workspace["cfg"]),
                     "--cache", str(workspace["cache"]),
                     "--ablation", "st_net", "--out", str(out)]) == 0
        assert main(["eval", "--manifest", str(workspace["split"]),
                     "--config", str(workspace["cfg"]),
                     "--cache", str(workspace["cache"]),
                     "--model", str(out / "model.npz"),
                     "--out", str(tmp_path / "eval")]) == 0
        assert (tmp_path / "eval" / "report.tsv").read_text() \
            .splitlines()[1].startswith("stnet\t")


class TestClassification:
    def test_train_eval_round_trip(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "clf.cfg"
        cfg.write_text("task = classification\nk_eig = 20\nd_m = 8\n"
                       "epochs = 30\nbatch_size = 4\nlearning_rate = 0.5\n"
                       "early_stop_patience = 100\n")
        out = tmp_path / "model"
        rc = main(["train", "--manifest", str(workspace["split"]),
                   "--config", str(cfg), "--cache", str(workspace["cache"]),
                   "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["eval", "--manifest", str(workspace["split"]),
                   "--config", str(cfg), "--cache", str(workspace["cache"]),
                   "--model", str(out / "model.npz"),
                   "--out", str(tmp_path / "eval")])
        assert rc == 0
        assert "accuracy" in capsys.readouterr().out
        preds = (tmp_path / "eval" / "predictions.tsv").read_text()
        assert preds.startswith("shape_id\tlabel\tprediction\n")
        assert (tmp_path / "eval" / "report.tsv").read_text() \
            .startswith("accuracy\t")

    def eval_without_classifier(self, workspace, tmp_path, *extra):
        cfg = tmp_path / "clf.cfg"
        cfg.write_text("task = classification\nk_eig = 20\n")
        rc = main(["eval", "--manifest", str(workspace["split"]),
                   "--config", str(cfg), "--cache", str(tmp_path / "cache"),
                   "--ablation", "surf_o2", "--out", str(tmp_path / "out"),
                   *extra])
        assert rc == 1
        # the check runs before extraction: no cache record, no --out
        assert not (tmp_path / "cache").exists()
        assert not (tmp_path / "out").exists()

    def test_needs_model(self, workspace, tmp_path, capsys):
        self.eval_without_classifier(workspace, tmp_path)
        assert "trained model" in capsys.readouterr().err

    def test_model_without_classifier(self, workspace, tmp_path, capsys):
        metric.save_model(tmp_path / "m.npz", {"W": np.zeros((2, 5))},
                          {"mode": "o2"})
        self.eval_without_classifier(workspace, tmp_path,
                                     "--model", str(tmp_path / "m.npz"))
        assert "trained model" in capsys.readouterr().err


class TestGradcheck:
    def test_passes(self, capsys, tmp_path):
        rc = main(["gradcheck", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert (tmp_path / "gradcheck.txt").exists()

    def test_corrupt_fails(self, capsys, unhalved_scatter):
        with unhalved_scatter():
            rc = main(["gradcheck"])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out
        # the negative check lives in the tests, not behind a flag
        assert main(["gradcheck", "--corrupt"]) == 1


class TestExportMpf:
    def save(self, path, omega):
        blocks = {"omega": np.asarray(omega, dtype=np.float64),
                  "W": np.zeros((2, 66))}
        metric.save_model(path, blocks, {"mode": "stnet"})

    def test_uniform_mixture_curve(self, tmp_path, capsys):
        self.save(tmp_path / "m.npz", np.zeros(11))
        rc = main(["export-mpf", "--model", str(tmp_path / "m.npz"),
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "mpf_curve.tsv").read_text().splitlines()
        assert lines[0].startswith("# gamma\t")
        assert lines[1] == "x\tf(x)"
        first = lines[2].split("\t")
        last = lines[-1].split("\t")
        assert abs(float(first[1]) - 1.0 / 11.0) < 1e-12
        assert float(last[0]) == 1.0 and abs(float(last[1]) - 1.0) < 1e-12

    def test_identity_mixture_is_diagonal(self, tmp_path):
        omega = np.zeros(11)
        omega[-1] = 1000.0
        self.save(tmp_path / "m.npz", omega)
        assert main(["export-mpf", "--model", str(tmp_path / "m.npz"),
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "mpf_curve.tsv").read_text().splitlines()[2:]
        for row in rows[:: 16]:
            x, y = (float(v) for v in row.split("\t"))
            assert abs(y - x) < 1e-12

    def test_model_without_transform(self, tmp_path, capsys):
        metric.save_model(tmp_path / "m.npz", {"W": np.zeros((2, 5))},
                          {"mode": "o1"})
        rc = main(["export-mpf", "--model", str(tmp_path / "m.npz"),
                   "--out", str(tmp_path)])
        assert rc == 3
        assert "no learned spectral transform" in capsys.readouterr().err


CLASSIFICATION_CFG = Path(__file__).resolve().parent.parent / "configs" \
    / "classification_synth.cfg"


@pytest.fixture(scope="module")
def small_split(tmp_path_factory):
    """4 classes x 8 synth meshes, half of each class for training: 16
    training shapes, which batches of 15 do not divide."""
    root = tmp_path_factory.mktemp("small_split")
    assert main(["synth", "--seed", "7", "--instances", "8",
                 "--out", str(root / "data")]) == 0
    assert main(["make-splits", "--manifest",
                 str(root / "data" / "manifest.tsv"),
                 "--scheme", "fraction:0.5", "--seed", "0",
                 "--out", str(root / "splits")]) == 0
    return root


@pytest.mark.slow
class TestShippedClassificationConfig:
    @pytest.mark.parametrize("seed", range(6))
    def test_converges_on_a_small_split(self, small_split, seed, capsys):
        # a 1-shape remainder batch stepping as far as a full one, and a
        # loss with no gradient at saturation, train seeds 1 and 2 to
        # chance (accuracy 0.25)
        common = ["--manifest", str(small_split / "splits" / "split.tsv"),
                  "--config", str(CLASSIFICATION_CFG),
                  "--cache", str(small_split / "cache"), "--seed", str(seed)]
        out = small_split / f"seed{seed}"
        assert main(["train", *common, "--out", str(out / "train")]) == 0
        assert main(["eval", *common, "--model",
                     str(out / "train" / "model.npz"),
                     "--out", str(out / "eval")]) == 0
        report = (out / "eval" / "report.tsv").read_text().split()
        assert report[0] == "accuracy" and float(report[1]) >= 0.9, \
            capsys.readouterr().out
