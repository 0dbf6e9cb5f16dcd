"""The benchmark's workloads: inputs made from the seed, and the CLI protocol.

Each workload has a set-up (``synth``, ``make-splits`` and manifests the
benchmark writes itself) and a round: ``extract`` on a cold cache, then
``train`` and ``eval`` calls that re-read the warm cache as the CLI does.
Every CLI call runs in this process through ``specpool.cli.main``. After a
round its outputs are checked with the recomputations in ``checks``.
"""

import contextlib
import dataclasses
import io
import os
import random
import re
import statistics
import time
from pathlib import Path

import numpy as np

from specpool import cli, spdm, synth
from specpool.config import parse_config
from specpool.shape_io import (DatasetManifest, ManifestEntry, TriMesh,
                               bounding_sphere_diameter, load_manifest,
                               load_mesh, save_manifest, save_mesh)

import checks

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# data seed and split seed of the A5 acceptance fixture
A5_DATA_SEED = 7
A5_PROTOCOL_SEED = 0

# shapes sampled for the recomputation checks, and LSF points per shape
CHECKED_SHAPES = 2
CHECKED_POINTS = 40
# fresh test instances per class (retrieval-ladder), instances per class
# (lsf-classification)
RETRIEVAL_TEST_INSTANCES = 4
LSF_INSTANCES = 4
# large-mesh: the two classes whose diameter-2e4 solves are cheapest, and
# the bounding-sphere diameters of the rescaled copies
LARGE_MESH_CLASSES = ("sphere", "capsule")
LARGE_MESH_SCALES = {"d2e-03": 2e-3, "d2e+04": 2e4}

_FAILED = re.compile(r"^FAILED (\S+): (.*)$", re.MULTILINE)


@dataclasses.dataclass
class Call:
    argv: list
    code: int
    seconds: float
    stderr: str


def cli_call(*argv):
    """Run one CLI command in this process; output is kept, not printed."""
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return Call(argv, code, time.perf_counter() - t0, err.getvalue())


def derive_config(source, dest, **overrides):
    """Copy a key = value config file with some keys set to new values."""
    lines = []
    for raw in Path(source).read_text().splitlines():
        key = raw.split("#", 1)[0].partition("=")[0].strip()
        if key in overrides:
            raw = f"{key} = {overrides.pop(key)}"
        lines.append(raw)
    lines += [f"{k} = {v}" for k, v in overrides.items()]
    Path(dest).write_text("\n".join(lines) + "\n")
    return dest


def setup_call(*argv):
    """A set-up command, which must succeed."""
    call = cli_call(*argv)
    if call.code != cli.EXIT_OK:
        raise RuntimeError(f"set-up command {' '.join(call.argv)} failed: "
                           f"{call.stderr}")
    return call


def write_manifest(path, rows, class_count):
    """Manifest at ``path`` for (shape_id, mesh path, label, split) rows."""
    path = Path(path)
    entries = [ManifestEntry(sid, os.path.relpath(mesh, path.parent), label,
                             split) for sid, mesh, label, split in rows]
    save_manifest(path, DatasetManifest(entries, class_count, path.parent))


def manifest_rows(path, split=None, prefix=""):
    """(shape_id, mesh path, label, split) rows of a manifest file."""
    manifest = load_manifest(path)
    return [(prefix + e.shape_id, manifest.full_path(e), e.label,
             split or e.split) for e in manifest.entries]


class Round:
    """Timings, operation counts and check results of one protocol round.

    ``eval`` calls may be repeated inside a round on the same warm cache;
    each repetition gets its own time slot, and the stage's time is the
    mean over its slots. (The reference machine switches between a fast
    and a slow speed every few seconds; a median over a few slots jumps
    between the two, a mean averages them.)
    """

    def __init__(self, directory):
        self.dir = Path(directory)
        self.cache = self.dir / "cache"
        self.slots = {"extract": [0.0], "train": [0.0], "eval": []}
        self.attempted = 0
        self.failed = []
        self.problems = []
        self.quality = {}

    def eval_repetitions(self, count):
        """Open ``count`` time slots for ``eval``, one per iteration."""
        for i in range(count):
            self.slots["eval"].append(0.0)
            yield i

    def stage_s(self, stage):
        return statistics.fmean(self.slots[stage])

    @property
    def protocol_s(self):
        return sum(self.stage_s(stage) for stage in self.slots)

    def extract(self, manifest, config, expected_failures=()):
        call = cli_call("extract", "--manifest", manifest, "--config",
                        config, "--cache", self.cache)
        self.slots["extract"][-1] += call.seconds
        failed = dict(_FAILED.findall(call.stderr))
        self.attempted += len(load_manifest(manifest).entries)
        self.failed += [f"extract {sid}: {msg}" for sid, msg in failed.items()]
        self.check(checks.check_failures(Path(manifest).name, failed,
                                         expected_failures))
        if call.code != (cli.EXIT_DATA if failed else cli.EXIT_OK):
            self.problems.append(f"extract exit code {call.code}")

    def _op(self, stage, *argv):
        call = cli_call(*argv)
        self.slots[stage][-1] += call.seconds
        self.attempted += 1
        if call.code != cli.EXIT_OK:
            self.failed.append(f"{' '.join(call.argv)}: {call.stderr}")
            self.problems.append(f"{stage} failed: {call.stderr.strip()}")

    def train(self, manifest, config, out, *extra):
        self._op("train", "train", "--manifest", manifest, "--config",
                        config, "--cache", self.cache, "--out", out, *extra)

    def eval(self, manifest, config, out, *extra):
        self._op("eval", "eval", "--manifest", manifest, "--config",
                        config, "--cache", self.cache, "--out", out, *extra)

    def cache_mb(self):
        return sum(p.stat().st_size for p in self.cache.iterdir()) / 1e6

    def check(self, problems):
        self.problems += problems

    def check_retrieval(self, manifest, out):
        """Report vs ranked lists; returns (NN, mAP) as recomputed."""
        labels = checks.read_labels(manifest)
        test_ids = [sid for sid, _, _, split in manifest_rows(manifest)
                    if split == "test"]
        lists = checks.read_ranked_lists(Path(out) / "ranked_lists.tsv")
        self.check(checks.check_ranked_lists(lists, labels, test_ids))
        self.check(checks.check_retrieval_report(
            lists, labels, checks.read_report(Path(out) / "report.tsv")))
        return checks.textbook_retrieval(lists, labels)

    def check_transform(self, model_dir, shape_ids, n_mix):
        """gamma on the simplex, the exported curve, and Q gamma rows."""
        gamma = checks.softmax(checks.read_model_omega(
            Path(model_dir) / "model.npz"))
        self.check(checks.check_simplex(gamma))
        call = cli_call("export-mpf", "--model",
                        Path(model_dir) / "model.npz", "--out", model_dir)
        if call.code != cli.EXIT_OK:
            self.problems.append(f"export-mpf failed: {call.stderr}")
        else:
            self.check(checks.check_mpf_curve(
                Path(model_dir) / "mpf_curve.tsv", gamma))
        alphas = spdm.power_grid(n_mix)
        for sid in shape_ids:
            pooled = checks.read_cache_record(self.cache, sid, "pooled")
            eig = checks.read_cache_record(self.cache, sid, "eig")
            q = spdm.mpf_q_matrix(eig["U"], eig["lam"][:, None]
                                  ** alphas[None, :])
            self.check(checks.check_feature_row(sid, pooled["H"], gamma, q))

    def check_mesh_shapes(self, shape_ids):
        """Phi^T M Phi = I and H = sum pi h h^T on mesh shapes."""
        for sid in shape_ids:
            spec = checks.read_cache_record(self.cache, sid, "spectrum")
            desc = checks.read_cache_record(self.cache, sid, "descriptor")
            pooled = checks.read_cache_record(self.cache, sid, "pooled")
            mass = spec["mass"]
            self.check(checks.check_mass_orthonormal(
                sid, spec["eigenfunctions"], mass))
            self.check(checks.check_pooled(sid, desc["values"],
                                           mass / mass.sum(), pooled["H"]))


def _sample(rng, ids, k):
    return rng.sample(sorted(ids), min(k, len(ids)))


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """Inputs from a seed; sizes are class attributes the smoke runs shrink."""

    name = None

    def __init__(self, seed, **sizes):
        self.seed = seed
        for key, value in sizes.items():
            if not hasattr(type(self), key):
                raise TypeError(f"{self.name} has no size {key!r}")
            setattr(self, key, value)

    def _config(self, source, dest, **overrides):
        return derive_config(CONFIGS / source, dest, **{
            k: v for k, v in overrides.items() if v is not None})


class RetrievalLadder(Workload):
    """A5 protocol: st_net, surf_o2_ml, surf_o1_ml trained, four rungs scored.

    Training uses the A5 acceptance fixture's training split (data seed 7,
    split seed 0, 32 shapes) with the protocol seed 0: whether the st_net
    mixture collapses into subnormal weights depends chaotically on the
    training data, and on this split it does. The 16 test shapes are
    synthesized from the workload seed.
    """

    name = "retrieval-ladder"
    a5_instances = 20
    resolution = 1500
    k_eig = None            # the config's
    st_net_epochs = 3
    eval_repeats = 6

    def setup(self, d):
        d = Path(d)
        size = ("--resolution", self.resolution)
        setup_call("synth", "--out", d / "a5", "--seed", A5_DATA_SEED,
                   "--instances", self.a5_instances, *size)
        setup_call("make-splits", "--manifest", d / "a5" / "manifest.tsv",
                   "--scheme", "fraction:0.4", "--seed", A5_PROTOCOL_SEED,
                   "--out", d / "a5_split")
        setup_call("synth", "--out", d / "fresh", "--seed", self.seed,
                   "--instances", RETRIEVAL_TEST_INSTANCES, *size)
        train = [r for r in manifest_rows(d / "a5_split" / "split.tsv")
                 if r[3] == "train"]
        test = manifest_rows(d / "fresh" / "manifest.tsv", split="test",
                             prefix="fresh_")
        self.manifest = d / "split.tsv"
        write_manifest(self.manifest, train + test, 4)
        self.config = self._config("retrieval_synth.cfg", d / "retrieval.cfg",
                                   epochs=self.st_net_epochs,
                                   k_eig=self.k_eig)

    def round(self, r):
        m, c, out = self.manifest, self.config, r.dir
        seed = ("--seed", A5_PROTOCOL_SEED)
        r.extract(m, c)
        r.train(m, c, out / "st_net", *seed)
        for rung in ("surf_o2_ml", "surf_o1_ml"):
            r.train(m, c, out / rung, "--ablation", rung, *seed)
        for _ in r.eval_repetitions(self.eval_repeats):
            r.eval(m, c, out / "st_net", "--model",
                   out / "st_net" / "model.npz", *seed)
            for rung in ("surf_o2_ml", "surf_o1_ml"):
                r.eval(m, c, out / rung, "--model", out / rung / "model.npz",
                       "--ablation", rung, *seed)
            r.eval(m, c, out / "surf_o2", "--ablation", "surf_o2", *seed)

    def check(self, r):
        for rung in ("surf_o2_ml", "surf_o1_ml", "surf_o2"):
            r.check_retrieval(self.manifest, r.dir / rung)
        nn, mean_ap = r.check_retrieval(self.manifest, r.dir / "st_net")
        if nn < checks.A5_MIN_NN:
            r.problems.append(f"st_net NN {nn:.3f} below the A5 floor")
        r.quality = {"test_map": mean_ap, "test_nn": nn,
                     "test_accuracy": nn}
        rng = random.Random(self.seed)
        rows = manifest_rows(self.manifest)
        test = [sid for sid, _, _, split in rows if split == "test"]
        r.check_transform(r.dir / "st_net",
                          _sample(rng, test, CHECKED_SHAPES), 10)
        r.check_mesh_shapes(_sample(rng, [row[0] for row in rows],
                                    CHECKED_SHAPES))


class LSFClassification(Workload):
    """A7 protocol on one fold: LSF on 3000-point clouds, softmax head.

    Sixteen shapes (4 classes x 4) from the workload seed, split 2-fold so
    that the test fold holds two shapes per class: enough for the
    leave-one-out retrieval score of the trained embedding.
    """

    name = "lsf-classification"
    resolution = 1500
    n_points = None         # the config's
    epochs = None           # the config's
    eval_repeats = 2

    def setup(self, d):
        d = Path(d)
        setup_call("synth", "--out", d / "data", "--seed", self.seed,
                   "--instances", LSF_INSTANCES,
                   "--resolution", self.resolution)
        setup_call("make-splits", "--manifest", d / "data" / "manifest.tsv",
                   "--scheme", "kfold:2", "--seed", self.seed,
                   "--out", d / "folds")
        self.manifest = d / "folds" / "fold_0.tsv"
        sizes = {"n_points": self.n_points, "epochs": self.epochs}
        self.config = self._config("classification_synth.cfg",
                                   d / "classification.cfg", **sizes)
        self.retrieval_config = self._config(
            "classification_synth.cfg", d / "lsf_retrieval.cfg",
            task="retrieval", **sizes)

    def round(self, r):
        m, c, out = self.manifest, self.config, r.dir
        model = ("--model", out / "st_net" / "model.npz")
        r.extract(m, c)
        r.train(m, c, out / "st_net")
        for _ in r.eval_repetitions(self.eval_repeats):
            r.eval(m, c, out / "st_net", *model)
            r.eval(m, self.retrieval_config, out / "retrieval", *model)

    def check(self, r):
        labels = checks.read_labels(self.manifest)
        reported = float((r.dir / "st_net" / "report.tsv").read_text()
                         .split("\t")[1])
        problems, acc = checks.check_accuracy_report(
            checks.read_predictions(r.dir / "st_net" / "predictions.tsv"),
            labels, reported)
        r.check(problems)
        if acc < checks.A7_MIN_ACCURACY:
            r.problems.append(f"accuracy {acc:.3f} below the A7 floor")
        nn, mean_ap = r.check_retrieval(self.manifest, r.dir / "retrieval")
        r.quality = {"test_map": mean_ap, "test_nn": nn,
                     "test_accuracy": acc}

        rng = random.Random(self.seed)
        rows = manifest_rows(self.manifest)
        test = [sid for sid, _, _, split in rows if split == "test"]
        r.check_transform(r.dir / "st_net",
                          _sample(rng, test, CHECKED_SHAPES), 10)
        run = parse_config(self.config)
        for sid in _sample(rng, [row[0] for row in rows], CHECKED_SHAPES):
            cloud = checks.read_cache_record(r.cache, sid, "cloud")
            desc = checks.read_cache_record(r.cache, sid, "descriptor")
            pooled = checks.read_cache_record(r.cache, sid, "pooled")
            n = len(desc["values"])
            r.check(checks.check_pooled(sid, desc["values"],
                                        np.full(n, 1.0 / n), pooled["H"]))
            points = rng.sample(range(n), min(CHECKED_POINTS, n))
            r.check(checks.check_lsf_totals(
                sid, cloud["points"], cloud["normals"], desc["values"],
                run.lsf_radius_frac, run.neighbor_cap, points))


class LargeMesh(Workload):
    """Sparse shift-invert eigensolve on ~10k-vertex meshes, no learning.

    Eight synth meshes (sphere and capsule, 4 each) scored by leave-one-out
    surf_o2 retrieval, plus extra shapes in their own manifest: instance 0
    of each class rescaled to bounding-sphere diameter 2e-3 and 2e4, and an
    undeformed unit icosphere at the same resolution. The 2e-3 copies fail
    on every run (``lb_spectrum``'s absolute residual bound); they stay in
    the workload as failed operations. The surf_o2_ml ``train`` call times
    the warm re-read of large meshes and a small trainer.
    """

    name = "large-mesh"
    resolution = 10242
    k_eig = 30
    epochs = None           # the config's
    failing_scale = "d2e-03"
    eval_repeats = 5

    def setup(self, d):
        d = Path(d)
        setup_call("synth", "--out", d / "data", "--seed", self.seed,
                   "--classes", ",".join(LARGE_MESH_CLASSES),
                   "--instances", 4, "--resolution", self.resolution)
        rows = manifest_rows(d / "data" / "manifest.tsv")
        classes = len(LARGE_MESH_CLASSES)
        write_manifest(d / "loo.tsv", [r[:3] + ("test",) for r in rows],
                       classes)
        write_manifest(d / "train.tsv", [r[:3] + ("train",) for r in rows],
                       classes)
        extras = []
        (d / "extras").mkdir()
        for label, kind in enumerate(LARGE_MESH_CLASSES):
            sid = f"{kind}_000"
            mesh = load_mesh(d / "data" / f"{sid}.off")
            diameter = bounding_sphere_diameter(mesh.vertices)
            for tag, target in LARGE_MESH_SCALES.items():
                path = d / "extras" / f"{sid}_{tag}.off"
                save_mesh(path, TriMesh(mesh.vertices * (target / diameter),
                                        mesh.faces))
                extras.append((f"{sid}_{tag}", path, label, "test"))
        verts, faces = synth.icosphere(synth.icosphere_level_for(
            self.resolution))
        save_mesh(d / "extras" / "icosphere.off", TriMesh(verts, faces))
        extras.append(("icosphere", d / "extras" / "icosphere.off", 0,
                       "test"))
        write_manifest(d / "extras.tsv", extras, classes)
        self.dir = d
        self.config = self._config("retrieval_synth.cfg", d / "large.cfg",
                                   k_eig=self.k_eig, epochs=self.epochs)

    @property
    def expected_failures(self):
        if self.failing_scale is None:
            return []
        return [f"{kind}_000_{self.failing_scale}"
                for kind in LARGE_MESH_CLASSES]

    def round(self, r):
        d, c, out = self.dir, self.config, r.dir
        r.extract(d / "loo.tsv", c)
        r.extract(d / "extras.tsv", c, self.expected_failures)
        r.train(d / "train.tsv", c, out / "surf_o2_ml", "--ablation",
                "surf_o2_ml")
        for _ in r.eval_repetitions(self.eval_repeats):
            r.eval(d / "loo.tsv", c, out / "surf_o2", "--ablation",
                   "surf_o2")

    def check(self, r):
        nn, mean_ap = r.check_retrieval(self.dir / "loo.tsv",
                                        r.dir / "surf_o2")
        r.quality = {"test_map": mean_ap, "test_nn": nn,
                     "test_accuracy": nn}
        for sid, _, _, _ in manifest_rows(self.dir / "extras.tsv"):
            if sid in self.expected_failures:
                continue
            spec = checks.read_cache_record(r.cache, sid, "spectrum")
            area = spec["mass"].sum()
            r.check(checks.check_mass_orthonormal(
                sid, spec["eigenfunctions"], spec["mass"]))
            if sid == "icosphere":
                r.check(checks.check_unit_sphere_modes(
                    sid, spec["eigenvalues"], area))
                continue
            ref = checks.read_cache_record(r.cache, sid.rsplit("_", 1)[0],
                                           "spectrum")
            r.check(checks.check_scale_free(
                sid, spec["eigenvalues"], area, ref["eigenvalues"],
                ref["mass"].sum()))
        rng = random.Random(self.seed)
        rows = manifest_rows(self.dir / "loo.tsv")
        r.check_mesh_shapes(_sample(rng, [row[0] for row in rows],
                                    CHECKED_SHAPES))


WORKLOADS = {w.name: w for w in (RetrievalLadder, LSFClassification,
                                 LargeMesh)}
