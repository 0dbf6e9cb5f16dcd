"""Self-tests of the benchmark: every check rejects a wrong input, and a
tiny run of each workload finishes in seconds.

    python3 -m pytest -q perfbench
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from specpool import descriptors, evaluation, lb_operator, spdm, synth  # noqa
from specpool.shape_io import TriMesh, sample_points  # noqa

import checks  # noqa
import run  # noqa
import workloads  # noqa


# ---------------------------------------------------------------------------
# each check accepts the program's output and rejects a wrong one

def _ranked(tmp_path):
    rng = np.random.default_rng(3)
    labels = np.repeat(np.arange(3), 4)
    vecs = rng.normal(size=(12, 5)) + 0.8 * labels[:, None]
    ids = [f"s{i:02d}" for i in range(12)]
    ranked = evaluation.rank(vecs, ids, labels)
    report_path = tmp_path / "report.tsv"
    report_path.write_text(evaluation.format_report(
        [evaluation.retrieval_metrics(ranked)], ["m"]))
    evaluation.export_ranked_lists(ranked, tmp_path / "ranked.tsv")
    return (checks.read_ranked_lists(tmp_path / "ranked.tsv"),
            dict(zip(ids, labels.tolist())), checks.read_report(report_path))


def test_retrieval_report_rejects_two_swapped_entries(tmp_path):
    lists, labels, report = _ranked(tmp_path)
    assert checks.check_retrieval_report(lists, labels, report) == []
    assert checks.check_ranked_lists(lists, labels, list(labels)) == []
    query, gallery = lists[0]
    rel = [labels[g] == labels[query] for g in gallery]
    i, j = rel.index(True), rel.index(False)
    gallery[i], gallery[j] = gallery[j], gallery[i]
    assert checks.check_retrieval_report(lists, labels, report)


def test_accuracy_report_rejects_a_changed_prediction():
    labels = {"a": 0, "b": 1, "c": 1, "d": 0}
    preds = [("a", 0, 0), ("b", 1, 1), ("c", 1, 0), ("d", 0, 0)]
    assert checks.check_accuracy_report(preds, labels, 0.75)[0] == []
    preds[2] = ("c", 1, 1)
    assert checks.check_accuracy_report(preds, labels, 0.75)[0]


def test_failures_reject_another_shape_or_another_message():
    expected = ["sphere_000_d2e-03"]
    fault = {"sphere_000_d2e-03": "eigensolver residual 1.910e-06 exceeds "
                                  "1e-6"}
    assert checks.check_failures("x.tsv", fault, expected) == []
    assert checks.check_failures("x.tsv", {}, expected)
    assert checks.check_failures("x.tsv", {"capsule_000": fault[
        "sphere_000_d2e-03"]}, expected)
    assert checks.check_failures("x.tsv", {
        "sphere_000_d2e-03": "mesh has 12 degenerate faces"}, expected)


@pytest.mark.parametrize("rank", [12, 5])
def test_feature_row_rejects_q_with_doubled_offdiagonal_rows(rank):
    rng = np.random.default_rng(rank)
    a = rng.normal(size=(12, rank))
    H = a @ a.T / 12
    gamma = checks.softmax(rng.normal(size=11))
    u, lam = spdm.normalized_spectrum(H)
    q = spdm.mpf_q_matrix(u, lam[:, None] ** spdm.power_grid(10)[None, :])
    assert checks.check_feature_row("h", H, gamma, q) == []
    i, j = np.triu_indices(12)
    q[i != j] *= 2.0
    assert checks.check_feature_row("h", H, gamma, q)


def test_pooled_rejects_a_perturbed_matrix():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(700, 6))
    pi = rng.uniform(0.5, 1.0, size=700)
    pi /= pi.sum()
    H = (values * pi[:, None]).T @ values
    assert checks.check_pooled("h", values, pi, H) == []
    H[0, 1] *= 1.0 + 1e-8
    assert checks.check_pooled("h", values, pi, H)


def test_simplex_and_curve_reject_wrong_input(tmp_path):
    gamma = checks.softmax(np.array([0.0, 1.0, -2.0]))
    assert checks.check_simplex(gamma) == []
    assert checks.check_simplex(gamma * 1.01)
    xs = np.linspace(0.0, 1.0, 9)
    ys = [spdm.mpf_eval(gamma, x) for x in xs]
    path = tmp_path / "mpf_curve.tsv"

    def write(values):
        path.write_text("# gamma\n" + "x\tf(x)\n" + "".join(
            f"{float(x)!r}\t{float(y)!r}\n" for x, y in zip(xs, values)))

    write(ys)
    assert checks.check_mpf_curve(path, gamma) == []
    write(ys[:4] + [ys[3] - 1e-3] + ys[5:])
    assert checks.check_mpf_curve(path, gamma)


@pytest.mark.parametrize("cap", [512, 6])
def test_lsf_totals_reject_a_row_missing_one_count(cap):
    verts, faces = synth.icosphere(2)
    cloud = sample_points(TriMesh(verts, faces), 300, seed=4)
    radius = 0.15 * checks.bounding_diameter(cloud.points)
    values = descriptors.lsf(cloud, descriptors.LSFParams(
        radius=radius, neighbor_cap=cap), seed=0).values.copy()
    sample = list(range(0, 300, 7))
    assert checks.check_lsf_totals("c", cloud.points, cloud.normals, values,
                                   0.15, cap, sample) == []
    values[sample[3], np.flatnonzero(values[sample[3]])[0]] -= 1.0
    assert checks.check_lsf_totals("c", cloud.points, cloud.normals, values,
                                   0.15, cap, sample)


def test_spectrum_checks_reject_lambda_scaled_by_one_percent():
    verts, faces = synth.icosphere(3)
    unit = lb_operator.mesh_spectrum(TriMesh(verts, faces), 8)
    big = lb_operator.mesh_spectrum(TriMesh(verts * 300.0, faces), 8)
    area, big_area = unit.mass.sum(), big.mass.sum()
    assert checks.check_mass_orthonormal("s", unit.eigenfunctions,
                                         unit.mass) == []
    assert checks.check_mass_orthonormal("s", 1.01 * unit.eigenfunctions,
                                         unit.mass)
    assert checks.check_unit_sphere_modes("s", unit.eigenvalues, area) == []
    assert checks.check_unit_sphere_modes("s", 1.05 * unit.eigenvalues, area)
    assert checks.check_scale_free("s", big.eigenvalues, big_area,
                                   unit.eigenvalues, area) == []
    assert checks.check_scale_free("s", 1.01 * big.eigenvalues, big_area,
                                   unit.eigenvalues, area)


# ---------------------------------------------------------------------------
# tiny runs of every workload

SMOKE = {
    "retrieval-ladder": dict(a5_instances=4, resolution=162, k_eig=20,
                             st_net_epochs=1, eval_repeats=1),
    "lsf-classification": dict(resolution=162, n_points=300, epochs=3,
                               eval_repeats=1),
    "large-mesh": dict(resolution=642, k_eig=12, epochs=1, eval_repeats=1,
                       failing_scale=None),
}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run(name, tmp_path):
    workload = workloads.WORKLOADS[name](5, **SMOKE[name])
    args = argparse.Namespace(workload=name, seed=5, seconds=0.0, trace=0)
    result, record = run.run(args, tmp_path, workload)
    json.dumps(result)
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in _bench()["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    assert result["failed"] == 0 and result["attempted"] > 0
    # the quality floors are for the full-size inputs
    assert [p for p in record["problems"] if "floor" not in p] == []


def test_traced_smoke_run_reports_every_layer(tmp_path):
    name = "retrieval-ladder"
    workload = workloads.WORKLOADS[name](5, **SMOKE[name])
    args = argparse.Namespace(workload=name, seed=5, seconds=0.0, trace=1)
    result, _ = run.run(args, tmp_path, workload)
    assert set(result["metrics"]) == {m["name"]
                                      for m in _bench()["per_layer"]}
    assert result["metrics"]["trainer.batches"]["value"] > 0
    assert result["metrics"]["lb_operator.lb_spectrum.dense_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-mesh",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""


def _bench():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())
