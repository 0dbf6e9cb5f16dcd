"""Spans around calls into specpool's public functions, from outside.

The tracer replaces functions where the program looks them up (module
attributes, ``FeatureSet`` methods, and names ``pipeline`` imported
directly) with wrappers that record a span: name, start, end, parent span
and run id. Spans stay in memory; ``dump`` writes them out at the end of a
run. ``uninstall`` puts every original function back.
"""

import contextlib
import functools
import json
import os
import time
from collections import Counter

import numpy as np

from specpool import (descriptors, evaluation, lb_operator, metric, pipeline,
                      pooling, spdm, storage, synth, trainer)

LAYERS = ("synth", "shape_io", "lb_operator", "descriptors", "pooling",
          "spdm", "storage", "pipeline", "trainer", "metric", "evaluation")

# (metric name, unit) of every per-layer figure a traced run reports
PER_LAYER = [
    ("synth.generate.s", "s"),
    ("shape_io.load_mesh.s", "s"),
    ("shape_io.load_mesh.calls", "count"),
    ("shape_io.sample_points.s", "s"),
    ("lb_operator.mesh_spectrum.s", "s"),
    ("lb_operator.mesh_spectrum.calls", "count"),
    ("lb_operator.lb_spectrum.dense_s", "s"),
    ("lb_operator.lb_spectrum.sparse_s", "s"),
    ("lb_operator.cotan_laplacian.s", "s"),
    ("lb_operator.voronoi_areas.s", "s"),
    ("lb_operator.mesh_component_count.s", "s"),
    ("descriptors.sihks.s", "s"),
    ("descriptors.wks.s", "s"),
    ("descriptors.lsf.s", "s"),
    ("descriptors.lsf.points", "count"),
    ("pooling.pool_second_order.s", "s"),
    ("pooling.pool_first_order.s", "s"),
    ("spdm.normalized_spectrum.s", "s"),
    ("spdm.mpf_q_matrix.s", "s"),
    ("spdm.mpf_q_matrix.calls", "count"),
    ("spdm.q_mb", "MB"),
    ("storage.hits", "count"),
    ("storage.misses", "count"),
    ("storage.get_or_compute.hit_s", "s"),
    ("storage.save_bundle.s", "s"),
    ("storage.load_bundle.s", "s"),
    ("storage.bytes_written", "B"),
    ("storage.bytes_read", "B"),
    ("pipeline.extract_shape.s", "s"),
    ("pipeline.extract_shape.calls", "count"),
    ("pipeline.build_features.s", "s"),
    ("trainer.train.s", "s"),
    ("trainer.batches", "count"),
    ("trainer.FeatureSet.rows.s", "s"),
    ("trainer.FeatureSet.pull_gamma_grad.s", "s"),
    ("trainer.sgd_step.s", "s"),
    ("trainer.build_triplets.s", "s"),
    ("trainer.gamma_subnormal", "count"),
    ("metric.embed_rows.s", "s"),
    ("metric.embed_rows_backward.s", "s"),
    ("metric.triplet_loss_rows.s", "s"),
    ("metric.classify_loss.s", "s"),
    ("metric.save_model.s", "s"),
    ("evaluation.rank.s", "s"),
    ("evaluation.retrieval_metrics.s", "s"),
    ("evaluation.queries", "count"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("trace.overhead_noisy_s", "s"),
    ("trace.overhead_est_s", "s"),
    ("trace.spans", "count"),
]

# names whose ".s" figure is the total time of all spans of that name
_TIMED = [name[:-2] for name, _ in PER_LAYER if name.endswith(".s")]
# names whose ".calls" figure counts their spans
_CALLED = [name[:-len(".calls")] for name, _ in PER_LAYER
           if name.endswith(".calls")]


class Tracer:
    """In-memory span recorder with its own patch table."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, run id]
        self.counts = {}         # run id -> Counter of per-call counts
        self.run_id = None      # set while recording
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _count(self, key, amount):
        self.counts.setdefault(self.run_id, Counter())[key] += amount

    def _wrap(self, fn, name, on_exit=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name(args) if callable(name) else name,
                    time.perf_counter(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1,
                    tracer.run_id]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            before = storage.counters["hits"]
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if on_exit is not None:
                on_exit(tracer, span, args, result, before)
            return result
        return wrapper

    def patch(self, owner, attr, name, on_exit=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, on_exit))

    def install(self):
        """Wrap every traced function of the program."""
        p = self.patch
        p(synth, "generate", "synth.generate")
        p(pipeline, "load_mesh", "shape_io.load_mesh")
        p(pipeline, "sample_points", "shape_io.sample_points")
        p(lb_operator, "mesh_spectrum", "lb_operator.mesh_spectrum")
        p(lb_operator, "lb_spectrum", _lb_spectrum_name)
        for fn in ("cotan_laplacian", "voronoi_areas", "mesh_component_count"):
            p(lb_operator, fn, f"lb_operator.{fn}")
        p(descriptors, "sihks", "descriptors.sihks")
        p(descriptors, "wks", "descriptors.wks")
        p(descriptors, "lsf", "descriptors.lsf", _count_points)
        p(pooling, "pool_second_order", "pooling.pool_second_order")
        p(pooling, "pool_first_order", "pooling.pool_first_order")
        p(spdm, "normalized_spectrum", "spdm.normalized_spectrum")
        p(spdm, "mpf_q_matrix", "spdm.mpf_q_matrix", _count_q_bytes)
        p(storage.ShapeCache, "get_or_compute", "storage.get_or_compute",
          _split_hit_miss)
        p(storage, "save_bundle", "storage.save_bundle", _count_written)
        p(storage, "load_bundle", "storage.load_bundle", _count_read)
        p(pipeline, "extract_shape", "pipeline.extract_shape")
        p(pipeline, "build_features", "pipeline.build_features")
        p(trainer, "train", "trainer.train", _count_subnormal_gamma)
        p(trainer.FeatureSet, "rows", "trainer.FeatureSet.rows")
        p(trainer.FeatureSet, "pull_gamma_grad",
          "trainer.FeatureSet.pull_gamma_grad")
        p(trainer, "sgd_step", "trainer.sgd_step")
        p(trainer, "build_triplets", "trainer.build_triplets")
        for fn in ("embed_rows", "embed_rows_backward", "triplet_loss_rows",
                   "classify_loss", "save_model"):
            p(metric, fn, f"metric.{fn}")
        p(evaluation, "rank", "evaluation.rank", _count_queries)
        p(evaluation, "retrieval_metrics", "evaluation.retrieval_metrics")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def recording(self, run_id):
        """Trace the calls made inside the block under ``run_id``."""
        self.install()
        self.run_id = run_id
        try:
            yield
        finally:
            self.run_id = None
            self.uninstall()

    # -- reporting ---------------------------------------------------------

    def metrics(self, run_ids):
        """Per-layer figures over the spans of the given run ids."""
        chosen = [i for i, s in enumerate(self.spans) if s[4] in run_ids]
        child_time = Counter()
        for i in chosen:
            parent = self.spans[i][3]
            if parent >= 0:
                child_time[parent] += self.spans[i][2] - self.spans[i][1]
        total, calls, own = Counter(), Counter(), Counter()
        for i in chosen:
            name, start, end = self.spans[i][:3]
            total[name] += end - start
            calls[name] += 1
            own[name.split(".", 1)[0]] += end - start - child_time[i]
        counts = Counter()
        for run_id in run_ids:
            counts.update(self.counts.get(run_id, Counter()))

        out = {f"{name}.s": total[name] for name in _TIMED}
        out.update({f"{name}.calls": calls[name] for name in _CALLED})
        out["lb_operator.lb_spectrum.dense_s"] = \
            total["lb_operator.lb_spectrum.dense"]
        out["lb_operator.lb_spectrum.sparse_s"] = \
            total["lb_operator.lb_spectrum.sparse"]
        out["storage.get_or_compute.hit_s"] = \
            total["storage.get_or_compute.hit"]
        out["storage.hits"] = calls["storage.get_or_compute.hit"]
        out["storage.misses"] = calls["storage.get_or_compute.miss"]
        out["trainer.batches"] = calls["trainer.sgd_step"]
        for key in ("descriptors.lsf.points", "spdm.q_mb",
                    "storage.bytes_written", "storage.bytes_read",
                    "trainer.gamma_subnormal", "evaluation.queries"):
            out[key] = counts[key]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = own[layer]
        out["trace.spans"] = len(chosen)
        return out

    def dump(self, path):
        """Write every span as JSON: [name, start, end, parent, run id]."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans}, fh)


def wrapped_call_cost(calls=20000, batches=5):
    """Seconds a span adds to one call: a wrapped against a bare no-op.

    The fastest of ``batches`` batches is taken, so that a pause of the
    process during one batch does not count.
    """
    def noop():
        return None

    probe = Tracer()
    probe.run_id = "probe"
    wrapped = probe._wrap(noop, "probe")
    costs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append(((t1 - t0) - (time.perf_counter() - t1)) / calls)
    return min(costs)


# ---------------------------------------------------------------------------
# per-call hooks

def _lb_spectrum_name(args):
    lap = args[0]
    side = "dense" if lap.shape[0] <= lb_operator.DENSE_VERTEX_LIMIT \
        else "sparse"
    return f"lb_operator.lb_spectrum.{side}"


def _count_points(tracer, span, args, result, hits_before):
    tracer._count("descriptors.lsf.points", result.n_points)


def _count_q_bytes(tracer, span, args, result, hits_before):
    tracer._count("spdm.q_mb", result.nbytes / 1e6)


def _split_hit_miss(tracer, span, args, result, hits_before):
    hit = storage.counters["hits"] > hits_before
    span[0] = "storage.get_or_compute." + ("hit" if hit else "miss")


def _count_written(tracer, span, args, result, hits_before):
    tracer._count("storage.bytes_written", os.path.getsize(args[0]))


def _count_read(tracer, span, args, result, hits_before):
    tracer._count("storage.bytes_read", os.path.getsize(args[0]))


def _count_subnormal_gamma(tracer, span, args, result, hits_before):
    blocks = result[0]
    if "omega" in blocks:
        omega = blocks["omega"]
        gamma = np.exp(omega - omega.max())
        gamma /= gamma.sum()
        tiny = np.finfo(np.float64).tiny
        tracer._count("trainer.gamma_subnormal",
                      int(np.sum((gamma > 0.0) & (gamma < tiny))))


def _count_queries(tracer, span, args, result, hits_before):
    tracer._count("evaluation.queries", len(result))
