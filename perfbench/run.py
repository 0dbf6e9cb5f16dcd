"""Benchmark of specpool's CLI protocol, timed end to end or per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload retrieval-ladder --seed 1 \
        --seconds 25 --trace 0

The workload's inputs are made from ``--seed``. Set-up (``synth`` and
``make-splits``) repeats until ``SETUP_SECONDS`` are spent, at least
``SETUP_MIN_REPEATS`` times, and its median is ``setup_s``. Then
whole rounds of the protocol (cold ``extract``, ``train``, ``eval``) run
until ``--seconds`` would be exceeded, at least one; every figure is the
median over the rounds. With ``--trace 1`` one untraced and one traced
round run, and the per-layer figures of the traced round (plus traced
set-up) are reported with the overhead of tracing.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A run record with the
environment goes to ``.perfbench_runs/``, and traced runs dump their spans
there too.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
# A set-up takes 0.2-2.5 s by workload; a time budget gives the shortest
# one the most repetitions, whose median is then steadier.
SETUP_SECONDS = 5.0
SETUP_MIN_REPEATS = 3
# One BLAS thread: on the 2-core reference machine a second OpenBLAS thread
# made extraction slower (13.5-14.3 s against 11.1-12.8 s on
# retrieval-ladder) and its spin-waiting competes with other processes.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def run(args, workdir, workload=None):
    """One benchmark run; ``workload`` replaces the named one (self-tests)."""
    import workloads
    from tracing import PER_LAYER, Tracer, wrapped_call_cost

    if workload is None:
        workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None

    def maybe_traced(run_id, traced):
        return tracer.recording(run_id) if traced \
            else contextlib.nullcontext()

    # a traced run traces a single set-up
    min_repeats, budget = (1, 0.0) if tracer else (SETUP_MIN_REPEATS,
                                                   SETUP_SECONDS)
    setup_times = []
    while len(setup_times) < min_repeats or sum(setup_times) < budget:
        with maybe_traced("setup", tracer is not None):
            t0 = time.perf_counter()
            workload.setup(workdir / f"setup_{len(setup_times)}")
            setup_times.append(time.perf_counter() - t0)

    # a traced run makes one untraced round, then one traced round
    rounds = []
    t_start = time.perf_counter()
    while True:
        r = workloads.Round(workdir / f"round_{len(rounds)}")
        with maybe_traced("round", tracer is not None and len(rounds) == 1):
            t0 = time.perf_counter()
            workload.round(r)
            round_s = time.perf_counter() - t0
        try:
            workload.check(r)
        except (OSError, KeyError, ValueError) as exc:
            r.problems.append(f"outputs unreadable for checking: {exc!r}")
        rounds.append(r)
        if tracer is not None:
            if len(rounds) == 2:
                break
        elif time.perf_counter() - t_start + round_s > args.seconds:
            break

    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failed) for r in rounds)
    problems = [p for r in rounds for p in r.problems]

    if tracer:
        layer = tracer.metrics({"setup", "round"})
        # traced minus untraced round: carries the two rounds' own
        # run-to-run noise, which can exceed the spans' cost
        layer["trace.overhead_noisy_s"] = \
            rounds[1].protocol_s - rounds[0].protocol_s
        # the spans' own cost, measured on a wrapped no-op
        layer["trace.overhead_est_s"] = \
            layer["trace.spans"] * wrapped_call_cost()
        units = dict(PER_LAYER)
        metrics = {name: {"value": layer[name], "unit": units[name]}
                   for name, _ in PER_LAYER}
        tracer.dump(str(RUNS / f"{args.workload}-seed{args.seed}"
                                f".spans.json"))
    else:
        def over_rounds(value):
            return statistics.median(value(r) for r in rounds)

        figures = {"setup_s": (statistics.median(setup_times), "s")}
        for stage in ("extract", "train", "eval"):
            figures[f"{stage}_s"] = (
                over_rounds(lambda r: r.stage_s(stage)), "s")
        figures["protocol_s"] = (over_rounds(lambda r: r.protocol_s), "s")
        figures["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024.0, "MB")
        figures["cache_mb"] = (over_rounds(lambda r: r.cache_mb()), "MB")
        for key in ("test_map", "test_nn", "test_accuracy"):
            figures[key] = (over_rounds(lambda r: r.quality.get(key, 0.0)),
                            "fraction")
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in figures.items()}

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "rounds": len(rounds), "setup_times": setup_times,
              "round_slots": [r.slots for r in rounds],
              "failed_operations": [f for r in rounds for f in r.failed],
              "problems": problems, "environment": environment(),
              "result": result}
    return result, record


def main(argv=None):
    args = parse_args(argv)
    # BLAS reads its thread count when NumPy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    if not (ROOT / "src" / "specpool").is_dir() or \
            not (ROOT / "configs").is_dir():
        print(f"perfbench: {ROOT} holds no specpool sources (src/specpool, "
              f"configs/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    import logging
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    workdir = RUNS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        result, record = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
                     f".json", "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in record["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
