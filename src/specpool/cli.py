"""Command-line front end for the shape retrieval/classification pipeline.

Subcommands: synth, make-splits, extract, train, eval, gradcheck,
export-mpf. Exit codes: 0 success, 1 usage or config error, 2 gradient
check failure, 3 data error.
"""

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import evaluation, metric, pipeline, spdm, storage, synth, trainer
from .config import RunConfig, parse_config, with_overrides
from .errors import ConfigError, SpecpoolError
from .shape_io import load_manifest, save_manifest

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_DATA = 3

MPF_CURVE_POINTS = 256


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _run_config(args):
    run = parse_config(args.config) if args.config else RunConfig()
    # --transform (train and eval only) wins over the config file field
    return with_overrides(run, seed=args.seed,
                          transform=getattr(args, "transform", None))


def _cache(args, required=False):
    cache = storage.ShapeCache.from_env(args.cache)
    if cache is None and required:
        raise _UsageError(f"no cache directory: pass --cache or set "
                          f"${storage.CACHE_ENV_VAR}")
    return cache


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_digest(run):
    return storage.params_hash(dataclasses.asdict(run))


def _print_failures(failures):
    for shape_id, message in failures:
        print(f"FAILED {shape_id}: {message}", file=sys.stderr)


def _extract_split(manifest, split, run, cache):
    entries = manifest.subset(split)
    if not entries:
        raise _UsageError(f"manifest has no {split!r} shapes")
    records, failures = pipeline.extract_manifest(manifest, run, cache,
                                                  entries)
    _print_failures(failures)
    if failures:
        raise SpecpoolError(f"{len(failures)} shapes failed extraction")
    return entries, records


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args):
    spec = synth.SynthSpec(
        classes=tuple(args.classes.split(",")),
        instances_per_class=args.instances,
        resolution=args.resolution,
        amplitude=args.amplitude,
        seed=args.seed if args.seed is not None else 0)
    manifest = synth.generate(spec, _out_dir(args))
    print(f"wrote {len(manifest.entries)} meshes and manifest.tsv "
          f"under {args.out}")
    return EXIT_OK


def _rebased(manifest, out):
    # keep mesh paths valid when the manifest is written elsewhere
    entries = [dataclasses.replace(
        e, relpath=os.path.relpath(manifest.full_path(e), out))
        for e in manifest.entries]
    return dataclasses.replace(manifest, entries=entries, root=out)


def cmd_make_splits(args):
    manifest = load_manifest(args.manifest)
    seed = args.seed if args.seed is not None else 0
    kind, _, raw = args.scheme.partition(":")
    splitters = {"fraction": evaluation.split_fraction,
                 "kfold": evaluation.split_kfold,
                 "disjoint": evaluation.split_disjoint_classes}
    if kind not in splitters:
        raise _UsageError(f"unknown scheme {args.scheme!r}; use "
                          "fraction:P, kfold:K or disjoint:P")
    try:
        param = int(raw) if kind == "kfold" else float(raw)
        if not (param >= 2 if kind == "kfold" else 0.0 < param < 1.0):
            raise ValueError(raw)
    except ValueError:
        raise _UsageError(f"bad {kind} parameter {raw!r} in scheme "
                          f"{args.scheme!r}; use fraction:P or disjoint:P "
                          "with 0 < P < 1, or kfold:K with K >= 2")
    # a split the data cannot support fails before --out exists
    result = splitters[kind](manifest, param, seed)
    out = _out_dir(args)
    if kind == "kfold":
        for i, fold in enumerate(result):
            save_manifest(out / f"fold_{i}.tsv", _rebased(fold, out))
        print(f"wrote {len(result)} fold manifests under {out}")
    else:
        save_manifest(out / "split.tsv", _rebased(result, out))
        print(f"wrote {out / 'split.tsv'}")
    return EXIT_OK


def cmd_extract(args):
    run = _run_config(args)
    manifest = load_manifest(args.manifest)
    cache = _cache(args, required=True)
    storage.reset_counters()
    records, failures = pipeline.extract_manifest(manifest, run, cache)
    hits, misses = storage.counters["hits"], storage.counters["misses"]
    print(f"extracted {len(records)} shapes "
          f"({hits} cached records reused, {misses} computed)")
    _print_failures(failures)
    return EXIT_DATA if failures else EXIT_OK


def cmd_train(args):
    run = _run_config(args)
    mode = pipeline.feature_mode(args.ablation, run.transform)
    if args.ablation in ("surf_o1", "surf_o2"):
        raise _UsageError(f"ablation {args.ablation} has no trainable "
                          "parameters; use eval directly")
    manifest = load_manifest(args.manifest)
    cache = _cache(args)
    entries, records = _extract_split(manifest, "train", run, cache)
    features = pipeline.build_features(records, entries, mode, run)
    n_classes = manifest.class_count if run.task == "classification" \
        else None
    out = _out_dir(args)
    blocks, log, info = trainer.train(run, features, n_classes=n_classes)
    meta = {"mode": mode, "task": run.task, "descriptor": run.descriptor,
            "d_in": features.dim, "d_m": run.d_m, "n_mix": run.n_mix,
            "config_digest": _config_digest(run)}
    metric.save_model(out / "model.npz", blocks, meta)
    with open(out / "train_log.tsv", "w") as fh:
        fh.write("epoch\tmean_loss\twall_ms\n")
        for epoch, loss, ms in log:
            fh.write(f"{epoch}\t{loss:.10g}\t{ms:.1f}\n")
    print(f"trained {info['epochs_run']} epochs "
          f"(final loss {info['final_loss']:.6g}"
          f"{', early stop' if info['stopped_early'] else ''}); "
          f"model at {out / 'model.npz'}")
    return EXIT_OK


def cmd_eval(args):
    run = _run_config(args)
    mode = pipeline.feature_mode(args.ablation, run.transform)
    blocks = None
    if args.model:
        blocks, meta = metric.load_model(args.model)
        if meta.get("mode") != mode:
            raise _UsageError(f"model was trained for mode "
                              f"{meta.get('mode')!r}, not {mode!r}")
    elif mode == "stnet" or args.ablation in pipeline.TRAINED_ABLATIONS:
        raise _UsageError("this ablation needs --model")
    if run.task == "classification" and (blocks is None or "C" not in blocks):
        raise _UsageError("classification eval needs a trained model")
    manifest = load_manifest(args.manifest)
    cache = _cache(args)
    entries, records = _extract_split(manifest, "test", run, cache)
    features = pipeline.build_features(records, entries, mode, run)
    out = _out_dir(args)

    if run.task == "retrieval":
        report, lists = pipeline.retrieval_eval(features, blocks)
        table = evaluation.format_report([report], [mode])
        (out / "report.tsv").write_text(table)
        evaluation.export_ranked_lists(lists, out / "ranked_lists.tsv")
        print(table, end="")
    else:
        preds, acc, _ = pipeline.classification_eval(features, blocks)
        with open(out / "predictions.tsv", "w") as fh:
            fh.write("shape_id\tlabel\tprediction\n")
            for sid, lab, pred in zip(features.ids, features.labels, preds):
                fh.write(f"{sid}\t{lab}\t{pred}\n")
        (out / "report.tsv").write_text(f"accuracy\t{acc:.6f}\n")
        print(f"accuracy {acc:.4f} on {features.n_shapes} shapes")
    return EXIT_OK


def cmd_gradcheck(args):
    report = trainer.gradcheck()
    text = report.format()
    print(text)
    if args.out:
        out = _out_dir(args)
        (out / "gradcheck.txt").write_text(text + "\n")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_export_mpf(args):
    blocks, meta = metric.load_model(args.model)
    if "omega" not in blocks:
        raise SpecpoolError("model has no learned spectral transform")
    gamma = spdm.softmax(blocks["omega"])
    xs = np.linspace(0.0, 1.0, MPF_CURVE_POINTS)
    ys = np.array([spdm.mpf_eval(gamma, x) for x in xs])
    if np.any(np.diff(ys) < 0.0):
        raise SpecpoolError("exported transform curve is not "
                            "non-decreasing; model file is inconsistent")
    out = _out_dir(args)
    path = out / "mpf_curve.tsv"
    with open(path, "w") as fh:
        fh.write("# gamma\t" + "\t".join(f"{g:.12g}" for g in gamma) + "\n")
        fh.write("x\tf(x)\n")
        for x, y in zip(xs, ys):
            fh.write(f"{x:.12g}\t{y:.12g}\n")
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring

def build_parser():
    parser = _Parser(prog="specpool",
                     description="Spectral shape descriptors, SPD pooling "
                                 "and metric learning.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cache=True):
        p.add_argument("--config", help="key=value run configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        if cache:
            p.add_argument("--cache", default=None,
                           help=f"cache directory (or "
                                f"${storage.CACHE_ENV_VAR})")

    p = sub.add_parser("synth", help="generate the synthetic benchmark")
    spec = synth.SynthSpec()
    p.add_argument("--classes", default=",".join(spec.classes))
    p.add_argument("--instances", type=int,
                   default=spec.instances_per_class)
    p.add_argument("--resolution", type=int, default=spec.resolution)
    p.add_argument("--amplitude", type=float, default=spec.amplitude)
    common(p, cache=False)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("make-splits", help="assign train/test splits")
    p.add_argument("--manifest", required=True)
    p.add_argument("--scheme", required=True,
                   help="fraction:P | kfold:K | disjoint:P")
    common(p, cache=False)
    p.set_defaults(func=cmd_make_splits)

    p = sub.add_parser("extract",
                       help="compute and cache the offline stages")
    p.add_argument("--manifest", required=True)
    common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a model on the train split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ablation", default=None,
                   help="|".join(pipeline.ABLATIONS))
    p.add_argument("--transform", default=None,
                   help="|".join(spdm.FIXED_TRANSFORMS))
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate on the test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--ablation", default=None,
                   help="|".join(pipeline.ABLATIONS))
    p.add_argument("--transform", default=None,
                   help="|".join(spdm.FIXED_TRANSFORMS))
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="finite-difference gradient validation")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("export-mpf",
                       help="export the learned transform curve")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_export_mpf)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpecpoolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
