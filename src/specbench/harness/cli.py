"""Command-line interface: gen, prep, run, eval, plot, cka.

Exit codes: 0 success, 1 user error (bad flags, malformed input, missing
files), 2 internal error. Progress is written as machine-readable
``event=... key=value`` lines on standard output.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ..errors import SpecbenchError
from ..evaluation import linear_cka
from ..models import (
    Family,
    ModelConfig,
    ModelSize,
    TrainConfig,
    embed,
    fit,
)
from ..preprocess import (
    ACF_LAGS, ADF_ALPHA, PATCH_LEN, PATCH_STRIDE, load_csv, segment, select_series, write_csv,
)
from ..series import ForecastTask, TimeSeries, Windows
from ..synthgen import DEFAULT_LENGTH
from .expconfig import load_config
from .plotting import plot_forecast
from .runner import _read_runs, aggregate, run_matrix, split_windows, synthetic_dataset

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(**fields) -> None:
    print(" ".join(f"{key}={value}" for key, value in fields.items()), flush=True)


def _cmd_gen(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = synthetic_dataset(args.kind, args.n, args.seed, args.length)
    write_csv(out / "composed.csv", dataset.composed)
    components = [part for parts in dataset.components for part in parts]
    write_csv(out / "components.csv", components)
    extra_files = ["composed.csv", "components.csv"]
    if dataset.train_components is not dataset.components:
        train_parts = [part for parts in dataset.train_components for part in parts]
        write_csv(out / "train_components.csv", train_parts)
        extra_files.append("train_components.csv")
    manifest = {
        "kind": args.kind,
        "n_series": args.n,
        "seed": args.seed,
        "length": args.length,
        "files": extra_files,
        "series_ids": [s.id for s in dataset.composed],
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    _emit(event="gen_done", kind=args.kind, composed=len(dataset.composed),
          components=len(components), out=out)
    return 0


def _cmd_prep(args) -> int:
    series = load_csv(args.input)
    _emit(event="prep_loaded", series=len(series))
    segments = []
    for ts in series:
        try:
            segments.extend(segment(ts, patch_len=args.patch_len, stride=args.stride))
        except SpecbenchError:
            continue
    _emit(event="prep_segmented", segments=len(segments))
    kept = select_series(segments, keep=args.keep, alpha=args.alpha, nlags=args.nlags)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    selected = [TimeSeries(id=seg.id, values=seg.values) for seg in kept]
    write_csv(out / "selected.csv", selected)
    _emit(event="prep_done", kept=len(kept), out=out / "selected.csv")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    results = run_matrix(cfg, out_dir=args.out, progress=_emit)
    failures = sum(1 for r in results if r.error)
    _emit(event="run_done", runs=len(results), failures=failures, out=args.out)
    return 0


def _cmd_eval(args) -> int:
    report = aggregate(args.results, cd_alpha=args.alpha)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    Path(args.report).write_text(text, encoding="utf-8")
    _emit(event="eval_done", cells=len(report["cells"]),
          missing=len(report["missing_cells"]), report=args.report)
    return 0


def _cmd_plot(args) -> int:
    forecasts: dict[str, np.ndarray] = {}
    context = target = None
    chosen = None
    for run in _read_runs(Path(args.results)):
        if run.error or not run.example:
            continue
        if args.dataset and run.dataset != args.dataset:
            continue
        if args.mode and run.mode != args.mode:
            continue
        key = (run.dataset, run.mode, run.example["series"], run.seed)
        if chosen is None:
            chosen = key
        if key != chosen:
            continue
        context = np.asarray(run.example["context"])
        target = np.asarray(run.example["target"])
        forecasts[run.model] = np.asarray(run.example["forecast"])
    if context is None:
        raise SpecbenchError("no matching run files with stored forecasts")
    title = f"{chosen[0]} {chosen[1]} {chosen[2]}"
    plot_forecast(context, target, forecasts, path=args.out, title=title)
    _emit(event="plot_done", models=len(forecasts), out=args.out)
    return 0


def _cmd_cka(args) -> int:
    dataset = synthetic_dataset(args.kind, max(args.series, 2), args.seed, args.length)
    task = ForecastTask(context_len=args.context_len, horizon=args.horizon)
    variants = {
        "id_composed": [[s] for s in dataset.composed],
        "ood_both": dataset.train_components,
        "ood_sinusoid": [[parts[0]] for parts in dataset.train_components],
        "ood_trend": [[parts[1]] for parts in dataset.train_components],
    }
    cfg = ModelConfig(
        family=Family.PATCH_TRANSFORMER,
        horizon=task.horizon,
        context_len=task.context_len,
        patch_len=args.patch_len,
        patch_stride=args.patch_stride,
        size=ModelSize(args.size),
    )
    tc = TrainConfig(max_steps=args.steps, val_check_every=max(1, args.steps // 4),
                     windows_batch=args.windows_batch, seed=args.seed)
    embeddings: dict[str, np.ndarray] = {}
    h = task.horizon
    # each composed series' single test window at T = n - h: its last context
    contexts = np.concatenate(
        [split_windows(s, task, len(s) - h).test.contexts for s in dataset.composed]
    )
    for name, groups in variants.items():
        splits = [split_windows(part, task, len(part) - h) for parts in groups for part in parts]
        train = Windows.concat([split.train for split in splits])
        val = Windows.concat([split.valid for split in splits])
        _emit(event="cka_fit", variant=name, windows=len(train))
        model = fit(cfg, train, val, tc)
        embeddings[name] = embed(model, contexts).reshape(len(contexts), -1)
    names = list(variants)
    matrix = [
        [linear_cka(embeddings[a], embeddings[b]) for b in names] for a in names
    ]
    doc = {"variants": names, "cka": matrix, "kind": args.kind, "seed": args.seed}
    Path(args.out).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    _emit(event="cka_done", out=args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="specbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset as CSV")
    gen.add_argument("--kind", choices=("sinusoid", "trend1", "trend2"), default="sinusoid")
    gen.add_argument("--n", type=int, default=100)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    prep = sub.add_parser("prep", help="segment, screen, and select real series")
    prep.add_argument("--input", required=True)
    prep.add_argument("--out", required=True)
    prep.add_argument("--keep", type=int, default=100)
    prep.add_argument("--patch-len", type=int, default=PATCH_LEN, dest="patch_len")
    prep.add_argument("--stride", type=int, default=PATCH_STRIDE)
    prep.add_argument("--alpha", type=float, default=ADF_ALPHA)
    prep.add_argument("--nlags", type=int, default=ACF_LAGS)
    prep.set_defaults(func=_cmd_prep)

    run = sub.add_parser("run", help="execute the experiment matrix")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.set_defaults(func=_cmd_run)

    ev = sub.add_parser("eval", help="aggregate run files into a report")
    ev.add_argument("--results", required=True)
    ev.add_argument("--report", required=True)
    ev.add_argument("--alpha", type=float, default=0.05)
    ev.set_defaults(func=_cmd_eval)

    plot = sub.add_parser("plot", help="render stored forecasts as SVG")
    plot.add_argument("--results", required=True)
    plot.add_argument("--out", required=True)
    plot.add_argument("--dataset", default=None)
    plot.add_argument("--mode", default=None, choices=("ID", "OOD"))
    plot.set_defaults(func=_cmd_plot)

    cka = sub.add_parser("cka", help="embedding similarity across training variants")
    cka.add_argument("--kind", choices=("trend1", "trend2"), default="trend1")
    cka.add_argument("--seed", type=int, default=1)
    cka.add_argument("--series", type=int, default=4)
    cka.add_argument("--length", type=int, default=512)
    cka.add_argument("--context-len", type=int, default=96, dest="context_len")
    cka.add_argument("--horizon", type=int, default=32)
    cka.add_argument("--patch-len", type=int, default=32, dest="patch_len")
    cka.add_argument("--patch-stride", type=int, default=16, dest="patch_stride")
    cka.add_argument("--size", choices=[s.value for s in ModelSize], default="TINY")
    cka.add_argument("--steps", type=int, default=150)
    cka.add_argument("--windows-batch", type=int, default=64, dest="windows_batch")
    cka.add_argument("--out", required=True)
    cka.set_defaults(func=_cmd_cka)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
