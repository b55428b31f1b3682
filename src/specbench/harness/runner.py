"""Experiment matrix execution, per-run persistence, and aggregation.

One run is a (dataset, model, seed, mode) cell: a single model trained on
the pooled train windows of every series in the dataset (original windows
for ID, top-k basis-sinusoid windows for OOD), then scored zero-shot on
each series' test windows. Runs persist as one JSON file per run id, so
re-running a finished matrix is a no-op and deleting a file recomputes
exactly that run. Failures are recorded as error files and never abort
the matrix.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import os
import time
import dataclasses
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from ..errors import SpecbenchError
from ..evaluation import (
    BASIS_WIN_THRESHOLD,
    _midranks,
    ScoreMatrix,
    basis_win_report,
    cd_analysis,
    mae,
)
from ..models import count_params, estimate_flops, fit, predict
from ..models.config import encode_field
from ..preprocess import load_csv
from ..series import ForecastTask, TimeSeries, Windows, make_windows
from ..spectral import SpectralDecomposition, basis_series, dft, top_k_components
from ..synthgen import SyntheticDataset, SyntheticVariant, gen_sinusoid_dataset, gen_trend_dataset
from .expconfig import DatasetSpec, ExperimentConfig, ModelSpec

__all__ = [
    "RESULT_SCHEMA", "RunResult", "SplitDataset", "run_id", "run_matrix", "aggregate",
    "resolve_dataset", "split_windows", "synthetic_dataset",
]

MODES = ("ID", "OOD")

# Version of the code that computes a run's ``result``. It is hashed into
# every run id, so bumping it makes run files written by older code cache
# misses. Bump it whenever a change moves result values without changing
# a config field.
RESULT_SCHEMA = 3


@dataclass
class RunResult:
    """Outcome of one (dataset, model, seed, mode) cell."""

    run_id: str
    dataset: str
    model: str
    seed: int
    mode: str
    mae: float = float("nan")
    k_max: float = float("nan")
    threshold_pass: bool = False
    n_series: int = 0
    per_series_mae: list[float] = field(default_factory=list)
    per_series_k_max: list[float] = field(default_factory=list)
    param_count: int = 0
    flop_estimate: int = 0
    example: dict = field(default_factory=dict)
    error: str | None = None
    wall_time_s: float = 0.0

    def to_json(self) -> str:
        payload = asdict(self)
        timing = {"wall_time_s": payload.pop("wall_time_s")}
        return json.dumps(
            {"result": payload, "timing": timing}, sort_keys=True, indent=2
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        doc = json.loads(text)
        payload = dict(doc["result"])
        payload["wall_time_s"] = doc.get("timing", {}).get("wall_time_s", 0.0)
        return cls(**payload)


def run_id(
    cfg: ExperimentConfig, spec: DatasetSpec, model: ModelSpec, seed: int, mode: str
) -> str:
    """Stable id hashing the text of every setting the run uses: the task,
    the train config with the run's seed, the dataset, and every model
    field with its defaults filled in, so a changed default is a new id.
    :data:`RESULT_SCHEMA` is hashed too, so new result code is a new id."""
    tables = {
        "task": {**asdict(cfg.task), "stride": cfg.stride, "split_point": cfg.split_point},
        "train": asdict(dataclasses.replace(cfg.train, seed=seed)),
        "dataset": asdict(spec),
        "model": {"name": model.name, **model.config_fields(cfg.task)},
    }
    parts = [
        f"{table}.{key}={encode_field(value)}"
        for table, values in tables.items()
        for key, value in values.items()
    ]
    parts += [f"mode={mode}", f"schema={RESULT_SCHEMA}"]
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:16]


_DATASET_CACHE: dict[tuple, list[TimeSeries]] = {}


def synthetic_dataset(kind: str, n_series: int, seed: int, length: int) -> SyntheticDataset:
    """Generate the synthetic dataset named by ``kind``: "sinusoid",
    "trend1" or "trend2" (a :class:`SyntheticVariant` value)."""
    variant = SyntheticVariant(kind)
    if variant is SyntheticVariant.SINUSOID:
        return gen_sinusoid_dataset(n_series, seed=seed, length=length)
    return gen_trend_dataset(variant, n_series, seed=seed, length=length)


def resolve_dataset(spec: DatasetSpec) -> list[TimeSeries]:
    """Materialize a dataset's composed series (cached per spec)."""
    key = (spec.kind, spec.path, spec.n_series, spec.seed, spec.length, spec.limit_series)
    if key in _DATASET_CACHE:
        return _DATASET_CACHE[key]
    if spec.kind == "csv":
        series = load_csv(spec.path)
    else:
        series = synthetic_dataset(spec.kind, spec.n_series, spec.seed, spec.length).composed
    if spec.limit_series:
        series = series[: spec.limit_series]
    _DATASET_CACHE[key] = series
    return series


@dataclass(frozen=True)
class SplitDataset:
    """The windows one series gives a run: ``train`` and ``valid`` rows of
    every training source, then ``test`` rows of the series itself."""

    train: Windows
    valid: Windows
    test: Windows


def split_windows(
    series: TimeSeries,
    task: ForecastTask,
    split_point: int,
    stride: int = 1,
    dec: SpectralDecomposition | None = None,
    k: int | None = None,
) -> SplitDataset:
    """Split one series at ``T = split_point`` as a run trains and scores it.

    The training sources are the series itself (ID) or, given ``k``, its
    top-k basis sinusoids over the series' full index range (OOD), taken
    from ``dec``, the series' :func:`dft` (computed if not given). Each
    source gives train windows over ``[0, T - h)`` and validation windows
    over ``[T - h - l, T)``, so the last horizon before ``T`` is held out
    of training. Test windows are the series' own over ``[T - l, n)``,
    anchored at ``t >= T``. :func:`make_windows` raises RangeTooShort
    unless ``T >= l + 2h`` and ``n >= T + h``.
    """
    train, valid, test = _source_windows(series, task, split_point, stride, dec, k)
    return SplitDataset(Windows.concat(train), Windows.concat(valid), test)


def _source_windows(
    series: TimeSeries,
    task: ForecastTask,
    split_point: int,
    stride: int,
    dec: SpectralDecomposition | None,
    k: int | None,
) -> tuple[list[Windows], list[Windows], Windows]:
    """:func:`split_windows` before it concatenates: each source's train and
    valid windows, views of the source's values, and the test windows.
    A run pools the views of all its series with one copy."""
    l, h = task.context_len, task.horizon
    if k is None:
        sources = [series]
    else:
        dec = dec if dec is not None else dft(series.values)
        sources = [
            TimeSeries(series.id, basis_series(comp, dec.n, (0, len(series))))
            for comp in top_k_components(dec, k)
        ]
    train, valid = [], []
    for source in sources:
        train.append(make_windows(source, task, stride, (0, split_point - h)))
        valid.append(make_windows(source, task, stride, (split_point - h - l, split_point)))
    test = make_windows(series, task, stride, (split_point - l, len(series)))
    return train, valid, test


def execute_run(
    cfg: ExperimentConfig,
    spec: DatasetSpec,
    model_spec: ModelSpec,
    seed: int,
    mode: str,
) -> RunResult:
    rid = run_id(cfg, spec, model_spec, seed, mode)
    result = RunResult(
        run_id=rid, dataset=spec.name, model=model_spec.name, seed=seed, mode=mode
    )
    started = time.perf_counter()
    try:
        model_cfg = model_spec.materialize(cfg.task)
        # window with the model's own context so context-length ablations
        # work; targets are anchored identically across models either way
        task = ForecastTask(model_cfg.context_len, cfg.task.horizon)
        series_list = resolve_dataset(spec)

        k = spec.k if mode == "OOD" else None
        train: list[Windows] = []
        valid: list[Windows] = []
        tests, decs = [], []
        for series in series_list:
            T = cfg.split_point if cfg.split_point is not None else len(series) - task.horizon
            decs.append(dft(series.values))
            tr, va, test = _source_windows(series, task, T, cfg.stride, decs[-1], k)
            train += tr
            valid += va
            tests.append(test)

        tc = dataclasses.replace(cfg.train, seed=seed)
        model = fit(model_cfg, Windows.concat(train), Windows.concat(valid), tc)

        example: dict = {}
        for series, test, dec in zip(series_list, tests, decs):
            forecasts = predict(model, test.contexts)
            if not example:
                example = {
                    "series": series.id,
                    "anchor": int(test.anchors[0]),
                    "context": test.contexts[0].tolist(),
                    "target": test.targets[0].tolist(),
                    "forecast": forecasts[0].tolist(),
                }
            result.per_series_mae.append(float(np.mean([
                mae(y, yhat) for y, yhat in zip(test.targets, forecasts)
            ])))
            bounds = np.stack([test.anchors, test.anchors + task.horizon], axis=1)
            reports = basis_win_report(test.targets, forecasts, dec, bounds)
            result.per_series_k_max.append(float(np.mean([r.k_max for r in reports])))

        result.n_series = len(series_list)
        result.mae = float(np.mean(result.per_series_mae))
        result.k_max = float(np.mean(result.per_series_k_max))
        result.threshold_pass = bool(result.k_max >= BASIS_WIN_THRESHOLD)
        result.param_count = count_params(model)
        result.flop_estimate = estimate_flops(model_cfg)
        result.example = example
    except Exception as exc:  # noqa: BLE001 - matrix must survive any run failure
        result.error = f"{type(exc).__name__}: {exc}"
    result.wall_time_s = time.perf_counter() - started
    return result


def _write_run(out: Path, result: RunResult) -> None:
    """Write a run file through a temporary name, so that a writer killed
    midway leaves no partial file under the run id."""
    path = out / f"{result.run_id}.json"
    tmp = out / f"{result.run_id}.json.{os.getpid()}.tmp"
    tmp.write_text(result.to_json(), encoding="utf-8")
    os.replace(tmp, path)


def _read_run(path: Path) -> RunResult | None:
    """The run stored at ``path``, or None if it is missing or unreadable."""
    try:
        return RunResult.from_json(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _read_runs(results_dir: Path) -> Iterator[RunResult]:
    """Every run stored under ``results_dir``, in file-name order."""
    for path in sorted(results_dir.glob("*.json")):
        run = _read_run(path)
        if run is None:
            raise SpecbenchError(f"run file {path} is unreadable")
        yield run


try:  # glibc only; elsewhere freed memory is left to the allocator
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
except (OSError, AttributeError, TypeError):
    _malloc_trim = None


def _release_freed_memory() -> None:
    """Return the C heap's free pages to the OS between runs.

    glibc keeps freed heap pages resident while a live block sits above
    them, so what one model's training leaves resident depends on where
    its last allocations landed, and the next run's peak stacks on top of
    it. Trimming after every run makes a matrix's peak memory the same
    from one invocation to the next.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def _run_and_write(job) -> RunResult:
    """Execute one ``(out, cfg, spec, model, seed, mode)`` job, return its
    freed memory to the OS and write its run file. Jobs pickle as they are."""
    out, cfg, spec, model, seed, mode = job
    result = execute_run(cfg, spec, model, seed, mode)
    _release_freed_memory()
    _write_run(out, result)
    return result


def run_matrix(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    progress=None,
) -> list[RunResult]:
    """Execute every (dataset, model, seed, mode) cell, reusing cached runs.

    ``SPECBENCH_WORKERS`` > 1 sends the pending runs to that many worker
    processes. ``progress`` gets ``cached`` per reused run, and ``run`` and
    ``done`` per executed one: interleaved when serial, every ``run`` first
    with workers.
    """
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = [
        (spec, model, seed, mode)
        for spec in cfg.datasets
        for model in cfg.models
        for seed in cfg.seeds
        for mode in MODES
    ]
    ids = [run_id(cfg, *cell) for cell in cells]
    results: dict[str, RunResult] = {}
    pending = []
    for cell, rid in zip(cells, ids):
        cached = _read_run(out / f"{rid}.json")
        if cached is None:
            pending.append(cell)
            continue
        results[rid] = cached
        if progress:
            spec, model, seed, mode = cell
            progress(event="cached", run_id=rid, dataset=spec.name, model=model.name,
                     seed=seed, mode=mode)

    def jobs():
        for spec, model, seed, mode in pending:
            if progress:
                progress(event="run", dataset=spec.name, model=model.name, seed=seed, mode=mode)
            yield out, cfg, spec, model, seed, mode

    workers = int(os.environ.get("SPECBENCH_WORKERS", "1") or "1")
    # a pool takes every job before the first run finishes; ``map`` takes
    # each job when the loop asks for its result
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 and pending else None
    with pool or nullcontext():
        for result in (pool.map if pool else map)(_run_and_write, jobs()):
            results[result.run_id] = result
            if progress:
                progress(event="done", run_id=result.run_id, mae=result.mae, error=result.error)

    return [results[rid] for rid in ids]


def aggregate(results_dir: str | Path, cd_alpha: float = 0.05) -> dict:
    """Fold a directory of run files into one report document.

    Produces per-cell mean/std over seeds (population denominator),
    top-3 win counts, mean basis-win k, average ranks, and (when at least
    3 models and 3 datasets are complete) the Friedman test and the
    Wilcoxon-Holm grouping; the signed-rank test needs 3 paired datasets.
    """
    runs = []
    errors = []
    for run in _read_runs(Path(results_dir)):
        if run.error is not None:
            errors.append({"run_id": run.run_id, "dataset": run.dataset,
                           "model": run.model, "seed": run.seed, "mode": run.mode,
                           "error": run.error})
        else:
            runs.append(run)
    if not runs and not errors:
        raise SpecbenchError(f"no run files found under {results_dir}")

    datasets = sorted({r.dataset for r in runs})
    models = sorted({r.model for r in runs})
    modes = sorted({r.mode for r in runs})

    cells: dict[str, dict] = {}
    by_cell: dict[tuple[str, str, str], list[RunResult]] = {}
    for run in runs:
        by_cell.setdefault((run.dataset, run.model, run.mode), []).append(run)
    missing = []
    for mode in modes:
        for dataset in datasets:
            for model in models:
                group = by_cell.get((dataset, model, mode))
                if not group:
                    missing.append(f"{dataset}|{model}|{mode}")
                    continue
                group = sorted(group, key=lambda r: r.seed)
                maes = [r.mae for r in group]
                cells[f"{dataset}|{model}|{mode}"] = {
                    "mae_mean": float(np.mean(maes)),
                    "mae_std": float(np.std(maes)),
                    "k_max_mean": float(np.mean([r.k_max for r in group])),
                    "threshold_pass": bool(np.mean([r.k_max for r in group]) >= BASIS_WIN_THRESHOLD),
                    "n_seeds": len(group),
                    "seeds": [r.seed for r in group],
                }

    top3: dict[str, int] = {f"{m}|{mode}": 0 for m in models for mode in modes}
    avg_ranks: dict[str, dict[str, float]] = {}
    cd_report: dict[str, dict] = {}
    for mode in modes:
        complete = all(f"{d}|{m}|{mode}" in cells for d in datasets for m in models)
        if not complete or not datasets:
            continue
        per_dataset_ranks = []
        for dataset in datasets:
            scores = [cells[f"{dataset}|{m}|{mode}"]["mae_mean"] for m in models]
            ranks = _midranks(np.asarray(scores, dtype=np.float64)).tolist()
            per_dataset_ranks.append(ranks)
            for m, rank in zip(models, ranks):
                if rank <= 3:
                    top3[f"{m}|{mode}"] += 1
        mean_ranks = np.mean(np.asarray(per_dataset_ranks), axis=0)
        avg_ranks[mode] = {m: float(r) for m, r in zip(models, mean_ranks)}
        if len(models) >= 3 and len(datasets) >= 3:
            sm = ScoreMatrix(
                methods=list(models),
                datasets=list(datasets),
                scores=np.array(
                    [[cells[f"{d}|{m}|{mode}"]["mae_mean"] for d in datasets] for m in models]
                ),
            )
            cd = cd_analysis(sm, alpha=cd_alpha)
            cd_report[mode] = {
                "alpha": cd_alpha,
                "friedman_statistic": cd.friedman.statistic,
                "friedman_p": cd.friedman.p_value,
                "gate_passed": cd.gate_passed,
                "avg_ranks": {m: float(r) for m, r in zip(cd.methods, cd.avg_ranks)},
                "adjusted_p": cd.adjusted_p.tolist(),
                "groups": cd.groups,
            }

    return {
        "datasets": datasets,
        "models": models,
        "modes": modes,
        "cells": cells,
        "top3_win_counts": top3,
        "avg_ranks": avg_ranks,
        "cd": cd_report,
        "missing_cells": missing,
        "errors": errors,
    }
