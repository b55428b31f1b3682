"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --workdir DIR --result FILE [--trace]

Run with ``src`` on ``PYTHONPATH``. Set-up (this interpreter's start, its
imports and the workload's inputs) ends when the timed pass starts; the
pass's monotonic start time is reported so the parent, which knows when it
started this process, can time set-up. ``DIR`` must be new and empty: the
pass writes its run files there, as a user's first run would. The result
is one JSON document written to ``FILE``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import time
from pathlib import Path

import numpy as np

from specbench.harness import cli

import tracer as tracing
import workloads


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "SPECBENCH_WORKERS": os.environ.get("SPECBENCH_WORKERS", "unset"),
    }


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _check(codes: list[int]) -> tuple[dict, list[str]]:
    """Read back the pass's outputs; return its run summary and gate failures."""
    problems = [f"cli exit codes {codes}"] if any(codes) else []
    digest = hashlib.sha256()
    runs = errored = 0
    for path in sorted(Path("results").glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))["result"]
        digest.update(json.dumps(result, sort_keys=True).encode("utf-8"))
        runs += 1
        if result["error"] is not None:
            errored += 1
            problems.append(f"run {result['run_id']} errored: {result['error']}")
        elif not (math.isfinite(result["mae"]) and math.isfinite(result["k_max"])):
            problems.append(f"run {result['run_id']} has non-finite mae/k_max")
    fresh, cached = Path("report_fresh.json"), Path("report_cached.json")
    if not (fresh.is_file() and cached.is_file()):
        problems.append("a report was not written")
    elif fresh.read_bytes() != cached.read_bytes():
        problems.append("cached-pass report differs from the fresh one")
    if runs == 0:
        problems.append("no run files written")
    bytes_written = sum(p.stat().st_size for p in Path("results").glob("*.json"))
    summary = {"runs": runs, "errored": errored, "digest": digest.hexdigest(),
               "run_file_bytes": bytes_written}
    return summary, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    workloads.write_inputs(args.workload, Path("."), args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    started = time.monotonic()
    with tracer.span("pass", "bench") if tracer else contextlib.nullcontext():
        # cli.main is looked up per call, so a traced pass calls the wrapper
        codes, events = workloads.run_pass(args.workload, lambda argv: cli.main(argv))
    wall_s = time.monotonic() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary, problems = _check(codes)
    doc = {
        "started": started,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "environment": _environment(),
        **summary,
    }
    if tracer is not None:
        cached = events.count("event=cached ")
        doc["per_layer"] = tracing.layer_metrics(
            tracer, wall_s, cached / max(summary["runs"], 1), summary["run_file_bytes"]
        )
        tracer.write_spans("spans.jsonl")
    Path(args.result).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
