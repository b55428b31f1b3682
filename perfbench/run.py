"""specbench benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a specbench checkout (it needs ``src/specbench``).
Each pass runs in a fresh interpreter (``child.py``) with a new, empty
results directory, so every pass pays what a user's ``specbench run``
pays: imports, dataset generation, the per-length DFT matrices and an
empty run cache. Passes repeat until ``--seconds`` have gone by.

With ``--trace 0`` it reports the end-to-end metrics as medians over the
passes. With ``--trace 1`` it runs one untraced pass, then traced passes,
and reports the per-layer metrics (medians over the traced passes) and the
tracing overhead. The last line of standard output is one JSON object;
the lines before it name every metric with its unit, the environment and
each workload's result digest. The exit code is 1 when the correctness
gate fails and 2 when the checkout or a pass is broken.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # no specbench import: the parent stays light

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
MIN_PASSES = 3
# No pass starts unless it is expected to finish by this many seconds into
# the run, which keeps one invocation well inside three minutes.
LAST_FINISH_S = 165.0


class PassFailed(RuntimeError):
    pass


def _units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _run_pass(workload: str, seed: int, trace: bool, rundir: Path, index: int) -> dict:
    passdir = rundir / f"pass{index}"
    result = rundir / f"pass{index}.json"
    env = dict(os.environ)
    env.pop("SPECBENCH_WORKERS", None)  # the serial runner, as a default install uses
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(passdir), "--result", str(result)]
    if trace:
        cmd.append("--trace")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=LAST_FINISH_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass {index} did not finish in {LAST_FINISH_S:.0f} s") from None
    if proc.returncode != 0 or not result.is_file():
        raise PassFailed(f"pass {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    doc = json.loads(result.read_text(encoding="utf-8"))
    doc["setup_s"] = doc["started"] - spawned
    doc["pass_s"] = time.monotonic() - spawned
    doc["traced"] = trace
    if trace:
        shutil.move(str(passdir / "spans.jsonl"), str(WORK / f"spans-{workload}-seed{seed}.jsonl"))
    shutil.rmtree(passdir)
    return doc


def _passes(args, rundir: Path) -> list[dict]:
    started = time.monotonic()
    docs: list[dict] = []
    while True:
        trace = bool(args.trace) and len(docs) > 0
        docs.append(_run_pass(args.workload, args.seed, trace, rundir, len(docs)))
        doc = docs[-1]
        print(f"pass {len(docs)} traced={int(trace)} wall_s={doc['wall_s']:.4f} "
              f"setup_s={doc['setup_s']:.4f} peak_rss_mb={doc['peak_rss_mb']:.1f} "
              f"runs={doc['runs']} digest={doc['digest'][:16]}", flush=True)
        elapsed = time.monotonic() - started
        enough = len(docs) >= (2 if args.trace else MIN_PASSES)
        if enough and elapsed >= args.seconds:
            return docs
        if elapsed + 1.2 * max(d["pass_s"] for d in docs) > LAST_FINISH_S:
            return docs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still kills and waits for its pass (subprocess.run
    # does so on any exception) and removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "specbench" / "__init__.py").is_file():
        print(f"error: no specbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    rundir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True)
    try:
        docs = _passes(args, rundir)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    env = docs[0]["environment"]
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    digests = {d["digest"] for d in docs}
    attempted = sum(d["runs"] for d in docs)
    failed = 0
    for i, doc in enumerate(docs, start=1):
        problems = list(doc["problems"])
        if doc["digest"] != docs[0]["digest"]:
            problems.append("result digest differs from pass 1")
        failed += doc["errored"] + (1 if problems else 0)
        for problem in problems:
            print(f"gate pass {i}: {problem}")
    print(f"digest {args.workload} {docs[0]['digest']}"
          + ("" if len(digests) == 1 else f" (and {len(digests) - 1} others)"))
    print(f"failed_run_ratio {failed / attempted:.6f} ratio "
          f"({failed} failed of {attempted} runs attempted)")

    if args.trace:
        # docs[0] is the one untraced pass
        rows = [dict(d["per_layer"], **{"trace.overhead_ratio": d["wall_s"] / docs[0]["wall_s"]})
                for d in docs if d["traced"]]
    else:
        rows = docs
    metrics = {}
    for name, unit in _units("per_layer" if args.trace else "end_to_end").items():
        q1, median, q3 = _quartiles([row[name] for row in rows])
        metrics[name] = {"value": median, "unit": unit}
        print(f"metric {name} {median:.6g} {unit} "
              f"(median of {len(rows)} passes, q1 {q1:.6g}, q3 {q3:.6g})")
    correct = failed == 0
    print(f"gate {'ok' if correct else 'FAILED'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
