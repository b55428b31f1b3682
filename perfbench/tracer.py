"""Span tracer for the traced benchmark pass.

Every call into a layer's public functions is timed by replacing the name
at the module where the caller looks it up (``specbench.harness.runner.fit``,
``specbench.models.training.backward``, ...). No specbench source is
edited, and the wrappers hand back exactly what the wrapped call returned,
so a traced pass must reproduce the untraced run files byte for byte.

Spans live in memory as ``[name, layer, parent, start, end]`` lists and
are written out once the pass has ended. A layer's self time is the
duration of its spans minus the part their child spans cover.
"""
from __future__ import annotations

import importlib
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps

LAYERS = (
    "harness", "synthgen", "series", "spectral", "models",
    "autodiff", "optim", "evaluation", "preprocess",
)

# Tape primitives timed one by one; forward via the names the networks look
# up, backward via the rule each call appends to the active tape.
OPS = (
    "matmul", "relu", "add", "mul", "layer_norm", "softmax",
    "transpose", "reshape", "embedding", "tslice", "concat",
)
_OP_MODULES = ("specbench.models.transformer", "specbench.models.networks", "specbench.models.losses")

# (module, name looked up there, span name, layer)
_CALLS = (
    ("specbench.harness.cli", "main", "harness.cli", "harness"),
    ("specbench.harness.cli", "run_matrix", "harness.run_matrix", "harness"),
    ("specbench.harness.cli", "aggregate", "harness.aggregate", "harness"),
    ("specbench.harness.runner", "gen_sinusoid_dataset", "synthgen.generate", "synthgen"),
    ("specbench.harness.runner", "gen_trend_dataset", "synthgen.generate", "synthgen"),
    ("specbench.harness.runner", "dft", "spectral.dft", "spectral"),
    ("specbench.models.statistical", "dft", "spectral.dft", "spectral"),
    ("specbench.harness.runner", "top_k_components", "spectral.top_k", "spectral"),
    ("specbench.harness.runner", "basis_series", "spectral.basis_series", "spectral"),
    ("specbench.harness.runner", "predict", "models.predict", "models"),
    ("specbench.models.training", "backward", "autodiff.backward", "autodiff"),
    ("specbench.harness.runner", "mae", "evaluation.mae", "evaluation"),
    ("specbench.harness.runner", "basis_win_report", "evaluation.basis_win", "evaluation"),
    ("specbench.harness.runner", "cd_analysis", "evaluation.cd_analysis", "evaluation"),
    ("specbench.harness.cli", "load_csv", "preprocess.load_csv", "preprocess"),
    ("specbench.harness.runner", "load_csv", "preprocess.load_csv", "preprocess"),
    ("specbench.harness.cli", "segment", "preprocess.segment", "preprocess"),
    ("specbench.harness.cli", "select_series", "preprocess.select_series", "preprocess"),
    ("specbench.preprocess", "mean_acf", "preprocess.acf", "preprocess"),
    ("specbench.harness.cli", "write_csv", "preprocess.write_csv", "preprocess"),
)


class _TimedRule:
    """A tape record's backward rule that adds its run time to one op."""

    __slots__ = ("rule", "op", "totals")

    def __init__(self, rule, op, totals):
        self.rule, self.op, self.totals = rule, op, totals

    def __call__(self, grad):
        started = time.perf_counter()
        grads = self.rule(grad)
        self.totals[self.op] += time.perf_counter() - started
        return grads


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_bwd_s: Counter = Counter()
        self._open: list[int] = []
        self._tape = None

    # -- spans ------------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, layer, parent, time.perf_counter(), 0.0])
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> float:
        span = self.spans[idx]
        span[4] = time.perf_counter()
        self._open.pop()
        return span[4] - span[3]

    @contextmanager
    def span(self, name: str, layer: str):
        idx = self._enter(name, layer)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, module, attr: str, name: str, layer: str, after=None) -> None:
        original = getattr(module, attr)

        @wraps(original)
        def traced(*args, **kwargs):
            idx = self._enter(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = self._exit(idx)
            if after is not None:
                after(seconds, result, *args, **kwargs)
            return result

        setattr(module, attr, traced)

    def _wrap_op(self, module, op: str) -> None:
        original = getattr(module, op)

        @wraps(original)
        def traced(*args, **kwargs):
            tape = self._tape
            first = len(tape.records) if tape is not None else 0
            idx = self._enter(f"autodiff.op.{op}", "autodiff")
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(idx)
            if tape is not None:
                records = tape.records
                for i in range(first, len(records)):
                    name, out, inputs, rule = records[i]
                    if not isinstance(rule, _TimedRule):
                        records[i] = (name, out, inputs, _TimedRule(rule, op, self.op_bwd_s))
            return result

        setattr(module, op, traced)

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name for the rest of this process."""
        mod = importlib.import_module
        for module, attr, name, layer in _CALLS:
            self._wrap(mod(module), attr, name, layer)
        count = self.counts
        runner = mod("specbench.harness.runner")
        training = mod("specbench.models.training")
        preprocess = mod("specbench.preprocess")

        def windows_built(seconds, windows, *args, **kwargs):
            count["series.windows_built"] += len(windows)

        self._wrap(runner, "make_windows", "series.make_windows", "series", windows_built)

        def adam_done(seconds, result, params, *args, **kwargs):
            count["optim.param_scalars"] += sum(p.data.size for p in params.values())

        self._wrap(training, "adam_step", "optim.adam", "optim", adam_done)

        def adf_done(seconds, report, *args, **kwargs):
            count["preprocess.stationary"] += int(report.stationary)

        self._wrap(preprocess, "adf_test", "preprocess.adf", "preprocess", adf_done)
        estimate_flops = mod("specbench.models").estimate_flops

        def fit_done(seconds, model, config, train, valid, tc):
            if config.is_statistical:
                count["models.fit_statistical_s"] += seconds
                return
            # one recording block per step, each forwarding one batch
            windows = model.history[-1][0] * min(tc.windows_batch, len(train))
            count["models.fit_gradient_s"] += seconds
            count["models.steps_run"] += model.history[-1][0]
            count["models.best_steps"] += min(model.history, key=lambda entry: entry[2])[0]
            count["models.train_draws"] += windows
            count["series.windows_trained"] += min(len(train), windows) + len(valid)
            count["autodiff.fwd_flop"] += 2 * estimate_flops(config) * windows

        self._wrap(runner, "fit", "models.fit", "models", fit_done)
        self._install_recording(training)
        for module in _OP_MODULES:
            module = mod(module)
            for op in OPS:
                if hasattr(module, op):
                    self._wrap_op(module, op)

    def _install_recording(self, training) -> None:
        original = training.recording

        @contextmanager
        def traced(tape):
            idx = self._enter("autodiff.forward", "autodiff")
            self._tape = tape
            try:
                with original(tape):
                    yield tape
            finally:
                self._tape = None
                self._exit(idx)
                self.counts["autodiff.recordings"] += 1
                self.counts["autodiff.tape_records"] += len(tape.records)

        setattr(training, "recording", traced)

    # -- results ----------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Per span name: total seconds and calls; per layer: self seconds."""
        seconds: Counter = Counter()
        calls: Counter = Counter()
        child_s = [0.0] * len(self.spans)
        for name, layer, parent, start, end in self.spans:
            seconds[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_s[parent] += end - start
        self_s: Counter = Counter()
        for (name, layer, parent, start, end), inner in zip(self.spans, child_s):
            self_s[layer] += end - start - inner
        return seconds, calls, self_s

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, parent, start, end in self.spans:
                fh.write(json.dumps([name, layer, parent, start, end]) + "\n")


def gemm_ceiling_gflops(reps: int = 30) -> float:
    """Fastest float64 (1344x256)@(256x1024) GEMM in this process, GFLOP/s."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((1344, 256))
    b = rng.standard_normal((256, 1024))
    best = math.inf
    for _ in range(reps):
        started = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - started)
    return 2.0 * 1344 * 256 * 1024 / best / 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, cached_hit_ratio: float,
                  run_file_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; names as listed in BENCHMARK.json."""
    seconds, calls, self_s = tracer.totals()
    count = tracer.counts
    run_matrix = [end - start for name, _, _, start, end in tracer.spans
                  if name == "harness.run_matrix"]
    forward_s = seconds["autodiff.forward"]
    fwd_gflops = _ratio(count["autodiff.fwd_flop"], forward_s) / 1e9
    ceiling = gemm_ceiling_gflops()
    windows_used = count["series.windows_trained"] + calls["models.predict"]
    out = {
        "harness.run_matrix_s": run_matrix[0] if run_matrix else 0.0,
        "harness.cached_pass_s": sum(run_matrix[1:]),
        "harness.aggregate_s": seconds["harness.aggregate"],
        "harness.run_file_bytes": run_file_bytes,
        "harness.cached_hit_ratio": cached_hit_ratio,
        "synthgen.generate_s": seconds["synthgen.generate"],
        "series.make_windows_s": seconds["series.make_windows"],
        "series.windows_built": count["series.windows_built"],
        "series.window_use_ratio": _ratio(windows_used, count["series.windows_built"]),
        "spectral.dft_s": seconds["spectral.dft"],
        "spectral.dft_calls": calls["spectral.dft"],
        "spectral.top_k_s": seconds["spectral.top_k"],
        "models.fit_s": seconds["models.fit"],
        "models.fit_statistical_s": count["models.fit_statistical_s"],
        "models.predict_s": seconds["models.predict"],
        "models.predict_calls": calls["models.predict"],
        "models.steps_run": count["models.steps_run"],
        "models.useful_step_ratio": _ratio(count["models.best_steps"], count["models.steps_run"]),
        "models.train_windows_per_s": _ratio(count["models.train_draws"], count["models.fit_gradient_s"]),
        "autodiff.forward_s": forward_s,
        "autodiff.backward_s": seconds["autodiff.backward"],
        "autodiff.tape_records_per_step": _ratio(count["autodiff.tape_records"], count["autodiff.recordings"]),
    }
    for op in OPS:
        out[f"autodiff.op.{op}.fwd_s"] = seconds[f"autodiff.op.{op}"]
        out[f"autodiff.op.{op}.bwd_s"] = tracer.op_bwd_s[op]
    out.update({
        "autodiff.fwd_gflops": fwd_gflops,
        "autodiff.gemm_ceiling_gflops": ceiling,
        "autodiff.gemm_ratio": _ratio(fwd_gflops, ceiling),
        "optim.adam_s": seconds["optim.adam"],
        "optim.adam_calls": calls["optim.adam"],
        "optim.param_scalars": count["optim.param_scalars"],
        "evaluation.basis_win_s": seconds["evaluation.basis_win"],
        "evaluation.basis_win_calls": calls["evaluation.basis_win"],
        "evaluation.mae_s": seconds["evaluation.mae"],
        "evaluation.cd_analysis_s": seconds["evaluation.cd_analysis"],
        "preprocess.load_csv_s": seconds["preprocess.load_csv"],
        "preprocess.segment_s": seconds["preprocess.segment"],
        "preprocess.adf_s": seconds["preprocess.adf"],
        "preprocess.adf_calls": calls["preprocess.adf"],
        "preprocess.acf_s": seconds["preprocess.acf"],
        "preprocess.kept_ratio": _ratio(count["preprocess.stationary"], calls["preprocess.adf"]),
        "preprocess.write_csv_s": seconds["preprocess.write_csv"],
    })
    for layer in LAYERS:
        out[f"{layer}.self_share"] = _ratio(self_s[layer], wall_s)
    return out
