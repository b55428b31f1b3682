"""The benchmark's tracer (perfbench/tracer.py) times calls by replacing
module attributes by name. A refactor that renames or moves one of those
names would leave the traced pass silently reading zero, so every name it
wraps must still resolve."""
import importlib
import importlib.util
import types
from pathlib import Path

import numpy as np

from specbench import Segment, preprocess, select_series
from specbench.autodiff import Tape, Tensor, backward, matmul, mean, mul, recording, relu
from specbench.models import Family, ModelConfig, TrainConfig, fit, predict, statistical

from helpers import stack_windows

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer()
    wrapped = [(module, attr) for module, attr, _, _ in tracer._CALLS] + [
        ("specbench.harness.runner", "make_windows"),
        ("specbench.harness.runner", "fit"),
        ("specbench.models.training", "adam_step"),
        ("specbench.models.training", "recording"),
        ("specbench.preprocess", "adf_test"),
    ]
    missing = [
        f"{module}.{attr}" for module, attr in wrapped
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []



def _counting(monkeypatch, module, attr):
    """Replace ``module.attr`` by a wrapper that logs each call."""
    calls = []
    inner = getattr(module, attr)

    def wrapper(*args, **kwargs):
        calls.append(attr)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_seasonal_naive_takes_one_traced_dft_per_row(monkeypatch):
    cfg = ModelConfig(family=Family.SEASONAL_NAIVE, horizon=6, context_len=24)
    rows = np.sin(np.arange(5 * 24.0)).reshape(5, 24)
    model = fit(cfg, stack_windows([(r, r[:6], 24) for r in rows]), None, TrainConfig(max_steps=1))
    calls = _counting(monkeypatch, statistical, "dft")
    assert predict(model, rows).shape == (5, 6)
    assert len(calls) == 5


def test_the_screen_calls_the_traced_adf_and_acf(monkeypatch):
    # a walk shorter than the in-process head runs where the tracer sees it
    adf = _counting(monkeypatch, preprocess, "adf_test")
    acf = _counting(monkeypatch, preprocess, "mean_acf")
    rng = np.random.default_rng(34)
    segs = [Segment("noise", i, rng.normal(size=256)) for i in range(3)]
    assert len(select_series(segs, keep=2, nlags=8)) == 2
    assert len(acf) == 3 and len(adf) == 2


def test_every_traced_op_is_looked_up_somewhere():
    tracer = _tracer()
    modules = [importlib.import_module(name) for name in tracer._OP_MODULES]
    missing = [op for op in tracer.OPS if not any(hasattr(m, op) for m in modules)]
    assert missing == []


def test_op_wrapper_times_the_backward_of_node_records():
    # the tracer rewrites the records its wrapped op appended, so it must
    # keep working on records that hold node numbers
    rng = np.random.default_rng(7)
    x = rng.normal(size=(16, 8))
    params = [Tensor(rng.normal(size=(8, 32))), Tensor(rng.normal(size=(32, 4)))]

    def gradients(ops, tracer=None):
        tape = Tape()
        if tracer is not None:
            tracer._tape = tape
        with recording(tape):
            hidden = relu(ops.matmul(Tensor(x), params[0]))
            loss = mean(ops.matmul(hidden, params[1]))
        if tracer is not None:
            tracer._tape = None
        return backward(tape, loss, params)

    plain = gradients(types.SimpleNamespace(matmul=matmul))
    tracer = _tracer().Tracer()
    ops = types.SimpleNamespace(matmul=matmul)
    tracer._wrap_op(ops, "matmul")
    traced = gradients(ops, tracer)
    assert tracer.op_bwd_s["matmul"] > 0
    for a, b in zip(plain, traced):
        np.testing.assert_array_equal(a, b)


def test_op_wrapper_times_the_backward_of_constant_operand_records():
    # a mask passed as an array is no tape input; the wrapped op's record
    # still gets its backward timed, and the gradient is unchanged
    rng = np.random.default_rng(8)
    x = rng.normal(size=(16, 8))
    w = Tensor(rng.normal(size=(8, 4)))
    mask = (rng.random((16, 4)) > 0.5) / 0.5

    def gradient(ops, tracer=None):
        tape = Tape()
        if tracer is not None:
            tracer._tape = tape
        with recording(tape):
            loss = mean(ops.mul(matmul(x, w), mask))
        if tracer is not None:
            tracer._tape = None
        _, _, inputs, rule = tape.records[1]
        (grad,) = backward(tape, loss, [w])
        return grad, inputs, rule

    plain, _, _ = gradient(types.SimpleNamespace(mul=mul))
    module = _tracer()
    tracer = module.Tracer()
    ops = types.SimpleNamespace(mul=mul)
    tracer._wrap_op(ops, "mul")
    traced, inputs, rule = gradient(ops, tracer)
    assert len(inputs) == 1 and isinstance(rule, module._TimedRule)
    assert tracer.op_bwd_s["mul"] > 0
    np.testing.assert_array_equal(plain, traced)
