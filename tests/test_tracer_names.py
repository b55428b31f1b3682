"""The benchmark's tracer (perfbench/tracer.py) times calls by replacing
module attributes by name. A refactor that renames or moves one of those
names would leave the traced pass silently reading zero, so every name it
wraps must still resolve."""
import importlib
import importlib.util
import types
from pathlib import Path

import numpy as np

from specbench.autodiff import Tape, Tensor, backward, matmul, mean, recording, relu

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
