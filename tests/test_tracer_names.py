"""The benchmark's tracer (perfbench/tracer.py) times calls by replacing
module attributes by name. A refactor that renames or moves one of those
names would leave the traced pass silently reading zero, so every name it
wraps must still resolve."""
import importlib
import importlib.util
from pathlib import Path

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
