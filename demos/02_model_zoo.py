"""Train a few zoo members on the compositional task and compare them.

Each model sees only the two basis sinusoids of each series during
training, then forecasts the composed series zero-shot. Desk-scale step
budgets keep this demo to a couple of minutes.
"""
import numpy as np

from specbench import ForecastTask, Windows, gen_sinusoid_dataset, mae, split_windows
from specbench.models import (
    Family,
    ModelConfig,
    TrainConfig,
    count_params,
    estimate_flops,
    fit,
    predict,
)

task = ForecastTask(context_len=256, horizon=192)
dataset = gen_sinusoid_dataset(n_series=3, seed=1)
T = 1008

splits = [split_windows(series, task, T, k=2) for series in dataset.composed]
train = Windows.concat([split.train for split in splits])
val = Windows.concat([split.valid for split in splits])
tests = Windows.concat([split.test for split in splits])
print(f"{len(train)} basis train windows, {len(tests)} composed test windows")

zoo = {
    "naive-last": (Family.NAIVE_LAST, {}, {}),
    "seasonal-naive": (Family.SEASONAL_NAIVE, {}, {}),
    "ses": (Family.SES, {}, {}),
    "ar-ls": (Family.AR_LS, {}, {}),
    "nlinear": (Family.NLINEAR, {}, dict(max_steps=400)),
    "mlp": (Family.MLP, {}, dict(max_steps=600)),
    "nbeats-lite": (Family.NBEATS_LITE, dict(nbeats_hidden=128), dict(max_steps=600)),
}

print(f"{'model':15s} {'OOD MAE':>9s} {'params':>9s} {'fwd MACs':>10s}")
for name, (family, axes, train_axes) in zoo.items():
    cfg = ModelConfig(family=family, horizon=task.horizon, context_len=task.context_len, **axes)
    tc = TrainConfig(windows_batch=64, val_check_every=100, seed=1, **train_axes)
    model = fit(cfg, train, val, tc)
    forecasts = predict(model, tests.contexts)  # one row per test window
    score = float(np.mean([mae(t, f) for t, f in zip(tests.targets, forecasts)]))
    print(f"{name:15s} {score:9.3f} {count_params(model):9d} {estimate_flops(cfg):10d}")
