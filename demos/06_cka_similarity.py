"""Representation similarity across training variants, via linear CKA.

Four small transformers are trained on a trend+sinusoid benchmark: one
on the composed series (ID) and three on component subsets (OOD). All
four then embed the same composed contexts, and linear CKA scores each
OOD representation against the ID one, showing how much of the ID
model's latent geometry each training diet reproduces. Desk-scale sizes
keep this to a few minutes (expect noisy scores at this scale; the
`specbench cka` subcommand runs the same protocol with flags for larger
budgets).
"""
import numpy as np

from specbench import ForecastTask, Windows, linear_cka, make_windows
from specbench.models import Family, ModelConfig, TrainConfig, embed, fit
from specbench.synthgen import SyntheticVariant, gen_trend_dataset

task = ForecastTask(context_len=96, horizon=32)
dataset = gen_trend_dataset(SyntheticVariant.TREND1, n_series=3, seed=1, length=512)

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
    patch_len=32,
    patch_stride=16,
    custom_dims=(64, 128, 2, 4),
)
tc = TrainConfig(max_steps=150, val_check_every=50, windows_batch=32, seed=1)

# each composed series' last context, one row per series
contexts = np.concatenate([
    make_windows(series, task, 1, (len(series) - task.horizon - task.context_len,
                                   len(series))).contexts
    for series in dataset.composed
])

embeddings = {}
for name, groups in variants.items():
    train, val = [], []
    for parts in groups:
        for part in parts:
            T = len(part) - task.horizon
            train.append(make_windows(part, task, 1, (0, T - task.horizon)))
            val.append(make_windows(part, task, 1, (T - task.horizon - task.context_len, T)))
    train, val = Windows.concat(train), Windows.concat(val)
    model = fit(cfg, train, val, tc)
    embeddings[name] = embed(model, contexts).reshape(len(contexts), -1)
    print(f"trained {name:13s} on {len(train)} windows")

names = list(variants)
print("\nlinear CKA against the ID model:")
for name in names[1:]:
    value = linear_cka(embeddings["id_composed"], embeddings[name])
    print(f"  {name:13s} {value:.3f}")
