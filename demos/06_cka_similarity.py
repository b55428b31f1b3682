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

from specbench import ForecastTask, Windows, linear_cka, split_windows
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

# each composed series' single test window at T = n - h: its last context
contexts = np.concatenate([
    split_windows(series, task, len(series) - task.horizon).test.contexts
    for series in dataset.composed
])

embeddings = {}
for name, groups in variants.items():
    splits = [
        split_windows(part, task, len(part) - task.horizon) for parts in groups for part in parts
    ]
    train = Windows.concat([split.train for split in splits])
    val = Windows.concat([split.valid for split in splits])
    model = fit(cfg, train, val, tc)
    embeddings[name] = embed(model, contexts).reshape(len(contexts), -1)
    print(f"trained {name:13s} on {len(train)} windows")

names = list(variants)
print("\nlinear CKA against the ID model:")
for name in names[1:]:
    value = linear_cka(embeddings["id_composed"], embeddings[name])
    print(f"  {name:13s} {value:.3f}")
