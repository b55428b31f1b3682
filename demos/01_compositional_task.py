"""Walk through the compositional forecasting task on one synthetic series.

A composed signal is decomposed into its sinusoid basis; the benchmark
trains only on those basis series and asks models to forecast the
composition zero-shot. This script builds both the traditional (ID) and
compositional (OOD) splits and shows they share the same test windows.
"""
import numpy as np

from specbench import (
    ForecastTask,
    build_compositional_split,
    compositional_basis,
    dft,
    gen_sinusoid_dataset,
    partial_sum,
    split_traditional,
    top_k_components,
)

dataset = gen_sinusoid_dataset(n_series=3, seed=1)
series = dataset.composed[0]
print(f"series {series.id!r}: length {len(series)}")

# The generator stored the two ground-truth components; the spectrum
# recovers them exactly because frequencies sit on the DFT grid.
dec = dft(series.values)
for comp, part in zip(top_k_components(dec, 2), dataset.components[0]):
    print(
        f"  bin {comp.freq_index:3d}  amplitude {comp.amplitude:7.3f}  "
        f"phase {comp.phase:+.3f}   (generator component {part.id!r})"
    )

task = ForecastTask(context_len=256, horizon=192)
T = len(series) - task.horizon

id_split = split_traditional(series, task, split_point=T)
ood_split = build_compositional_split(series, task, k=2, split_point=T)
print(f"ID  split: {len(id_split.train)} train windows, {len(id_split.test)} test")
print(f"OOD split: {len(ood_split.train)} train windows (2 basis series), "
      f"{len(ood_split.test)} test")

same = np.array_equal(id_split.test.anchors, ood_split.test.anchors) and np.array_equal(
    id_split.test.targets, ood_split.test.targets
)
print(f"test windows identical across paradigms: {same}")

# The recovered basis series sum back to the composition everywhere,
# including the unseen test region.
basis = compositional_basis(series, 2)
recon = basis[0].values + basis[1].values
print(f"max |basis sum - composed| = {np.abs(recon - series.values).max():.2e}")

anchor, target = ood_split.test.anchors[0], ood_split.test.targets[0]
bounds = (anchor, anchor + task.horizon)
err = np.abs(partial_sum(dec, 2, bounds) - target).max()
print(f"top-2 partial sum matches the test target to {err:.2e}")
