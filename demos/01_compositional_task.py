"""Walk through the compositional forecasting task on one synthetic series.

A composed signal is decomposed into its sinusoid basis; the benchmark
trains only on those basis series and asks models to forecast the
composition zero-shot. This script splits the series as a run does, once
per paradigm (ID trains on the series, OOD on its basis), and shows that
both share the same test windows.
"""
import numpy as np

from specbench import (
    ForecastTask,
    dft,
    gen_sinusoid_dataset,
    partial_sum,
    split_windows,
    top_k_components,
)

dataset = gen_sinusoid_dataset(n_series=3, seed=1)
series = dataset.composed[0]
print(f"series {series.id!r}: length {len(series)}")

# The generator stored the two ground-truth components; the spectrum
# recovers them exactly because frequencies sit on the DFT grid.
dec = dft(series.values)
for w, amp, phase, part in zip(*top_k_components(dec, 2), dataset.components[0]):
    print(
        f"  bin {w:3d}  amplitude {amp:7.3f}  "
        f"phase {phase:+.3f}   (generator component {part.id!r})"
    )

task = ForecastTask(context_len=256, horizon=192)
T = len(series) - task.horizon

id_split = split_windows(series, task, split_point=T)
ood_split = split_windows(series, task, split_point=T, dec=dec, k=2)
# the last horizon before T is held out of training as the validation slice
print(f"ID  split: {len(id_split.train)} train, {len(id_split.valid)} valid, "
      f"{len(id_split.test)} test windows")
print(f"OOD split: {len(ood_split.train)} train, {len(ood_split.valid)} valid "
      f"(2 basis series), {len(ood_split.test)} test windows")

same = np.array_equal(id_split.test.anchors, ood_split.test.anchors) and np.array_equal(
    id_split.test.targets, ood_split.test.targets
)
print(f"test windows identical across paradigms: {same}")

# The top-2 basis series sum back to the composition everywhere,
# including the unseen test region.
recon = partial_sum(dec, 2, (0, len(series)))
print(f"max |basis sum - composed| = {np.abs(recon - series.values).max():.2e}")

anchor, target = ood_split.test.anchors[0], ood_split.test.targets[0]
bounds = (anchor, anchor + task.horizon)
err = np.abs(partial_sum(dec, 2, bounds) - target).max()
print(f"top-2 partial sum matches the test target to {err:.2e}")
