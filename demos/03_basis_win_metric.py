"""The basis-win metric: can a forecast beat the top-k spectral baseline?

A forecast scores a top-k basis win when its MAE is no worse than the
MAE of the top-k partial spectral reconstruction over the same window.
The largest winning k (k_max) separates models that merely replay one
frequency from models that actually compose them; the benchmark's
evidence threshold is k_max >= 2.
"""
import numpy as np

from specbench import ForecastTask, basis_win_report, dft, gen_sinusoid_dataset, make_windows, partial_sum

task = ForecastTask(context_len=256, horizon=192)
dataset = gen_sinusoid_dataset(n_series=1, seed=7)
series = dataset.composed[0]
T = len(series) - task.horizon
windows = make_windows(series, task, 1, (T - task.context_len, len(series)))
target, anchor = windows.targets[0], windows.anchors[0]
bounds = (anchor, anchor + task.horizon)
dec = dft(series.values)

candidates = {
    "exact forecast": target.copy(),
    "top-1 partial sum": partial_sum(dec, 1, bounds),
    "constant mean": np.full(task.horizon, series.values[:T].mean()),
    "noisy forecast": target + np.random.default_rng(0).normal(size=task.horizon),
}

for name, forecast in candidates.items():
    report = basis_win_report(target, forecast, dec, bounds)
    mark = "composition evidence" if report.threshold_pass else "below threshold"
    print(f"{name:20s} wins={report.wins}  k_max={report.k_max}  ({mark})")
