"""Time series containers and windowing.

A window anchored at time ``t`` pairs the context ``y[t-l:t]`` with the
target ``y[t:t+h]`` (half-open slices).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeTooShort

__all__ = [
    "TimeSeries",
    "ForecastTask",
    "Windows",
    "make_windows",
]


@dataclass(frozen=True)
class TimeSeries:
    """A univariate signal sampled at consecutive integer indices."""

    id: str
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if not self.id:
            raise ValueError("TimeSeries.id must be non-empty")
        if values.ndim != 1 or values.size < 1:
            raise ValueError("TimeSeries.values must be a non-empty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"TimeSeries {self.id!r} contains non-finite values")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ForecastTask:
    """Context length ``l`` and forecast horizon ``h``; defaults are the
    benchmark's."""

    context_len: int = 256
    horizon: int = 192

    def __post_init__(self):
        if self.context_len <= 0:
            raise ValueError("context_len must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class Windows:
    """Supervised examples as rows: ``contexts[i]`` ends at ``anchors[i]``
    and ``targets[i]`` starts there. Shapes (n, l), (n, h) and (n,)."""

    contexts: np.ndarray
    targets: np.ndarray
    anchors: np.ndarray

    def __post_init__(self):
        for name, dtype in (("contexts", float), ("targets", float), ("anchors", np.int64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        contexts, targets, anchors = self.contexts, self.targets, self.anchors
        if not (contexts.ndim == targets.ndim == 2 and anchors.ndim == 1
                and len(contexts) == len(targets) == len(anchors)):
            shapes = f"{contexts.shape}, {targets.shape}, {anchors.shape}"
            raise ValueError(f"Windows shapes {shapes} are not (n, l), (n, h), (n,)")
        if not (np.isfinite(contexts).all() and np.isfinite(targets).all()):
            raise ValueError("Windows values must be finite")

    def __len__(self) -> int:
        return self.anchors.size

    @staticmethod
    def concat(parts: list[Windows]) -> Windows:
        """One window set holding the rows of ``parts`` in order."""
        return Windows(
            np.concatenate([w.contexts for w in parts]),
            np.concatenate([w.targets for w in parts]),
            np.concatenate([w.anchors for w in parts]),
        )


def make_windows(
    series: TimeSeries,
    task: ForecastTask,
    stride: int = 1,
    bounds: tuple[int, int] | None = None,
) -> Windows:
    """Slide (context, target) windows over ``series.values[lo:hi]``.

    Anchors run ``lo + l, lo + l + stride, ...`` subject to ``t + h <= hi``,
    giving ``floor((hi - lo - l - h) / stride) + 1`` windows.

    Raises
    ------
    RangeTooShort
        If ``hi - lo < l + h``.
    """
    if stride <= 0:
        raise ValueError("stride must be positive")
    n = len(series)
    lo, hi = bounds if bounds is not None else (0, n)
    if not (0 <= lo <= hi <= n):
        raise ValueError(f"bounds [{lo}, {hi}) outside series of length {n}")
    l, h = task.context_len, task.horizon
    if hi - lo < l + h:
        raise RangeTooShort(
            f"range [{lo}, {hi}) holds {hi - lo} samples; need at least l+h = {l + h}"
        )
    rows = np.lib.stride_tricks.sliding_window_view(series.values[lo:hi], l + h)[::stride]
    return Windows(rows[:, :l], rows[:, l:], np.arange(lo + l, hi - h + 1, stride))
