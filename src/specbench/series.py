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
    """Supervised examples as starts into their sources' values, joined end
    to end: window ``i`` is ``values[starts[i] : starts[i] + l + h]``, its
    context then its target, and its target starts at ``anchors[i]`` in
    its own source. Overlapping windows share their source's samples."""

    values: np.ndarray
    starts: np.ndarray
    anchors: np.ndarray
    l: int
    h: int

    def __post_init__(self):
        for name, dtype in (("values", np.float64), ("starts", np.int64), ("anchors", np.int64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        values, starts, anchors = self.values, self.starts, self.anchors
        if self.l <= 0 or self.h <= 0:
            raise ValueError(f"Windows need positive l and h, got {self.l} and {self.h}")
        if not (values.ndim == starts.ndim == anchors.ndim == 1 and starts.size == anchors.size):
            shapes = f"{values.shape}, {starts.shape}, {anchors.shape}"
            raise ValueError(f"Windows shapes {shapes} are not (m,), (n,), (n,)")
        if starts.size and (starts.min() < 0 or starts.max() + self.l + self.h > values.size):
            raise ValueError(f"Windows starts run outside values of length {values.size}")
        if not np.isfinite(values).all():
            raise ValueError("Windows values must be finite")

    def __len__(self) -> int:
        return self.starts.size

    def rows(self, idx=slice(None), lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Samples ``[lo, hi)`` (default: all ``l + h``) of windows ``idx``,
        counted from their starts, as a new contiguous (n, hi - lo) array."""
        hi = self.l + self.h if hi is None else hi
        view = np.lib.stride_tricks.sliding_window_view(self.values, hi - lo)
        return view[self.starts[idx] + lo]

    @property
    def contexts(self) -> np.ndarray:
        """Every window's context, (n, l): a copy, meant for small sets."""
        return self.rows(hi=self.l)

    @property
    def targets(self) -> np.ndarray:
        """Every window's target, (n, h): a copy, meant for small sets."""
        return self.rows(lo=self.l)

    @staticmethod
    def concat(parts: list[Windows]) -> Windows:
        """One window set holding the windows of ``parts`` in order, over
        their values joined end to end."""
        if len({(w.l, w.h) for w in parts}) != 1:
            raise ValueError("Windows.concat needs parts of one context length and horizon")
        offsets = np.cumsum([0] + [w.values.size for w in parts[:-1]])
        starts = np.concatenate([w.starts + offset for w, offset in zip(parts, offsets)])
        values = np.concatenate([w.values for w in parts])
        anchors = np.concatenate([w.anchors for w in parts])
        return Windows(values, starts, anchors, parts[0].l, parts[0].h)


def make_windows(
    series: TimeSeries,
    task: ForecastTask,
    stride: int = 1,
    bounds: tuple[int, int] | None = None,
) -> Windows:
    """Slide windows over ``series.values[lo:hi]``, as starts into its values.

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
    starts = np.arange(lo, hi - l - h + 1, stride)
    return Windows(series.values, starts, starts + l, l, h)
