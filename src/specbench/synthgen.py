"""Procedural generators for the synthetic benchmark datasets.

Each dataset holds ``N`` composed series together with the component
series that sum to them, so compositional splits can be checked against
the generator's own ground truth. Time inside the generators is
normalized to ``t / n``: an integer frequency ``b`` completes exactly
``b`` cycles over the series and therefore occupies a single DFT bin,
and a slope ``m`` spans ``[0, m)`` over the series.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ExhaustedParameterSpace
from .series import TimeSeries

__all__ = [
    "SinusoidKind",
    "SinusoidSpec",
    "TrendSpec",
    "SyntheticVariant",
    "SyntheticDataset",
    "gen_sinusoid",
    "gen_trend",
    "gen_sinusoid_dataset",
    "gen_trend_dataset",
]

DEFAULT_LENGTH = 1200

AMPLITUDE_RANGE = (1, 32)
FREQ_RANGE = (3, 32)
SLOPE_LIMIT = 32.0


class SinusoidKind(Enum):
    SIN = "sin"
    COS = "cos"


class SyntheticVariant(Enum):
    SINUSOID = "sinusoid"
    TREND1 = "trend1"
    TREND2 = "trend2"


@dataclass(frozen=True)
class SinusoidSpec:
    """``a * sin(2 pi b t / n)`` or ``a * cos(2 pi b t / n)``."""

    kind: SinusoidKind
    amplitude: float
    freq: int
    length: int

    def __post_init__(self):
        if self.freq <= 0:
            raise ValueError("freq must be a positive cycle count")
        if self.length <= 2 * self.freq:
            raise ValueError("length must exceed 2 * freq (Nyquist)")


@dataclass(frozen=True)
class TrendSpec:
    """Linear ramp ``m * t / n``."""

    slope: float
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be positive")


@dataclass(frozen=True)
class SyntheticDataset:
    """Composed series plus the component series that sum to them.

    ``train_components`` are the series models see during compositional
    training; they equal ``components`` except for the TREND2 variant,
    whose training trends use positive slopes while the composed (test)
    trends use negative ones.
    """

    composed: list[TimeSeries]
    components: list[list[TimeSeries]]
    variant: SyntheticVariant
    seed: int
    train_components: list[list[TimeSeries]] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.train_components is None:
            object.__setattr__(self, "train_components", self.components)
        if not len(self.composed) == len(self.components) == len(self.train_components):
            raise ValueError("composed/components lists must align")


def gen_sinusoid(spec: SinusoidSpec) -> TimeSeries:
    t = np.arange(spec.length, dtype=np.float64)
    angle = 2.0 * np.pi * spec.freq * t / spec.length
    wave = np.sin(angle) if spec.kind is SinusoidKind.SIN else np.cos(angle)
    return TimeSeries(
        id=f"{spec.kind.value}-a{spec.amplitude:g}-b{spec.freq}",
        values=spec.amplitude * wave,
    )


def gen_trend(spec: TrendSpec) -> TimeSeries:
    t = np.arange(spec.length, dtype=np.float64)
    return TimeSeries(id=f"trend-m{spec.slope:.6g}", values=spec.slope * t / spec.length)


def _all_sinusoid_tuples() -> list[tuple[SinusoidKind, int, int]]:
    return [
        (kind, a, b)
        for kind in (SinusoidKind.SIN, SinusoidKind.COS)
        for a in range(AMPLITUDE_RANGE[0], AMPLITUDE_RANGE[1] + 1)
        for b in range(FREQ_RANGE[0], FREQ_RANGE[1] + 1)
    ]


def _sample_sinusoid_specs(
    rng: np.random.Generator,
    n_series: int,
    per_series: int,
    length: int,
) -> list[list[SinusoidSpec]]:
    """Draw parameter tuples without replacement; frequencies within one
    series are kept distinct so each component owns its own DFT bin."""
    pool = _all_sinusoid_tuples()
    if n_series * per_series > len(pool):
        raise ExhaustedParameterSpace(
            f"need {n_series * per_series} tuples, space holds {len(pool)}"
        )
    order = [pool[i] for i in rng.permutation(len(pool))]
    taken = [False] * len(order)
    groups = []
    for _ in range(n_series):
        freqs: set[int] = set()
        specs = []
        for _ in range(per_series):
            pick = next(
                (i for i, t in enumerate(order) if not taken[i] and t[2] not in freqs),
                None,
            )
            if pick is None:
                raise ExhaustedParameterSpace("no unused tuple with a fresh frequency")
            kind, a, b = order[pick]
            taken[pick] = True
            freqs.add(b)
            specs.append(SinusoidSpec(kind=kind, amplitude=float(a), freq=b, length=length))
        groups.append(specs)
    return groups


def _compose(series_id: str, parts: list[TimeSeries]) -> TimeSeries:
    total = np.zeros_like(parts[0].values)
    for part in parts:
        total = total + part.values
    return TimeSeries(id=series_id, values=total)


def _component(series_id: str, index: int, source: TimeSeries) -> TimeSeries:
    return TimeSeries(id=f"{series_id}/c{index}", values=source.values)


def gen_sinusoid_dataset(
    n_series: int = 100,
    composition_size: int = 2,
    seed: int = 1,
    length: int = DEFAULT_LENGTH,
) -> SyntheticDataset:
    """Stationary benchmark: each series is a sum of ``composition_size``
    sinusoids with integer amplitude and frequency, sampled without
    replacement across the whole dataset."""
    rng = np.random.Generator(np.random.PCG64(seed))
    groups = _sample_sinusoid_specs(rng, n_series, composition_size, length)
    composed, components = [], []
    for i, specs in enumerate(groups):
        sid = f"sinusoid-{i:03d}"
        parts = [gen_sinusoid(s) for s in specs]
        composed.append(_compose(sid, parts))
        components.append([_component(sid, j, p) for j, p in enumerate(parts)])
    return SyntheticDataset(
        composed=composed,
        components=components,
        variant=SyntheticVariant.SINUSOID,
        seed=seed,
    )


def _distinct_uniform(rng: np.random.Generator, lo: float, hi: float, count: int) -> np.ndarray:
    values = rng.uniform(lo, hi, size=count)
    # a sorted difference, not np.unique, which would import numpy.ma
    while not np.diff(np.sort(values)).all():  # pragma: no cover - measure-zero event
        values = rng.uniform(lo, hi, size=count)
    return values


def gen_trend_dataset(
    variant: SyntheticVariant,
    n_series: int = 100,
    seed: int = 1,
    length: int = DEFAULT_LENGTH,
) -> SyntheticDataset:
    """Nonstationary benchmark: one sinusoid plus one linear trend per series.

    TREND1 draws slopes from [-32, 32]. TREND2 draws the composed (test)
    trend from [-32, -1] and a separate training trend from [1, 32].
    """
    if variant not in (SyntheticVariant.TREND1, SyntheticVariant.TREND2):
        raise ValueError("variant must be TREND1 or TREND2")
    rng = np.random.Generator(np.random.PCG64(seed))
    sin_groups = _sample_sinusoid_specs(rng, n_series, 1, length)
    if variant is SyntheticVariant.TREND1:
        slopes = _distinct_uniform(rng, -SLOPE_LIMIT, SLOPE_LIMIT, n_series)
        train_slopes = slopes
    else:
        slopes = _distinct_uniform(rng, -SLOPE_LIMIT, -1.0, n_series)
        train_slopes = _distinct_uniform(rng, 1.0, SLOPE_LIMIT, n_series)

    composed, components, train_components = [], [], []
    for i, specs in enumerate(sin_groups):
        sid = f"{variant.value}-{i:03d}"
        sin_part = gen_sinusoid(specs[0])
        trend_part = gen_trend(TrendSpec(slope=float(slopes[i]), length=length))
        composed.append(_compose(sid, [sin_part, trend_part]))
        components.append(
            [_component(sid, 0, sin_part), _component(sid, 1, trend_part)]
        )
        train_trend = gen_trend(TrendSpec(slope=float(train_slopes[i]), length=length))
        train_components.append(
            [_component(sid, 0, sin_part), _component(sid, 1, train_trend)]
        )
    return SyntheticDataset(
        composed=composed,
        components=components,
        variant=variant,
        seed=seed,
        train_components=train_components,
    )
