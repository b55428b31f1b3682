"""Discrete Fourier analysis and compositional split construction.

The forward transform uses the synthesis-friendly normalization
``c_w = (1/n) * sum_t y_t * exp(-i 2 pi w t / n)`` so that
``y_t = sum_w c_w * exp(+i 2 pi w t / n)`` holds with no extra factor.
Conjugate bin pairs ``(w, n-w)`` collapse into single real sinusoids
``amplitude * cos(2 pi w t / n + phase)``; a series is decomposed over its
full index range so the top-k sinusoids are exactly the basis functions
that compose it, and they extend deterministically over any index window.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import KTooLarge, NonFinite
from .series import (
    ForecastTask, SplitDataset, SplitMode, TimeSeries, Windows, make_windows, split_traditional,
)

__all__ = [
    "SpectralDecomposition",
    "BasisComponent",
    "dft",
    "reconstruct_full",
    "sorted_components",
    "top_k_components",
    "basis_series",
    "partial_sum",
    "compositional_basis",
    "build_compositional_split",
]

# Pair-collapsed amplitudes below max_amplitude * _NONZERO_RTOL are treated as
# numerical residue, not real components.
_NONZERO_RTOL = 1e-12


@dataclass(frozen=True)
class SpectralDecomposition:
    """Fourier coefficients of a length-``n`` real series."""

    coeffs: np.ndarray
    n: int

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1 or coeffs.size != self.n:
            raise ValueError("coeffs must be a 1-d array of length n")


@dataclass(frozen=True)
class BasisComponent:
    """One real sinusoid collapsed from a conjugate bin pair.

    ``is_pair`` is False only for the DC bin and (even ``n``) the Nyquist
    bin, whose amplitude is ``|c_w|`` rather than ``2 |c_w|``.
    """

    freq_index: int
    amplitude: float
    phase: float
    is_pair: bool


def _bit_reverse_indices(n: int) -> np.ndarray:
    levels = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for _ in range(levels):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def _fft_pow2(x: np.ndarray) -> np.ndarray:
    """Iterative radix-2 transform (unnormalized, e^{-i...} kernel)."""
    n = x.size
    a = x[_bit_reverse_indices(n)].astype(np.complex128)
    size = 2
    while size <= n:
        half = size // 2
        twiddle = np.exp(-2j * np.pi * np.arange(half) / size)
        a = a.reshape(-1, size)
        even = a[:, :half]
        odd = a[:, half:] * twiddle
        a = np.concatenate([even + odd, even - odd], axis=1).reshape(-1)
        size *= 2
    return a


@functools.lru_cache(maxsize=4)
def _dft_matrix(n: int, sign: int) -> np.ndarray:
    t = np.arange(n)
    return np.exp(sign * 2j * np.pi * np.outer(t, t) / n)


def _transform(x: np.ndarray, sign: int) -> np.ndarray:
    """Unnormalized transform with kernel ``exp(sign * i 2 pi w t / n)``."""
    n = x.size
    if n >= 2 and n & (n - 1) == 0:
        if sign < 0:
            return _fft_pow2(x)
        return np.conj(_fft_pow2(np.conj(x)))
    return _dft_matrix(n, sign) @ x


def dft(values: np.ndarray) -> SpectralDecomposition:
    """Decompose a real series; O(n log n) for power-of-two n, O(n^2) otherwise."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("dft needs a 1-d array of length >= 2")
    if not np.all(np.isfinite(values)):
        raise NonFinite("dft input contains NaN or infinity")
    n = values.size
    coeffs = _transform(values.astype(np.complex128), -1) / n
    return SpectralDecomposition(coeffs=coeffs, n=n)


def reconstruct_full(dec: SpectralDecomposition) -> np.ndarray:
    """Invert a decomposition back to the real series (imaginary residue dropped)."""
    return np.real(_transform(dec.coeffs, +1))


def _collapse(dec: SpectralDecomposition) -> list[BasisComponent]:
    n = dec.n
    out = []
    for w in range(n // 2 + 1):
        c = dec.coeffs[w]
        if w == 0 or (n % 2 == 0 and w == n // 2):
            amp = abs(c)
            phase = 0.0 if c.real >= 0 else math.pi
            is_pair = False
        else:
            amp = 2.0 * abs(c)
            phase = math.atan2(c.imag, c.real)
            if phase <= -math.pi:
                phase = math.pi
            is_pair = True
        out.append(BasisComponent(w, float(amp), float(phase), is_pair))
    return out


def sorted_components(dec: SpectralDecomposition) -> list[BasisComponent]:
    """All pair-collapsed components with non-negligible amplitude,
    sorted by descending amplitude (ties: lower frequency first)."""
    comps = _collapse(dec)
    tol = max(c.amplitude for c in comps) * _NONZERO_RTOL
    comps = [c for c in comps if c.amplitude > tol]
    return sorted(comps, key=lambda c: (-c.amplitude, c.freq_index))


def top_k_components(dec: SpectralDecomposition, k: int) -> list[BasisComponent]:
    """The k largest pair-collapsed components.

    Raises
    ------
    KTooLarge
        If fewer than ``k`` components have nonzero amplitude.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    comps = sorted_components(dec)
    if k > len(comps):
        raise KTooLarge(f"k={k} exceeds the {len(comps)} nonzero components")
    return comps[:k]


def basis_series(comp: BasisComponent, n: int, bounds: tuple[int, int]) -> np.ndarray:
    """Evaluate ``amplitude * cos(2 pi w t / n + phase)`` for t in [lo, hi)."""
    lo, hi = bounds
    t = np.arange(lo, hi, dtype=np.float64)
    return comp.amplitude * np.cos(2.0 * np.pi * comp.freq_index * t / n + comp.phase)


def partial_sum(dec: SpectralDecomposition, k: int, bounds: tuple[int, int]) -> np.ndarray:
    """Pointwise sum of the top-k basis series over ``bounds``."""
    lo, hi = bounds
    total = np.zeros(hi - lo, dtype=np.float64)
    for comp in top_k_components(dec, k):
        total += basis_series(comp, dec.n, bounds)
    return total


def compositional_basis(series: TimeSeries, k: int) -> list[TimeSeries]:
    """The top-k basis sinusoids of ``series``, each as a full-length TimeSeries."""
    dec = dft(series.values)
    return [
        TimeSeries(
            id=f"{series.id}/w{comp.freq_index}",
            values=basis_series(comp, dec.n, (0, dec.n)),
        )
        for comp in top_k_components(dec, k)
    ]


def build_compositional_split(
    series: TimeSeries,
    task: ForecastTask,
    k: int,
    split_point: int,
    stride: int = 1,
) -> SplitDataset:
    """Zero-shot compositional split: train on basis sinusoids, test on the composition.

    Train windows are drawn from each of the top-k basis series over
    ``[0, T)`` (k times the per-series window count); test windows are the
    original series' windows anchored at ``t >= T``, identical to the test
    side of :func:`split_traditional`.
    """
    traditional = split_traditional(series, task, split_point, stride)
    train = Windows.concat([
        make_windows(basis, task, stride, (0, split_point))
        for basis in compositional_basis(series, k)
    ])
    return SplitDataset(train=train, test=traditional.test, mode=SplitMode.OOD_COMPOSITIONAL)
