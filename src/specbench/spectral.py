"""Discrete Fourier analysis and the top-k basis sinusoids of a series.

The forward transform uses the synthesis-friendly normalization
``c_w = (1/n) * sum_t y_t * exp(-i 2 pi w t / n)`` so that
``y_t = sum_w c_w * exp(+i 2 pi w t / n)`` holds with no extra factor.
Conjugate bin pairs ``(w, n-w)`` collapse into single real sinusoids
``amplitude * cos(2 pi w t / n + phase)``; a series is decomposed over its
full index range so the top-k sinusoids are exactly the basis functions
that compose it, and they extend deterministically over any index window.

A set of components is always one triple of equal-length arrays
``(freq_index, amplitude, phase)``, sorted by descending amplitude, from
:func:`sorted_components` through :func:`basis_series` to the scores.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import KTooLarge, NonFinite

__all__ = [
    "SpectralDecomposition",
    "dft",
    "reconstruct_full",
    "sorted_components",
    "dominant_frequency",
    "top_k_components",
    "basis_series",
    "partial_sums",
    "partial_sum",
]

# (freq_index, amplitude, phase), one entry per component
Components = tuple[np.ndarray, np.ndarray, np.ndarray]

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


def dft(values: np.ndarray) -> SpectralDecomposition:
    """Decompose a real series with numpy's FFT in O(n log n)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("dft needs a 1-d array of length >= 2")
    if not np.all(np.isfinite(values)):
        raise NonFinite("dft input contains NaN or infinity")
    return SpectralDecomposition(coeffs=np.fft.fft(values, norm="forward"), n=values.size)


def reconstruct_full(dec: SpectralDecomposition) -> np.ndarray:
    """Invert a decomposition back to the real series (imaginary residue dropped)."""
    return np.real(np.fft.ifft(dec.coeffs, norm="forward"))


def _pair_amplitudes(dec: SpectralDecomposition) -> np.ndarray:
    """Amplitude of each pair-collapsed bin ``0..n//2``: ``2 |c_w|`` for a
    conjugate pair, ``|c_w|`` for the DC bin and (even ``n``) the Nyquist
    bin. ``np.hypot`` equals ``abs(complex)`` bit for bit; numpy's
    vectorised ``abs`` on complex differs from it in the last bit on some
    bins, which can reorder ties and move k_max."""
    n = dec.n
    half = dec.coeffs[: n // 2 + 1]
    amplitude = np.hypot(half.real, half.imag)
    amplitude[1 : (n + 1) // 2] *= 2.0
    return amplitude


def sorted_components(dec: SpectralDecomposition) -> Components:
    """``(freq_index, amplitude, phase)`` of the pair-collapsed components
    with non-negligible amplitude, sorted by descending amplitude (ties:
    lower frequency first).

    Amplitudes are :func:`_pair_amplitudes`. A conjugate pair's phase is
    ``atan2(im, re)`` (``-pi`` folded to ``pi``); the DC and Nyquist bins
    take phase 0 or ``pi`` from the sign of the real part. Phases use a
    per-bin ``math.atan2``, since numpy's ``arctan2`` differs from it in the
    last bit on some bins.
    """
    n = dec.n
    half = dec.coeffs[: n // 2 + 1]
    re, im = half.real, half.imag
    single = np.zeros(half.size, dtype=bool)
    single[0] = True
    single[-1] |= n % 2 == 0
    amplitude = _pair_amplitudes(dec)
    phase = np.array([math.atan2(b, a) for a, b in zip(re.tolist(), im.tolist())])
    phase[phase <= -math.pi] = math.pi
    phase[single] = np.where(re[single] >= 0, 0.0, math.pi)
    keep = np.flatnonzero(amplitude > amplitude.max() * _NONZERO_RTOL)
    order = keep[np.lexsort((keep, -amplitude[keep]))]
    return order, amplitude[order], phase[order]


def dominant_frequency(dec: SpectralDecomposition) -> int:
    """Frequency index of the first component of :func:`sorted_components`
    with ``freq_index >= 1``, or 0 if there is none; it reads only the
    amplitudes. The first maximum over bins ``1..n//2`` wins, so a tie goes
    to the lower frequency."""
    amplitude = _pair_amplitudes(dec)
    w = 1 + int(np.argmax(amplitude[1:]))
    return w if amplitude[w] > amplitude.max() * _NONZERO_RTOL else 0


def top_k_components(dec: SpectralDecomposition, k: int) -> Components:
    """The k largest components, as the first k entries of
    :func:`sorted_components`.

    Raises
    ------
    KTooLarge
        If fewer than ``k`` components have nonzero amplitude.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    freq, amp, phase = sorted_components(dec)
    if k > freq.size:
        raise KTooLarge(f"k={k} exceeds the {freq.size} nonzero components")
    return freq[:k], amp[:k], phase[:k]


def basis_series(components: Components, n: int, bounds: tuple[int, int]) -> np.ndarray:
    """``(K, hi - lo)`` matrix whose row i is component i's sinusoid
    ``amplitude * cos(2 pi w t / n + phase)`` for t in [lo, hi)."""
    freq, amp, phase = components
    lo, hi = bounds
    t = np.arange(lo, hi, dtype=np.float64)
    return amp[:, None] * np.cos(2.0 * np.pi * freq[:, None] * t / n + phase[:, None])


def partial_sums(components: Components, n: int, bounds: tuple[int, int]) -> np.ndarray:
    """``(K, hi - lo)`` matrix whose row ``k - 1`` is the pointwise sum of
    the first k rows of :func:`basis_series`; ``cumsum`` adds them in order,
    so each row equals the running sum one row at a time bit for bit."""
    return np.cumsum(basis_series(components, n, bounds), axis=0)


def partial_sum(dec: SpectralDecomposition, k: int, bounds: tuple[int, int]) -> np.ndarray:
    """Pointwise sum of the top-k basis series over ``bounds``."""
    return partial_sums(top_k_components(dec, k), dec.n, bounds)[-1]
