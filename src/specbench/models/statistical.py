"""Closed-form and grid-fitted statistical baselines.

These families carry no gradient-trained parameters: fitting is either a
no-op (naive forecasters), a small smoothing-constant grid search
minimizing in-sample one-step MAE, or ordinary least squares for the
autoregressive baseline. Seasonal-naive repeats the context's last
dominant period, found from the DFT's amplitudes alone; AR_LS recurses on
one contiguous lag buffer per context row.
"""
from __future__ import annotations

import numpy as np

from ..errors import EmptyTrainSet
from ..series import Windows
from ..spectral import dft, dominant_frequency
from .config import Family, ModelConfig

__all__ = [
    "fit_statistical",
    "predict_statistical",
    "dominant_period",
]

SMOOTHING_GRID = np.round(np.arange(0.05, 0.951, 0.05), 2)

# Fits use evenly spaced windows, which keeps them deterministic. Grid
# fitting caps their number for desk-scale runtime. AR least squares takes
# as many as hold _MAX_AR_ROWS lag rows, repeats included. It solves each
# source position once, weighted by the windows that hold it, so the cap
# does not set its cost, but it does set how much each row weighs.
_MAX_FIT_WINDOWS = 64
_MAX_AR_ROWS = 200_000


def _evenly_spaced(train: Windows, cap: int = _MAX_FIT_WINDOWS) -> np.ndarray:
    """Indices of up to ``cap`` evenly spaced windows of ``train``."""
    if not train:
        raise EmptyTrainSet("statistical fit needs at least one window")
    # n <= len(train) points spread over [0, len(train) - 1] lie at least 1
    # apart, so truncation keeps them distinct and increasing. (np.unique
    # would also import numpy.ma, 14 ms, in every pool worker.)
    return np.linspace(0, len(train) - 1, min(cap, len(train))).astype(int)


def dominant_period(context: np.ndarray) -> int:
    """Period ``round(l / w)`` (at least 1) of the largest non-DC spectral
    bin ``w`` of the context, ties to the lower frequency; 1 when every
    non-DC bin is numerical residue. Only the bins' amplitudes are read
    (:func:`specbench.spectral.dominant_frequency`)."""
    w = dominant_frequency(dft(context))
    return max(1, round(len(context) / w)) if w else 1


def _ses_sweep(
    seqs: np.ndarray, alphas: np.ndarray, score: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """Mean one-step absolute error per alpha (levels start at the first
    value), or None when not ``score``, and the final (W, alphas) levels.

    The recursion runs in preallocated (W, alphas) buffers, with the
    operations and their order of ``alpha * y + (1 - alpha) * level``.
    Scoring only reads the levels, so they are the same bits either way.
    """
    W, L = seqs.shape
    a = alphas[None, :]
    keep = 1 - a
    level = np.repeat(seqs[:, :1], len(alphas), axis=1)
    diff = np.empty_like(level)
    err = np.zeros(len(alphas))
    for t in range(1, L):
        y = seqs[:, t : t + 1]
        if score:
            np.subtract(y, level, out=diff)
            err += np.abs(diff, out=diff).sum(axis=0)
        np.multiply(a, y, out=diff)
        level *= keep
        level += diff
    return (err / max(1, W * (L - 1)) if score else None), level


def _holt_sweep(
    seqs: np.ndarray, alphas: np.ndarray, betas: np.ndarray, score: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Mean one-step absolute error per (alpha, beta) pair, flattened, or
    None when not ``score``, and the final (W, pairs) levels and trends.

    Like :func:`_ses_sweep`, the recursion reuses preallocated buffers and
    keeps the operations and their order of the out-of-place update.
    """
    W, L = seqs.shape
    A = len(alphas) * len(betas)
    a = np.repeat(alphas, len(betas))[None, :]
    b = np.tile(betas, len(alphas))[None, :]
    keep_a, keep_b = 1 - a, 1 - b
    # state sits at time 1: l1 = y1, b1 = y1 - y0
    level = np.repeat(seqs[:, 1:2], A, axis=1)
    trend = np.repeat(seqs[:, 1:2] - seqs[:, :1], A, axis=1)
    pred = np.empty_like(level)
    new_level = np.empty_like(level)
    tmp = np.empty_like(level)
    err = np.zeros(A)
    for t in range(2, L):
        y = seqs[:, t : t + 1]
        np.add(level, trend, out=pred)
        if score:
            np.subtract(y, pred, out=tmp)
            err += np.abs(tmp, out=tmp).sum(axis=0)
        # new level = a * y + (1 - a) * pred
        np.multiply(a, y, out=new_level)
        pred *= keep_a
        new_level += pred
        # trend = b * (new level - level) + (1 - b) * trend
        np.subtract(new_level, level, out=tmp)
        tmp *= b
        trend *= keep_b
        trend += tmp
        level, new_level = new_level, level
    return (err / max(1, W * (L - 2)) if score else None), level, trend


def _fit_ar(train: Windows, order: int) -> np.ndarray:
    """Least-squares AR(order) with intercept over every lag row of the
    selected windows, solved on the distinct rows.

    Lag row ``p`` predicts ``train.values[p]`` from the ``order`` values
    before it. A row that ``m`` selected windows share, because they
    overlap in one source, enters once, with row and target scaled by
    sqrt(m). That has the normal equations of the full design, so the
    cutoff for small singular values is the full design's as well.
    """
    length = train.l + train.h
    steps = length - order
    starts = train.starts[_evenly_spaced(train, max(1, _MAX_AR_ROWS // max(1, steps)))]
    values = train.values
    # mult[p]: how many windows hold lag row p (a difference array)
    cover = np.bincount(starts + order, minlength=values.size + 1)
    cover -= np.bincount(starts + length, minlength=values.size + 1)
    mult = np.cumsum(cover[:-1])
    rows = np.flatnonzero(mult)
    weight = np.sqrt(mult[rows])
    # row p of the design: values[p-1], ..., values[p-order], then 1; filled
    # a column at a time, as one gather would copy the whole design again
    X = np.empty((rows.size, order + 1))
    for lag in range(order):
        X[:, lag] = values[rows - 1 - lag]
    X[:, order] = 1.0
    X *= weight[:, None]
    # lstsq's default cutoff would scale with the distinct rows; keep the
    # full design's, eps * max(its rows, columns)
    rcond = np.finfo(np.float64).eps * max(starts.size * steps, order + 1)
    beta, *_ = np.linalg.lstsq(X, values[rows] * weight, rcond=rcond)
    return beta  # (order lags, most recent first) then intercept


def fit_statistical(config: ModelConfig, train: Windows) -> dict[str, np.ndarray]:
    family = config.family
    if family in (Family.NAIVE_LAST, Family.SEASONAL_NAIVE):
        return {}
    if family is Family.SES:
        errors, _ = _ses_sweep(train.rows(_evenly_spaced(train)), SMOOTHING_GRID)
        return {"alpha": np.array([SMOOTHING_GRID[int(np.argmin(errors))]])}
    if family is Family.HOLT:
        seqs = train.rows(_evenly_spaced(train))
        errors, _, _ = _holt_sweep(seqs, SMOOTHING_GRID, SMOOTHING_GRID)
        best = int(np.argmin(errors))
        alpha = SMOOTHING_GRID[best // len(SMOOTHING_GRID)]
        beta = SMOOTHING_GRID[best % len(SMOOTHING_GRID)]
        return {"alpha": np.array([alpha]), "beta": np.array([beta])}
    if family is Family.AR_LS:
        return {"coef": _fit_ar(train, config.ar_order)}
    raise ValueError(f"{family} is not a statistical family")


def predict_statistical(
    config: ModelConfig, extra: dict[str, np.ndarray], rows: np.ndarray
) -> np.ndarray:
    """Forecasts (n, h) for the context rows (n, l). SES and HOLT run the
    recursion of their grid fit with the fitted constants, without its
    one-step scoring."""
    family = config.family
    h = config.horizon
    if family is Family.NAIVE_LAST:
        return np.repeat(rows[:, -1:], h, axis=1)
    if family is Family.SES:
        _, level = _ses_sweep(rows, extra["alpha"], score=False)
        return np.repeat(level, h, axis=1)
    if family is Family.HOLT:
        _, level, trend = _holt_sweep(rows, extra["alpha"], extra["beta"], score=False)
        return level + trend * np.arange(1, h + 1)
    if family is Family.SEASONAL_NAIVE:
        return np.reshape([np.resize(r[-dominant_period(r) :], h) for r in rows], (-1, h))
    if family is Family.AR_LS:
        return np.reshape([_ar_forecast(extra["coef"], r, h) for r in rows], (-1, h))
    raise ValueError(f"{family} is not a statistical family")


def _ar_forecast(beta: np.ndarray, context: np.ndarray, h: int) -> np.ndarray:
    """Recursive AR forecast of one context row.

    One ``(h + order,)`` buffer holds the lags newest first: the context
    fills its tail, and step ``i`` (from the end) writes ``buf[i]`` from the
    ``order`` values after it. Each step is one ``np.dot`` of two contiguous
    vectors; a matrix product over rows would sum in another order."""
    order = beta.size - 1
    weights, intercept = beta[:-1], beta[-1]
    buf = np.empty(h + order)
    buf[h:] = context[-order:][::-1]
    for i in range(h - 1, -1, -1):
        buf[i] = np.dot(weights, buf[i + 1 : i + 1 + order]) + intercept
    return buf[:h][::-1]
