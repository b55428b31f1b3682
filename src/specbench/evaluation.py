"""Forecast scoring and model comparison.

Covers the point metric (MAE), the spectral basis-win metrics that gate
compositional reasoning, the rank-based test battery (Friedman gate,
pairwise Wilcoxon signed-rank with Holm correction, critical-difference
grouping), and linear CKA for representation similarity.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, KTooLarge, ShapeMismatch, TooFewMethods
from .spectral import SpectralDecomposition, partial_sums, sorted_components

__all__ = [
    "ScoreMatrix",
    "BasisWinReport",
    "FriedmanResult",
    "CdAnalysis",
    "mae",
    "topk_basis_win",
    "topk_max",
    "basis_errors",
    "basis_win_report",
    "friedman",
    "wilcoxon_signed_rank",
    "holm_correct",
    "cd_analysis",
    "linear_cka",
]

BASIS_WIN_THRESHOLD = 2  # smallest k_max that counts as evidence of composition

# Largest components x time-steps partial-sum matrix one basis_errors
# group builds (4M float64 cells, 32 MB); wider row sets are split.
_SCAN_CELLS = 4 * 1024 * 1024

# basis_errors results kept per process, oldest first, and the most float64
# cells they may hold together (32 MB)
_ERRORS_MEMO: dict[bytes, np.ndarray] = {}
_MEMO_CELLS = 4 * 1024 * 1024


@dataclass(frozen=True)
class ScoreMatrix:
    """Methods x datasets score table (mean MAE over seeds; lower is better)."""

    methods: list[str]
    datasets: list[str]
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        object.__setattr__(self, "scores", scores)
        if scores.shape != (len(self.methods), len(self.datasets)):
            raise ValueError("scores must be shaped (methods, datasets)")
        if len(self.methods) < 2 or len(self.datasets) < 1:
            raise ValueError("need at least 2 methods and 1 dataset")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")


@dataclass(frozen=True)
class BasisWinReport:
    """Per-series basis-win outcome; ``threshold_pass`` is k_max >= 2."""

    k_max: int
    wins: list[bool]
    threshold_pass: bool


@dataclass(frozen=True)
class FriedmanResult:
    statistic: float
    p_value: float
    reject: bool
    avg_ranks: np.ndarray


@dataclass(frozen=True)
class CdAnalysis:
    """Average ranks, Holm-adjusted pairwise p matrix, and rank-ordered
    groups of methods with no significant internal difference."""

    methods: list[str]
    avg_ranks: np.ndarray
    adjusted_p: np.ndarray
    groups: list[list[str]]
    friedman: FriedmanResult
    gate_passed: bool


def mae(y: np.ndarray, yhat: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape or y.size < 1:
        raise ShapeMismatch(f"shapes {y.shape} vs {yhat.shape}")
    return float(np.mean(np.abs(y - yhat)))


def basis_errors(y: np.ndarray, dec: SpectralDecomposition, bounds) -> np.ndarray:
    """``(n, K)`` matrix of each row's MAE against every cumulative top-k
    reconstruction: entry ``[r, k - 1]`` scores the sum of the ``k``
    largest components of ``dec`` over row ``r``'s index range against
    ``y[r]``. It is the half of basis-win scoring no forecast affects.

    ``y`` is ``(n, h)`` and ``bounds`` an ``(n, 2)`` array of per-row
    ``(lo, hi)``. Rows share one partial-sum matrix over the union of
    their index ranges, cut into groups of at most ``_SCAN_CELLS`` cells
    (a group always holds at least one row). Results are memoised in this
    process by the bytes of ``y``, ``bounds``, ``dec.coeffs`` and ``dec.n``,
    up to ``_MEMO_CELLS`` cells; a returned matrix is read-only.
    """
    y = np.asarray(y, dtype=np.float64)
    bounds = np.asarray(bounds, dtype=np.int64)
    if (
        y.ndim != 2 or y.shape[1] < 1
        or bounds.shape != (len(y), 2) or np.any(bounds[:, 1] - bounds[:, 0] != y.shape[1])
    ):
        raise ShapeMismatch(f"rows {y.shape} with bounds {bounds.shape} must agree")
    digest = hashlib.sha256()
    for part in (y, bounds, dec.coeffs, np.asarray([dec.n, *y.shape])):
        digest.update(np.ascontiguousarray(part).tobytes())
    key = digest.digest()
    errors = _ERRORS_MEMO.get(key)
    if errors is not None:
        return errors

    components = sorted_components(dec)
    n_comp = components[0].size
    lo, hi = bounds[:, 0], bounds[:, 1]
    order = np.argsort(lo, kind="stable")
    errors = np.empty((len(y), n_comp))
    start = 0
    while start < len(order):
        group_lo, group_hi = lo[order[start]], hi[order[start]]
        stop = start + 1
        while stop < len(order):
            grown = max(group_hi, hi[order[stop]])
            if n_comp * (grown - group_lo) > _SCAN_CELLS:
                break
            group_hi, stop = grown, stop + 1
        sums = partial_sums(components, dec.n, (group_lo, group_hi))
        for row in order[start:stop]:
            window = sums[:, lo[row] - group_lo : hi[row] - group_lo]
            errors[row] = np.mean(np.abs(y[row] - window), axis=1)
        start = stop

    errors.flags.writeable = False
    if errors.size <= _MEMO_CELLS:
        while sum(e.size for e in _ERRORS_MEMO.values()) + errors.size > _MEMO_CELLS:
            del _ERRORS_MEMO[next(iter(_ERRORS_MEMO))]  # the oldest entry
        _ERRORS_MEMO[key] = errors
    return errors


def basis_win_report(
    y: np.ndarray,
    yhat: np.ndarray,
    dec: SpectralDecomposition,
    bounds,
) -> BasisWinReport | list[BasisWinReport]:
    """Basis win at every k: the forecast's MAE against the MAE of the
    cumulative top-k reconstruction on the same index range.

    ``y``/``yhat`` are one window ``(h,)`` with ``bounds = (lo, hi)``, which
    returns one report, or rows ``(n, h)`` with ``bounds`` an ``(n, 2)``
    array of per-row ``(lo, hi)``, which returns one report per row. The
    reconstructions' errors come from :func:`basis_errors`, so forecasts
    scored against the same targets, ranges and decomposition share them.
    """
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    bounds = np.asarray(bounds, dtype=np.int64)
    single = y.ndim == 1
    if single:
        y, yhat, bounds = y[None], yhat[None], bounds[None]
    if y.shape != yhat.shape:
        raise ShapeMismatch(f"shapes {y.shape} vs {yhat.shape} must agree")
    wins = np.mean(np.abs(y - yhat), axis=1)[:, None] <= basis_errors(y, dec, bounds)
    reports = []
    for row in wins:
        hits = np.flatnonzero(row)
        k_max = int(hits[-1]) + 1 if hits.size else 0
        reports.append(BasisWinReport(
            k_max=k_max, wins=row.tolist(), threshold_pass=k_max >= BASIS_WIN_THRESHOLD
        ))
    return reports[0] if single else reports


def topk_basis_win(
    y: np.ndarray,
    yhat: np.ndarray,
    dec: SpectralDecomposition,
    k: int,
    bounds: tuple[int, int],
) -> bool:
    """True iff the forecast error is <= the top-k partial-sum error on
    the same index range."""
    wins = basis_win_report(y, yhat, dec, bounds).wins
    if not 1 <= k <= len(wins):
        raise KTooLarge(f"k={k} outside 1..{len(wins)}")
    return wins[k - 1]


def topk_max(
    y: np.ndarray,
    yhat: np.ndarray,
    dec: SpectralDecomposition,
    bounds: tuple[int, int],
) -> int:
    """Largest k whose basis win holds; 0 if none.

    Partial-sum MAE is not monotone in k, so every k is scanned.
    """
    return basis_win_report(y, yhat, dec, bounds).k_max


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values sharing their average rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    ordered = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and ordered[j + 1] == ordered[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def rank_table(sm: ScoreMatrix) -> np.ndarray:
    """Per-dataset method ranks (methods x datasets), rank 1 = lowest score."""
    return np.column_stack(
        [_midranks(sm.scores[:, j]) for j in range(len(sm.datasets))]
    )


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of a chi-square with integer ``df`` degrees of
    freedom, in closed form (Abramowitz & Stegun 26.4.4-26.4.5): with
    h = x/2, e^-h sum_{j<df/2} h^j / j! for even df, and
    erfc(sqrt h) + e^-h sum_{j<df//2} h^(j+1/2) / Gamma(j+3/2) for odd df.

    Each term is a Poisson-like weight taken through its log, so no factor
    overflows or underflows on its own however large ``df`` or ``x`` grows.
    """
    if x <= 0.0:
        return 1.0
    h = x / 2.0
    a = 0.5 * (df % 2)
    tail = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    log_term = a * math.log(h) - h - math.lgamma(a + 1.0)
    for j in range(df // 2):
        if j:
            log_term += math.log(h / (j + a))
        tail += math.exp(log_term)
    return min(tail, 1.0)


def friedman(sm: ScoreMatrix, alpha: float = 0.2) -> FriedmanResult:
    """Friedman chi-square over average method ranks across datasets."""
    M, D = sm.scores.shape
    if M < 3 or D < 2:
        raise TooFewMethods("Friedman needs >= 3 methods and >= 2 datasets")
    avg_ranks = rank_table(sm).mean(axis=1)
    centered = avg_ranks - (M + 1) / 2.0
    statistic = 12.0 * D / (M * (M + 1)) * float(centered @ centered)
    p_value = _chi2_sf(statistic, M - 1)
    return FriedmanResult(
        statistic=statistic,
        p_value=p_value,
        reject=bool(p_value < alpha),
        avg_ranks=avg_ranks,
    )


def _signed_rank_statistic(a, b) -> tuple[float, np.ndarray] | None:
    """(W+, midranks of |d|) after dropping zero differences; None if all zero."""
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    diff = diff[diff != 0.0]
    if diff.size == 0:
        return None
    ranks = _midranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    return w_plus, ranks


def _exact_signed_rank_p(w_plus: float, ranks: np.ndarray) -> float:
    """Two-sided p by full enumeration of the 2^n sign assignments.

    Counting runs over doubled ranks (midranks are half-integers) so all
    sums are exact integers.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts = counts + shifted
    w2 = int(round(2.0 * w_plus))
    n_assign = 2.0 ** len(ranks)
    p_le = counts[: w2 + 1].sum() / n_assign
    p_ge = counts[w2:].sum() / n_assign
    return min(1.0, 2.0 * min(p_le, p_ge))


def _normal_signed_rank_p(w_plus: float, ranks: np.ndarray) -> float:
    """Normal approximation with tie and continuity corrections."""
    n = len(ranks)
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    if var <= 0:
        return 1.0
    d = w_plus - mu
    z = (d - 0.5 * np.sign(d)) / math.sqrt(var)
    return float(min(1.0, 2.0 * 0.5 * math.erfc(abs(z) / math.sqrt(2.0))))


EXACT_WILCOXON_LIMIT = 12


def wilcoxon_signed_rank(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided paired Wilcoxon p-value.

    Zero differences are dropped (all-zero pairs give p = 1); the null is
    enumerated exactly for n <= 12 nonzero differences and approximated
    normally (tie + continuity corrections) beyond that.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.size < 3:
        raise ShapeMismatch("paired samples must share a length >= 3")
    stat = _signed_rank_statistic(a, b)
    if stat is None:
        return 1.0
    w_plus, ranks = stat
    if len(ranks) <= EXACT_WILCOXON_LIMIT:
        return _exact_signed_rank_p(w_plus, ranks)
    return _normal_signed_rank_p(w_plus, ranks)


def holm_correct(pvalues) -> list[float]:
    """Step-down Holm adjustment, returned in the input order."""
    p = np.asarray(pvalues, dtype=np.float64)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    running = 0.0
    for i, idx in enumerate(order):
        running = max(running, min(1.0, (m - i) * p[idx]))
        adjusted[idx] = running
    return adjusted.tolist()


def cd_analysis(
    sm: ScoreMatrix, alpha: float = 0.05, friedman_alpha: float = 0.2
) -> CdAnalysis:
    """Average ranks plus Wilcoxon-Holm grouping for a critical-difference view.

    The Friedman gate is evaluated first; when it fails the grouping is
    still reported with ``gate_passed=False`` rather than raising.
    """
    fried = friedman(sm, alpha=friedman_alpha)
    M = len(sm.methods)
    raw = []
    pairs = [(i, j) for i in range(M) for j in range(i + 1, M)]
    for i, j in pairs:
        raw.append(wilcoxon_signed_rank(sm.scores[i], sm.scores[j]))
    adjusted_list = holm_correct(raw)
    adjusted = np.ones((M, M))
    for (i, j), p in zip(pairs, adjusted_list):
        adjusted[i, j] = adjusted[j, i] = p

    order = np.argsort(fried.avg_ranks, kind="stable")
    groups: list[list[str]] = []
    last_end = -1
    for start in range(M):
        end = start
        while end + 1 < M and np.all(
            adjusted[np.ix_(order[start : end + 2], order[start : end + 2])] >= alpha
        ):
            end += 1
        if end > last_end:
            groups.append([sm.methods[k] for k in order[start : end + 1]])
            last_end = end
    return CdAnalysis(
        methods=list(sm.methods),
        avg_ranks=fried.avg_ranks,
        adjusted_p=adjusted,
        groups=groups,
        friedman=fried,
        gate_passed=fried.reject,
    )


def linear_cka(X: np.ndarray, Y: np.ndarray) -> float:
    """Similarity of two representation matrices on the same samples.

    ``|Xc' Yc|_F^2 / (|Xc' Xc|_F * |Yc' Yc|_F)`` with column-mean
    centering; invariant to orthogonal maps and isotropic scaling.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0] or X.shape[0] < 2:
        raise ShapeMismatch("X and Y must be 2-d with the same row count >= 2")
    Xc = X - X.mean(axis=0, keepdims=True)
    Yc = Y - Y.mean(axis=0, keepdims=True)
    cross = np.linalg.norm(Xc.T @ Yc) ** 2
    norm_x = np.linalg.norm(Xc.T @ Xc)
    norm_y = np.linalg.norm(Yc.T @ Yc)
    if norm_x == 0.0 or norm_y == 0.0:
        raise DegenerateInput("zero-variance representation matrix")
    return float(cross / (norm_x * norm_y))
