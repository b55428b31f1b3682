"""Real-data ingestion: CSV loading, fixed-length segmentation, a unit-root
screen, and autocorrelation-ranked selection of the final subseries.

The CSV schema is long format with header ``unique_id,ds,y``: ``unique_id``
names the series, ``ds`` is an opaque timestamp string the math never
touches, and ``y`` is a decimal literal that ``float()`` reads. Files are
UTF-8 with LF or CRLF line endings; blank lines are skipped, and no field
is quoted. :func:`load_csv` rejects everything else with
:class:`~specbench.errors.SchemaError`: bytes that are not UTF-8, a quote
character anywhere, a data line without exactly three fields, an empty
``unique_id``, a ``y`` that ``float()`` refuses, and a non-finite ``y``.
"""
from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateInput,
    EmptyFile,
    NotEnoughStationary,
    SchemaError,
    TooShort,
    ZeroVariance,
)
from .parallel import blas_threads, ordered_map
from .series import TimeSeries

__all__ = [
    "Segment",
    "AdfReport",
    "load_csv",
    "write_csv",
    "segment",
    "adf_test",
    "mean_acf",
    "select_series",
]

PATCH_LEN = 1056
PATCH_STRIDE = 528
ADF_ALPHA = 0.001
ACF_LAGS = 48


@dataclass(frozen=True)
class Segment:
    """A fixed-length slice of a parent series."""

    parent_id: str
    offset: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("Segment.values must be a non-empty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("Segment.values must be finite")

    @property
    def id(self) -> str:
        return f"{self.parent_id}_{self.offset}"


@dataclass(frozen=True)
class AdfReport:
    """Unit-root regression outcome; ``stationary`` iff ``p_value < alpha``."""

    statistic: float
    p_value: float
    lag_used: int
    stationary: bool


# Data lines parsed by one ``np.loadtxt`` call. A chunk bounds the parse's
# memory: on the bench's 190,081-row file, 4,096-line chunks grew peak RSS
# by about 6 MB and 16,384-line ones by 14 MB, against 10 MB for one
# ``csv.reader`` row and ``float()`` per line; 1,024 to 4,096 lines took
# the same time.
_CHUNK_LINES = 4096
# Longest line a chunk may hold and still take the fast parse; the id
# column is sized from it, at four bytes a character per row.
_FAST_LINE_MAX = 256
# Characters the fast parse does not read as ``float()`` and ``str.split``
# do: numpy strips \x1c-\x1f around a number, as ``float()`` does not, and
# drops a string's trailing NULs; a quote is rejected in any line.
_SLOW_CHARS = ('"', "\x00", "\x1c", "\x1d", "\x1e", "\x1f")


def load_csv(path: str | Path) -> list[TimeSeries]:
    """Read long-format CSV into one TimeSeries per unique_id (file order).

    The file must be in the format this module's docstring gives. One
    that breaks it raises :class:`SchemaError`, which names the bad line
    where there is one; a file without data rows raises :class:`EmptyFile`.

    Data lines are parsed ``_CHUNK_LINES`` at a time by one ``np.loadtxt``
    call. A chunk that fails its checks is parsed again line by line,
    which raises the first bad line's error or, where numpy refuses a
    literal ``float()`` takes (``1_0``), reads it as ``float()`` does.
    """
    path = Path(path)
    buckets: dict[str, list[np.ndarray]] = {}  # insertion order is file order
    try:
        with path.open("r", encoding="utf-8") as fh:
            first = fh.readline()
            if not first:
                raise EmptyFile(f"{path} is empty")
            header = _fields(path, 1, first)
            if header[:3] != ["unique_id", "ds", "y"]:
                raise SchemaError(f"{path} header is {header!r}, expected unique_id,ds,y")
            lineno = 2
            while chunk := list(islice(fh, _CHUNK_LINES)):
                ids, ys = _parse_fast(chunk) or _parse_lines(path, chunk, lineno)
                _add_runs(buckets, ids, ys)
                lineno += len(chunk)
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise SchemaError(f"{path} is not UTF-8 text: byte {byte:#04x} ({exc.reason})") from None
    if not buckets:
        raise EmptyFile(f"{path} has a header but no data rows")
    series = []
    for uid, parts in buckets.items():
        values = np.concatenate(parts)
        finite = np.isfinite(values)
        if not finite.all():
            t = int(np.argmin(finite))
            raise SchemaError(
                f"{path}: series {uid!r} has non-finite y {float(values[t])!r} at sample {t}"
            )
        series.append(TimeSeries(id=uid, values=values))
    return series


def _fields(path: Path, lineno: int, line: str) -> list[str]:
    """The comma-separated fields of one line; none for a blank line."""
    line = line.rstrip("\n")
    if '"' in line:
        raise SchemaError(f"{path}:{lineno} has a quote character; fields are never quoted")
    return line.split(",") if line else []


def _parse_fast(chunk: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """The chunk's ids and values by one ``np.loadtxt`` call, or None where
    the line-by-line parse must decide.

    ``loadtxt`` skips empty lines and raises on any other line that does
    not have exactly the dtype's three fields. ``ds`` is read only to count
    them, so one character of it is kept.
    """
    width = max(map(len, chunk))
    text = "".join(chunk)
    if (width > _FAST_LINE_MAX or chunk.count("\n") == len(chunk)
            or any(c in text for c in _SLOW_CHARS)):
        return None  # blank chunks, which loadtxt warns about, go line by line too
    try:
        table = np.loadtxt(chunk, delimiter=",", comments=None, ndmin=1,
                           dtype=[("id", f"U{width}"), ("ds", "U1"), ("y", "f8")])
    except ValueError:
        return None
    ids = table["id"]
    if (ids == "").any():
        return None
    return ids, table["y"].copy()  # a copy, so the ids' memory goes with the chunk


def _parse_lines(path: Path, chunk: list[str], first: int) -> tuple[np.ndarray, np.ndarray]:
    """The chunk's ids and values one line at a time, ``chunk[0]`` being
    line ``first`` of the file; raises at the first bad line."""
    ids, ys = [], []
    for lineno, line in enumerate(chunk, start=first):
        row = _fields(path, lineno, line)
        if not row:
            continue
        if len(row) != 3:
            raise SchemaError(f"{path}:{lineno} has {len(row)} fields, expected 3")
        uid, _, y = row
        try:
            value = float(y)
        except ValueError:
            raise SchemaError(f"{path}:{lineno} non-numeric y field {y!r}") from None
        if not uid:
            raise SchemaError(f"{path}:{lineno} has an empty unique_id")
        ids.append(uid)
        ys.append(value)
    return np.array(ids, dtype=object), np.array(ys, dtype=np.float64)


def _add_runs(buckets: dict[str, list[np.ndarray]], ids: np.ndarray, ys: np.ndarray) -> None:
    """Append each run of equal ids' values to that id's bucket."""
    if not len(ids):
        return
    starts = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), len(ids)]
    for lo, hi in zip(starts, starts[1:]):
        buckets.setdefault(str(ids[lo]), []).append(ys[lo:hi])


def write_csv(path: str | Path, series: list[TimeSeries]) -> None:
    """Write series in the load_csv schema; ``ds`` is the integer sample index."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("unique_id,ds,y\n")
        for ts in series:
            for t, value in enumerate(ts.values):
                fh.write(f"{ts.id},{t},{float(value)!r}\n")


def segment(
    series: TimeSeries,
    patch_len: int = PATCH_LEN,
    stride: int = PATCH_STRIDE,
) -> list[Segment]:
    """Cut a series into fixed patches; the trailing remainder is dropped."""
    n = len(series)
    if n < patch_len:
        raise TooShort(f"series {series.id!r} has {n} samples, needs {patch_len}")
    count = (n - patch_len) // stride + 1
    return [
        Segment(series.id, off, series.values[off : off + patch_len])
        for off in (i * stride for i in range(count))
    ]


# MacKinnon (1994, 2010) response-surface constants for the constant-only
# unit-root regression: clip bounds and the small/large-statistic
# polynomials (ascending powers) whose value feeds the normal CDF.
_TAU_MAX = 2.74
_TAU_MIN = -18.83
_TAU_STAR = -1.61
_TAU_SMALLP = (2.1659, 1.4412, 3.8269e-2)
_TAU_LARGEP = (1.7339, 9.3202e-1, -1.2745e-1, -1.0368e-2)


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _mackinnon_pvalue(stat: float) -> float:
    if stat > _TAU_MAX:
        return 1.0
    if stat < _TAU_MIN:
        return 0.0
    coeffs = _TAU_SMALLP if stat <= _TAU_STAR else _TAU_LARGEP
    poly = 0.0
    for c in reversed(coeffs):
        poly = poly * stat + c
    return _norm_cdf(poly)


def _ols_tvalue_first(X: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """OLS of y on X; returns (t-value of column 0, residual sum of squares).

    Near-perfect fits (noiseless deterministic series) give a vanishing
    standard error; the statistic is pushed to +-inf, which the MacKinnon
    surface clips to p = 0 or 1.
    """
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    ssr = float(resid @ resid)
    n, k = X.shape
    sigma2 = ssr / (n - k)
    xtx_inv = np.linalg.pinv(X.T @ X)
    var0 = sigma2 * max(float(xtx_inv[0, 0]), 0.0)
    se0 = math.sqrt(var0)
    if se0 == 0.0 or not math.isfinite(se0):
        return math.copysign(math.inf, beta[0]), ssr
    return float(beta[0] / se0), ssr


def _lagged_design(x: np.ndarray, lags: int) -> tuple[np.ndarray, np.ndarray]:
    """Dependent first difference and regressors [level_{t-1}, diff lags 1..lags]."""
    dx = np.diff(x)
    nobs = dx.size - lags
    cols = [x[-nobs - 1 : -1]]
    cols += [dx[lags - i - 1 : lags - i - 1 + nobs] for i in range(lags)]
    return dx[-nobs:], np.column_stack(cols)


def _lag_ssrs(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Residual sums of squares of the AIC lag search, for ``p = 0..max_lag``.

    Candidate ``p`` regresses the first difference on ``[const, level_{t-1},
    diff lags 1..p]`` over the ``max_lag``-trimmed sample, so all candidates
    share observations and each design is a column prefix of the next. One
    QR of the augmented design ``[const, level, diff lags 1..max_lag, y]``
    gives them all: with ``z = R[:-1, -1]``, dropping trailing regressors
    adds their ``z_j**2`` back to the full fit's ``R[-1, -1]**2``.
    """
    dx = np.diff(x)
    lagged = sliding_window_view(dx, max_lag + 1)  # row t: dx[t], ..., dx[t + max_lag]
    k = max_lag + 2
    aug = np.empty((lagged.shape[0], k + 1), order="F")  # LAPACK's layout
    aug[:, 0] = 1.0
    aug[:, 1] = x[max_lag:-1]
    aug[:, 2:k] = lagged[:, -2::-1]
    aug[:, k] = lagged[:, -1]
    r = np.linalg.qr(aug, mode="r")
    z2 = r[2:k, k] ** 2
    tail = np.cumsum(z2[::-1])[::-1]
    return r[k, k] ** 2 + np.append(tail, 0.0)


def adf_test(values: np.ndarray, alpha: float = ADF_ALPHA, max_lag: int | None = None) -> AdfReport:
    """Augmented Dickey-Fuller test with a constant-only regression.

    The difference-lag order is chosen by AIC over ``0..max_lag`` (Schwert's
    ``12 * (n/100)^{1/4}`` bound by default) on a common sample, then the
    regression is refit at the chosen order on the longest usable sample.
    The candidates' residual sums of squares all come from one QR
    factorisation of the augmented design ``[const, level, diff lags
    1..max_lag, y]``. An exact fit (a residual sum of squares of exactly
    0) scores an AIC of ``-inf``, so the smallest exact-fit order wins.
    The p-value comes from the MacKinnon approximate response surface.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 20:
        raise ValueError("adf_test needs a 1-d array of length >= 20")
    if not np.all(np.isfinite(x)):
        raise ValueError("adf_test input must be finite")
    if x.max() == x.min():
        raise DegenerateInput("constant series: unit-root statistic undefined")
    n = x.size
    if max_lag is None:
        max_lag = int(math.ceil(12.0 * (n / 100.0) ** 0.25))
        max_lag = min(n // 2 - 2, max_lag)
    nobs = n - 1 - max_lag
    if max_lag < 0 or nobs < max_lag + 3:
        raise ValueError("series too short for the lag search")
    best = None
    for p, ssr in enumerate(_lag_ssrs(x, max_lag).tolist()):
        fit = nobs * math.log(ssr / nobs) if ssr > 0.0 else -math.inf
        aic = fit + 2.0 * (2 + p)
        if best is None or (aic, p) < best:
            best = (aic, p)
    lag_used = best[1]

    y_fit, X_fit = _lagged_design(x, lag_used)
    design = np.column_stack([X_fit, np.ones_like(y_fit)])
    stat, _ = _ols_tvalue_first(design, y_fit)
    p_value = _mackinnon_pvalue(stat)
    return AdfReport(
        statistic=stat,
        p_value=p_value,
        lag_used=lag_used,
        stationary=bool(p_value < alpha),
    )


def mean_acf(values: np.ndarray, nlags: int = ACF_LAGS) -> float:
    """Mean of the biased sample autocorrelation over lags 1..nlags."""
    y = np.asarray(values, dtype=np.float64)
    if nlags < 1:
        raise ValueError("nlags must be >= 1")
    if y.size <= nlags:
        raise ValueError("series must be longer than nlags")
    centered = y - y.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        raise ZeroVariance("autocorrelation undefined for a constant series")
    acf = [float(centered[:-lag] @ centered[lag:]) / denom for lag in range(1, nlags + 1)]
    return float(np.mean(acf))


def _stationary(values: np.ndarray, alpha: float) -> bool:
    """Whether a non-constant segment passes the stationarity screen."""
    return adf_test(values, alpha=alpha).stationary


# Candidates tested in this process before the rest of a walk goes to
# the worker pool. On two CPUs a fresh pool's start-up (50-80 ms to its
# first result) leaves it slower than testing in this process on walks
# of up to about this many candidates, and faster on longer ones.
_SERIAL_TESTS = 128
# candidates sent to a screening worker at a time
_SCREEN_CHUNK = 4


def select_series(
    segments: list[Segment],
    keep: int = 100,
    alpha: float = ADF_ALPHA,
    nlags: int = ACF_LAGS,
) -> list[Segment]:
    """The ``keep`` segments of highest mean autocorrelation among those
    that pass the stationarity screen (stable tie-break by parent id and
    offset), in that order.

    Constant segments, on which the unit-root statistic is undefined, are
    dropped. The rest are ranked by mean autocorrelation first, and the
    ADF test then walks them in rank order until ``keep`` have passed, so
    a segment ranked below the last one kept is never tested. That keeps
    the same segments, in the same order, as screening every segment and
    then ranking the survivors. Only when fewer than ``keep`` pass is every
    segment tested, and :class:`NotEnoughStationary` says how many passed.
    A segment no longer than ``nlags`` raises ValueError, whatever its
    ADF outcome.

    The first ``_SERIAL_TESTS`` candidates are tested in this process,
    where a short walk costs less than starting a pool. The walk runs with
    this process's BLAS on one thread, as the pool's workers do, and the
    thread count is restored however the walk ends. A test's small QR gains
    nothing from threads: on 2 vCPUs the bench's 68 in-process tests took
    28-50 ms in 8 runs on one thread, and on two 47-70 ms in 7 runs and
    0.98 s in the eighth. A walk that goes on past them runs on
    :func:`specbench.parallel.ordered_map`'s workers (``SPECBENCH_WORKERS``,
    or one per usable CPU), a chunk of candidates at a time. Once ``keep``
    have passed it closes the map, so chunks no worker has started are
    dropped. The test's arithmetic does not depend on the BLAS thread
    count, so every worker count keeps the same segments in the same order.
    """
    if keep < 0:
        raise ValueError("keep must be >= 0")
    ranked = [
        (mean_acf(seg.values, nlags=nlags), seg)
        for seg in segments
        if seg.values.max() != seg.values.min()
    ]
    ranked.sort(key=lambda item: (-item[0], item[1].parent_id, item[1].offset))
    kept: list[Segment] = []
    if keep == 0:
        return kept
    screen = partial(_stationary, alpha=alpha)
    values = [seg.values for _, seg in ranked]
    head = map(screen, values[:_SERIAL_TESTS])
    tail = ordered_map(screen, values[_SERIAL_TESTS:], chunksize=_SCREEN_CHUNK)
    with blas_threads(1), closing(tail):
        for stationary, (_, seg) in zip(chain(head, tail), ranked):
            if stationary:
                kept.append(seg)
                if len(kept) == keep:
                    return kept
    raise NotEnoughStationary(f"only {len(kept)} stationary segments, need {keep}")
