"""Shared test utilities: window-set builders, naive oracles and
finite-difference gradient checks."""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from specbench.errors import EmptyFile, SchemaError
from specbench.autodiff import Tape, Tensor, _emit, add, backward, mul, recording
from specbench.models import losses, networks, transformer
from specbench.preprocess import _lagged_design
from specbench.series import Windows


def stack_windows(rows) -> Windows:
    """A window set from a list of (context, target, anchor) rows, each
    row its own stretch of the values."""
    contexts, targets, anchors = zip(*rows)
    l, h = len(contexts[0]), len(targets[0])
    values = np.concatenate([np.concatenate([c, t]) for c, t in zip(contexts, targets)])
    return Windows(values, np.arange(len(rows)) * (l + h), np.asarray(anchors), l, h)


def take(w: Windows, rows) -> Windows:
    """The window set's ``rows`` (a slice or an index array), over the same values."""
    return Windows(w.values, w.starts[rows], w.anchors[rows], w.l, w.h)


def naive_dft(values: np.ndarray) -> np.ndarray:
    """O(n^2) transform written from the definition, independent of the library."""
    n = len(values)
    coeffs = np.zeros(n, dtype=np.complex128)
    for w in range(n):
        total = 0.0 + 0.0j
        for t in range(n):
            total += values[t] * np.exp(-2j * np.pi * w * t / n)
        coeffs[w] = total / n
    return coeffs


def reference_series(n: int, seed: int) -> np.ndarray:
    """A random walk with a negative mean and a Nyquist term (even n), so
    the DC bin has phase pi and the Nyquist bin is a single component."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    walk = rng.normal(size=n).cumsum()
    return walk - walk.mean() - 5.0 + 0.7 * np.cos(np.pi * t) + np.sin(2 * np.pi * 3 * t / n)


# odd, even, power-of-two and the 1200-sample default length
REFERENCE_LENGTHS = (63, 64, 999, 1024, 1056, 1057, 1200, 2048)


def sorted_components_reference(dec) -> list[tuple[int, float, float]]:
    """``(freq_index, amplitude, phase)`` per component, collapsed one bin
    at a time with scalar arithmetic, filtered at 1e-12 of the
    largest amplitude and sorted by (-amplitude, freq_index)."""
    n = dec.n
    comps = []
    for w in range(n // 2 + 1):
        c = dec.coeffs[w]
        if w == 0 or (n % 2 == 0 and w == n // 2):
            amp, phase = abs(c), (0.0 if c.real >= 0 else math.pi)
        else:
            amp, phase = 2.0 * abs(c), math.atan2(c.imag, c.real)
            if phase <= -math.pi:
                phase = math.pi
        comps.append((w, amp, phase))
    tol = max(amp for _, amp, _ in comps) * 1e-12
    return sorted((c for c in comps if c[1] > tol), key=lambda c: (-c[1], c[0]))


def basis_series_reference(dec, bounds) -> list[np.ndarray]:
    """Each component's sinusoid over ``bounds``, in sorted order, from its
    scalar frequency, amplitude and phase."""
    lo, hi = bounds
    t = np.arange(lo, hi, dtype=np.float64)
    return [
        amp * np.cos(2.0 * np.pi * w * t / dec.n + phase)
        for w, amp, phase in sorted_components_reference(dec)
    ]


def running_sums_reference(dec, bounds) -> list[np.ndarray]:
    """Cumulative top-k reconstructions over ``bounds`` for k = 1..K, added
    one basis series at a time."""
    running = np.zeros(bounds[1] - bounds[0])
    sums = []
    for term in basis_series_reference(dec, bounds):
        running = running + term
        sums.append(running)
    return sums


def basis_wins_reference(y, yhat, dec, bounds) -> tuple[list[bool], int]:
    """Per-k basis wins and k_max of one window, one component at a time."""
    score = float(np.mean(np.abs(np.asarray(y) - np.asarray(yhat))))
    wins = [bool(score <= np.mean(np.abs(y - s))) for s in running_sums_reference(dec, bounds)]
    return wins, max((k for k, win in enumerate(wins, 1) if win), default=0)


def kink_margin(loss_fn) -> float:
    """Smallest |input| reaching a relu or absval during one ``loss_fn()``.

    Central differences are only trustworthy when this margin comfortably
    exceeds the finite-difference step, so checks redraw their random
    evaluation point until it does. The inputs are read by wrapping the
    names the networks and losses look up, since tape records hold no
    tensors.
    """
    margin = np.inf

    def watch(primitive):
        def watched(a):
            nonlocal margin
            margin = min(margin, float(np.abs(a.data).min()))
            return primitive(a)

        return watched

    saved = [
        (module, name, getattr(module, name))
        for module in (transformer, networks, losses)
        for name in ("relu", "absval")
        if hasattr(module, name)
    ]
    try:
        for module, name, primitive in saved:
            setattr(module, name, watch(primitive))
        loss_fn()
    finally:
        for module, name, primitive in saved:
            setattr(module, name, primitive)
    return margin


def kink_safe_targets(pred_values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Targets whose residuals stay clear of the non-smooth points of the
    piecewise losses (0 for MAE, and +-delta for Huber), so central
    differences do not straddle a kink."""
    low = rng.uniform(0.15, 0.8, size=pred_values.shape)
    high = rng.uniform(1.2, 2.0, size=pred_values.shape)
    magnitude = np.where(rng.random(pred_values.shape) < 0.5, low, high)
    signs = np.where(rng.random(pred_values.shape) < 0.5, 1.0, -1.0)
    return pred_values - signs * magnitude


def fd_gradcheck(
    loss_fn,
    params: dict[str, Tensor],
    step: float = 1e-5,
    max_entries: int = 24,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare tape gradients of ``loss_fn()`` against central differences.

    Checks every entry of small parameters and a random sample of larger
    ones; returns the worst relative error (denominator floored at 1 so
    near-zero gradients are compared absolutely).
    """
    rng = rng or np.random.default_rng(0)
    tape = Tape()
    with recording(tape):
        loss = loss_fn()
    names = sorted(params)
    grads = dict(zip(names, backward(tape, loss, [params[n] for n in names])))

    worst = 0.0
    for name in names:
        tensor = params[name]
        flat = tensor.data.reshape(-1)
        if flat.size <= max_entries:
            entries = np.arange(flat.size)
        else:
            entries = rng.choice(flat.size, size=max_entries, replace=False)
        analytic = grads[name].reshape(-1)
        for idx in entries:
            original = flat[idx]
            flat[idx] = original + step
            up = loss_fn().data.item()
            flat[idx] = original - step
            down = loss_fn().data.item()
            flat[idx] = original
            numeric = (up - down) / (2.0 * step)
            denom = max(1.0, abs(analytic[idx]), abs(numeric))
            worst = max(worst, abs(analytic[idx] - numeric) / denom)
    return worst


def backward_keeping_every_gradient(tape: Tape, loss: Tensor, params) -> list[np.ndarray]:
    """The reverse sweep before it dropped constant leaves' gradients: every
    input a rule reaches keeps its gradient until the sweep ends."""
    grads = {loss.node: np.ones_like(loss.data)}
    while tape.records:
        _, out, inputs, rule = tape.records.pop()
        g_out = grads.pop(out, None)
        if g_out is None:
            continue
        for key, g_in in zip(inputs, rule(g_out)):
            if g_in is not None:
                grads[key] = g_in if key not in grads else grads[key] + g_in
    return [grads.get(p.node, np.zeros_like(p.data)) for p in params]


def bare_layer_norm(a: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """The gain-free normalisation primitive ``layer_norm`` grew out of."""
    mu = a.data.mean(axis=axis, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=axis, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    y = centered * inv_std

    def rule(g):
        g_mean = g.mean(axis=axis, keepdims=True)
        gy_mean = (g * y).mean(axis=axis, keepdims=True)
        return (inv_std * (g - g_mean - y * gy_mean),)

    return _emit(Tensor(y), (a,), rule)


def layer_norm_chain_reference(
    a: Tensor, gain: Tensor, bias: Tensor, axis: int = -1, eps: float = 1e-5
) -> Tensor:
    """Affine LayerNorm as three tape records: normalise, scale, shift."""
    return add(mul(bare_layer_norm(a, axis, eps), gain), bias)


def adam_step_reference(params, grads, state, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam written out of place, one temporary per term."""
    state.step += 1
    t = state.step
    correction1 = 1.0 - beta1 ** t
    correction2 = 1.0 - beta2 ** t
    for name, param in params.items():
        grad = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(param.data)
            state.v[name] = np.zeros_like(param.data)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        m_hat = m / correction1
        v_hat = v / correction2
        param.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def ar1_series(noise: np.ndarray, phi: float = 0.5) -> np.ndarray:
    """``x_t = phi * x_{t-1} + noise_t`` started at ``noise_0``."""
    x = np.empty_like(noise)
    x[0] = noise[0]
    for t in range(1, noise.size):
        x[t] = phi * x[t - 1] + noise[t]
    return x


def adf_oracle_series() -> dict[str, np.ndarray]:
    """Seeded AR(1) (phi = 0.5), random-walk and sinusoid-plus-noise series
    of 300, 500 and 1056 samples, keyed ``"{kind}_{n}"``."""
    series = {}
    for seed, n in enumerate((300, 500, 1056)):
        rng = np.random.default_rng([41, seed])
        series[f"ar1_{n}"] = ar1_series(rng.normal(size=n))
        series[f"walk_{n}"] = np.cumsum(rng.normal(size=n))
        phase = 2.0 * np.pi * np.arange(n) / 24.0
        series[f"sine_{n}"] = np.sin(phase) + 0.5 * rng.normal(size=n)
    return series


def adf_lag_ssrs_reference(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Residual sums of squares of the ADF lag search, one ``lstsq`` fit per
    candidate: the first difference on [const, level, diff lags 1..p] over
    the ``max_lag``-trimmed sample, for p = 0..max_lag."""
    y, X = _lagged_design(np.asarray(x, dtype=np.float64), max_lag)
    full = np.column_stack([np.ones_like(y), X])
    ssrs = []
    for p in range(max_lag + 1):
        Xp = full[:, : 2 + p]
        beta, *_ = np.linalg.lstsq(Xp, y, rcond=None)
        resid = y - Xp @ beta
        ssrs.append(float(resid @ resid))
    return np.array(ssrs)


def load_csv_reference(path) -> list[tuple[str, np.ndarray]]:
    """``(id, values)`` per series of a long-format CSV, in file order, one
    ``csv.reader`` row and one ``float()`` per line; the quote and UTF-8
    rules and every message are those ``load_csv`` documents."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise SchemaError(f"{path} is not UTF-8 text: byte {byte:#04x} ({exc.reason})") from None
    if not lines:
        raise EmptyFile(f"{path} is empty")
    buckets: dict[str, list[float]] = {}
    for lineno, line in enumerate(lines, start=1):
        if '"' in line:
            raise SchemaError(f"{path}:{lineno} has a quote character; fields are never quoted")
        row = next(csv.reader([line]), [])
        if lineno == 1:
            if row[:3] != ["unique_id", "ds", "y"]:
                raise SchemaError(f"{path} header is {row!r}, expected unique_id,ds,y")
            continue
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
        buckets.setdefault(uid, []).append(value)
    if not buckets:
        raise EmptyFile(f"{path} has a header but no data rows")
    series = []
    for uid, values in buckets.items():
        values = np.array(values)
        finite = np.isfinite(values)
        if not finite.all():
            t = int(np.argmin(finite))
            raise SchemaError(
                f"{path}: series {uid!r} has non-finite y {float(values[t])!r} at sample {t}"
            )
        series.append((uid, values))
    return series


# thread getters of the OpenBLAS builds numpy (64-bit ints) and scipy load
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def openblas_threads() -> dict[str, int]:
    """The thread count of each OpenBLAS loaded in this process, by path;
    OSError where there is no ``/proc/self/maps`` to find them by."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    counts = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts[lib] = getter()
                break
    return counts
