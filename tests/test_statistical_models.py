import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import specbench
from specbench.errors import BadContextLength, EmptyTrainSet
from specbench.models import Family, ModelConfig, TrainConfig, fit, predict
from specbench.models.statistical import (
    SMOOTHING_GRID, _ar_forecast, _fit_ar, _holt_sweep, _ses_sweep, dominant_period,
)
from specbench.series import Windows
from specbench.spectral import dft, sorted_components

from helpers import take


def _windows_from_series(values, l, h, count=30, stride=3):
    """Up to ``count`` windows ``stride`` apart, as starts into ``values``,
    so overlapping windows share lag rows."""
    starts = np.arange(count) * stride
    starts = starts[starts + l + h <= len(values)]
    return Windows(values, starts, starts + l, l, h)


TC = TrainConfig(max_steps=10)


def test_naive_last_predicts_last_value():
    cfg = ModelConfig(family=Family.NAIVE_LAST, horizon=5, context_len=8)
    model = fit(cfg, _windows_from_series(np.arange(100.0), 8, 5), None, TC)
    np.testing.assert_array_equal(
        predict(model, np.arange(8.0)), np.full(5, 7.0)
    )


def test_naive_fit_is_immediate():
    cfg = ModelConfig(family=Family.NAIVE_LAST, horizon=5, context_len=8)
    model = fit(cfg, _windows_from_series(np.arange(100.0), 8, 5), None, TC)
    assert model.params == {} and model.extra == {} and model.history == []


def test_empty_train_set():
    cfg = ModelConfig(family=Family.NAIVE_LAST, horizon=5, context_len=8)
    with pytest.raises(EmptyTrainSet):
        fit(cfg, Windows(np.zeros(13), [], [], 8, 5), None, TC)


def test_bad_context_length():
    cfg = ModelConfig(family=Family.NAIVE_LAST, horizon=5, context_len=8)
    model = fit(cfg, _windows_from_series(np.arange(100.0), 8, 5), None, TC)
    with pytest.raises(BadContextLength):
        predict(model, np.arange(7.0))


@pytest.mark.parametrize(
    "family", [Family.NAIVE_LAST, Family.SEASONAL_NAIVE, Family.SES, Family.HOLT, Family.AR_LS]
)
def test_no_context_rows_give_no_forecasts(family):
    cfg = ModelConfig(family=family, horizon=5, context_len=8, ar_order=2)
    model = fit(cfg, _windows_from_series(np.sin(np.arange(100.0)), 8, 5), None, TC)
    assert predict(model, np.empty((0, 8))).shape == (0, 5)


def test_seasonal_naive_repeats_dominant_period():
    n = 640
    values = np.sin(2 * np.pi * np.arange(n) / 16)  # period 16
    cfg = ModelConfig(family=Family.SEASONAL_NAIVE, horizon=32, context_len=64)
    model = fit(cfg, _windows_from_series(values, 64, 32), None, TC)
    context = values[:64]
    forecast = predict(model, context)
    expected = np.resize(context[-16:], 32)
    np.testing.assert_allclose(forecast, expected, atol=1e-12)
    np.testing.assert_allclose(forecast, values[64:96], atol=1e-9)



def _dominant_period_reference(context):
    """The period of the first non-DC entry of ``sorted_components``."""
    freq, _, _ = sorted_components(dft(context))
    freq = freq[freq > 0]
    if not freq.size:
        return 1
    return max(1, round(len(context) / int(freq[0])))


def _period_rows():
    rng = np.random.default_rng(65)
    for n in range(2, 257):
        t = np.arange(n)
        yield rng.normal(size=n)
        yield np.full(n, 2.5)  # DC only: every other bin is residue
        yield (-1.0) ** t + 0.5  # Nyquist (even n) beside DC
        # an impulse at 0: every conjugate pair has the same amplitude, 2/n
        yield (t == 0) * 3.0
        yield np.cos(2 * np.pi * t / n) + np.cos(2 * np.pi * (n // 2) * t / n)
        yield np.round(rng.normal(size=n)) + 1e-14 * rng.normal(size=n)
        w = int(rng.integers(1, n // 2 + 1))
        yield 3.0 * np.sin(2 * np.pi * w * t / n + rng.uniform(0, 6)) + rng.normal(size=n)


def test_dominant_period_matches_the_sorted_components_rule():
    rows = list(_period_rows())
    assert len(rows) == 7 * 255
    assert [dominant_period(r) for r in rows] == [_dominant_period_reference(r) for r in rows]
    assert dominant_period(np.full(16, 1.0)) == 1
    # a tie goes to the lower frequency: bin 1, period n
    assert dominant_period((np.arange(64) == 0) * 1.0) == 64

def _ses_reference(context, alpha, h):
    level = context[0]
    for value in context[1:]:
        level = alpha * value + (1 - alpha) * level
    return np.full(h, level)


def _holt_reference(context, alpha, beta, h):
    level, trend = context[1], context[1] - context[0]
    for value in context[2:]:
        pred = level + trend
        new_level = alpha * value + (1 - alpha) * pred
        trend = beta * (new_level - level) + (1 - beta) * trend
        level = new_level
    return level + trend * np.arange(1, h + 1)


def test_ses_flat_forecast_and_alpha_range():
    rng = np.random.default_rng(60)
    values = rng.normal(size=400) + 5
    cfg = ModelConfig(family=Family.SES, horizon=6, context_len=32)
    model = fit(cfg, _windows_from_series(values, 32, 6), None, TC)
    alpha = float(model.extra["alpha"][0])
    assert 0.05 <= alpha <= 0.95
    forecast = predict(model, values[:32])
    assert np.all(forecast == forecast[0])
    # all rows at once give the scalar recursion's bytes
    rows = rng.normal(size=(20, 32)).cumsum(axis=1)
    np.testing.assert_array_equal(
        predict(model, rows), np.stack([_ses_reference(r, alpha, 6) for r in rows])
    )
    # a one-value context has no one-step error to average
    short = fit(ModelConfig(family=Family.SES, horizon=2, context_len=1),
                _windows_from_series(values, 1, 2), None, TC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(predict(short, [[3.0], [4.0]]), [[3.0, 3.0], [4.0, 4.0]])


def test_holt_extrapolates_linear_trend():
    values = 0.5 * np.arange(400.0) + 2
    cfg = ModelConfig(family=Family.HOLT, horizon=8, context_len=32)
    model = fit(cfg, _windows_from_series(values, 32, 8), None, TC)
    context = values[100:132]
    forecast = predict(model, context)
    expected = values[132:140]
    np.testing.assert_allclose(forecast, expected, atol=1e-6)
    # all rows at once give the scalar recursion's bytes
    alpha, beta = float(model.extra["alpha"][0]), float(model.extra["beta"][0])
    rows = np.random.default_rng(62).normal(size=(20, 32)).cumsum(axis=1)
    np.testing.assert_array_equal(
        predict(model, rows), np.stack([_holt_reference(r, alpha, beta, 8) for r in rows])
    )
    # a two-value context has no one-step error to average
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        short = fit(ModelConfig(family=Family.HOLT, horizon=3, context_len=2),
                    _windows_from_series(values, 2, 3), None, TC)
        np.testing.assert_array_equal(predict(short, [1.0, 3.0]), [5.0, 7.0, 9.0])


def test_ar_recovers_exact_ar_process():
    # x_t = 1.2 x_{t-1} - 0.36 x_{t-2} is a stable AR(2) recurrence
    rng = np.random.default_rng(61)
    n = 600
    x = np.zeros(n)
    x[0], x[1] = rng.normal(size=2)
    for t in range(2, n):
        x[t] = 1.2 * x[t - 1] - 0.36 * x[t - 2]
    cfg = ModelConfig(family=Family.AR_LS, horizon=1, context_len=32, ar_order=2)
    model = fit(cfg, _windows_from_series(x, 32, 1, count=60), None, TC)
    context = x[200:232]
    forecast = predict(model, context)
    assert abs(forecast[0] - x[232]) < 1e-6


def test_ar_multi_step_recursion():
    values = np.sin(2 * np.pi * np.arange(800) / 20)
    cfg = ModelConfig(family=Family.AR_LS, horizon=40, context_len=64, ar_order=4)
    model = fit(cfg, _windows_from_series(values, 64, 40, count=40), None, TC)
    context = values[300:364]
    forecast = predict(model, context)
    np.testing.assert_allclose(forecast, values[364:404], atol=1e-6)




@pytest.mark.parametrize("order", [0, -1, 8, 9])
def test_ar_order_outside_one_to_below_context_len_is_rejected(order):
    with pytest.raises(ValueError, match="ar_order"):
        ModelConfig(family=Family.AR_LS, horizon=4, context_len=8, ar_order=order)
    # only AR_LS reads the order
    ModelConfig(family=Family.SES, horizon=4, context_len=8, ar_order=order)

def _ar_forecast_reference(beta, context, h):
    """The recursion on a Python list of lags, rebuilt every step."""
    order = beta.size - 1
    buf = list(context[-order:][::-1])  # most recent first
    out = np.empty(h)
    for i in range(h):
        nxt = float(np.dot(beta[:-1], buf) + beta[-1])
        out[i] = nxt
        buf = [nxt] + buf[:-1]
    return out


@pytest.mark.parametrize("order", [1, 2, 4, 48])
def test_ar_forecast_matches_the_list_recursion_bit_for_bit(order):
    rng = np.random.default_rng(66 + order)
    beta = np.append(rng.normal(size=order) / order, rng.normal())
    context = rng.normal(size=order + 16).cumsum()
    before = context.copy()
    for h in sorted({1, max(1, order // 2), order, 192}):  # h = 1, < order, = order, 192
        got = _ar_forecast(beta, context, h)
        assert got.shape == (h,)
        assert np.ascontiguousarray(got).tobytes() == _ar_forecast_reference(beta, context, h).tobytes()
    assert context.tobytes() == before.tobytes()

def _row_by_row_reference(windows, order):
    """AR least squares on every lag row of every window, built one row at a time."""
    rows, targets = [], []
    for seq in np.concatenate([windows.contexts, windows.targets], axis=1):
        for t in range(order, seq.size):
            rows.append(seq[t - order : t][::-1])
            targets.append(seq[t])
    X = np.column_stack([np.asarray(rows), np.ones(len(rows))])
    reference, *_ = np.linalg.lstsq(X, np.asarray(targets), rcond=None)
    return reference


def test_ar_design_matches_row_by_row_reference():
    # overlapping windows of a random walk share lag rows, which the fit
    # solves once, weighted; full rank, so it agrees to rounding
    rng = np.random.default_rng(62)
    values = np.cumsum(rng.normal(size=500))
    windows = _windows_from_series(values, 40, 12, count=50, stride=7)
    np.testing.assert_allclose(
        _fit_ar(windows, 6), _row_by_row_reference(windows, 6), rtol=1e-9, atol=1e-12
    )
    # noiseless and rank 3 of 7: the 3e-12 sinusoid gives two singular values
    # (2e-12 and 8e-13 of the largest) below the 46,000-row design's cutoff
    # but above one scaled by the ~1,050 distinct rows, which would keep them
    # and move the minimum-norm solution
    t = np.arange(1100.0)
    values = np.sin(2 * np.pi * t / 17.0 + 0.3) + 3e-12 * np.sin(2 * np.pi * t / 7.3)
    windows = _windows_from_series(values, 40, 12, count=1000, stride=1)
    beta, reference = _fit_ar(windows, 6), _row_by_row_reference(windows, 6)
    np.testing.assert_allclose(beta, reference, rtol=0, atol=1e-9)
    assert np.linalg.norm(beta) == pytest.approx(np.linalg.norm(reference), rel=1e-9)


@pytest.mark.parametrize("stride", [47, 60])
def test_ar_without_repeated_rows_is_bit_identical_to_reference(stride):
    # stride 47 chains windows that share 5 values but no 7-value lag row;
    # stride 60 leaves gaps between them
    rng = np.random.default_rng(63)
    values = np.cumsum(rng.normal(size=2000))
    windows = _windows_from_series(values, 40, 12, count=30, stride=stride)
    np.testing.assert_array_equal(_fit_ar(windows, 6), _row_by_row_reference(windows, 6))


def test_ar_keeps_overlapping_windows_of_different_sources_apart():
    # two sources, interleaved so that consecutive anchors differ by 1
    rng = np.random.default_rng(64)
    a, b = np.cumsum(rng.normal(size=(2, 400)), axis=1)
    first = _windows_from_series(a, 40, 12, count=60, stride=2)
    second = _windows_from_series(b, 40, 12, count=60, stride=2)
    interleaved = np.stack([np.arange(60), np.arange(60) + 60], axis=1).reshape(-1)
    shifted = Windows(second.values, second.starts, second.anchors + 1, second.l, second.h)
    pooled = take(Windows.concat([first, shifted]), interleaved)
    assert set(np.diff(pooled.anchors)) == {1}
    assert (np.diff(pooled.starts) < 0).any()
    np.testing.assert_allclose(
        _fit_ar(pooled, 6), _row_by_row_reference(pooled, 6), rtol=1e-9, atol=1e-12
    )


_AR_THREADS_CHILD = """
from specbench.harness.runner import split_windows, synthetic_dataset
from specbench.models.statistical import SMOOTHING_GRID, _fit_ar, _holt_sweep, _ses_sweep
from specbench.series import ForecastTask, Windows
task = ForecastTask(256, 192)
series = synthetic_dataset("sinusoid", 4, 1, 1200).composed
for k in (None, 2):
    train = Windows.concat([split_windows(s, task, len(s) - 192, k=k).train for s in series])
    print(_fit_ar(train, 48).tobytes().hex())
"""


def test_ar_fit_bytes_do_not_depend_on_blas_threads():
    # the zoo's pooled AR_LS train sets, ID and OOD: 4 sinusoid series of
    # 1200 samples, 48 lags
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(specbench.__file__).resolve().parent.parent),
                    env.get("PYTHONPATH", "")) if p
    )
    outputs = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", _AR_THREADS_CHILD], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]


def _ses_sweep_reference(seqs, alphas):
    """The out-of-place SES recursion, one new array per step."""
    W, L = seqs.shape
    level = np.repeat(seqs[:, :1], len(alphas), axis=1)
    err = np.zeros(len(alphas))
    for t in range(1, L):
        err += np.abs(seqs[:, t : t + 1] - level).sum(axis=0)
        level = alphas[None, :] * seqs[:, t : t + 1] + (1 - alphas[None, :]) * level
    return err / max(1, W * (L - 1)), level


def _holt_sweep_reference(seqs, alphas, betas):
    """The out-of-place Holt recursion, one new array per step."""
    W, L = seqs.shape
    A = len(alphas) * len(betas)
    a = np.repeat(alphas, len(betas))[None, :]
    b = np.tile(betas, len(alphas))[None, :]
    level = np.repeat(seqs[:, 1:2], A, axis=1)
    trend = np.repeat(seqs[:, 1:2] - seqs[:, :1], A, axis=1)
    err = np.zeros(A)
    for t in range(2, L):
        pred = level + trend
        err += np.abs(seqs[:, t : t + 1] - pred).sum(axis=0)
        new_level = a * seqs[:, t : t + 1] + (1 - a) * pred
        trend = b * (new_level - level) + (1 - b) * trend
        level = new_level
    return err / max(1, W * (L - 2)), level, trend


@pytest.mark.parametrize("rows, length", [(1, 3), (1, 40), (7, 3), (64, 448)])
def test_smoothing_sweeps_match_out_of_place_references_exactly(rows, length):
    rng = np.random.default_rng(rows * 1000 + length)
    seqs = rng.normal(size=(rows, length)).cumsum(axis=1) * 10.0 ** rng.integers(-3, 4)
    for alphas, betas in ((SMOOTHING_GRID, SMOOTHING_GRID), (np.array([0.35]), np.array([0.8]))):
        for fast, slow in zip(_ses_sweep(seqs, alphas), _ses_sweep_reference(seqs, alphas)):
            np.testing.assert_array_equal(fast, slow)
        holt = _holt_sweep(seqs, alphas, betas)
        for fast, slow in zip(holt, _holt_sweep_reference(seqs, alphas, betas)):
            np.testing.assert_array_equal(fast, slow)


@pytest.mark.parametrize("rows, length", [(1, 2), (1, 3), (20, 32), (64, 448)])
def test_predict_sweeps_skip_scoring_and_keep_the_state_bits(rows, length):
    rng = np.random.default_rng(rows * 7 + length)
    seqs = rng.normal(size=(rows, length)).cumsum(axis=1)
    for alphas, betas in ((SMOOTHING_GRID, SMOOTHING_GRID), (np.array([0.35]), np.array([0.8]))):
        err, level = _ses_sweep(seqs, alphas, score=False)
        assert err is None
        np.testing.assert_array_equal(level, _ses_sweep_reference(seqs, alphas)[1])
        err, level, trend = _holt_sweep(seqs, alphas, betas, score=False)
        assert err is None
        _, ref_level, ref_trend = _holt_sweep_reference(seqs, alphas, betas)
        np.testing.assert_array_equal(level, ref_level)
        np.testing.assert_array_equal(trend, ref_trend)


def test_predict_runs_the_sweeps_unscored(monkeypatch):
    from specbench.models import statistical

    scored = []
    for name in ("_ses_sweep", "_holt_sweep"):
        sweep = getattr(statistical, name)
        monkeypatch.setattr(statistical, name, lambda *a, _sweep=sweep, score=True:
                            scored.append(score) or _sweep(*a, score=score))
    values = np.sin(np.arange(200.0) / 5)
    for family in (Family.SES, Family.HOLT):
        cfg = ModelConfig(family=family, horizon=4, context_len=16)
        model = fit(cfg, _windows_from_series(values, 16, 4), None, TC)
        scored.clear()
        predict(model, values[:16])
        assert scored == [False]
