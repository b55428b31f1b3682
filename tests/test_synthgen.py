import numpy as np
import pytest

from specbench import (
    SinusoidKind,
    SinusoidSpec,
    SyntheticVariant,
    TrendSpec,
    dft,
    gen_sinusoid,
    gen_sinusoid_dataset,
    gen_trend,
    gen_trend_dataset,
    sorted_components,
)
from specbench.errors import ExhaustedParameterSpace
from specbench.synthgen import SyntheticDataset


def test_gen_sinusoid_values():
    sin = gen_sinusoid(SinusoidSpec(SinusoidKind.SIN, amplitude=5, freq=3, length=64))
    assert sin.values[0] == 0.0
    cos = gen_sinusoid(SinusoidSpec(SinusoidKind.COS, amplitude=2, freq=3, length=64))
    assert cos.values[0] == 2.0
    sin2 = gen_sinusoid(SinusoidSpec(SinusoidKind.SIN, amplitude=1, freq=4, length=16))
    assert abs(sin2.values[2] - np.sin(np.pi)) < 1e-12


def test_gen_trend_values_and_slope_recovery():
    zero = gen_trend(TrendSpec(slope=0.0, length=50))
    np.testing.assert_array_equal(zero.values, np.zeros(50))

    n = 200
    ramp = gen_trend(TrendSpec(slope=16.0, length=n))
    assert abs(ramp.values[-1] - 16.0 * (n - 1) / n) < 1e-12

    # closed-form least-squares line fit recovers the slope per index step
    t = np.arange(n, dtype=float)
    y = ramp.values
    slope_hat = ((t - t.mean()) @ (y - y.mean())) / ((t - t.mean()) @ (t - t.mean()))
    assert abs(slope_hat * n - 16.0) < 1e-9


def test_sinusoid_dataset_composition_identity():
    ds = gen_sinusoid_dataset(n_series=20, seed=3, length=256)
    for composed, parts in zip(ds.composed, ds.components):
        total = sum(p.values for p in parts)
        np.testing.assert_array_equal(composed.values, total)


def test_sinusoid_dataset_deterministic():
    a = gen_sinusoid_dataset(n_series=10, seed=42, length=256)
    b = gen_sinusoid_dataset(n_series=10, seed=42, length=256)
    for x, y in zip(a.composed, b.composed):
        assert x.id == y.id
        np.testing.assert_array_equal(x.values, y.values)


def test_sinusoid_dataset_distinct_tuples():
    ds = gen_sinusoid_dataset(n_series=50, seed=5, length=256)
    seen = set()
    for parts in ds.components:
        freqs = set()
        for p in parts:
            freq, _, _ = sorted_components(dft(p.values))
            freqs.add(int(freq[0]))
        assert len(freqs) == len(parts)
        for p in parts:
            key = p.values.tobytes()
            assert key not in seen
            seen.add(key)


def test_sinusoid_dataset_spectral_exactness():
    ds = gen_sinusoid_dataset(n_series=15, seed=7, length=240)
    for composed in ds.composed:
        _, amp, _ = sorted_components(dft(composed.values))
        assert np.count_nonzero(amp > 1e-6) == 2


def test_sinusoid_dataset_exhaustion():
    with pytest.raises(ExhaustedParameterSpace):
        gen_sinusoid_dataset(n_series=1000, composition_size=2, seed=1, length=256)


def test_trend2_slope_pools():
    ds = gen_trend_dataset(SyntheticVariant.TREND2, n_series=25, seed=9, length=256)
    for train_parts, test_parts in zip(ds.train_components, ds.components):
        train_trend = train_parts[1].values
        test_trend = test_parts[1].values
        n = len(train_trend)
        train_slope = train_trend[-1] * n / (n - 1)
        test_slope = test_trend[-1] * n / (n - 1)
        assert train_slope >= 1.0
        assert test_slope <= -1.0


def test_trend_dataset_composition_identity():
    ds = gen_trend_dataset(SyntheticVariant.TREND1, n_series=10, seed=11, length=256)
    for composed, parts in zip(ds.composed, ds.components):
        np.testing.assert_array_equal(composed.values, parts[0].values + parts[1].values)


def test_trend_dataset_detrending_recovers_sinusoid():
    # (sin + trend) - trend re-rounds, so recovery is exact only to one ulp
    # of the composed magnitude (values bounded by 64 -> spacing ~7e-15).
    ds = gen_trend_dataset(SyntheticVariant.TREND1, n_series=10, seed=11, length=256)
    for composed, parts in zip(ds.composed, ds.components):
        detrended = composed.values - parts[1].values
        np.testing.assert_allclose(detrended, parts[0].values, rtol=0, atol=1e-12)


def test_trend1_slope_range():
    ds = gen_trend_dataset(SyntheticVariant.TREND1, n_series=40, seed=13, length=256)
    for parts in ds.components:
        n = len(parts[1].values)
        slope = parts[1].values[-1] * n / (n - 1)
        assert -32.0 <= slope <= 32.0


@pytest.mark.parametrize("sizes", [(2, 2, 3), (3, 2, 2)])
def test_synthetic_dataset_rejects_misaligned_lists(sizes):
    base = gen_sinusoid_dataset(3, seed=1, length=64)
    n_composed, n_components, n_train = sizes
    with pytest.raises(ValueError, match="align"):
        SyntheticDataset(
            composed=base.composed[:n_composed],
            components=base.components[:n_components],
            variant=base.variant,
            seed=base.seed,
            train_components=base.components[:n_train],
        )
