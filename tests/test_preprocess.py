import numpy as np
import pytest

from specbench import (
    Segment,
    TimeSeries,
    adf_test,
    load_csv,
    mean_acf,
    segment,
    select_series,
    write_csv,
)
from specbench.errors import (
    DegenerateInput,
    EmptyFile,
    NotEnoughStationary,
    SchemaError,
    TooShort,
    ZeroVariance,
)
from specbench.preprocess import _TAU_MAX, _TAU_MIN, _mackinnon_pvalue


def test_load_csv_groups_by_id(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("unique_id,ds,y\na,0,1.0\na,1,2.0\na,2,3.0\nb,0,4.0\nb,1,5.0\nb,2,6.0\n")
    series = load_csv(path)
    assert [s.id for s in series] == ["a", "b"]
    np.testing.assert_array_equal(series[0].values, [1, 2, 3])
    np.testing.assert_array_equal(series[1].values, [4, 5, 6])


def test_load_csv_schema_errors(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("unique_id,ds\na,0\n")
    with pytest.raises(SchemaError):
        load_csv(bad_header)

    bad_value = tmp_path / "nonnum.csv"
    bad_value.write_text("unique_id,ds,y\na,0,oops\n")
    with pytest.raises(SchemaError):
        load_csv(bad_value)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(EmptyFile):
        load_csv(empty)

    header_only = tmp_path / "header.csv"
    header_only.write_text("unique_id,ds,y\n")
    with pytest.raises(EmptyFile):
        load_csv(header_only)


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(21)
    original = [
        TimeSeries(id="alpha", values=rng.normal(size=17)),
        TimeSeries(id="beta_2", values=rng.normal(size=5) * 1e-7),
    ]
    path = tmp_path / "rt.csv"
    write_csv(path, original)
    loaded = load_csv(path)
    assert [s.id for s in loaded] == ["alpha", "beta_2"]
    for a, b in zip(original, loaded):
        np.testing.assert_array_equal(a.values, b.values)


def test_segment_counts_and_offsets():
    ts = TimeSeries(id="x", values=np.arange(1584, dtype=float))
    segs = segment(ts)
    assert [s.offset for s in segs] == [0, 528]
    np.testing.assert_array_equal(segs[1].values, np.arange(528, 1584))

    one = segment(TimeSeries(id="y", values=np.arange(1056, dtype=float)))
    assert len(one) == 1

    with pytest.raises(TooShort):
        segment(TimeSeries(id="z", values=np.arange(1055, dtype=float)))


def test_segments_are_exact_slices():
    values = np.random.default_rng(22).normal(size=40)
    segs = segment(TimeSeries(id="s", values=values), patch_len=16, stride=8)
    for seg in segs:
        np.testing.assert_array_equal(seg.values, values[seg.offset : seg.offset + 16])
        assert seg.id == f"s_{seg.offset}"


def test_adf_white_noise_vs_random_walk():
    rng = np.random.default_rng(23)
    noise = rng.normal(size=1056)
    assert adf_test(noise).stationary
    walk = np.cumsum(rng.normal(size=1056))
    assert not adf_test(walk).stationary


def test_adf_constant_is_degenerate():
    with pytest.raises(DegenerateInput):
        adf_test(np.full(100, 7.0))


def test_adf_matches_statsmodels_reference():
    adfuller = pytest.importorskip("statsmodels.tsa.stattools").adfuller
    rng = np.random.default_rng(24)
    for _ in range(10):
        x = rng.normal(size=300)
        mine = adf_test(x)
        stat, pval, lag, *_ = adfuller(x, regression="c", autolag="AIC")
        assert abs(mine.statistic - stat) < 1e-6
        assert mine.lag_used == lag
        assert abs(mine.p_value - pval) < 1e-6


@pytest.mark.parametrize(
    "stat, pvalue",
    # MacKinnon's constant-only asymptotic 1%, 5% and 10% critical values
    [(-3.4304, 0.01), (-2.8621, 0.05), (-2.5671, 0.10)],
)
def test_mackinnon_pvalue_at_critical_values(stat, pvalue):
    assert _mackinnon_pvalue(stat) == pytest.approx(pvalue, abs=1e-3)


def test_mackinnon_pvalue_clamps_outside_table():
    assert _mackinnon_pvalue(_TAU_MAX + 1e-9) == 1.0
    assert _mackinnon_pvalue(_TAU_MAX + 5.0) == 1.0
    assert _mackinnon_pvalue(_TAU_MIN - 1e-9) == 0.0
    assert _mackinnon_pvalue(_TAU_MIN - 5.0) == 0.0


def test_mean_acf_square_wave_oracle():
    wave = np.tile([1.0, 1.0, -1.0, -1.0], 8)
    # direct-sum oracle, written from the definition
    centered = wave - wave.mean()
    denom = float(centered @ centered)
    expected = np.mean(
        [float(centered[:-lag] @ centered[lag:]) / denom for lag in (1, 2, 3, 4)]
    )
    assert abs(mean_acf(wave, nlags=4) - expected) < 1e-12


def test_mean_acf_excludes_lag_zero():
    rng = np.random.default_rng(25)
    y = rng.normal(size=100)
    # if r(0)=1 were included the mean over "4 lags" would differ
    vals = mean_acf(y, nlags=4)
    centered = y - y.mean()
    denom = float(centered @ centered)
    with_zero = np.mean(
        [1.0] + [float(centered[:-lag] @ centered[lag:]) / denom for lag in (1, 2, 3, 4)]
    )
    assert vals != pytest.approx(with_zero)


def test_mean_acf_zero_variance():
    with pytest.raises(ZeroVariance):
        mean_acf(np.full(50, 3.0), nlags=4)


def _sinusoid_segment(i, n=1056):
    t = np.arange(n)
    return Segment("sine", i * n, np.sin(2 * np.pi * (i + 3) * t / n))


def _walk_segment(i, n=1056):
    rng = np.random.default_rng(500 + i)
    return Segment("walk", i * n, np.cumsum(rng.normal(size=n)))


def test_select_series_truncates_and_sorts():
    rng = np.random.default_rng(26)
    segs = [
        Segment("noise", i, rng.normal(size=1056) + 0.5 * np.sin(2 * np.pi * np.arange(1056) / 24))
        for i in range(12)
    ]
    kept = select_series(segs, keep=8, nlags=8)
    assert len(kept) == 8
    scores = [mean_acf(s.values, nlags=8) for s in kept]
    assert scores == sorted(scores, reverse=True)


def test_select_series_prefers_periodic_over_walks():
    segs = [_sinusoid_segment(i) for i in range(4)] + [_walk_segment(i) for i in range(4)]
    kept = select_series(segs, keep=4, nlags=8)
    assert all(s.parent_id == "sine" for s in kept)


def test_select_series_not_enough_stationary():
    segs = [_walk_segment(i) for i in range(5)]
    with pytest.raises(NotEnoughStationary):
        select_series(segs, keep=3, nlags=8)
