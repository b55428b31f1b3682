import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import specbench

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
from specbench import preprocess
from specbench.preprocess import _TAU_MAX, _TAU_MIN, _lag_ssrs, _mackinnon_pvalue

from helpers import (
    adf_lag_ssrs_reference,
    adf_oracle_series,
    ar1_series,
    load_csv_reference,
    openblas_threads,
)


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


def _assert_loads_like_reference(path):
    """``load_csv`` gives the reference's ids and value bytes, or raises
    the reference's exception type and message."""
    try:
        expected = load_csv_reference(path)
    except (SchemaError, EmptyFile) as exc:
        with pytest.raises(type(exc)) as got:
            load_csv(path)
        assert str(got.value) == str(exc)
        return
    loaded = load_csv(path)
    assert [s.id for s in loaded] == [uid for uid, _ in expected]
    assert [s.values.tobytes() for s in loaded] == [v.tobytes() for _, v in expected]


# fields the fast parse reads as the reference does, and fields it must
# leave to the line-by-line parse (float() literals numpy refuses, and
# characters numpy reads differently)
_IDS = ["a", "b", "a", "b", " a", "a ", "é", "日本", "a\tb", "a\x0cb", "a\u2028b", "x" * 300,
        "", "x\x00", "\x1c"]
_DS = ["0", "17", "", "2024-01-01 00:00", " "]
_GOOD_YS = ["1.5", "-0.0", "2", "+.5", "5.", "1e-300", " 2.5 ", "\xa03", "7\u2003"]
_ODD_YS = ["1_0", "infinity", "-Infinity", "1e400", "nan", "1\x1c", "1\x00", "١", "0x10",
           "oops", ""]


@st.composite
def _csv_lines(draw):
    ident, ds = draw(st.sampled_from(_IDS)), draw(st.sampled_from(_DS))
    y = draw(st.sampled_from(_GOOD_YS) | st.sampled_from(_GOOD_YS) | st.sampled_from(_ODD_YS))
    return draw(st.sampled_from([
        f"{ident},{ds},{y}", f"{ident},{ds},{y}", f"{ident},{ds},{y}", f"{ident},{ds},{y}",
        "", " ", f"{ident},{ds}", f"{ident},{ds},{y},{ds}", f'"{ident},x",{ds},{y}',
    ]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    lines=st.lists(_csv_lines(), max_size=12),
    ending=st.sampled_from(["\n", "\r\n", "\r"]),
    final_newline=st.booleans(),
)
def test_load_csv_matches_the_per_row_reference(tmp_path_factory, lines, ending, final_newline):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    text = ending.join(["unique_id,ds,y", *lines]) + (ending if final_newline else "")
    path.write_bytes(text.encode("utf-8"))
    for chunk in (1, 2, 3, preprocess._CHUNK_LINES):
        with mock.patch.object(preprocess, "_CHUNK_LINES", chunk):
            _assert_loads_like_reference(path)


def _long_csv_lines(rows):
    """Data lines over two and a half chunks: runs of ``a`` and ``b`` that
    cross chunk boundaries, then ``a`` and ``c`` interleaved, with blank
    lines between."""
    lines = []
    for i in range(rows):
        uid = "a" if i < rows // 2 else "b" if i < 3 * rows // 4 else "ac"[i % 2]
        lines.append(f"{uid},{i},{math.sin(i) * 10.0 ** (i % 7 - 3)!r}")
        if i % 997 == 0:
            lines.append("")
    return lines


def test_load_csv_over_several_chunks_keeps_file_order(tmp_path):
    rows = 5 * preprocess._CHUNK_LINES // 2
    path = tmp_path / "long.csv"
    path.write_text("\n".join(["unique_id,ds,y", *_long_csv_lines(rows)]) + "\n")
    loaded = load_csv(path)
    assert [s.id for s in loaded] == ["a", "b", "c"]
    assert [len(s) for s in loaded] == [rows // 2 + rows // 8, rows // 4, rows // 8]
    _assert_loads_like_reference(path)


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("y", ["oops", "1_0", "infinity", "1e400"])
def test_load_csv_reads_a_chunk_edge_row_by_its_absolute_line(tmp_path, where, y):
    # the second chunk holds file lines 2 + C .. 1 + 2C
    chunk = preprocess._CHUNK_LINES
    lineno = 2 + chunk if where == "first" else 1 + 2 * chunk
    lines = ["unique_id,ds,y", *(f"s,{i},{i}.5" for i in range(3 * chunk))]
    lines[lineno - 1] = f"s,{lineno},{y}"
    path = tmp_path / "edge.csv"
    path.write_text("\n".join(lines) + "\n")
    sample = lineno - 2
    if y == "oops":
        message = f"^{re.escape(str(path))}:{lineno} non-numeric y field 'oops'$"
        with pytest.raises(SchemaError, match=message):
            load_csv(path)
    elif y == "1_0":
        (series,) = load_csv(path)
        assert series.values[sample] == 10.0
    else:
        with pytest.raises(SchemaError, match=f"series 's' has non-finite y inf at sample {sample}$"):
            load_csv(path)
    _assert_loads_like_reference(path)


@pytest.mark.parametrize("line", ['"a,b",0,1.0', 'a,0,"1.0"', 'a"b,0,1.0'])
def test_load_csv_rejects_quotes_by_line(tmp_path, line):
    path = tmp_path / "quoted.csv"
    path.write_text(f"unique_id,ds,y\na,0,1.0\n{line}\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:3 has a quote character"):
        load_csv(path)


def test_load_csv_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("unique_id,ds,y\nsé,0,1.0\n".encode("latin-1"))
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))} is not UTF-8 text: byte 0xe9"):
        load_csv(path)


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


def _schwert_max_lag(n):
    return min(n // 2 - 2, int(math.ceil(12.0 * (n / 100.0) ** 0.25)))


def test_lag_ssrs_match_per_lag_lstsq_reference():
    for name, x in adf_oracle_series().items():
        max_lag = _schwert_max_lag(x.size)
        reference = adf_lag_ssrs_reference(x, max_lag)
        np.testing.assert_allclose(_lag_ssrs(x, max_lag), reference, rtol=1e-12, err_msg=name)
        nobs = x.size - 1 - max_lag
        aics = [(nobs * math.log(ssr / nobs) + 2.0 * (2 + p), p) for p, ssr in enumerate(reference)]
        assert adf_test(x).lag_used == min(aics)[1], name


# (statistic, lag_used, p_value) of adf_test before the lag search moved to
# one QR factorisation, when every candidate had its own lstsq fit
ADF_GOLDEN = {
    "ar1_300": (-5.3987748058895635, 5, 3.40733191084297e-06),
    "walk_300": (-1.8166381023238867, 5, 0.37223318288112195),
    "sine_300": (-8.401628806051312, 16, 2.223221606811876e-13),
    "ar1_500": (-13.90994895402242, 0, 0.0),
    "walk_500": (-3.1374427125860964, 1, 0.023903514235884937),
    "sine_500": (-10.907482681555997, 14, 0.0),
    "ar1_1056": (-9.18054263479438, 11, 2.275957200481571e-15),
    "walk_1056": (-1.3490051478198186, 0, 0.6064651199133716),
    "sine_1056": (-6.585403653383372, 22, 7.336180607442344e-09),
}


def test_adf_golden_reports():
    series = adf_oracle_series()
    assert sorted(series) == sorted(ADF_GOLDEN)
    for name, (statistic, lag_used, p_value) in ADF_GOLDEN.items():
        report = adf_test(series[name])
        assert report.lag_used == lag_used, name
        assert report.statistic == pytest.approx(statistic, rel=1e-9), name
        assert report.p_value == pytest.approx(p_value, rel=1e-9, abs=1e-300), name
        assert report.stationary == name.startswith(("ar1", "sine")), name


def test_adf_rejects_ar1_and_keeps_random_walks():
    ar1_rejected = walks_kept = 0
    for seed in range(20):
        noise = np.random.default_rng([43, seed]).normal(size=1056)
        ar1_rejected += adf_test(ar1_series(noise)).stationary
        walks_kept += not adf_test(np.cumsum(noise)).stationary
    assert ar1_rejected == 20
    assert walks_kept >= 19


@pytest.mark.parametrize(
    "values",
    [np.arange(200.0), 2.0 * np.arange(200.0), (-1.0) ** np.arange(200)],
    ids=["ramp", "steep_ramp", "alternating"],
)
def test_adf_exact_fit_inputs_report(values):
    report = adf_test(values)
    assert 0.0 <= report.p_value <= 1.0
    assert 0 <= report.lag_used <= _schwert_max_lag(values.size)


def test_adf_exact_zero_ssr_picks_first_exact_fit(monkeypatch):
    # statsmodels scores log(0) as -inf, so the smallest exact-fit order wins
    monkeypatch.setattr(preprocess, "_lag_ssrs", lambda x, max_lag: np.array([1.0, 0.0, 0.5, 0.0]))
    x = np.random.default_rng(27).normal(size=200)
    assert adf_test(x, max_lag=3).lag_used == 1


def test_adf_rejects_lag_search_without_residual_freedom():
    x = np.random.default_rng(28).normal(size=30)
    adf_test(x, max_lag=13)
    with pytest.raises(ValueError, match="too short"):
        adf_test(x, max_lag=14)


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


def test_select_series_survives_exact_fit_segment():
    rng = np.random.default_rng(29)
    segs = [Segment("noise", i, rng.normal(size=1056)) for i in range(3)]
    segs.append(Segment("ramp", 0, np.arange(1056.0)))
    kept = select_series(segs, keep=3, nlags=8)
    assert [s.parent_id for s in kept] == ["noise"] * 3


def test_select_series_not_enough_stationary():
    segs = [_walk_segment(i) for i in range(5)]
    with pytest.raises(NotEnoughStationary):
        select_series(segs, keep=3, nlags=8)


def test_select_series_is_the_same_with_one_and_two_workers(monkeypatch):
    rng = np.random.default_rng(31)
    segs = [_sinusoid_segment(i) for i in range(3)] + [_walk_segment(i) for i in range(3)]
    segs += [Segment("noise", i, rng.normal(size=1056)) for i in range(4)]
    kept = []
    for workers in ("1", "2"):
        monkeypatch.setenv("SPECBENCH_WORKERS", workers)
        kept.append(select_series(segs, keep=6, nlags=8))
    assert [s.id for s in kept[0]] == [s.id for s in kept[1]]
    assert all(a.values.tobytes() == b.values.tobytes() for a, b in zip(*kept))
    assert {s.parent_id for s in kept[0]} == {"sine", "noise"}



def _select_series_reference(segments, keep, nlags):
    """The screen-everything selection: ADF-test every segment, then rank
    the stationary ones by mean autocorrelation."""
    survivors = []
    for seg in segments:
        try:
            report = adf_test(seg.values)
        except DegenerateInput:
            continue
        if report.stationary:
            survivors.append((mean_acf(seg.values, nlags=nlags), seg))
    if len(survivors) < keep:
        raise NotEnoughStationary(f"only {len(survivors)} stationary segments, need {keep}")
    survivors.sort(key=lambda item: (-item[0], item[1].parent_id, item[1].offset))
    return [seg for _, seg in survivors[:keep]]


def _mixed_segments():
    """Three each of noise, walks and sines (six stationary in all), two
    constants and a ramp, in about the reverse of their mean-ACF order."""
    rng = np.random.default_rng(33)
    return (
        [Segment("noise", i, rng.normal(size=1056)) for i in range(3)]
        + [Segment("const", i, np.full(1056, float(i))) for i in range(2)]
        + [_walk_segment(i) for i in range(3)]
        + [Segment("ramp", 0, np.arange(1056.0))]
        + [_sinusoid_segment(i) for i in range(3)]
    )


# (workers, candidates tested in process before the pool takes the rest)
_WALKS = [("1", 128), ("2", 128), ("2", 0), ("2", 2)]


@pytest.mark.parametrize("workers,head", _WALKS)
@pytest.mark.parametrize("keep", [0, 1, 6, 7])
def test_select_series_matches_the_screen_everything_reference(monkeypatch, workers, head, keep):
    monkeypatch.setenv("SPECBENCH_WORKERS", workers)
    monkeypatch.setattr(preprocess, "_SERIAL_TESTS", head)
    segs = _mixed_segments()
    try:
        expected = _select_series_reference(segs, keep, nlags=8)
    except NotEnoughStationary as exc:
        with pytest.raises(NotEnoughStationary) as got:
            select_series(segs, keep=keep, nlags=8)
        assert str(got.value) == str(exc) == "only 6 stationary segments, need 7"
        return
    kept = select_series(segs, keep=keep, nlags=8)
    assert [s.id for s in kept] == [s.id for s in expected]
    assert all(a.values.tobytes() == b.values.tobytes() for a, b in zip(kept, expected))


@pytest.mark.parametrize("workers,head", [("1", 0), ("1", 3), ("2", 128)])
def test_select_series_tests_only_the_candidates_ranked_down_to_the_last_kept(
    monkeypatch, workers, head
):
    # by mean ACF: three sines, the ramp, three walks, then the noise; the
    # counter sees only tests run in this process, so with two workers it
    # also shows that a walk shorter than the head starts no pool
    monkeypatch.setenv("SPECBENCH_WORKERS", workers)
    monkeypatch.setattr(preprocess, "_SERIAL_TESTS", head)
    segs = _mixed_segments()
    ranked = sorted(
        (seg for seg in segs if seg.parent_id != "const"),
        key=lambda seg: (-mean_acf(seg.values, nlags=8), seg.parent_id, seg.offset),
    )
    assert [seg.parent_id for seg in ranked] == ["sine"] * 3 + ["ramp"] + ["walk"] * 3 + ["noise"] * 3
    tested = []

    def counted(values, *args, **kwargs):
        tested.append(values)
        return adf_test(values, *args, **kwargs)

    monkeypatch.setattr(preprocess, "adf_test", counted)
    for keep, walked in ((1, 1), (3, 3), (4, 8), (6, 10), (7, 10)):
        tested.clear()
        try:
            select_series(segs, keep=keep, nlags=8)
        except NotEnoughStationary:
            assert keep == 7
        assert len(tested) == walked
        assert all(v is seg.values for v, seg in zip(tested, ranked))


def test_select_series_leaves_no_worker_behind_after_an_early_stop(monkeypatch):
    # 29 of 48 candidates decide keep 13: two in process, the rest on the pool
    monkeypatch.setenv("SPECBENCH_WORKERS", "2")
    monkeypatch.setattr(preprocess, "_SERIAL_TESTS", 2)
    segs = _mixed_segments() * 4
    kept = select_series(segs, keep=13, nlags=8)
    assert [s.id for s in kept] == [s.id for s in _select_series_reference(segs, 13, nlags=8)]
    assert multiprocessing.active_children() == []


def test_select_series_rejects_a_negative_keep():
    with pytest.raises(ValueError, match="keep"):
        select_series(_mixed_segments(), keep=-1, nlags=8)


@pytest.mark.parametrize("keep", [3, 7])
def test_select_series_screens_on_one_blas_thread_and_restores_the_count(monkeypatch, keep):
    try:
        before = openblas_threads()
    except OSError:
        pytest.skip("this platform has no /proc/self/maps to find OpenBLAS by")
    if not before:
        pytest.skip("no OpenBLAS with a known thread getter is loaded")
    monkeypatch.setenv("SPECBENCH_WORKERS", "1")
    seen = []

    def counted(values, *args, **kwargs):
        seen.append(openblas_threads())
        return adf_test(values, *args, **kwargs)

    monkeypatch.setattr(preprocess, "adf_test", counted)
    try:
        select_series(_mixed_segments(), keep=keep, nlags=8)  # 6 pass
    except NotEnoughStationary:
        assert keep == 7
    assert seen and all(counts == {lib: 1 for lib in before} for counts in seen)
    assert openblas_threads() == before


_SCREEN_THREADS_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from helpers import adf_oracle_series
from specbench.preprocess import adf_test, mean_acf
for name, values in sorted(adf_oracle_series().items()):
    report = adf_test(values)
    print(name, float(report.statistic).hex(), report.lag_used, float(mean_acf(values)).hex())
"""


def test_screen_bytes_do_not_depend_on_blas_threads():
    # a pool worker screens with one BLAS thread, a serial prep with the
    # process's own; both must keep the same segments
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(specbench.__file__).resolve().parent.parent),
                    env.get("PYTHONPATH", "")) if p
    )
    outputs = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-c", _SCREEN_THREADS_CHILD, str(Path(__file__).resolve().parent)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == 9
    assert outputs[0] == outputs[1]
