import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specbench import ForecastTask, TimeSeries, Windows, make_windows, split_windows
from specbench.errors import KTooLarge, RangeTooShort
from specbench.spectral import dft, sorted_components

from helpers import take


def series(values, sid="s"):
    return TimeSeries(id=sid, values=np.asarray(values, dtype=float))


def test_make_windows_hand_enumeration():
    pairs = make_windows(series([1, 2, 3, 4, 5]), ForecastTask(2, 1), stride=1)
    assert len(pairs) == 3
    assert pairs.anchors.tolist() == [2, 3, 4]
    np.testing.assert_array_equal(pairs.contexts[0], [1, 2])
    np.testing.assert_array_equal(pairs.targets[0], [3])
    np.testing.assert_array_equal(pairs.contexts[2], [3, 4])
    np.testing.assert_array_equal(pairs.targets[2], [5])


def test_make_windows_range_too_short():
    with pytest.raises(RangeTooShort):
        make_windows(series([1, 2, 3, 4, 5]), ForecastTask(5, 1))


def test_make_windows_stride_and_count_formula():
    pairs = make_windows(series(range(7)), ForecastTask(2, 1), stride=2)
    # count = floor((7 - 2 - 1) / 2) + 1 = 3
    assert pairs.anchors.tolist() == [2, 4, 6]

    for stride in (1, 2, 3, 5):
        pairs = make_windows(series(range(40)), ForecastTask(6, 3), stride=stride)
        assert len(pairs) == (40 - 6 - 3) // stride + 1


def test_stride_equals_subsampled_stride_one():
    ts = series(np.random.default_rng(1).normal(size=60))
    task = ForecastTask(5, 2)
    dense = make_windows(ts, task, stride=1)
    for s in (2, 3, 4):
        strided = make_windows(ts, task, stride=s)
        subsampled = take(dense, np.s_[::s])
        assert len(strided) == len(subsampled)
        np.testing.assert_array_equal(strided.anchors, subsampled.anchors)
        np.testing.assert_array_equal(strided.contexts, subsampled.contexts)
        np.testing.assert_array_equal(strided.targets, subsampled.targets)


def test_windows_are_exact_slices():
    values = np.random.default_rng(2).normal(size=30)
    ts = series(values)
    windows = make_windows(ts, ForecastTask(4, 3))
    for context, target, anchor in zip(windows.contexts, windows.targets, windows.anchors):
        np.testing.assert_array_equal(context, values[anchor - 4 : anchor])
        np.testing.assert_array_equal(target, values[anchor : anchor + 3])


def test_split_windows_paper_shape():
    ts = series(np.random.default_rng(3).normal(size=1200))
    task = ForecastTask(256, 192)
    split = split_windows(ts, task, split_point=1008)
    # train targets end one horizon before T; that horizon is the validation
    assert split.train.anchors[-1] + task.horizon == 1008 - task.horizon
    assert split.valid.anchors.tolist() == [1008 - task.horizon]
    # contexts of the first test window end exactly at the split point
    assert split.test.anchors[0] == 1008
    assert len(split.test) == 1


def test_split_windows_single_test_window_boundary():
    ts = series(np.random.default_rng(4).normal(size=50))
    task = ForecastTask(10, 5)
    split = split_windows(ts, task, split_point=45)
    assert len(split.test) == 1
    assert split.test.anchors[0] == 45


def test_split_windows_preconditions():
    ts = series(np.random.default_rng(5).normal(size=50))
    task = ForecastTask(10, 5)
    with pytest.raises(RangeTooShort):
        split_windows(ts, task, split_point=14)  # T < l + h
    for T in range(15, 20):  # l + h <= T < l + 2h: the validation slice leaves no train window
        with pytest.raises(RangeTooShort):
            split_windows(ts, task, split_point=T)
    assert len(split_windows(ts, task, split_point=20).train) == 1
    with pytest.raises(RangeTooShort):
        split_windows(ts, task, split_point=46)  # no room for a test target


def test_split_separation_invariant():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(40, 120))
        l = int(rng.integers(4, 12))
        h = int(rng.integers(2, 8))
        T = int(rng.integers(l + 2 * h, n - h + 1))
        split = split_windows(series(rng.normal(size=n)), ForecastTask(l, h), T)
        assert all(a + h <= T - h for a in split.train.anchors)
        assert all(T - h <= a and a + h <= T for a in split.valid.anchors)
        assert all(a >= T for a in split.test.anchors)


def test_invalid_containers():
    with pytest.raises(ValueError):
        TimeSeries(id="", values=np.ones(3))
    with pytest.raises(ValueError):
        TimeSeries(id="x", values=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        ForecastTask(0, 4)


# the last window ends exactly at the end of the values
_WINDOWS = dict(values=np.arange(10.0), starts=[0, 5], anchors=[2, 7], l=2, h=3)


@pytest.mark.parametrize("bad, match", [
    ({"starts": [-1, 5]}, "outside"),
    ({"starts": [0, 6]}, "outside"),
    ({"anchors": [2]}, "shapes"),
    ({"starts": [[0, 5]], "anchors": [[2, 7]]}, "shapes"),
    ({"values": np.append(np.arange(9.0), np.nan)}, "finite"),
    ({"values": np.append(np.inf, np.arange(9.0))}, "finite"),
    ({"l": 0}, "positive"),
    ({"h": -3}, "positive"),
])
def test_windows_reject_malformed_input(bad, match):
    assert len(Windows(**_WINDOWS)) == 2
    with pytest.raises(ValueError, match=match):
        Windows(**{**_WINDOWS, **bad})


def test_concat_offsets_starts_across_sources_of_different_lengths():
    task = ForecastTask(3, 2)
    parts = [
        make_windows(series(np.arange(n) + 100.0 * i), task, stride, bounds)
        for i, (n, stride, bounds) in enumerate([(7, 1, None), (12, 3, (2, 12)), (5, 1, None)])
    ]
    pooled = Windows.concat(parts)
    assert pooled.values.size == 7 + 12 + 5 and len(pooled) == 3 + 2 + 1
    for name in ("anchors", "contexts", "targets"):
        np.testing.assert_array_equal(
            getattr(pooled, name), np.concatenate([getattr(w, name) for w in parts])
        )
    idx = np.array([5, 0, 4, 4])
    rows = pooled.rows(idx)
    assert rows.flags.c_contiguous
    np.testing.assert_array_equal(
        rows, np.concatenate([pooled.contexts[idx], pooled.targets[idx]], axis=1)
    )


# -- properties of the window arrays ------------------------------------------


@st.composite
def windowed_ranges(draw):
    """A random series with a task, a stride and a range that holds a window."""
    l = draw(st.integers(1, 12))
    h = draw(st.integers(1, 8))
    n = draw(st.integers(l + h, 80))
    lo = draw(st.integers(0, n - l - h))
    hi = draw(st.integers(lo + l + h, n))
    stride = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).normal(size=n)
    return series(values), ForecastTask(l, h), stride, (lo, hi)


@settings(max_examples=80, deadline=None)
@given(windowed_ranges())
def test_window_count_formula(case):
    ts, task, stride, (lo, hi) = case
    windows = make_windows(ts, task, stride, (lo, hi))
    assert len(windows) == (hi - lo - task.context_len - task.horizon) // stride + 1
    assert windows.contexts.shape == (len(windows), task.context_len)
    assert windows.targets.shape == (len(windows), task.horizon)


@settings(max_examples=80, deadline=None)
@given(windowed_ranges())
def test_window_rows_are_series_slices(case):
    ts, task, stride, bounds = case
    l, h = task.context_len, task.horizon
    windows = make_windows(ts, task, stride, bounds)
    for i, a in enumerate(windows.anchors):
        assert bounds[0] <= a - l and a + h <= bounds[1]
        np.testing.assert_array_equal(windows.contexts[i], ts.values[a - l : a])
        np.testing.assert_array_equal(windows.targets[i], ts.values[a : a + h])


@st.composite
def split_cases(draw):
    """A random series with a task, a stride and a valid split point."""
    l = draw(st.integers(1, 12))
    h = draw(st.integers(1, 8))
    T = draw(st.integers(l + 2 * h, 60))
    n = draw(st.integers(T + h, T + h + 30))
    stride = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).normal(size=n)
    return series(values), ForecastTask(l, h), stride, T


@settings(max_examples=80, deadline=None)
@given(split_cases())
def test_split_train_targets_end_by_T_and_test_anchors_start_at_T(case):
    ts, task, stride, T = case
    split = split_windows(ts, task, T, stride)
    h = task.horizon
    assert np.all(split.train.anchors + h <= T - h)
    assert np.all(split.valid.anchors + h <= T)
    assert np.all(split.test.anchors >= T)


@settings(max_examples=40, deadline=None)
@given(split_cases(), st.integers(1, 3))
def test_ood_test_rows_equal_id_test_rows(case, k):
    ts, task, stride, T = case
    if k > sorted_components(dft(ts.values))[0].size:
        with pytest.raises(KTooLarge):
            split_windows(ts, task, T, stride, k=k)
        return
    ood = split_windows(ts, task, T, stride, k=k)
    id_split = split_windows(ts, task, T, stride)
    assert len(ood.train) == k * len(id_split.train)
    assert len(ood.valid) == k * len(id_split.valid)
    np.testing.assert_array_equal(ood.test.anchors, id_split.test.anchors)
    np.testing.assert_array_equal(ood.test.contexts, id_split.test.contexts)
    np.testing.assert_array_equal(ood.test.targets, id_split.test.targets)
