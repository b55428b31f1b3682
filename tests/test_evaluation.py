import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specbench import evaluation
from specbench.errors import DegenerateInput, ShapeMismatch, TooFewMethods
from specbench.evaluation import (
    ScoreMatrix,
    basis_win_report,
    cd_analysis,
    friedman,
    holm_correct,
    linear_cka,
    mae,
    rank_table,
    topk_basis_win,
    topk_max,
    wilcoxon_signed_rank,
    _midranks,
    _signed_rank_statistic,
)
from specbench.spectral import dft, partial_sum, sorted_components

from helpers import REFERENCE_LENGTHS, basis_wins_reference, reference_series


# -- MAE ------------------------------------------------------------------------


def test_mae_examples():
    assert mae([1, 2, 3], [1, 2, 3]) == 0.0
    assert mae([0, 0], [1, -1]) == 1.0
    assert mae([1, 2, 3], [2, 4, 0]) == pytest.approx(2.0)
    with pytest.raises(ShapeMismatch):
        mae([1, 2], [1])


# -- basis-win metrics ------------------------------------------------------------


def _composed(n=256):
    t = np.arange(n)
    return 3.0 * np.sin(2 * np.pi * 5 * t / n) + 1.0 * np.cos(2 * np.pi * 11 * t / n)


def test_partial_sum_prediction_always_wins_its_own_k():
    y = _composed()
    dec = dft(y)
    bounds = (192, 256)
    target = y[bounds[0] : bounds[1]]
    for k in (1, 2):
        yhat = partial_sum(dec, k, bounds)
        assert topk_basis_win(target, yhat, dec, k, bounds)


def test_exact_prediction_wins_every_k():
    y = _composed()
    dec = dft(y)
    bounds = (192, 256)
    target = y[bounds[0] : bounds[1]]
    report = basis_win_report(target, target, dec, bounds)
    assert all(report.wins)
    assert report.k_max == sorted_components(dec)[0].size == 2
    assert report.threshold_pass


def test_topk_flags_match_direct_oracle():
    rng = np.random.default_rng(70)
    y = _composed() + 0.3 * np.sin(2 * np.pi * 23 * np.arange(256) / 256)
    dec = dft(y)
    bounds = (192, 256)
    target = y[bounds[0] : bounds[1]]
    yhat = target + rng.normal(size=64) * 0.4
    score = np.mean(np.abs(target - yhat))
    freq, _, _ = sorted_components(dec)
    for k in range(1, freq.size + 1):
        oracle = score <= np.mean(np.abs(target - partial_sum(dec, k, bounds)))
        assert topk_basis_win(target, yhat, dec, k, bounds) == oracle


def test_kmax_zero_for_mean_prediction_on_sinusoid():
    n = 256
    y = 4.0 * np.sin(2 * np.pi * 7 * np.arange(n) / n)
    dec = dft(y)
    bounds = (192, 256)
    target = y[bounds[0] : bounds[1]]
    yhat = np.full_like(target, y.mean())
    assert topk_max(target, yhat, dec, bounds) == 0


def test_kmax_non_monotone_win_pattern():
    # Over a sub-range the partial-sum MAE is not monotone in k, so a
    # forecast can win at k=2 while losing at k=1 (and above); the scan
    # must be exhaustive to find it.
    rng = np.random.default_rng(6)
    n = 128
    t = np.arange(n)
    freqs = rng.choice(np.arange(3, 40), size=5, replace=False)
    amps = rng.uniform(0.5, 3.0, size=5)
    y = sum(
        a * np.sin(2 * np.pi * f * t / n + rng.uniform(0, 2 * np.pi))
        for a, f in zip(amps, freqs)
    )
    dec = dft(y)
    bounds = (96, 128)
    target = y[bounds[0] : bounds[1]]
    errors = [
        np.mean(np.abs(target - partial_sum(dec, k, bounds))) for k in range(1, 6)
    ]
    assert errors[1] > errors[0]  # non-monotone by construction
    yhat = target + 0.5 * (errors[0] + errors[1])  # MAE between err(1) and err(2)
    report = basis_win_report(target, yhat, dec, bounds)
    oracle = [np.mean(np.abs(target - yhat)) <= e for e in errors]
    assert report.wins == oracle
    assert oracle == [False, True, False, False, False]
    assert report.k_max == 2 == topk_max(target, yhat, dec, bounds)


def _scored_rows(n: int, h: int, rows: int, seed: int):
    """Test-side rows of ``reference_series(n)`` with forecasts at several
    error scales, so k_max ranges from 0 to every component."""
    rng = np.random.default_rng(seed)
    y = reference_series(n, seed)
    anchors = np.sort(rng.integers(0, n - h + 1, size=rows))
    targets = np.stack([y[a : a + h] for a in anchors])
    scale = np.geomspace(1e-3, 3.0, rows)[:, None]
    forecasts = targets + scale * rng.normal(size=targets.shape)
    return dft(y), targets, forecasts, np.stack([anchors, anchors + h], axis=1)


@pytest.mark.parametrize("n", REFERENCE_LENGTHS)
def test_basis_win_rows_match_component_by_component_reference(n):
    h = min(192, n // 4)
    dec, targets, forecasts, bounds = _scored_rows(n, h, rows=8, seed=n)
    reports = basis_win_report(targets, forecasts, dec, bounds)
    for report, y, yhat, b in zip(reports, targets, forecasts, bounds):
        wins, k_max = basis_wins_reference(y, yhat, dec, tuple(b))
        assert report.wins == wins and report.k_max == k_max
        assert report.threshold_pass == (k_max >= 2)
    assert len({r.k_max for r in reports}) > 1


@st.composite
def scored_rows(draw):
    n = draw(st.integers(4, 300))
    h = draw(st.integers(1, n))
    rows = draw(st.integers(1, 6))
    lo = draw(st.lists(st.integers(0, 2 * n), min_size=rows, max_size=rows))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dec = dft(rng.normal(size=n))
    targets = rng.normal(size=(rows, h))
    forecasts = targets + rng.uniform(0.0, 2.0) * rng.normal(size=(rows, h))
    bounds = np.stack([np.asarray(lo), np.asarray(lo) + h], axis=1)
    return dec, targets, forecasts, bounds


@settings(max_examples=60, deadline=None)
@given(scored_rows())
def test_row_call_equals_one_call_per_row(case):
    dec, targets, forecasts, bounds = case
    reports = basis_win_report(targets, forecasts, dec, bounds)
    assert reports == [
        basis_win_report(y, yhat, dec, (int(lo), int(hi)))
        for y, yhat, (lo, hi) in zip(targets, forecasts, bounds)
    ]


def _counting_partial_sums(monkeypatch):
    """Spans of the partial-sum matrices built from here on."""
    built = []
    real_partial_sums = evaluation.partial_sums

    def counting(components, n, span):
        built.append(span)
        return real_partial_sums(components, n, span)

    monkeypatch.setattr(evaluation, "partial_sums", counting)
    return built


def test_row_groups_under_a_small_cell_cap_give_the_same_reports(monkeypatch):
    dec, targets, forecasts, bounds = _scored_rows(1200, 192, rows=15, seed=3)
    whole = basis_win_report(targets, forecasts, dec, bounds)
    built = _counting_partial_sums(monkeypatch)
    # a memoised call builds nothing, so each counted call starts cold
    evaluation._ERRORS_MEMO.clear()
    basis_win_report(targets, forecasts, dec, bounds)
    assert len(built) == 1
    built.clear()
    n_comp = sorted_components(dec)[0].size
    monkeypatch.setattr(evaluation, "_SCAN_CELLS", n_comp * 250)
    evaluation._ERRORS_MEMO.clear()
    assert basis_win_report(targets, forecasts, dec, bounds) == whole
    assert len(built) > 2
    assert all(hi - lo <= 250 for lo, hi in built)


def test_basis_win_reports_are_equal_with_a_cold_and_a_warm_memo(monkeypatch):
    monkeypatch.setattr(evaluation, "_ERRORS_MEMO", {})
    dec, targets, forecasts, bounds = _scored_rows(600, 96, rows=12, seed=5)
    built = _counting_partial_sums(monkeypatch)
    cold = basis_win_report(targets, forecasts, dec, bounds)
    assert len(built) == 1
    # a second forecast of the same targets reuses their errors
    other = forecasts[::-1]
    assert basis_win_report(targets, forecasts, dec, bounds) == cold
    warm_other = basis_win_report(targets, other, dec, bounds)
    assert len(built) == 1
    evaluation._ERRORS_MEMO.clear()
    assert basis_win_report(targets, other, dec, bounds) == warm_other
    assert len(built) == 2
    errors = evaluation.basis_errors(targets, dec, bounds)
    assert errors.shape == (12, sorted_components(dec)[0].size)
    assert not errors.flags.writeable


def test_a_one_ulp_change_to_one_target_misses_the_memo(monkeypatch):
    monkeypatch.setattr(evaluation, "_ERRORS_MEMO", {})
    dec, targets, forecasts, bounds = _scored_rows(600, 96, rows=12, seed=6)
    before = evaluation.basis_errors(targets, dec, bounds)
    built = _counting_partial_sums(monkeypatch)
    moved = targets.copy()
    moved[4, 7] = np.nextafter(moved[4, 7], np.inf)
    after = evaluation.basis_errors(moved, dec, bounds)
    assert len(built) == 1
    assert len(evaluation._ERRORS_MEMO) == 2
    np.testing.assert_array_equal(np.delete(after, 4, axis=0), np.delete(before, 4, axis=0))


def test_the_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(evaluation, "_ERRORS_MEMO", {})
    dec, targets, _, bounds = _scored_rows(300, 24, rows=4, seed=7)
    size = 4 * sorted_components(dec)[0].size
    monkeypatch.setattr(evaluation, "_MEMO_CELLS", 3 * size + 1)
    for i in range(8):
        evaluation.basis_errors(targets + i, dec, bounds)
        held = sum(e.size for e in evaluation._ERRORS_MEMO.values())
        assert held <= evaluation._MEMO_CELLS
        assert len(evaluation._ERRORS_MEMO) == min(i + 1, 3)
    # the newest entries stay; a matrix larger than the bound is not kept
    built = _counting_partial_sums(monkeypatch)
    evaluation.basis_errors(targets + 7, dec, bounds)
    assert built == []
    monkeypatch.setattr(evaluation, "_MEMO_CELLS", size - 1)
    evaluation.basis_errors(targets + 8, dec, bounds)
    assert len(evaluation._ERRORS_MEMO) == 3


def test_basis_win_report_rejects_mismatched_rows():
    dec, targets, forecasts, bounds = _scored_rows(64, 8, rows=3, seed=1)
    with pytest.raises(ShapeMismatch):
        basis_win_report(targets, forecasts[:2], dec, bounds)
    with pytest.raises(ShapeMismatch):
        basis_win_report(targets, forecasts, dec, bounds[:2])
    with pytest.raises(ShapeMismatch):
        basis_win_report(targets[0], forecasts[0], dec, (0, 9))


# -- Friedman ---------------------------------------------------------------------


def test_friedman_identical_ranking():
    scores = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 4))
    result = friedman(ScoreMatrix(["a", "b", "c"], list("wxyz"), scores))
    assert result.statistic == pytest.approx(8.0)
    assert result.p_value == pytest.approx(math.exp(-4.0), abs=1e-6)
    assert result.reject


def test_friedman_all_ties():
    result = friedman(ScoreMatrix(["a", "b", "c"], ["d1", "d2"], np.ones((3, 2))))
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert not result.reject


def test_friedman_column_permutation_invariance():
    rng = np.random.default_rng(71)
    scores = rng.normal(size=(4, 6))
    base = friedman(ScoreMatrix(list("abcd"), [f"d{i}" for i in range(6)], scores))
    perm = rng.permutation(6)
    shuffled = friedman(
        ScoreMatrix(list("abcd"), [f"d{i}" for i in range(6)], scores[:, perm])
    )
    assert base.statistic == pytest.approx(shuffled.statistic)


def test_chi2_tail_matches_the_regularised_upper_gamma():
    special = pytest.importorskip("scipy.special")
    worst = 0.0
    for df in range(1, 101):
        xs = np.linspace(0.0, 3.0 * df + 60.0, 241)
        got = np.array([evaluation._chi2_sf(float(x), df) for x in xs])
        ref = special.gammaincc(df / 2.0, xs / 2.0)
        assert got[0] == 1.0
        assert not np.isnan(got).any() and got.min() >= 0.0 and got.max() <= 1.0
        shown = ref > 1e-250
        worst = max(worst, float(np.max(np.abs(got[shown] - ref[shown]) / ref[shown])))
    assert worst <= 1e-12


def test_chi2_tail_stays_a_probability_far_out():
    # past x ~ 1490, e^{-x/2} alone underflows; the tail must not read 0
    # where the mass is still near the middle, nor NaN anywhere. A Friedman
    # statistic is at most D (M - 1), so it is always finite.
    assert evaluation._chi2_sf(3000.0, 3000) == pytest.approx(0.4965664388396, rel=1e-9)
    assert evaluation._chi2_sf(1500.0, 3000) == 1.0
    for df in (1, 2, 7, 1000):
        for x in (1e3, 1e4, 1e6, 1e300):
            p = evaluation._chi2_sf(x, df)
            assert 0.0 <= p <= 1.0


def test_friedman_too_few_methods():
    with pytest.raises(TooFewMethods):
        friedman(ScoreMatrix(["a", "b"], ["d1", "d2"], np.ones((2, 2))))


def test_rank_sums_respect_midranks():
    rng = np.random.default_rng(72)
    for _ in range(10):
        M, D = rng.integers(3, 7), rng.integers(2, 6)
        scores = rng.integers(0, 4, size=(M, D)).astype(float)  # force ties
        table = rank_table(ScoreMatrix([f"m{i}" for i in range(M)],
                                       [f"d{j}" for j in range(D)], scores))
        np.testing.assert_allclose(table.sum(axis=0), np.full(D, M * (M + 1) / 2))


# -- Wilcoxon ---------------------------------------------------------------------


def _brute_force_p(a, b):
    stat = _signed_rank_statistic(a, b)
    if stat is None:
        return 1.0
    w_obs, ranks = stat
    le = ge = 0
    for signs in itertools.product((0, 1), repeat=len(ranks)):
        w = sum(r for s, r in zip(signs, ranks) if s)
        le += w <= w_obs
        ge += w >= w_obs
    total = 2 ** len(ranks)
    return min(1.0, 2.0 * min(le, ge) / total)


def test_wilcoxon_exact_matches_enumeration():
    rng = np.random.default_rng(73)
    for _ in range(100):
        n = int(rng.integers(3, 13))
        a = rng.normal(size=n).round(1)
        b = rng.normal(size=n).round(1)
        assert wilcoxon_signed_rank(a, b) == _brute_force_p(a, b)


def test_wilcoxon_identical_samples():
    assert wilcoxon_signed_rank(np.ones(6), np.ones(6)) == 1.0


def test_wilcoxon_two_sided_symmetry():
    rng = np.random.default_rng(74)
    for n in (8, 30):
        a = rng.normal(size=n)
        b = a + rng.normal(size=n) * 0.5
        assert wilcoxon_signed_rank(a, b) == pytest.approx(wilcoxon_signed_rank(b, a))


def test_wilcoxon_normal_approx_against_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(75)
    a = rng.normal(size=40)
    b = a + rng.normal(size=40) * 0.3
    mine = wilcoxon_signed_rank(a, b)
    ref = stats.wilcoxon(a, b, correction=True, mode="approx").pvalue
    assert mine == pytest.approx(ref, abs=1e-10)


# -- Holm ------------------------------------------------------------------------


def test_holm_worked_example():
    assert holm_correct([0.01, 0.04, 0.03]) == pytest.approx([0.03, 0.06, 0.06])


def test_holm_single_p_unchanged():
    assert holm_correct([0.2]) == [0.2]


def test_holm_properties():
    rng = np.random.default_rng(76)
    p = rng.uniform(size=12)
    adjusted = np.asarray(holm_correct(p))
    assert np.all(adjusted >= p) and np.all(adjusted <= 1.0)
    order = np.argsort(p)
    assert np.all(np.diff(adjusted[order]) >= -1e-15)


def test_holm_permutation_equivariance():
    rng = np.random.default_rng(77)
    p = rng.uniform(size=9)
    perm = rng.permutation(9)
    a = np.asarray(holm_correct(p))
    b = np.asarray(holm_correct(p[perm]))
    np.testing.assert_allclose(b, a[perm])


p_values = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20)


@settings(max_examples=200, deadline=None)
@given(p_values)
def test_holm_bounds_and_monotone_in_raw_order(raw):
    p = np.asarray(raw)
    adjusted = np.asarray(holm_correct(p))
    assert np.all(p <= adjusted) and np.all(adjusted <= 1.0)
    assert np.all(np.diff(adjusted[np.argsort(p, kind="stable")]) >= 0.0)


@settings(max_examples=200, deadline=None)
@given(p_values, st.randoms(use_true_random=False))
def test_holm_equivariant_under_permutation(raw, random):
    perm = np.asarray(random.sample(range(len(raw)), len(raw)))
    p = np.asarray(raw)
    assert holm_correct(p[perm]) == np.asarray(holm_correct(p))[perm].tolist()


# -- CD analysis -------------------------------------------------------------------


def test_cd_identical_scores_single_group():
    sm = ScoreMatrix(list("abcd"), ["d1", "d2", "d3"], np.ones((4, 3)))
    cd = cd_analysis(sm)
    assert cd.groups == [list("abcd")]
    assert not cd.gate_passed  # Friedman cannot reject on full ties


def test_cd_significant_pair_split():
    # method a dominates c by a wide margin on every dataset
    D = 8
    rng = np.random.default_rng(78)
    base = rng.normal(size=D) * 0.01
    scores = np.stack([base, base + 0.5, base + 1.0])
    sm = ScoreMatrix(["a", "b", "c"], [f"d{i}" for i in range(D)], scores)
    cd = cd_analysis(sm, alpha=0.05)
    for group in cd.groups:
        assert not ({"a", "c"} <= set(group))
    flat_pairs = cd.adjusted_p[0, 2]
    assert flat_pairs < 0.05


def test_cd_groups_match_hand_cover():
    # a~b and c~d have balanced sign-alternating differences (no evidence),
    # while every cross pair differs consistently: expect bars {a,b}, {c,d}
    D = 12
    alt = np.where(np.arange(D) % 2 == 0, 0.2, -0.2)
    base = np.zeros(D)
    scores = np.stack([base, base + alt, base + 3.0, base + 3.0 + alt])
    sm = ScoreMatrix(list("abcd"), [f"d{i}" for i in range(D)], scores)
    cd = cd_analysis(sm, alpha=0.05)
    assert cd.groups == [["a", "b"], ["c", "d"]]
    assert cd.adjusted_p[0, 1] >= 0.05 and cd.adjusted_p[2, 3] >= 0.05
    assert cd.adjusted_p[0, 2] < 0.05 and cd.adjusted_p[1, 3] < 0.05


# -- CKA -------------------------------------------------------------------------


def test_cka_self_similarity():
    X = np.random.default_rng(80).normal(size=(12, 5))
    assert linear_cka(X, X) == pytest.approx(1.0, abs=1e-12)


def test_cka_invariances():
    rng = np.random.default_rng(81)
    X = rng.normal(size=(15, 6))
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    assert linear_cka(X, 2.5 * X @ Q) == pytest.approx(1.0, abs=1e-8)
    assert linear_cka(X, -0.3 * X) == pytest.approx(1.0, abs=1e-8)


def test_cka_symmetry():
    rng = np.random.default_rng(82)
    X = rng.normal(size=(10, 4))
    Y = rng.normal(size=(10, 7))
    assert linear_cka(X, Y) == pytest.approx(linear_cka(Y, X), abs=1e-12)


def test_cka_hand_computed_3x2():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    Y = np.array([[2.0, 1.0], [0.0, 1.0], [1.0, 3.0]])
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    expected = (
        np.linalg.norm(Xc.T @ Yc) ** 2
        / (np.linalg.norm(Xc.T @ Xc) * np.linalg.norm(Yc.T @ Yc))
    )
    assert linear_cka(X, Y) == pytest.approx(expected, abs=1e-12)


def test_cka_degenerate_input():
    X = np.ones((8, 3))
    Y = np.random.default_rng(83).normal(size=(8, 3))
    with pytest.raises(DegenerateInput):
        linear_cka(X, Y)


def test_midranks_ties():
    np.testing.assert_allclose(
        _midranks(np.array([3.0, 1.0, 3.0, 2.0])), [3.5, 1.0, 3.5, 2.0]
    )


# few distinct values, so ties are common
rank_inputs = st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=25)


@settings(max_examples=200, deadline=None)
@given(rank_inputs)
def test_midranks_sum_and_tied_values_share_a_rank(values):
    x = np.asarray(values)
    ranks = _midranks(x)
    n = x.size
    assert ranks.sum() == n * (n + 1) / 2
    for v in np.unique(x):
        assert np.unique(ranks[x == v]).size == 1
    assert np.all((x[:, None] < x[None, :]) <= (ranks[:, None] < ranks[None, :]))


@settings(max_examples=200, deadline=None)
@given(rank_inputs, st.randoms(use_true_random=False))
def test_midranks_invariant_under_permutation(values, random):
    x = np.asarray(values)
    perm = np.asarray(random.sample(range(x.size), x.size))
    np.testing.assert_array_equal(_midranks(x[perm]), _midranks(x)[perm])
