import numpy as np
import pytest

from specbench import (
    ForecastTask,
    TimeSeries,
    basis_series,
    dft,
    make_windows,
    partial_sum,
    reconstruct_full,
    sorted_components,
    split_windows,
    top_k_components,
)
from specbench.errors import KTooLarge, NonFinite
from specbench.spectral import SpectralDecomposition, partial_sums

from helpers import (
    REFERENCE_LENGTHS, basis_series_reference, naive_dft, reference_series,
    running_sums_reference, sorted_components_reference, take,
)


def test_dft_constant_series():
    dec = dft(np.full(8, 3.25))
    assert abs(dec.coeffs[0] - 3.25) < 1e-12
    assert np.abs(dec.coeffs[1:]).max() < 1e-12


def test_dft_single_cosine_bins():
    t = np.arange(16)
    dec = dft(np.cos(2 * np.pi * 3 * t / 16))
    assert abs(abs(dec.coeffs[3]) - 0.5) < 1e-12
    assert abs(abs(dec.coeffs[13]) - 0.5) < 1e-12


# numpy's FFT picks its algorithm by the factors of n: powers of two, odd
# primes, mixed radices and the shortest lengths all go through the oracle.
ORACLE_LENGTHS = (2, 3, *REFERENCE_LENGTHS)


def _is_power_of_two(n: int) -> bool:
    return n & (n - 1) == 0


def test_dft_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for n in (16, *filter(_is_power_of_two, ORACLE_LENGTHS)):
        y = rng.normal(size=n)
        assert np.abs(dft(y).coeffs - naive_dft(y)).max() < 1e-10


def test_dft_non_power_of_two_matches_naive_oracle():
    rng = np.random.default_rng(8)
    for n in (12, 37, 100, *(n for n in ORACLE_LENGTHS if not _is_power_of_two(n))):
        y = rng.normal(size=n)
        assert np.abs(dft(y).coeffs - naive_dft(y)).max() < 1e-10


def test_dft_rejects_non_finite():
    with pytest.raises(NonFinite):
        dft(np.array([1.0, np.inf, 2.0]))


def test_roundtrip_reconstruction():
    rng = np.random.default_rng(9)
    for n in (64, *ORACLE_LENGTHS):
        y = rng.normal(size=n)
        assert np.abs(reconstruct_full(dft(y)) - y).max() < 1e-9


def test_reconstruct_zero_coeffs():
    dec = SpectralDecomposition(coeffs=np.zeros(16, dtype=complex), n=16)
    np.testing.assert_array_equal(reconstruct_full(dec), np.zeros(16))


def test_reconstruct_single_pair():
    coeffs = np.zeros(16, dtype=complex)
    coeffs[3] = 0.5
    coeffs[13] = 0.5
    t = np.arange(16)
    out = reconstruct_full(SpectralDecomposition(coeffs=coeffs, n=16))
    assert np.abs(out - np.cos(2 * np.pi * 3 * t / 16)).max() < 1e-12


def _brute_force_amplitudes(y):
    """Pair-collapsed amplitude per frequency bin, straight from the naive DFT."""
    n = len(y)
    coeffs = naive_dft(y)
    amps = {}
    for w in range(n // 2 + 1):
        if w == 0 or (n % 2 == 0 and w == n // 2):
            amps[w] = abs(coeffs[w])
        else:
            amps[w] = 2 * abs(coeffs[w])
    return amps


def test_top_k_two_sinusoids():
    n = 64
    t = np.arange(n)
    y = 3 * np.sin(2 * np.pi * 5 * t / n) + 1 * np.cos(2 * np.pi * 9 * t / n)
    freq, amp, _ = top_k_components(dft(y), 2)
    assert freq.tolist() == [5, 9]
    assert np.allclose(amp, [3.0, 1.0], atol=1e-9)
    oracle = _brute_force_amplitudes(y)
    ranked = sorted(oracle, key=lambda w: (-oracle[w], w))[:2]
    assert ranked == [5, 9]


def test_top_k_single_bin_and_k_too_large():
    y = np.sin(2 * np.pi * 4 * np.arange(32) / 32)
    freq, amp, phase = top_k_components(dft(y), 1)
    assert freq.tolist() == [4] and amp.size == phase.size == 1
    with pytest.raises(KTooLarge):
        top_k_components(dft(y), 2)
    with pytest.raises(ValueError):
        top_k_components(dft(y), 0)


@pytest.mark.parametrize("n", REFERENCE_LENGTHS)
def test_sorted_components_match_bin_by_bin_reference(n):
    dec = dft(reference_series(n, n))
    freq, amp, phase = sorted_components(dec)
    ref_freq, ref_amp, ref_phase = map(np.asarray, zip(*sorted_components_reference(dec)))
    np.testing.assert_array_equal(freq, ref_freq)
    np.testing.assert_array_equal(amp, ref_amp)
    np.testing.assert_array_equal(phase, ref_phase)
    assert dec.coeffs[0].real < 0 and phase[freq == 0] == [np.pi]
    if n % 2 == 0:
        assert n // 2 in freq
    triples = list(zip(freq.tolist(), amp.tolist(), phase.tolist()))
    assert triples == sorted_components_reference(dec)
    for k in (1, 2, freq.size):
        for top, full in zip(top_k_components(dec, k), (freq, amp, phase)):
            np.testing.assert_array_equal(top, full[:k])


@pytest.mark.parametrize("n", REFERENCE_LENGTHS)
def test_partial_sums_match_running_sum_reference(n):
    dec = dft(reference_series(n, n + 1))
    bounds = (n // 3, n // 3 + n // 5 + 1)
    reference = running_sums_reference(dec, bounds)
    components = sorted_components(dec)
    # the OOD split trains on these rows, so each must be its scalar term
    np.testing.assert_array_equal(
        basis_series(components, n, bounds), np.stack(basis_series_reference(dec, bounds))
    )
    np.testing.assert_array_equal(partial_sums(components, n, bounds), np.stack(reference))
    for k in (1, 2, len(reference) // 2, len(reference)):
        np.testing.assert_array_equal(partial_sum(dec, k, bounds), reference[k - 1])


def test_basis_series_dc_component():
    dec = dft(np.full(16, 4.0))
    top = top_k_components(dec, 1)
    assert top[0].tolist() == [0]
    np.testing.assert_allclose(basis_series(top, 16, (0, 16)), np.full((1, 16), 4.0), atol=1e-12)


def test_basis_series_sum_reconstructs():
    rng = np.random.default_rng(10)
    y = rng.normal(size=32)
    dec = dft(y)
    total = basis_series(sorted_components(dec), 32, (0, 32)).sum(axis=0)
    assert np.abs(total - y).max() < 1e-9


def test_basis_series_single_bin_signal():
    n = 64
    t = np.arange(n)
    y = np.sin(2 * np.pi * 7 * t / n)
    (row,) = basis_series(top_k_components(dft(y), 1), n, (0, n))
    assert np.abs(row - y).max() < 1e-9


def test_partial_sum_all_components_is_reconstruction():
    rng = np.random.default_rng(11)
    y = rng.normal(size=32)
    dec = dft(y)
    k = sorted_components(dec)[0].size
    assert np.abs(partial_sum(dec, k, (0, 32)) - reconstruct_full(dec)).max() < 1e-9


def test_partial_sum_two_sinusoids_exact():
    n = 128
    t = np.arange(n)
    y = 2 * np.sin(2 * np.pi * 3 * t / n) + 5 * np.cos(2 * np.pi * 11 * t / n)
    assert np.abs(partial_sum(dft(y), 2, (0, n)) - y).max() < 1e-9


def test_partial_sum_k1_is_largest_basis():
    rng = np.random.default_rng(12)
    y = rng.normal(size=48)
    dec = dft(y)
    oracle = _brute_force_amplitudes(y)
    w_star = min(oracle, key=lambda w: (-oracle[w], w))
    top = top_k_components(dec, 1)
    assert top[0].tolist() == [w_star]
    np.testing.assert_allclose(
        partial_sum(dec, 1, (0, 48)), basis_series(top, 48, (0, 48))[0], atol=1e-12
    )


def test_parseval():
    rng = np.random.default_rng(13)
    for n in (32, 100, 257):
        y = rng.normal(size=n)
        dec = dft(y)
        lhs = float(y @ y)
        rhs = n * float(np.sum(np.abs(dec.coeffs) ** 2))
        assert abs(lhs - rhs) / lhs < 1e-9


def test_conjugate_symmetry():
    rng = np.random.default_rng(14)
    y = rng.normal(size=40)
    c = dft(y).coeffs
    for w in range(1, 40):
        assert abs(c[40 - w] - np.conj(c[w])) < 1e-12


def test_partial_sum_mse_non_increasing_in_k():
    rng = np.random.default_rng(15)
    y = rng.normal(size=64)
    dec = dft(y)
    total = sorted_components(dec)[0].size
    mses = []
    for k in range(1, total + 1):
        err = y - partial_sum(dec, k, (0, 64))
        mses.append(float(np.mean(err * err)))
    assert all(b <= a + 1e-12 for a, b in zip(mses, mses[1:]))


def _two_sine_series(n=1200):
    t = np.arange(n)
    values = 4.0 * np.sin(2 * np.pi * 6 * t / n) + 2.0 * np.cos(2 * np.pi * 17 * t / n)
    parts = [
        4.0 * np.sin(2 * np.pi * 6 * t / n),
        2.0 * np.cos(2 * np.pi * 17 * t / n),
    ]
    return TimeSeries(id="two-sine", values=values), parts


def test_compositional_split_recovers_generator_components():
    ts, parts = _two_sine_series()
    task = ForecastTask(256, 192)
    split = split_windows(ts, task, split_point=1008, k=2)
    half = len(split.train) // 2
    sources = [take(split.train, np.s_[:half]), take(split.train, np.s_[half:])]
    recovered = sorted(sources, key=lambda w: w.targets.std(), reverse=True)
    for rec, part in zip(recovered, parts):
        expected = make_windows(TimeSeries(id="part", values=part), task, 1, (0, 1008 - 192))
        assert np.abs(rec.contexts - expected.contexts).mean() < 1e-6
        assert np.abs(rec.targets - expected.targets).mean() < 1e-6


def test_compositional_split_counts_and_mode():
    ts, _ = _two_sine_series()
    task = ForecastTask(256, 192)
    per_source = (1008 - 192) - 256 - 192 + 1
    for k, sources in ((None, 1), (2, 2)):  # ID trains on the series, OOD on 2 basis series
        split = split_windows(ts, task, split_point=1008, k=k)
        assert len(split.train) == sources * per_source
        assert len(split.valid) == sources
        assert len(split.test) == 1


def test_compositional_test_side_identical_to_traditional():
    ts, _ = _two_sine_series()
    task = ForecastTask(256, 192)
    ood = split_windows(ts, task, split_point=1008, k=2)
    id_split = split_windows(ts, task, split_point=1008)
    assert len(ood.test) == len(id_split.test)
    np.testing.assert_array_equal(ood.test.anchors, id_split.test.anchors)
    np.testing.assert_array_equal(ood.test.contexts, id_split.test.contexts)
    np.testing.assert_array_equal(ood.test.targets, id_split.test.targets)
