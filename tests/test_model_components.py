import math

import numpy as np
import pytest

from specbench.autodiff import Tensor
from specbench.errors import PatchTooLong
from specbench.models import (
    Attention,
    ModelConfig,
    Family,
    PosEncoding,
    Scaler,
    Tokenization,
    apply_scaler,
    bin_midpoints,
    fit_scaler,
    huber_loss,
    invert_scaler,
    mae_loss,
    mse_loss,
    moving_average_split,
    positional_bias,
    sincos_table,
    student_t_nll,
    token_count,
    tokenize,
)
from specbench.models.tokenizers import relative_buckets, rope_tables


def _cfg(**kwargs):
    defaults = dict(family=Family.PATCH_TRANSFORMER, horizon=48, context_len=192)
    defaults.update(kwargs)
    return ModelConfig(**defaults)


# -- scalers -------------------------------------------------------------------


def test_scaler_roundtrip():
    rng = np.random.default_rng(50)
    x = rng.normal(size=(6, 40)) * 7 + 3
    for kind in (Scaler.REVIN_STANDARD, Scaler.ROBUST):
        state = fit_scaler(kind, x)
        back = invert_scaler(state, apply_scaler(state, x))
        np.testing.assert_allclose(back, x, atol=1e-12)


def test_standard_scaler_moments():
    rng = np.random.default_rng(51)
    x = rng.normal(size=(4, 100)) * 5 + 11
    scaled = apply_scaler(fit_scaler(Scaler.REVIN_STANDARD, x), x)
    np.testing.assert_allclose(scaled.mean(axis=1), 0, atol=1e-9)
    np.testing.assert_allclose(scaled.std(axis=1), 1, atol=1e-6)


def test_constant_context_scales_to_zero():
    x = np.full((2, 30), 3.0)
    for kind in (Scaler.REVIN_STANDARD, Scaler.ROBUST):
        scaled = apply_scaler(fit_scaler(kind, x), x)
        np.testing.assert_allclose(scaled, 0, atol=1e-12)
    # non-representable constants leave at most an epsilon-scaled residue
    x = np.full((2, 30), 4.2)
    for kind in (Scaler.REVIN_STANDARD, Scaler.ROBUST):
        scaled = apply_scaler(fit_scaler(kind, x), x)
        np.testing.assert_allclose(scaled, 0, atol=1e-6)


# -- tokenization --------------------------------------------------------------


def test_patch_count_and_contents():
    cfg = _cfg()
    assert token_count(Tokenization.PATCH, 192, cfg) == 13
    x = np.arange(192, dtype=float)[None, :]
    tokens = tokenize(Tokenization.PATCH, x, cfg)
    assert tokens.shape == (1, 13, 96)
    np.testing.assert_array_equal(tokens[0, 0], np.arange(96))
    np.testing.assert_array_equal(tokens[0, 1], np.arange(8, 104))


def test_patch_too_long():
    with pytest.raises(PatchTooLong):
        _cfg(patch_len=256, context_len=192)


def test_none_tokenization_is_per_step():
    cfg = _cfg(tokenization=Tokenization.NONE)
    tokens = tokenize(Tokenization.NONE, np.ones((2, 192)), cfg)
    assert tokens.shape == (2, 192, 1)


def test_binning_roundtrip_bound():
    cfg = _cfg(tokenization=Tokenization.BINNING)
    rng = np.random.default_rng(52)
    x = rng.uniform(-4.9, 4.9, size=(3, 192))
    ids = tokenize(Tokenization.BINNING, x, cfg)
    assert ids.dtype.kind == "i"
    err = np.abs(bin_midpoints(ids) - x)
    half_bin = (2 * 5.0 / 256) / 2
    assert err.max() <= half_bin + 1e-12


def test_lags_tokenization_padding():
    cfg = _cfg(tokenization=Tokenization.LAGS)
    x = np.arange(1, 7, dtype=float)[None, :]
    tokens = tokenize(Tokenization.LAGS, x, cfg)
    assert tokens.shape == (1, 6, 3)
    np.testing.assert_array_equal(tokens[0, 0], [1, 0, 0])
    np.testing.assert_array_equal(tokens[0, 2], [3, 2, 1])


# -- positional encodings -------------------------------------------------------


def test_sincos_row_zero_pattern():
    table = sincos_table(8, 10)
    np.testing.assert_allclose(table[0], [0, 1] * 5, atol=1e-12)


def test_relative_bias_depends_only_on_offset():
    buckets = relative_buckets(16, bidirectional=True)
    for i in range(16):
        for j in range(16):
            if i + 1 < 16 and j + 1 < 16:
                assert buckets[i, j] == buckets[i + 1, j + 1]


def test_rope_preserves_norms():
    cos, sin = rope_tables(12, 8)
    rng = np.random.default_rng(53)
    q = rng.normal(size=(12, 8))
    half = 4
    rotated = q * cos + np.concatenate([-q[:, half:], q[:, :half]], axis=1) * sin
    np.testing.assert_allclose(
        np.linalg.norm(rotated, axis=1), np.linalg.norm(q, axis=1), atol=1e-12
    )


def test_positional_bias_keys():
    cfg = _cfg(pos_encoding=PosEncoding.SINCOS_PLUS_RELATIVE)
    tables = positional_bias(PosEncoding.SINCOS_PLUS_RELATIVE, 13, cfg)
    assert set(tables) == {"sincos", "rel_buckets"}
    rope_cfg = _cfg(pos_encoding=PosEncoding.ROPE)
    tables = positional_bias(PosEncoding.ROPE, 13, rope_cfg)
    assert set(tables) == {"rope"}


# -- losses ---------------------------------------------------------------------


# a loss takes the prediction as a Tensor and the target as a constant


def test_mae_mse_values():
    assert mae_loss([1.0, 2, 3], Tensor([1.0, 2, 3])).data.item() == 0.0
    assert mae_loss([1.0, 2, 3], Tensor([2.0, 4, 0])).data.item() == pytest.approx(2.0)
    assert mse_loss([0.0, 0], Tensor([1.0, -1])).data.item() == pytest.approx(1.0)


def test_huber_value_at_half():
    assert huber_loss([0.0], Tensor([0.5])).data.item() == pytest.approx(0.125)
    # linear branch: residual 2, delta 1 -> 1 * (2 - 0.5) = 1.5
    assert huber_loss([0.0], Tensor([2.0])).data.item() == pytest.approx(1.5)


def test_student_t_nll_reference_point():
    # y = mu, sigma = 1, nu = 3: -log Gamma(2) + log sqrt(3 pi) + log Gamma(1.5)
    expected = -math.lgamma(2.0) + math.log(math.sqrt(3 * math.pi)) + math.lgamma(1.5)
    got = student_t_nll([0.0], Tensor([0.0]), Tensor([1.0]), Tensor([3.0])).data.item()
    assert got == pytest.approx(expected, abs=1e-10)


def test_huber_loss_against_direct_formula():
    rng = np.random.default_rng(54)
    y = rng.normal(size=32)
    yhat = y + rng.normal(size=32) * 1.5
    r = np.abs(yhat - y)
    direct = np.where(r <= 1.0, 0.5 * r * r, r - 0.5).mean()
    assert huber_loss(y, Tensor(yhat)).data.item() == pytest.approx(direct, abs=1e-12)


# -- decomposition ----------------------------------------------------------------


def test_moving_average_split_sums_to_input():
    rng = np.random.default_rng(55)
    x = rng.normal(size=(3, 100))
    trend, seasonal = moving_average_split(x, 25)
    np.testing.assert_allclose(trend + seasonal, x, atol=1e-12)


def test_moving_average_constant_passthrough():
    x = np.full((1, 60), 3.0)
    trend, seasonal = moving_average_split(x, 25)
    np.testing.assert_allclose(trend, x, atol=1e-12)
    np.testing.assert_allclose(seasonal, 0, atol=1e-12)
