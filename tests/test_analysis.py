import numpy as np
import pytest

from specbench.autodiff import Tensor
from specbench.models import (
    Decomposition,
    Family,
    Head,
    ModelConfig,
    ModelSize,
    Tokenization,
    TrainConfig,
    count_params,
    estimate_flops,
    fit,
)
from specbench.models import networks, transformer
from specbench.models.networks import build_network
from specbench.optim import rng_stream

from helpers import stack_windows


def _windows(count, l, h, seed=0):
    rng = np.random.default_rng(seed)
    return stack_windows(
        [(rng.normal(size=l), rng.normal(size=h), l) for _ in range(count)]
    )


def test_nlinear_params_match_plain_linear():
    l, h = 32, 8
    cfg = ModelConfig(family=Family.NLINEAR, horizon=h, context_len=l)
    model = fit(cfg, _windows(8, l, h), None, TrainConfig(max_steps=2, windows_batch=4))
    # the shift-and-restore trick adds no parameters over one linear map
    assert count_params(model) == l * h + h


def test_transformer_tiny_param_count_matches_hand_formula():
    l, h = 256, 192
    cfg = ModelConfig(family=Family.PATCH_TRANSFORMER, horizon=h, context_len=l)
    net = build_network(cfg, rng_stream(0, "count"))
    total = sum(t.size for t in net.params.values())

    H, F, L = 256, 1024, 4
    tokens = (l - cfg.patch_len) // cfg.patch_stride + 1  # 21
    hand = cfg.patch_len * H + H                      # patch embedding
    hand += L * (
        4 * (H * H + H)                               # q, k, v, o projections
        + 2 * (H + H)                                 # two layer-norm gain/bias pairs
        + H * F + F + F * H + H                       # feed-forward
    )
    hand += H + H                                     # final norm
    hand += 32 * 4                                    # relative bias table (buckets x heads)
    hand += tokens * H * h + h                        # linear head
    assert total == hand


def test_flops_closed_forms():
    l, h = 64, 16
    assert estimate_flops(ModelConfig(family=Family.NAIVE_LAST, horizon=h, context_len=l)) == 0
    assert estimate_flops(ModelConfig(family=Family.NLINEAR, horizon=h, context_len=l)) == l * h
    mlp = ModelConfig(family=Family.MLP, horizon=h, context_len=l, mlp_hidden=32, mlp_depth=3)
    assert estimate_flops(mlp) == l * 32 + 2 * 32 * 32 + 32 * h


def test_flops_scale_with_transformer_size():
    l, h = 256, 48
    tiny = ModelConfig(family=Family.PATCH_TRANSFORMER, horizon=h, context_len=l, size=ModelSize.TINY)
    base = ModelConfig(family=Family.PATCH_TRANSFORMER, horizon=h, context_len=l, size=ModelSize.BASE)
    assert estimate_flops(base) > 3 * estimate_flops(tiny)


def test_param_count_counts_statistical_state():
    l, h = 32, 4
    cfg = ModelConfig(family=Family.AR_LS, horizon=h, context_len=l, ar_order=6)
    model = fit(cfg, _windows(10, l, h, seed=3), None, TrainConfig(max_steps=2))
    assert count_params(model) == 7  # 6 lag weights + intercept


def _forward_gemms(monkeypatch, cfg, rows=2):
    """Multiply-adds per row of every ``matmul`` one forward pass makes,
    counted from the operand shapes through the names the networks look up
    (as the benchmark's tracer wraps them), and the constant operands'
    shapes in call order."""
    macs, constants = [0], []
    original = networks.matmul

    def counting(a, b):
        out = original(a, b)
        macs[0] += out.size * np.shape(a)[-1]
        constants.extend(np.shape(op) for op in (a, b) if not isinstance(op, Tensor))
        return out

    for module in (networks, transformer):
        monkeypatch.setattr(module, "matmul", counting)
    net = build_network(cfg, rng_stream(0, "flops"))
    net.forward(np.random.default_rng(1).normal(size=(rows, cfg.context_len)))
    assert macs[0] % rows == 0
    return macs[0] // rows, constants


# forward GEMM multiply-adds minus estimate_flops, per row at h = 24
_FLOP_GAPS = [
    (dict(family=Family.NLINEAR), 0),
    (dict(family=Family.MLP), 0),
    (dict(family=Family.NBEATS_LITE), 0),
    # pooling is a dense (l, l / rate) GEMM where the estimate counts l adds
    # per pool; the first pool, of the constant input, is a numpy product
    # outside the tape
    (dict(family=Family.NHITS_LITE), 81_152),
    # the moving average runs outside the tape, so no GEMM counts its l * 25
    (dict(family=Family.DLINEAR), -6_400),
    (dict(family=Family.PATCH_TRANSFORMER), 0),
    (dict(family=Family.PATCH_TRANSFORMER, head=Head.RESIDUAL), 0),
    (dict(family=Family.PATCH_TRANSFORMER, tokenization=Tokenization.BINNING), 0),
    (dict(family=Family.PATCH_TRANSFORMER, tokenization=Tokenization.LAGS), 0),
    (dict(family=Family.PATCH_TRANSFORMER, decomposition=Decomposition.MOVING_AVG), -6_400),
]


@pytest.mark.parametrize("fields, gap", _FLOP_GAPS, ids=lambda v: str(v))
def test_estimate_flops_against_the_forward_gemms(monkeypatch, fields, gap):
    cfg = ModelConfig(horizon=24, **fields)
    counted, _ = _forward_gemms(monkeypatch, cfg)
    assert counted - estimate_flops(cfg) == gap


def test_nhits_pool_and_interp_gemms_run_on_constant_operands(monkeypatch):
    cfg = ModelConfig(family=Family.NHITS_LITE, horizon=24)
    counted, constants = _forward_gemms(monkeypatch, cfg)
    assert (counted, estimate_flops(cfg)) == (1_328_408, 1_247_256)
    # per block (rates 8, 4, 1): the (l, l / rate) pool, then the
    # (h / rate, h) interpolation, each passed as an array; the first block
    # pools the constant input outside the tape and reads the (rows, l / 8)
    # result as its trunk's constant input
    assert constants == [(2, 32), (3, 24), (256, 64), (6, 24), (256, 256), (24, 24)]
