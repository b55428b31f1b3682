import numpy as np

from specbench.models import (
    Family,
    ModelConfig,
    ModelSize,
    TrainConfig,
    count_params,
    estimate_flops,
    fit,
)
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
