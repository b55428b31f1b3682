"""Parameter counts and analytic forward-pass cost estimates."""
from __future__ import annotations

from .config import (
    MOVING_AVG_KERNEL, Decomposition, Family, Head, LossKind, ModelConfig, Tokenization,
)
from .tokenizers import token_count, token_dim
from .training import TrainedModel

__all__ = ["count_params", "estimate_flops"]


def count_params(model: TrainedModel) -> int:
    """Exact count of fitted scalars (weights for neural families,
    fitted constants for statistical ones)."""
    total = sum(int(arr.size) for arr in model.params.values())
    total += sum(int(arr.size) for arr in model.extra.values())
    return total


def _transformer_macs(cfg: ModelConfig) -> int:
    T = token_count(cfg.tokenization, cfg.context_len, cfg)
    H, F, L = cfg.hidden, cfg.ff_dim, cfg.n_layers
    if cfg.tokenization is Tokenization.BINNING:
        embed = 0  # table lookup
    else:
        embed = T * token_dim(cfg.tokenization, cfg) * H
    per_layer = 4 * T * H * H + 2 * T * T * H + 2 * T * H * F
    out_dim = cfg.horizon * (3 if cfg.loss is LossKind.STUDENT_T else 1)
    flat = T * H
    if cfg.head is Head.LINEAR:
        head = flat * out_dim
    else:
        head = flat * H + H * out_dim + flat * out_dim
    total = embed + L * per_layer + head
    if cfg.decomposition is Decomposition.MOVING_AVG:
        total += cfg.context_len * MOVING_AVG_KERNEL + cfg.context_len * cfg.horizon
    return total


def estimate_flops(cfg: ModelConfig) -> int:
    """Analytic multiply-add count for one forward prediction."""
    l, h = cfg.context_len, cfg.horizon
    if cfg.family is Family.NAIVE_LAST:
        return 0
    if cfg.family is Family.SEASONAL_NAIVE:
        return l * l  # direct spectral scan of the context
    if cfg.family is Family.SES:
        return l
    if cfg.family is Family.HOLT:
        return 4 * l
    if cfg.family is Family.AR_LS:
        return h * (cfg.ar_order + 1)
    if cfg.family is Family.NLINEAR:
        return l * h
    if cfg.family is Family.DLINEAR:
        return 2 * l * h + l * MOVING_AVG_KERNEL
    if cfg.family is Family.MLP:
        w = cfg.mlp_hidden
        return l * w + (cfg.mlp_depth - 1) * w * w + w * h
    if cfg.family is Family.NBEATS_LITE:
        w = cfg.nbeats_hidden
        per_block = l * w + (cfg.nbeats_depth - 1) * w * w + w * l + w * h
        return cfg.nbeats_blocks * per_block
    if cfg.family is Family.NHITS_LITE:
        w = cfg.nbeats_hidden
        total = 0
        for rate in cfg.nhits_pool_rates:
            pooled = -(-l // rate)
            theta = -(-h // rate)
            total += l  # pooling
            total += pooled * w + (cfg.nbeats_depth - 1) * w * w + w * l + w * theta
            total += theta * h  # interpolation
        return total
    if cfg.family is Family.PATCH_TRANSFORMER:
        return _transformer_macs(cfg)
    raise ValueError(f"unknown family {cfg.family}")
