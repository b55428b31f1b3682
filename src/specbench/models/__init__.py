"""Forecasting model zoo: statistical baselines, linear/MLP/residual-stack
networks, and the modular patch transformer, all trained by the same loop."""
from __future__ import annotations

from .analysis import count_params, estimate_flops
from .config import (
    Attention,
    DEFAULT_SEEDS,
    Decomposition,
    Family,
    Head,
    LossKind,
    ModelConfig,
    ModelSize,
    PosEncoding,
    SIZE_TABLE,
    Scaler,
    Tokenization,
    TrainConfig,
)
from .losses import huber_loss, mae_loss, mse_loss, student_t_nll
from .networks import build_network, moving_average_split
from .scalers import ScalerState, apply_scaler, fit_scaler, invert_scaler
from .statistical import dominant_period
from .tokenizers import positional_bias, bin_midpoints, sincos_table, token_count, tokenize
from .training import TrainedModel, embed, fit, predict

__all__ = [
    "Family", "Tokenization", "Attention", "Head", "PosEncoding", "LossKind",
    "Scaler", "Decomposition", "ModelSize", "SIZE_TABLE", "DEFAULT_SEEDS",
    "ModelConfig", "TrainConfig", "TrainedModel",
    "fit", "predict", "embed",
    "mae_loss", "mse_loss", "huber_loss", "student_t_nll",
    "fit_scaler", "apply_scaler", "invert_scaler", "ScalerState",
    "tokenize", "token_count", "positional_bias", "sincos_table", "bin_midpoints",
    "build_network", "moving_average_split", "dominant_period",
    "count_params", "estimate_flops",
]
