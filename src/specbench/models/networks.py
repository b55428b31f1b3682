"""Linear, MLP, and residual-stack forecasters.

Every network maps an already-scaled context batch (B, l) to a scaled
forecast (B, h) through the autodiff graph; per-window scaling and its
inverse live outside the networks. The scaled input, and arrays derived
from it alone, enter the graph as constant operands (see
:mod:`specbench.autodiff`), so no backward work is spent on them.
"""
from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, add, matmul, relu
from ..optim import uniform_fan_in
from .config import MOVING_AVG_KERNEL, Family, ModelConfig

__all__ = ["moving_average_split", "build_network", "interp_matrix", "pool_matrix"]


def moving_average_split(x: np.ndarray, kernel: int) -> tuple[np.ndarray, np.ndarray]:
    """Centered edge-replicated moving-average trend and its seasonal remainder.

    trend + seasonal reproduces the input exactly by construction.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    left = kernel // 2
    right = kernel - 1 - left
    padded = np.concatenate(
        [np.repeat(x[:, :1], left, axis=1), x, np.repeat(x[:, -1:], right, axis=1)],
        axis=1,
    )
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel, axis=1)
    trend = windows.mean(axis=2)
    return trend, x - trend


def interp_matrix(low: int, high: int) -> np.ndarray:
    """(low, high) linear-interpolation weights from knots spread over [0, high-1]."""
    if low == 1:
        return np.ones((1, high))
    knots = np.linspace(0.0, high - 1.0, low)
    out = np.zeros((low, high))
    positions = np.arange(high, dtype=np.float64)
    seg = np.clip(np.searchsorted(knots, positions, side="right") - 1, 0, low - 2)
    left = knots[seg]
    width = knots[seg + 1] - left
    frac = (positions - left) / width
    out[seg, np.arange(high)] = 1.0 - frac
    out[seg + 1, np.arange(high)] = frac
    return out


def pool_matrix(length: int, rate: int) -> np.ndarray:
    """(length, ceil(length/rate)) average-pooling weights (last pool may be short)."""
    pooled = -(-length // rate)
    out = np.zeros((length, pooled))
    for j in range(pooled):
        lo = j * rate
        hi = min(lo + rate, length)
        out[lo:hi, j] = 1.0 / (hi - lo)
    return out


# Every network, PatchTransformer included, declares a dense layer with
# ``_linear`` and applies it with ``_apply``. perfbench's tracer times the
# ``matmul`` and ``add`` this module looks up, so the helpers live here.
def _linear(rng, name, params, fan_in, fan_out):
    params[f"{name}.w"] = Tensor(uniform_fan_in(rng, fan_in, (fan_in, fan_out)))
    params[f"{name}.b"] = Tensor(np.zeros(fan_out))


def _apply(params, name, x) -> Tensor:
    """Dense layer ``x @ w + b``; ``x`` is a Tensor or a constant array."""
    return add(matmul(x, params[f"{name}.w"]), params[f"{name}.b"])


class NLinear:
    """Subtract the last context value, apply one linear map, add it back."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        _linear(rng, "proj", self.params, cfg.context_len, cfg.horizon)

    def forward(self, scaled: np.ndarray, train_rng=None, dropout: float = 0.0) -> Tensor:
        last = scaled[:, -1:]
        return _apply(self.params, "proj", scaled - last) + last


class DLinear:
    """Moving-average trend/seasonal split with one linear map per branch."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        _linear(rng, "seasonal", self.params, cfg.context_len, cfg.horizon)
        _linear(rng, "trend", self.params, cfg.context_len, cfg.horizon)

    def forward(self, scaled: np.ndarray, train_rng=None, dropout: float = 0.0) -> Tensor:
        trend, seasonal = moving_average_split(scaled, MOVING_AVG_KERNEL)
        return _apply(self.params, "seasonal", seasonal) + _apply(self.params, "trend", trend)


class MLP:
    """Stacked fully connected ReLU layers."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        width = cfg.mlp_hidden
        dims = [cfg.context_len] + [width] * cfg.mlp_depth + [cfg.horizon]
        for i, (fi, fo) in enumerate(zip(dims, dims[1:])):
            _linear(rng, f"layer{i}", self.params, fi, fo)
        self.n_layers = len(dims) - 1

    def forward(self, scaled: np.ndarray, train_rng=None, dropout: float = 0.0) -> Tensor:
        x = scaled
        for i in range(self.n_layers):
            x = _apply(self.params, f"layer{i}", x)
            if i < self.n_layers - 1:
                x = relu(x)
        return x


class _Block:
    """One backcast/forecast block: an MLP trunk with two linear heads."""

    def __init__(self, cfg, rng, params, prefix, in_dim, theta_dim):
        self.prefix = prefix
        dims = [in_dim] + [cfg.nbeats_hidden] * cfg.nbeats_depth
        self.depth = cfg.nbeats_depth
        for i, (fi, fo) in enumerate(zip(dims, dims[1:])):
            _linear(rng, f"{prefix}.fc{i}", params, fi, fo)
        _linear(rng, f"{prefix}.backcast", params, cfg.nbeats_hidden, cfg.context_len)
        _linear(rng, f"{prefix}.forecast", params, cfg.nbeats_hidden, theta_dim)

    def run(self, params, x, backcast: bool) -> tuple[Tensor | None, Tensor]:
        """(backcast, forecast) of ``x``; the backcast is None when not asked
        for, as for the last block, whose residual no block reads. That block
        still declares its backcast, so the init stream and the parameter
        count stay those of the full stack."""
        h = x
        for i in range(self.depth):
            h = relu(_apply(params, f"{self.prefix}.fc{i}", h))
        return (
            _apply(params, f"{self.prefix}.backcast", h) if backcast else None,
            _apply(params, f"{self.prefix}.forecast", h),
        )


class NBeatsLite:
    """Identity-basis residual stack: each block backcasts what it explained
    and forecasts its share; the next block sees the residual."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        self.blocks = [
            _Block(cfg, rng, self.params, f"block{i}", cfg.context_len, cfg.horizon)
            for i in range(cfg.nbeats_blocks)
        ]

    def forward(self, scaled: np.ndarray, train_rng=None, dropout: float = 0.0) -> Tensor:
        # the residual is the scaled input, a constant, until the first
        # backcast is subtracted from it
        residual = scaled
        total: Tensor | None = None
        last = len(self.blocks) - 1
        for i, block in enumerate(self.blocks):
            backcast, forecast = block.run(self.params, residual, backcast=i < last)
            if i < last:
                residual = residual - backcast
            total = forecast if total is None else total + forecast
        return total


class NHitsLite:
    """Residual stack with multi-rate input pooling and forecast interpolation.

    Block i pools the residual by its rate before the trunk and emits a
    low-rate forecast that is linearly interpolated back to the horizon.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        self.blocks = []
        self.pools = []
        self.interps = []
        for i, rate in enumerate(cfg.nhits_pool_rates):
            pooled_len = -(-cfg.context_len // rate)
            theta = -(-cfg.horizon // rate)
            self.pools.append(pool_matrix(cfg.context_len, rate))
            self.interps.append(interp_matrix(theta, cfg.horizon))
            self.blocks.append(
                _Block(cfg, rng, self.params, f"block{i}", pooled_len, theta)
            )

    def forward(self, scaled: np.ndarray, train_rng=None, dropout: float = 0.0) -> Tensor:
        # as in NBeatsLite; the first pool is a product of two constants
        residual = scaled
        total: Tensor | None = None
        last = len(self.blocks) - 1
        for i, (block, pool, interp) in enumerate(zip(self.blocks, self.pools, self.interps)):
            pooled = scaled @ pool if i == 0 else matmul(residual, pool)
            backcast, theta = block.run(self.params, pooled, backcast=i < last)
            if i < last:
                residual = residual - backcast
            forecast = matmul(theta, interp)
            total = forecast if total is None else total + forecast
        return total


def build_network(cfg: ModelConfig, rng: np.random.Generator):
    from .transformer import PatchTransformer

    builders = {
        Family.NLINEAR: NLinear,
        Family.DLINEAR: DLinear,
        Family.MLP: MLP,
        Family.NBEATS_LITE: NBeatsLite,
        Family.NHITS_LITE: NHitsLite,
        Family.PATCH_TRANSFORMER: PatchTransformer,
    }
    if cfg.family not in builders:
        raise ValueError(f"{cfg.family} is not a gradient-trained family")
    return builders[cfg.family](cfg, rng)
