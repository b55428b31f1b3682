"""Adam optimizer, parameter initialization, and seeded RNG substreams."""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ShapeMismatch

__all__ = ["AdamState", "adam_step", "rng_stream", "uniform_fan_in"]


# Adam walks each parameter in blocks of this many scalars, so that a block
# of the parameter, its gradient, both moments and the two scratch blocks
# (6 x 128 KiB) stay in cache across the update's dozen passes.
_CHUNK = 16_384


@dataclass
class AdamState:
    """First/second moment accumulators keyed like the parameter dict."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float = 1e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update (Kingma & Ba 2015, Algorithm 1).

    Parameters and moments are updated in place, one contiguous block of
    ``_CHUNK`` scalars at a time through two scratch blocks, with the same
    floating-point operations as ``lr * (m / c1) / (sqrt(v / c2) + eps)``,
    so the result is bit-identical to that expression.
    """
    state.step += 1
    t = state.step
    correction1 = 1.0 - beta1 ** t
    correction2 = 1.0 - beta2 ** t
    keep1, keep2 = 1.0 - beta1, 1.0 - beta2
    step_buf = np.empty(_CHUNK)
    denom_buf = np.empty(_CHUNK)
    for name, param in params.items():
        grad = grads[name]
        if grad.shape != param.shape:
            raise ShapeMismatch(f"gradient for {name!r}: {grad.shape} vs {param.shape}")
        if not param.data.flags.c_contiguous:  # else reshape would copy
            param.data = np.ascontiguousarray(param.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(param.data)
            state.v[name] = np.zeros_like(param.data)
        # flat views of the parameter and moments; the gradient is only
        # read, so a flat copy of a non-contiguous one does as well
        p = param.data.reshape(-1)
        m = state.m[name].reshape(-1)
        v = state.v[name].reshape(-1)
        g = grad.reshape(-1)
        for lo in range(0, p.size, _CHUNK):
            hi = lo + _CHUNK
            gc, mc, vc = g[lo:hi], m[lo:hi], v[lo:hi]
            step = step_buf[: gc.size]
            denom = denom_buf[: gc.size]
            np.multiply(gc, keep1, out=step)
            mc *= beta1
            mc += step
            np.multiply(gc, keep2, out=step)
            step *= gc
            vc *= beta2
            vc += step
            np.divide(mc, correction1, out=step)
            np.divide(vc, correction2, out=denom)
            np.sqrt(denom, out=denom)
            denom += eps
            step *= lr
            step /= denom
            p[lo:hi] -= step


def rng_stream(seed: int, stream: str) -> np.random.Generator:
    """Deterministic substream derived from (seed, stream name).

    The name is folded through CRC-32 so substreams are stable across
    processes (unlike the builtin ``hash``).
    """
    tag = zlib.crc32(stream.encode("utf-8"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, tag))))


def uniform_fan_in(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)
