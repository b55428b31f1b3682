"""Adam optimizer, parameter initialization, and seeded RNG substreams."""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ShapeMismatch

__all__ = ["AdamState", "adam_step", "rng_stream", "uniform_fan_in"]


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

    Parameters and moments are updated in place through two scratch
    arrays per parameter, with the same floating-point operations as
    ``lr * (m / c1) / (sqrt(v / c2) + eps)``, so the result is
    bit-identical to that expression.
    """
    state.step += 1
    t = state.step
    correction1 = 1.0 - beta1 ** t
    correction2 = 1.0 - beta2 ** t
    for name, param in params.items():
        grad = grads[name]
        if grad.shape != param.shape:
            raise ShapeMismatch(f"gradient for {name!r}: {grad.shape} vs {param.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(param.data)
            state.v[name] = np.zeros_like(param.data)
        m = state.m[name]
        v = state.v[name]
        step = np.multiply(grad, 1.0 - beta1, out=np.empty_like(m))
        m *= beta1
        m += step
        np.multiply(grad, 1.0 - beta2, out=step)
        step *= grad
        v *= beta2
        v += step
        np.divide(m, correction1, out=step)
        denom = np.divide(v, correction2, out=np.empty_like(v))
        np.sqrt(denom, out=denom)
        denom += eps
        step *= lr
        step /= denom
        param.data -= step


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
