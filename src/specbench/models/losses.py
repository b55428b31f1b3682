"""Training losses, each a differentiable graph whose ``.data`` is the value.

Predictions (and the Student-t head's ``mu``, ``sigma``, ``nu``) are
tensors; the target is a constant operand. All reduce by mean over the
horizon (and batch). The Student-t negative
log-likelihood keeps ``sigma > 0`` and ``nu > 2`` by construction (the
network head maps raw outputs through softplus before they get here);
its log-gamma terms run through the `lgamma` primitive so the density is
differentiable in all three parameters.
"""
from __future__ import annotations

import math

import numpy as np

from ..autodiff import Tensor, absval, lgamma, log, mean, mul
from .config import HUBER_DELTA

__all__ = ["mae_loss", "mse_loss", "huber_loss", "student_t_nll"]


def mae_loss(target, pred: Tensor) -> Tensor:
    return mean(absval(pred - target))


def mse_loss(target, pred: Tensor) -> Tensor:
    err = pred - target
    return mean(mul(err, err))


def huber_loss(target, pred: Tensor, delta: float = HUBER_DELTA) -> Tensor:
    """Quadratic within ``delta`` of zero residual, linear beyond it.

    The branch mask is piecewise-constant in the residual, so treating it
    as data keeps the gradient exact almost everywhere.
    """
    resid = pred - target
    absres = absval(resid)
    small = (absres.data <= delta).astype(np.float64)
    quadratic = 0.5 * mul(resid, resid)
    linear = delta * (absres - 0.5 * delta)
    return mean(mul(small, quadratic) + mul(1.0 - small, linear))


def student_t_nll(target, mu: Tensor, sigma: Tensor, nu: Tensor) -> Tensor:
    """Mean negative log density of a location-scale Student-t."""
    z = (target - mu) / sigma
    half_nu = 0.5 * nu
    nll = (
        lgamma(half_nu)
        - lgamma(half_nu + 0.5)
        + 0.5 * log(math.pi * nu)
        + log(sigma)
        + (half_nu + 0.5) * log(1.0 + mul(z, z) / nu)
    )
    return mean(nll)
