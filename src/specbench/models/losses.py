"""Training losses, each a differentiable graph whose ``.data`` is the value.

All reduce by mean over the horizon (and batch). The Student-t negative
log-likelihood keeps ``sigma > 0`` and ``nu > 2`` by construction (the
network head maps raw outputs through softplus before they get here);
its log-gamma terms run through the `lgamma` primitive so the density is
differentiable in all three parameters.
"""
from __future__ import annotations

import math

import numpy as np

from ..autodiff import Tensor, _lift, absval, lgamma, log, mean, mul
from .config import HUBER_DELTA

__all__ = ["mae_loss", "mse_loss", "huber_loss", "student_t_nll"]


def mae_loss(target, pred) -> Tensor:
    return mean(absval(_lift(pred) - _lift(target)))


def mse_loss(target, pred) -> Tensor:
    err = _lift(pred) - _lift(target)
    return mean(mul(err, err))


def huber_loss(target, pred, delta: float = HUBER_DELTA) -> Tensor:
    """Quadratic within ``delta`` of zero residual, linear beyond it.

    The branch mask is piecewise-constant in the residual, so treating it
    as data keeps the gradient exact almost everywhere.
    """
    target_t, pred_t = _lift(target), _lift(pred)
    resid = pred_t - target_t
    absres = absval(resid)
    small = Tensor((np.abs(pred_t.data - target_t.data) <= delta).astype(np.float64))
    quadratic = 0.5 * mul(resid, resid)
    linear = delta * (absres - 0.5 * delta)
    return mean(mul(small, quadratic) + mul(1.0 - small, linear))


def student_t_nll(target, mu, sigma, nu) -> Tensor:
    """Mean negative log density of a location-scale Student-t."""
    y = _lift(target)
    mu, sigma, nu = _lift(mu), _lift(sigma), _lift(nu)
    z = (y - mu) / sigma
    half_nu = 0.5 * nu
    nll = (
        lgamma(half_nu)
        - lgamma(half_nu + 0.5)
        + 0.5 * log(math.pi * nu)
        + log(sigma)
        + (half_nu + 0.5) * log(1.0 + mul(z, z) / nu)
    )
    return mean(nll)
