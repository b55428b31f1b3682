"""Fitting, forecasting, and embedding extraction for every family.

Gradient families train on per-window-scaled data with Adam and early
stopping on a validation loss checked every ``val_check_every`` steps;
the parameters returned are the ones achieving the best recorded
validation loss. Statistical families fit in closed form and return
immediately. Everything is deterministic given the training seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import Tape, Tensor, backward, recording
from ..errors import (
    BadContextLength,
    DivergedLoss,
    EmptyTrainSet,
    UnsupportedFamily,
)
from ..optim import AdamState, adam_step, rng_stream
from ..series import Windows
from .config import Family, LossKind, ModelConfig, TrainConfig
from .losses import huber_loss, mae_loss, mse_loss, student_t_nll
from .networks import build_network
from .scalers import apply_scaler, fit_scaler, invert_scaler
from .statistical import fit_statistical, predict_statistical

__all__ = ["TrainedModel", "fit", "predict", "predict_quantiles", "embed"]


@dataclass
class TrainedModel:
    """A fitted forecaster: config, learned state, and training history."""

    config: ModelConfig
    train_config: TrainConfig
    params: dict[str, np.ndarray] = field(default_factory=dict)
    extra: dict[str, np.ndarray] = field(default_factory=dict)
    history: list[tuple[int, float, float]] = field(default_factory=list)
    _network: object = field(default=None, repr=False, compare=False)

    def network(self):
        """Rebuild the forward graph from stored parameters (cached); raises
        ValueError naming every missing, unknown or misshaped parameter."""
        if self.config.is_statistical:
            raise UnsupportedFamily(f"{self.config.family} has no network")
        if self._network is None:
            net = build_network(self.config, rng_stream(0, "rebuild"))
            want = {name: t.shape for name, t in net.params.items()}
            have = {name: np.shape(arr) for name, arr in self.params.items()}
            if have != want:
                misshaped = sorted(n for n in want.keys() & have.keys() if want[n] != have[n])
                raise ValueError(
                    f"stored parameters do not match the network: missing "
                    f"{sorted(want.keys() - have.keys())}, unknown "
                    f"{sorted(have.keys() - want.keys())}, misshaped {misshaped}"
                )
            for name, tensor in net.params.items():
                tensor.data = np.array(self.params[name], dtype=np.float64)
            self._network = net
        return self._network


def _check_shapes(cfg: ModelConfig, windows: Windows, label: str) -> None:
    shape = (windows.contexts.shape[1], windows.targets.shape[1])
    if shape != (cfg.context_len, cfg.horizon):
        raise ValueError(f"{label} window shapes {shape} do not match config "
                         f"({cfg.context_len}, {cfg.horizon})")


def _graph_loss(kind: LossKind, target_scaled: np.ndarray, prediction) -> Tensor:
    if kind is LossKind.MAE:
        return mae_loss(target_scaled, prediction)
    if kind is LossKind.MSE:
        return mse_loss(target_scaled, prediction)
    if kind is LossKind.HUBER:
        return huber_loss(target_scaled, prediction)
    if kind is LossKind.STUDENT_T:
        mu, sigma, nu = prediction
        return student_t_nll(target_scaled, mu, sigma, nu)
    raise ValueError(f"unknown loss {kind}")


def _batch_loss(net, cfg, contexts, targets, train_rng=None, dropout=0.0) -> Tensor:
    state = fit_scaler(cfg.scaler, contexts)
    scaled_ctx = apply_scaler(state, contexts)
    scaled_tgt = apply_scaler(state, targets)
    pred = net.forward(scaled_ctx, train_rng=train_rng, dropout=dropout)
    return _graph_loss(cfg.loss, scaled_tgt, pred)


def fit(
    config: ModelConfig,
    train: Windows,
    valid: Windows | None,
    tc: TrainConfig,
) -> TrainedModel:
    """Fit one model; see the module docstring for the training protocol.

    Without validation windows, the training loss stands in for it.
    """
    if not train:
        raise EmptyTrainSet("fit() needs at least one training window")
    _check_shapes(config, train, "train")
    if valid:
        _check_shapes(config, valid, "valid")

    if config.is_statistical:
        extra = fit_statistical(config, train)
        return TrainedModel(config=config, train_config=tc, extra=extra)

    net = build_network(config, rng_stream(tc.seed, f"init/{config.family.value}"))
    batch_rng = rng_stream(tc.seed, "batches")
    dropout_rng = rng_stream(tc.seed, "dropout")
    state = AdamState()

    def validation_loss() -> float:
        loss = _batch_loss(net, config, valid.contexts, valid.targets)
        return loss.data.item()

    names = list(net.params)
    tensors = [net.params[n] for n in names]
    best_val = np.inf
    best_params: dict[str, np.ndarray] | None = None
    bad_checks = 0
    history: list[tuple[int, float, float]] = []

    for step in range(1, tc.max_steps + 1):
        idx = batch_rng.integers(0, len(train), size=min(tc.windows_batch, len(train)))
        tape = Tape()
        with recording(tape):
            loss = _batch_loss(
                net, config, train.contexts[idx], train.targets[idx],
                train_rng=dropout_rng, dropout=tc.dropout,
            )
        train_loss = loss.data.item()
        if not np.isfinite(train_loss):
            raise DivergedLoss(
                f"{config.family.value} step {step}: non-finite training loss"
            )
        grads = dict(zip(names, backward(tape, loss, tensors)))
        adam_step(net.params, grads, state, lr=tc.lr)

        if step % tc.val_check_every == 0 or step == tc.max_steps:
            val_loss = validation_loss() if valid else train_loss
            if not np.isfinite(val_loss):
                raise DivergedLoss(
                    f"{config.family.value} step {step}: non-finite validation loss"
                )
            history.append((step, train_loss, val_loss))
            if val_loss < best_val:
                best_val = val_loss
                best_params = {n: net.params[n].data.copy() for n in names}
                bad_checks = 0
            else:
                bad_checks += 1
                if bad_checks >= tc.patience:
                    break

    if best_params is None:
        best_params = {n: net.params[n].data.copy() for n in names}
    return TrainedModel(
        config=config,
        train_config=tc,
        params=best_params,
        history=history,
    )


def _as_rows(model: TrainedModel, context: np.ndarray) -> tuple[np.ndarray, bool]:
    """``context`` as (n, l) rows, and whether it was a single (l,) context."""
    context = np.asarray(context, dtype=np.float64)
    l = model.config.context_len
    if context.ndim not in (1, 2) or context.shape[-1] != l:
        raise BadContextLength(f"context has shape {context.shape}, expected ({l},) or (n, {l})")
    return np.atleast_2d(context), context.ndim == 1


def _scaled(model: TrainedModel, rows: np.ndarray):
    state = fit_scaler(model.config.scaler, rows)
    return apply_scaler(state, rows), state


def predict(model: TrainedModel, context: np.ndarray) -> np.ndarray:
    """Forecast ``horizon`` steps in the original units of the context:
    (h,) for one context (l,), (n, h) for n contexts (n, l)."""
    rows, single = _as_rows(model, context)
    if model.config.is_statistical:
        out = np.stack([predict_statistical(model.config, model.extra, row) for row in rows])
    else:
        scaled, state = _scaled(model, rows)
        out = model.network().forward(scaled)
        if model.config.loss is LossKind.STUDENT_T:
            out = out[0]
        out = invert_scaler(state, out.data)
    return out[0] if single else out


def predict_quantiles(
    model: TrainedModel, context: np.ndarray, qs: tuple[float, ...] = (0.8, 0.9)
) -> dict[float, np.ndarray]:
    """Quantile forecasts from the Student-t head (emitted, never scored),
    shaped as :func:`predict` shapes its forecasts."""
    if model.config.loss is not LossKind.STUDENT_T:
        raise UnsupportedFamily("quantiles require the STUDENT_T loss head")
    from scipy import stats

    rows, single = _as_rows(model, context)
    scaled, state = _scaled(model, rows)
    mu, sigma, nu = model.network().forward(scaled)
    out = {}
    for q in qs:
        quantile = invert_scaler(state, mu.data + sigma.data * stats.t.ppf(q, df=nu.data))
        out[q] = quantile[0] if single else quantile
    return out


def embed(model: TrainedModel, context: np.ndarray) -> np.ndarray:
    """Final encoder activations: (tokens, hidden) for one context (l,),
    (n, tokens, hidden) for n contexts (n, l)."""
    if model.config.family is not Family.PATCH_TRANSFORMER:
        raise UnsupportedFamily("embeddings are defined for PATCH_TRANSFORMER only")
    rows, single = _as_rows(model, context)
    out = model.network().encode(_scaled(model, rows)[0]).data
    return out[0] if single else out
