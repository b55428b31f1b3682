"""Fitting, forecasting, and embedding extraction for every family.

Gradient families train on per-window-scaled data with Adam and early
stopping on a validation loss checked every ``val_check_every`` steps,
and keep the network they trained, holding the parameters of the best
recorded validation loss. Statistical families fit in closed form and
return immediately. Everything is deterministic given the training seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from ..autodiff import Tape, Tensor, backward, recording
from ..errors import BadContextLength, DivergedLoss, EmptyTrainSet, UnsupportedFamily
from ..optim import AdamState, adam_step, rng_stream
from ..series import Windows
from .config import Family, LossKind, ModelConfig, TrainConfig
from .losses import huber_loss, mae_loss, mse_loss, student_t_nll
from .networks import build_network
from .scalers import apply_scaler, fit_scaler, invert_scaler
from .statistical import fit_statistical, predict_statistical

__all__ = ["TrainedModel", "fit", "predict", "embed"]


@dataclass
class TrainedModel:
    """A fitted forecaster: config, trained network (None if statistical), extra state, history."""

    config: ModelConfig
    network: object = None
    extra: dict[str, np.ndarray] = field(default_factory=dict)
    history: list[tuple[int, float, float]] = field(default_factory=list)

    @property
    def params(self) -> MappingProxyType:
        """Read-only view of the network's parameter arrays by name, empty for statistical
        families. The arrays are the network's own: an in-place edit reaches the forecast."""
        tensors = self.network.params if self.network is not None else {}
        return MappingProxyType({name: t.data for name, t in tensors.items()})


def _check_shapes(cfg: ModelConfig, windows: Windows, label: str) -> None:
    shape = (windows.l, windows.h)
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


def _batch_loss(net, cfg, contexts, targets) -> Tensor:
    state = fit_scaler(cfg.scaler, contexts)
    scaled_ctx = apply_scaler(state, contexts)
    scaled_tgt = apply_scaler(state, targets)
    pred = net.forward(scaled_ctx)
    return _graph_loss(cfg.loss, scaled_tgt, pred)


def fit(config: ModelConfig, train: Windows, valid: Windows | None,
        tc: TrainConfig) -> TrainedModel:
    """Fit one model; see the module docstring for the training protocol.
    Without validation windows, the training loss stands in for it."""
    if not train:
        raise EmptyTrainSet("fit() needs at least one training window")
    _check_shapes(config, train, "train")
    if valid:
        _check_shapes(config, valid, "valid")

    if config.is_statistical:
        extra = fit_statistical(config, train)
        return TrainedModel(config=config, extra=extra)

    net = build_network(config, rng_stream(tc.seed, f"init/{config.family.value}"))
    batch_rng = rng_stream(tc.seed, "batches")
    state = AdamState()
    names = list(net.params)
    tensors = [net.params[n] for n in names]
    best_val = np.inf
    best: dict[str, np.ndarray] = {}
    bad_checks = 0
    history: list[tuple[int, float, float]] = []

    for step in range(1, tc.max_steps + 1):
        idx = batch_rng.integers(0, len(train), size=min(tc.windows_batch, len(train)))
        tape = Tape()
        with recording(tape):
            loss = _batch_loss(net, config, train.rows(idx, hi=train.l),
                               train.rows(idx, lo=train.l))
        train_loss = loss.data.item()
        if not np.isfinite(train_loss):
            raise DivergedLoss(f"{config.family.value} step {step}: non-finite training loss")
        grads = dict(zip(names, backward(tape, loss, tensors)))
        adam_step(net.params, grads, state, lr=tc.lr)

        if step % tc.val_check_every == 0 or step == tc.max_steps:
            val_loss = train_loss
            if valid:
                val_loss = _batch_loss(net, config, valid.contexts, valid.targets).data.item()
            if not np.isfinite(val_loss):
                raise DivergedLoss(f"{config.family.value} step {step}: non-finite validation loss")
            history.append((step, train_loss, val_loss))
            if val_loss < best_val:
                best_val = val_loss
                # after the last step the network's own arrays are the best
                # ones, and no later step can change them
                last = step == tc.max_steps
                best = {n: net.params[n].data if last else net.params[n].data.copy()
                        for n in names}
                bad_checks = 0
            else:
                bad_checks += 1
                if bad_checks >= tc.patience:
                    break

    # the last step always checks, so ``best`` holds the best check's arrays
    for name, arr in best.items():
        net.params[name].data = arr
    return TrainedModel(config=config, network=net, history=history)


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
        out = predict_statistical(model.config, model.extra, rows)
    else:
        scaled, state = _scaled(model, rows)
        out = model.network.forward(scaled)
        if model.config.loss is LossKind.STUDENT_T:
            out = out[0]
        out = invert_scaler(state, out.data)
    return out[0] if single else out


def embed(model: TrainedModel, context: np.ndarray) -> np.ndarray:
    """Final encoder activations: (tokens, hidden) for one context (l,),
    (n, tokens, hidden) for n contexts (n, l)."""
    if model.config.family is not Family.PATCH_TRANSFORMER:
        raise UnsupportedFamily("embeddings are defined for PATCH_TRANSFORMER only")
    rows, single = _as_rows(model, context)
    out = model.network.encode(_scaled(model, rows)[0]).data
    return out[0] if single else out
