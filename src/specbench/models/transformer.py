"""Modular pre-norm encoder transformer with swappable design axes.

Pipeline per forward pass: scale (outside) -> tokenize -> linear or
lookup embedding -> L pre-norm encoder layers (self-attention with the
configured masking/positional scheme, then a ReLU feed-forward) -> final
norm -> flatten -> projection head -> unscale (outside). The Student-t
loss variant widens the head to emit (mu, sigma, nu) per horizon step;
sigma and nu pass through softplus so the density is always defined.
"""
from __future__ import annotations

import math

import numpy as np

from ..autodiff import (
    Tensor,
    add,
    concat,
    embedding,
    layer_norm,
    matmul,
    mul,
    relu,
    reshape,
    softmax,
    softplus,
    transpose,
    tslice,
)
from ..optim import uniform_fan_in
from .config import (
    Attention,
    BINNING_BINS,
    Decomposition,
    Head,
    LossKind,
    ModelConfig,
    MOVING_AVG_KERNEL,
    PosEncoding,
    RELATIVE_BUCKETS,
    Tokenization,
)
from .networks import _apply, _linear, moving_average_split
from .tokenizers import positional_bias, token_count, token_dim, tokenize

_MASK_VALUE = -1e30


class PatchTransformer:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        H, F, L = cfg.hidden, cfg.ff_dim, cfg.n_layers
        self.n_tokens = token_count(cfg.tokenization, cfg.context_len, cfg)
        self.head_dim = H // cfg.n_heads
        if H % cfg.n_heads:
            raise ValueError("hidden size must divide evenly across heads")

        p: dict[str, Tensor] = {}
        if cfg.tokenization is Tokenization.BINNING:
            p["embed.table"] = Tensor(uniform_fan_in(rng, BINNING_BINS, (BINNING_BINS, H)))
        else:
            _linear(rng, "embed", p, token_dim(cfg.tokenization, cfg), H)
        for i in range(L):
            for name in ("q", "k", "v", "o"):
                _linear(rng, f"layer{i}.attn.{name}", p, H, H)
            p[f"layer{i}.ln1.g"] = Tensor(np.ones(H))
            p[f"layer{i}.ln1.b"] = Tensor(np.zeros(H))
            _linear(rng, f"layer{i}.ff1", p, H, F)
            _linear(rng, f"layer{i}.ff2", p, F, H)
            p[f"layer{i}.ln2.g"] = Tensor(np.ones(H))
            p[f"layer{i}.ln2.b"] = Tensor(np.zeros(H))
        p["final_ln.g"] = Tensor(np.ones(H))
        p["final_ln.b"] = Tensor(np.zeros(H))

        out_dim = cfg.horizon * (3 if cfg.loss is LossKind.STUDENT_T else 1)
        flat = self.n_tokens * H
        if cfg.head is Head.LINEAR:
            _linear(rng, "head", p, flat, out_dim)
        else:
            _linear(rng, "head1", p, flat, H)
            _linear(rng, "head2", p, H, out_dim)
            p["head.skip"] = Tensor(uniform_fan_in(rng, flat, (flat, out_dim)))
        if cfg.pos_encoding in (PosEncoding.RELATIVE, PosEncoding.SINCOS_PLUS_RELATIVE):
            p["rel_bias"] = Tensor(
                uniform_fan_in(rng, RELATIVE_BUCKETS, (RELATIVE_BUCKETS, cfg.n_heads))
            )
        if cfg.decomposition is Decomposition.MOVING_AVG:
            _linear(rng, "trend", p, cfg.context_len, cfg.horizon)
        self.params = p

        # constant positional machinery
        T = self.n_tokens
        positional = positional_bias(cfg.pos_encoding, T, cfg)
        self._sincos = positional.get("sincos")
        self._buckets = positional.get("rel_buckets")
        self._rope = positional.get("rope")
        self._causal_mask = (
            np.triu(np.full((T, T), _MASK_VALUE), k=1)
            if cfg.attention is Attention.CAUSAL
            else None
        )

    # -- building blocks ------------------------------------------------------

    def _ln(self, x: Tensor, name: str) -> Tensor:
        return layer_norm(x, self.params[f"{name}.g"], self.params[f"{name}.b"])

    def _split_heads(self, x: Tensor, batch: int) -> Tensor:
        x = reshape(x, (batch, self.n_tokens, self.cfg.n_heads, self.head_dim))
        return transpose(x, (0, 2, 1, 3))

    def _rotate(self, x: Tensor) -> Tensor:
        cos, sin = self._rope
        half = self.head_dim // 2
        first = tslice(x, (Ellipsis, slice(0, half)))
        second = tslice(x, (Ellipsis, slice(half, None)))
        rotated = concat([-second, first], axis=-1)
        return add(mul(x, cos), mul(rotated, sin))

    def _attention(self, x: Tensor, i: int, batch: int) -> Tensor:
        q, k, v = (
            self._split_heads(_apply(self.params, f"layer{i}.attn.{name}", x), batch)
            for name in ("q", "k", "v")
        )
        if self._rope is not None:
            q, k = self._rotate(q), self._rotate(k)
        scores = mul(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(self.head_dim))
        if self._buckets is not None:
            bias = embedding(self.params["rel_bias"], self._buckets)  # (T, T, heads)
            scores = add(scores, transpose(bias, (2, 0, 1)))
        if self._causal_mask is not None:
            scores = add(scores, self._causal_mask)
        context = matmul(softmax(scores, axis=-1), v)
        merged = reshape(transpose(context, (0, 2, 1, 3)), (batch, self.n_tokens, self.cfg.hidden))
        return _apply(self.params, f"layer{i}.attn.o", merged)

    def encode(self, scaled: np.ndarray) -> Tensor:
        """Token activations after the final norm, shape (B, tokens, hidden)."""
        scaled = np.atleast_2d(scaled)
        if self.cfg.decomposition is Decomposition.MOVING_AVG:
            _, seasonal = moving_average_split(scaled, MOVING_AVG_KERNEL)
            token_input = seasonal
        else:
            token_input = scaled
        tokens = tokenize(self.cfg.tokenization, token_input, self.cfg)
        batch = tokens.shape[0]
        if self.cfg.tokenization is Tokenization.BINNING:
            x = embedding(self.params["embed.table"], tokens)
        else:
            x = _apply(self.params, "embed", tokens)
        if self._sincos is not None:
            x = add(x, self._sincos)
        for i in range(self.cfg.n_layers):
            x = add(x, self._attention(self._ln(x, f"layer{i}.ln1"), i, batch))
            hidden = relu(_apply(self.params, f"layer{i}.ff1", self._ln(x, f"layer{i}.ln2")))
            x = add(x, _apply(self.params, f"layer{i}.ff2", hidden))
        return self._ln(x, "final_ln")

    def forward(self, scaled: np.ndarray):
        scaled = np.atleast_2d(scaled)
        batch = scaled.shape[0]
        encoded = self.encode(scaled)
        flat = reshape(encoded, (batch, self.n_tokens * self.cfg.hidden))
        if self.cfg.head is Head.LINEAR:
            out = _apply(self.params, "head", flat)
        else:
            hidden = relu(_apply(self.params, "head1", flat))
            out = add(_apply(self.params, "head2", hidden), matmul(flat, self.params["head.skip"]))
        trend_term = None
        if self.cfg.decomposition is Decomposition.MOVING_AVG:
            trend, _ = moving_average_split(scaled, MOVING_AVG_KERNEL)
            trend_term = _apply(self.params, "trend", trend)
        h = self.cfg.horizon
        if self.cfg.loss is LossKind.STUDENT_T:
            mu = tslice(out, (slice(None), slice(0, h)))
            if trend_term is not None:
                mu = add(mu, trend_term)
            sigma = softplus(tslice(out, (slice(None), slice(h, 2 * h))))
            nu = add(softplus(tslice(out, (slice(None), slice(2 * h, 3 * h)))), 2.0)
            return mu, sigma, nu
        if trend_term is not None:
            out = add(out, trend_term)
        return out
