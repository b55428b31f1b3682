"""Input tokenization and positional-encoding tables for the transformer.

Tokenization runs on already-scaled contexts and is parameter-free, so it
produces plain numpy arrays (the differentiable graph starts at the token
embedding). BINNING yields integer bin ids for an embedding lookup; the
other modes yield float token matrices.
"""
from __future__ import annotations

import numpy as np

from ..errors import PatchTooLong
from .config import (
    Attention,
    BINNING_BINS,
    BINNING_CLIP,
    ModelConfig,
    PosEncoding,
    RELATIVE_BUCKETS,
    RELATIVE_MAX_DISTANCE,
    Tokenization,
)

__all__ = [
    "token_count",
    "token_dim",
    "tokenize",
    "bin_midpoints",
    "sincos_table",
    "relative_buckets",
    "rope_tables",
    "positional_bias",
]

_LAG_DEPTH = 3  # current value plus two lags


def token_count(kind: Tokenization, context_len: int, cfg: ModelConfig) -> int:
    if kind is Tokenization.PATCH:
        if cfg.patch_len > context_len:
            raise PatchTooLong(f"patch {cfg.patch_len} > context {context_len}")
        return (context_len - cfg.patch_len) // cfg.patch_stride + 1
    return context_len


def token_dim(kind: Tokenization, cfg: ModelConfig) -> int:
    if kind is Tokenization.PATCH:
        return cfg.patch_len
    if kind is Tokenization.LAGS:
        return _LAG_DEPTH
    return 1  # NONE; BINNING embeds ids directly


def tokenize(kind: Tokenization, scaled: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Turn scaled contexts (batch, l) into token tensors.

    Returns (batch, tokens, dim) floats, except BINNING which returns
    (batch, tokens) integer bin ids.
    """
    x = np.atleast_2d(np.asarray(scaled, dtype=np.float64))
    batch, l = x.shape
    if kind is Tokenization.NONE:
        return x[:, :, None]
    if kind is Tokenization.PATCH:
        count = token_count(kind, l, cfg)
        starts = np.arange(count) * cfg.patch_stride
        idx = starts[:, None] + np.arange(cfg.patch_len)[None, :]
        return x[:, idx]
    if kind is Tokenization.BINNING:
        clipped = np.clip(x, -BINNING_CLIP, BINNING_CLIP)
        width = 2.0 * BINNING_CLIP / BINNING_BINS
        ids = np.floor((clipped + BINNING_CLIP) / width).astype(np.int64)
        return np.clip(ids, 0, BINNING_BINS - 1)
    if kind is Tokenization.LAGS:
        cols = [x]
        for lag in range(1, _LAG_DEPTH):
            shifted = np.zeros_like(x)
            shifted[:, lag:] = x[:, :-lag]
            cols.append(shifted)
        return np.stack(cols, axis=2)
    raise ValueError(f"unknown tokenization {kind}")


def bin_midpoints(ids: np.ndarray) -> np.ndarray:
    """Dequantize bin ids to bin centers (error <= half a bin width in range)."""
    width = 2.0 * BINNING_CLIP / BINNING_BINS
    return -BINNING_CLIP + (np.asarray(ids) + 0.5) * width


def sincos_table(n_tokens: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal position table; row 0 is (0, 1, 0, 1, ...)."""
    pos = np.arange(n_tokens, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / dim)
    table = np.empty((n_tokens, dim))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


def relative_buckets(
    n_tokens: int,
    bidirectional: bool,
    num_buckets: int = RELATIVE_BUCKETS,
    max_distance: int = RELATIVE_MAX_DISTANCE,
) -> np.ndarray:
    """Bucket index per (query, key) pair; depends only on the offset j - i.

    Small offsets get their own buckets, larger ones share log-spaced
    buckets up to ``max_distance``.
    """
    rel = np.arange(n_tokens)[None, :] - np.arange(n_tokens)[:, None]
    buckets = np.zeros_like(rel)
    if bidirectional:
        half = num_buckets // 2
        buckets = np.where(rel > 0, half, 0)
        rel = np.abs(rel)
        num_buckets = half
    else:
        rel = -np.minimum(rel, 0)
    max_exact = num_buckets // 2
    with np.errstate(divide="ignore"):
        log_part = max_exact + (
            np.log(np.maximum(rel, 1) / max_exact)
            / np.log(max_distance / max_exact)
            * (num_buckets - max_exact)
        ).astype(np.int64)
    large = np.minimum(log_part, num_buckets - 1)
    return buckets + np.where(rel < max_exact, rel, large)


def rope_tables(n_tokens: int, head_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) rotation tables of shape (tokens, head_dim).

    Frequencies repeat across the two rotated halves so that
    ``q*cos + rotate_half(q)*sin`` is an orthonormal rotation.
    """
    if head_dim % 2:
        raise ValueError("head_dim must be even for rotary encoding")
    half = head_dim // 2
    inv_freq = 1.0 / np.power(10000.0, np.arange(half, dtype=np.float64) / half)
    angles = np.arange(n_tokens, dtype=np.float64)[:, None] * inv_freq[None, :]
    angles = np.concatenate([angles, angles], axis=1)
    return np.cos(angles), np.sin(angles)


def positional_bias(kind: PosEncoding, n_tokens: int, cfg: ModelConfig) -> dict:
    """Positional machinery for one encoder pass, keyed by mechanism.

    ``sincos``      additive table for token embeddings (tokens, hidden)
    ``rel_buckets`` (tokens, tokens) bucket ids feeding the learned bias
    ``rope``        (cos, sin) query/key rotation schedule
    """
    out: dict = {}
    if kind in (PosEncoding.SINCOS, PosEncoding.SINCOS_PLUS_RELATIVE):
        out["sincos"] = sincos_table(n_tokens, cfg.hidden)
    if kind in (PosEncoding.RELATIVE, PosEncoding.SINCOS_PLUS_RELATIVE):
        out["rel_buckets"] = relative_buckets(
            n_tokens, bidirectional=cfg.attention is Attention.BIDIRECTIONAL
        )
    if kind is PosEncoding.ROPE:
        out["rope"] = rope_tables(n_tokens, cfg.hidden // cfg.n_heads)
    return out
