"""Model and training configuration: the ablation axes and their defaults."""
from __future__ import annotations

import typing
from dataclasses import dataclass, field, fields
from enum import Enum

from ..errors import PatchTooLong

__all__ = [
    "Family",
    "Tokenization",
    "Attention",
    "Head",
    "PosEncoding",
    "LossKind",
    "Scaler",
    "Decomposition",
    "ModelSize",
    "SIZE_TABLE",
    "ModelConfig",
    "TrainConfig",
    "PER_RUN",
    "encode_field",
    "decode_fields",
]


class Family(Enum):
    NAIVE_LAST = "NAIVE_LAST"
    SEASONAL_NAIVE = "SEASONAL_NAIVE"
    SES = "SES"
    HOLT = "HOLT"
    AR_LS = "AR_LS"
    NLINEAR = "NLINEAR"
    DLINEAR = "DLINEAR"
    MLP = "MLP"
    NBEATS_LITE = "NBEATS_LITE"
    NHITS_LITE = "NHITS_LITE"
    PATCH_TRANSFORMER = "PATCH_TRANSFORMER"


STATISTICAL_FAMILIES = frozenset(
    {Family.NAIVE_LAST, Family.SEASONAL_NAIVE, Family.SES, Family.HOLT, Family.AR_LS}
)


class Tokenization(Enum):
    NONE = "NONE"
    PATCH = "PATCH"
    BINNING = "BINNING"
    LAGS = "LAGS"


class Attention(Enum):
    BIDIRECTIONAL = "BIDIRECTIONAL"
    CAUSAL = "CAUSAL"


class Head(Enum):
    LINEAR = "LINEAR"
    RESIDUAL = "RESIDUAL"


class PosEncoding(Enum):
    RELATIVE = "RELATIVE"
    SINCOS = "SINCOS"
    SINCOS_PLUS_RELATIVE = "SINCOS_PLUS_RELATIVE"
    ROPE = "ROPE"


class LossKind(Enum):
    MAE = "MAE"
    MSE = "MSE"
    HUBER = "HUBER"
    STUDENT_T = "STUDENT_T"


class Scaler(Enum):
    REVIN_STANDARD = "REVIN_STANDARD"
    ROBUST = "ROBUST"


class Decomposition(Enum):
    NONE = "NONE"
    MOVING_AVG = "MOVING_AVG"


class ModelSize(Enum):
    TINY = "TINY"
    MINI = "MINI"
    SMALL = "SMALL"
    BASE = "BASE"


# (hidden, feed-forward, encoder layers, attention heads)
SIZE_TABLE: dict[ModelSize, tuple[int, int, int, int]] = {
    ModelSize.TINY: (256, 1024, 4, 4),
    ModelSize.MINI: (384, 1536, 4, 8),
    ModelSize.SMALL: (512, 2048, 6, 8),
    ModelSize.BASE: (768, 3072, 12, 12),
}

MOVING_AVG_KERNEL = 25
BINNING_BINS = 256
BINNING_CLIP = 5.0
RELATIVE_BUCKETS = 32
RELATIVE_MAX_DISTANCE = 128
HUBER_DELTA = 1.0

# ``field`` metadata key marking a field an experiment fills in for each run
# (the task's horizon, one seed of its seed list) rather than reading it
# from a config section.
PER_RUN = "per_run"


@dataclass(frozen=True)
class ModelConfig:
    """One model's architecture axes; defaults are the benchmark defaults.

    ``hidden``/``ff_dim``/``n_layers``/``n_heads`` derive from ``size``.
    Width fields for the MLP and residual-stack families exist so tests can
    shrink them; their defaults are the zoo's desk-scale shapes.
    """

    family: Family
    horizon: int = field(metadata={PER_RUN: True})
    context_len: int = 256
    tokenization: Tokenization = Tokenization.PATCH
    patch_len: int = 96
    patch_stride: int = 8
    attention: Attention = Attention.BIDIRECTIONAL
    head: Head = Head.LINEAR
    pos_encoding: PosEncoding = PosEncoding.SINCOS_PLUS_RELATIVE
    loss: LossKind = LossKind.MAE
    scaler: Scaler = Scaler.REVIN_STANDARD
    decomposition: Decomposition = Decomposition.NONE
    size: ModelSize = ModelSize.TINY
    ar_order: int = 48
    mlp_hidden: int = 512
    mlp_depth: int = 3
    nbeats_blocks: int = 3
    nbeats_hidden: int = 512
    nbeats_depth: int = 2
    nhits_pool_rates: tuple[int, ...] = (8, 4, 1)
    # explicit (hidden, ff, layers, heads), bypassing the size table; used
    # for miniature instances in gradient checks
    custom_dims: tuple[int, int, int, int] | None = None

    def __post_init__(self):
        if self.horizon <= 0 or self.context_len <= 0:
            raise ValueError("horizon and context_len must be positive")
        if self.family is Family.PATCH_TRANSFORMER and self.tokenization is Tokenization.PATCH:
            if self.patch_len > self.context_len:
                raise PatchTooLong(
                    f"patch_len {self.patch_len} exceeds context_len {self.context_len}"
                )
            if self.patch_stride <= 0:
                raise ValueError("patch_stride must be positive")
        # only the transformer's head emits (mu, sigma, nu); statistical
        # families ignore the loss
        if (self.loss is LossKind.STUDENT_T and not self.is_statistical
                and self.family is not Family.PATCH_TRANSFORMER):
            raise ValueError(f"the STUDENT_T loss is for PATCH_TRANSFORMER, not {self.family.value}")
        if self.family is Family.AR_LS and self.ar_order < 1:
            raise ValueError("ar_order must be at least 1")
        if self.family is Family.AR_LS and self.ar_order >= self.context_len:
            raise ValueError("ar_order must be below context_len")
        if self.family is Family.NHITS_LITE and len(self.nhits_pool_rates) != self.nbeats_blocks:
            raise ValueError("one pooling rate per block")

    def _dims(self) -> tuple[int, int, int, int]:
        return self.custom_dims if self.custom_dims is not None else SIZE_TABLE[self.size]

    @property
    def hidden(self) -> int:
        return self._dims()[0]

    @property
    def ff_dim(self) -> int:
        return self._dims()[1]

    @property
    def n_layers(self) -> int:
        return self._dims()[2]

    @property
    def n_heads(self) -> int:
        return self._dims()[3]

    @property
    def is_statistical(self) -> bool:
        return self.family in STATISTICAL_FAMILIES


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; the step budget defaults to the desk-scale 2000."""

    lr: float = 1e-4
    windows_batch: int = 256
    max_steps: int = 2000
    val_check_every: int = 100
    patience: int = 20
    seed: int = field(default=1, metadata={PER_RUN: True})

    def __post_init__(self):
        if min(self.lr, self.windows_batch, self.max_steps) <= 0:
            raise ValueError("lr, windows_batch, and max_steps must be positive")
        if self.val_check_every <= 0 or self.patience <= 0:
            raise ValueError("val_check_every and patience must be positive")


DEFAULT_SEEDS = (1, 5, 10)


def encode_field(value) -> str:
    """Text form of a config field value, as config files and run ids
    write it: an enum as its value, ``None`` as
    ``none``, a tuple comma-joined, a number or string as ``str`` gives it.
    """
    if isinstance(value, Enum):
        return value.value
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(encode_field(v) for v in value)
    return str(value)


def decode_fields(cls, items: dict[str, str]) -> dict:
    """Constructor kwargs for dataclass ``cls`` from ``{field name: text}``,
    each value read by the field's type hint; the inverse of ``encode_field``.

    Raises ValueError naming the field for an unknown name or a bad value.
    """
    names = {f.name for f in fields(cls)}
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, text in items.items():
        if name not in names:
            raise ValueError(f"unknown key {name!r}")
        try:
            kwargs[name] = _decode(hints[name], text)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return kwargs


def _decode(hint, text: str):
    args = typing.get_args(hint)
    if type(None) in args:
        if text == "none":
            return None
        (hint,) = (arg for arg in args if arg is not type(None))
        return _decode(hint, text)
    if typing.get_origin(hint) is tuple:
        parts = [part.strip() for part in text.split(",")]
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], part) for part in parts)
        if len(parts) != len(args):
            raise ValueError(f"expected {len(args)} comma-separated values, got {text!r}")
        return tuple(_decode(arg, part) for arg, part in zip(args, parts))
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint(text)
    if hint in (int, float, str):
        return hint(text)
    raise TypeError(f"no text form for {hint!r}")
