"""Experiment configuration and its flat text format.

Grammar (line-oriented, UTF-8):

    # comment                 full-line comments and blank lines ignored
    [section]                 plain section header
    [section "label"]         labelled section (datasets and models)
    key = value               entry inside the current section

Sections: at most one ``[task]`` and one ``[run]``, one or more
``[dataset "name"]`` and ``[model "name"]``. Keys are the fields of the
dataclasses each section fills, written as ``models.config.encode_field``
writes them (lists comma-separated, ``none`` for an unset optional);
unwritten fields keep the dataclass defaults. Unknown keys are rejected.
"""
from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from ..errors import ConfigError
from ..models.config import DEFAULT_SEEDS, PER_RUN, Family, ModelConfig, TrainConfig, decode_fields
from ..series import ForecastTask
from ..synthgen import DEFAULT_LENGTH

__all__ = ["DatasetSpec", "ModelSpec", "ExperimentConfig", "parse_config", "load_config"]

_SECTION_RE = re.compile(r'^\[(\w+)(?:\s+"([^"]+)")?\]$')

DATASET_KINDS = ("sinusoid", "trend1", "trend2", "csv")


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    kind: str = "sinusoid"
    path: str | None = None
    n_series: int = 100
    seed: int = 1
    length: int = DEFAULT_LENGTH
    k: int = 2

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ConfigError(f"dataset {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "csv" and not self.path:
            raise ConfigError(f"dataset {self.name!r}: csv kind needs a path")
        if self.k < 1:
            raise ConfigError(f"dataset {self.name!r}: k must be >= 1")
        if self.n_series < 1:
            raise ConfigError(f"dataset {self.name!r}: n_series must be >= 1")


@dataclass(frozen=True)
class ModelSpec:
    """A named model: a family plus overrides for the architecture axes."""

    name: str
    family: Family
    overrides: dict = field(default_factory=dict)

    def config_fields(self, task: ForecastTask) -> dict:
        """Every ``ModelConfig`` field value this model runs with on ``task``:
        the field defaults, then the task's horizon and context length, then
        the overrides. Builds no ``ModelConfig``, so it never fails."""
        values = {f.name: f.default for f in fields(ModelConfig) if f.default is not MISSING}
        values.update(
            family=self.family, horizon=task.horizon, context_len=task.context_len
        )
        values.update(self.overrides)
        return values

    def materialize(self, task: ForecastTask) -> ModelConfig:
        return ModelConfig(**self.config_fields(task))


@dataclass(frozen=True)
class ExperimentConfig:
    task: ForecastTask
    datasets: list[DatasetSpec]
    models: list[ModelSpec]
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    stride: int = 1
    split_point: int | None = None  # None: per-series length - horizon
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        if not self.datasets or not self.models:
            raise ConfigError("need at least one dataset and one model")
        names = [d.name for d in self.datasets] + [m.name for m in self.models]
        if len(set(names)) != len(names):
            raise ConfigError("dataset/model names must be unique")


def _section_keys(cls) -> frozenset[str]:
    """Fields of ``cls`` a config section may set: all but the per-run ones."""
    return frozenset(f.name for f in fields(cls) if not f.metadata.get(PER_RUN))


def _parse_sections(text: str) -> list[tuple[str, str | None, dict[str, str]]]:
    sections: list[tuple[str, str | None, dict[str, str]]] = []
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SECTION_RE.match(line)
        if match:
            label = match.group(2)
            if label and "|" in label:
                raise ConfigError(f"line {lineno}: labels must not contain '|'")
            current = {}
            sections.append((match.group(1), label, current))
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: entry before any section header")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        current[key] = value
    return sections


def _split(where: str, kv: dict[str, str], *key_sets) -> list[dict[str, str]]:
    """Share a section's entries out among ``key_sets``; reject the rest."""
    for key in kv:
        if not any(key in keys for keys in key_sets):
            raise ConfigError(f"{where}: unknown key {key!r}")
    return [{k: v for k, v in kv.items() if k in keys} for keys in key_sets]


def _decode(where: str, cls, kv: dict[str, str]) -> dict:
    try:
        return decode_fields(cls, kv)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _build(where: str, cls, kv: dict[str, str], **given):
    try:
        return cls(**given, **decode_fields(cls, kv))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _model_spec(name: str, family: Family | None = None, **overrides) -> ModelSpec:
    if family is None:
        raise ConfigError(f"model {name!r}: missing family")
    return ModelSpec(name=name, family=family, overrides=overrides)


def parse_config(text: str) -> ExperimentConfig:
    singles: dict[str, dict[str, str]] = {}
    dataset_sections: list[tuple[str, dict[str, str]]] = []
    models: list[ModelSpec] = []

    for kind, label, kv in _parse_sections(text):
        if kind in ("task", "run"):
            if label:
                raise ConfigError(f"[{kind}] sections take no label, got {label!r}")
            if kind in singles:
                raise ConfigError(f"duplicate [{kind}] section")
            singles[kind] = kv
        elif kind == "dataset":
            if not label:
                raise ConfigError('dataset sections need a label: [dataset "name"]')
            dataset_sections.append((label, kv))
        elif kind == "model":
            if not label:
                raise ConfigError('model sections need a label: [model "name"]')
            where = f"model {label!r}"
            (model_kv,) = _split(where, kv, _section_keys(ModelConfig))
            models.append(_model_spec(label, **_decode(where, ModelConfig, model_kv)))
        else:
            raise ConfigError(f"unknown section [{kind}]")

    # [task] holds the task, two experiment fields and the datasets' default
    # k; [run] holds the train config and the seeds
    task_kv, task_exp_kv, default_k = _split(
        "task", singles.get("task", {}),
        _section_keys(ForecastTask), {"stride", "split_point"}, {"k"},
    )
    train_kv, run_exp_kv = _split(
        "run", singles.get("run", {}), _section_keys(TrainConfig), {"seeds"}
    )
    datasets = []
    for label, kv in dataset_sections:
        where = f"dataset {label!r}"
        (dataset_kv,) = _split(where, kv, _section_keys(DatasetSpec) - {"name"})
        datasets.append(_build(where, DatasetSpec, default_k | dataset_kv, name=label))
    return ExperimentConfig(
        task=_build("task", ForecastTask, task_kv),
        datasets=datasets,
        models=models,
        train=_build("run", TrainConfig, train_kv),
        **_decode("task", ExperimentConfig, task_exp_kv),
        **_decode("run", ExperimentConfig, run_exp_kv),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    return parse_config(path.read_text(encoding="utf-8"))
