"""Flat binary checkpoint container with a bit-exact round trip.

Layout:
    magic            b"SPECBENCH-CKPT1\\n"
    header length    uint32 little-endian
    header           UTF-8 ``key=value`` lines, keys sorted; carries the
                     model config, training config, and history length
    history          3 float64-LE arrays (step, train loss, val loss)
    blob count       uint32
    blobs            sorted by name: uint16 name length, name bytes,
                     uint8 ndim, uint64-LE dims, float64-LE values
                     (parameter names as-is; fitted statistical state
                     under an ``extra/`` prefix)

A file cut short, or with bytes after its last blob, is rejected naming it.
"""
from __future__ import annotations

import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import ModelConfig, TrainConfig, decode_fields, encode_field
from .training import TrainedModel, load_network

__all__ = ["save_checkpoint", "load_checkpoint"]

_MAGIC = b"SPECBENCH-CKPT1\n"

# header key prefix -> the config dataclass whose every field it carries
_SECTIONS = (("config", ModelConfig), ("train", TrainConfig))
_HISTORY_LEN = "history.len"


def _header_lines(model: TrainedModel) -> str:
    items = {_HISTORY_LEN: str(len(model.history))}
    for (prefix, _), obj in zip(_SECTIONS, (model.config, model.train_config)):
        for f in fields(obj):
            items[f"{prefix}.{f.name}"] = encode_field(getattr(obj, f.name))
    return "".join(f"{k}={items[k]}\n" for k in sorted(items))


def _parse_header(text: str) -> tuple[ModelConfig, TrainConfig, int]:
    items = dict(line.split("=", 1) for line in text.splitlines())
    expected = {_HISTORY_LEN} | {
        f"{prefix}.{f.name}" for prefix, cls in _SECTIONS for f in fields(cls)
    }
    if items.keys() != expected:
        raise ValueError(
            "checkpoint header does not match the config fields: "
            f"unknown {sorted(items.keys() - expected)}, missing {sorted(expected - items.keys())}"
        )
    cfg, tc = (
        cls(**decode_fields(cls, {f.name: items[f"{prefix}.{f.name}"] for f in fields(cls)}))
        for prefix, cls in _SECTIONS
    )
    return cfg, tc, int(items[_HISTORY_LEN])


def _write_array(fh, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    fh.write(struct.pack("<B", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    fh.write(arr.tobytes())


def _unpack(fh, fmt: str) -> tuple:
    """``struct.unpack`` of the next bytes; ValueError if the file ends first."""
    size = struct.calcsize(fmt)
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"{fh.name} is truncated at byte {fh.tell()}")
    return struct.unpack(fmt, data)


def _read_array(fh) -> np.ndarray:
    (ndim,) = _unpack(fh, "<B")
    shape = _unpack(fh, f"<{ndim}Q")
    (data,) = _unpack(fh, f"{8 * int(np.prod(shape))}s")
    return np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)


def save_checkpoint(model: TrainedModel, path: str | Path) -> None:
    path = Path(path)
    header = _header_lines(model).encode("utf-8")
    blobs = dict(model.params)
    blobs.update({f"extra/{name}": arr for name, arr in model.extra.items()})
    with path.open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        hist = np.array(model.history, dtype=np.float64).reshape(len(model.history), 3)
        for col in range(3):
            _write_array(fh, hist[:, col])
        fh.write(struct.pack("<I", len(blobs)))
        for name in sorted(blobs):
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            _write_array(fh, blobs[name])


def load_checkpoint(path: str | Path) -> TrainedModel:
    path = Path(path)
    with path.open("rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path} is not a checkpoint file")
        (header_len,) = _unpack(fh, "<I")
        cfg, tc, hist_len = _parse_header(_unpack(fh, f"{header_len}s")[0].decode("utf-8"))
        cols = [_read_array(fh) for _ in range(3)]
        history = [
            (int(cols[0][i]), float(cols[1][i]), float(cols[2][i]))
            for i in range(hist_len)
        ]
        (n_blobs,) = _unpack(fh, "<I")
        params: dict[str, np.ndarray] = {}
        extra: dict[str, np.ndarray] = {}
        for _ in range(n_blobs):
            (name_len,) = _unpack(fh, "<H")
            name = _unpack(fh, f"{name_len}s")[0].decode("utf-8")
            arr = _read_array(fh)
            if name.startswith("extra/"):
                extra[name[len("extra/"):]] = arr
            else:
                params[name] = arr
        if fh.read(1):
            raise ValueError(f"{path} has bytes after its last blob")
    return TrainedModel(cfg, tc, load_network(cfg, tc, params), extra, history)
