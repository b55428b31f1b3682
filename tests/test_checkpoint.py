import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from specbench.models import (
    Family,
    LossKind,
    ModelConfig,
    TrainConfig,
    embed,
    fit,
    load_checkpoint,
    predict,
    save_checkpoint,
)

from helpers import stack_windows, take


def _windows(count, l, h, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        seq = np.sin(np.linspace(0, 6, l + h)) + rng.normal(size=l + h) * 0.1
        out.append((seq[:l], seq[l:], l))
    return stack_windows(out)


def test_neural_checkpoint_bit_exact_roundtrip(tmp_path):
    train = _windows(12, 16, 4, seed=1)
    cfg = ModelConfig(
        family=Family.PATCH_TRANSFORMER, horizon=4, context_len=16,
        patch_len=8, patch_stride=4, custom_dims=(8, 16, 1, 2),
        loss=LossKind.HUBER,
    )
    model = fit(cfg, train, take(train, np.s_[:2]), TrainConfig(max_steps=8, val_check_every=4, windows_batch=4, seed=2))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)

    assert loaded.config == model.config
    assert loaded.train_config == model.train_config
    assert loaded.history == model.history
    assert loaded.params.keys() == model.params.keys()
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name], model.params[name])

    ctx = train.contexts[0]
    np.testing.assert_array_equal(predict(loaded, ctx), predict(model, ctx))
    np.testing.assert_array_equal(embed(loaded, ctx), embed(model, ctx))


@pytest.mark.parametrize(
    "edit, message",
    [
        # a parameter stored under its name before the feed-forward layers
        # were declared through the shared dense-layer helper
        (lambda p: p.update({"layer0.ff.w1": p.pop("layer0.ff1.w")}),
         r"missing \['layer0.ff1.w'\], unknown \['layer0.ff.w1'\]"),
        # a bias of shape (1,) would broadcast silently
        (lambda p: p.update({"head.b": p["head.b"][:1]}), r"misshaped \['head.b'\]"),
    ],
)
def test_network_rejects_stored_parameters_not_matching_it(tmp_path, edit, message):
    train = _windows(6, 16, 4, seed=5)
    cfg = ModelConfig(
        family=Family.PATCH_TRANSFORMER, horizon=4, context_len=16,
        patch_len=8, patch_stride=4, custom_dims=(8, 16, 1, 2),
    )
    model = fit(cfg, train, None, TrainConfig(max_steps=2, windows_batch=4))
    params = dict(model.params)
    edit(params)
    path = tmp_path / "model.ckpt"
    # ``save_checkpoint`` reads these fields only, so it writes the edited parameters
    save_checkpoint(SimpleNamespace(config=cfg, train_config=model.train_config, params=params,
                                    extra={}, history=model.history), path)
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


def test_statistical_checkpoint_roundtrip(tmp_path):
    train = _windows(10, 16, 4, seed=3)
    cfg = ModelConfig(family=Family.HOLT, horizon=4, context_len=16)
    model = fit(cfg, train, None, TrainConfig(max_steps=1))
    path = tmp_path / "holt.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.extra.keys() == model.extra.keys()
    for name in model.extra:
        np.testing.assert_array_equal(loaded.extra[name], model.extra[name])
    ctx = train.contexts[0]
    np.testing.assert_array_equal(predict(loaded, ctx), predict(model, ctx))


def test_checkpoint_bytes_are_deterministic(tmp_path):
    train = _windows(10, 16, 4, seed=4)
    cfg = ModelConfig(family=Family.NLINEAR, horizon=4, context_len=16)
    tc = TrainConfig(max_steps=6, val_check_every=3, windows_batch=4, seed=9)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(fit(cfg, train, take(train, np.s_[:2]), tc), p1)
    save_checkpoint(fit(cfg, train, take(train, np.s_[:2]), tc), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(ValueError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: lines + ["train.batch_series=4"],  # unknown key
        lambda lines: [l for l in lines if not l.startswith("config.patch_len=")],  # missing key
    ],
)
def test_checkpoint_rejects_header_not_matching_config_fields(tmp_path, edit):
    cfg = ModelConfig(family=Family.NAIVE_LAST, horizon=4, context_len=16)
    path = tmp_path / "m.ckpt"
    save_checkpoint(fit(cfg, _windows(4, 16, 4), None, TrainConfig()), path)
    data = path.read_bytes()
    start = len(b"SPECBENCH-CKPT1\n")
    (header_len,) = struct.unpack("<I", data[start:start + 4])
    lines = data[start + 4:start + 4 + header_len].decode("utf-8").splitlines()
    header = "".join(f"{line}\n" for line in sorted(edit(lines))).encode("utf-8")
    path.write_bytes(
        data[:start] + struct.pack("<I", len(header)) + header + data[start + 4 + header_len:]
    )
    with pytest.raises(ValueError, match="checkpoint header"):
        load_checkpoint(path)


@pytest.mark.parametrize("family", [Family.NLINEAR, Family.HOLT])
def test_checkpoint_cut_short_is_rejected_naming_it(tmp_path, family):
    cfg = ModelConfig(family=family, horizon=4, context_len=16)
    whole = tmp_path / "whole.ckpt"
    tc = TrainConfig(max_steps=4, val_check_every=2, windows_batch=4)
    save_checkpoint(fit(cfg, _windows(6, 16, 4), None, tc), whole)
    data = whole.read_bytes()
    path = tmp_path / "cut.ckpt"
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(path)


@pytest.mark.parametrize("tail", [b"\0", b"unexpected trailing text"])
def test_checkpoint_with_bytes_after_its_last_blob_is_rejected(tmp_path, tail):
    cfg = ModelConfig(family=Family.NLINEAR, horizon=4, context_len=16)
    path = tmp_path / "m.ckpt"
    save_checkpoint(fit(cfg, _windows(6, 16, 4), None, TrainConfig(max_steps=2, windows_batch=4)), path)
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(ValueError, match=re.escape(f"{path} has bytes after its last blob")):
        load_checkpoint(path)
