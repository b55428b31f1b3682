import json

import numpy as np
import pytest

from specbench.harness.cli import main
from specbench.preprocess import load_csv


CFG = """
[task]
context_len = 48
horizon = 16

[run]
seeds = 1
max_steps = 30
val_check_every = 15
windows_batch = 8

[dataset "sins"]
kind = sinusoid
n_series = 2
seed = 1
length = 320

[model "naive"]
family = NAIVE_LAST

[model "nlin"]
family = NLINEAR
"""


def test_gen_writes_expected_series_counts(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen", "--kind", "sinusoid", "--n", "5", "--seed", "1",
                 "--length", "320", "--out", str(out)]) == 0
    composed = load_csv(out / "composed.csv")
    components = load_csv(out / "components.csv")
    assert len(composed) == 5
    assert len(components) == 10
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_series"] == 5 and manifest["kind"] == "sinusoid"
    stdout = capsys.readouterr().out
    assert "event=gen_done" in stdout


def test_gen_trend2_writes_train_components(tmp_path):
    out = tmp_path / "t2"
    assert main(["gen", "--kind", "trend2", "--n", "3", "--seed", "2",
                 "--length", "320", "--out", str(out)]) == 0
    assert (out / "train_components.csv").exists()


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--bogus", "x"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_config_is_user_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "no.cfg"), "--out", str(tmp_path)]) == 1


def test_run_eval_plot_pipeline(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CFG)
    results = tmp_path / "results"
    assert main(["run", "--config", str(cfg_path), "--out", str(results)]) == 0
    assert len(list(results.glob("*.json"))) == 4  # 1 ds x 2 models x 1 seed x 2 modes

    report_path = tmp_path / "report.json"
    assert main(["eval", "--results", str(results), "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert set(report["models"]) == {"naive", "nlin"}
    assert report["missing_cells"] == []
    for key in ("cells", "top3_win_counts", "avg_ranks", "errors"):
        assert key in report

    svg_path = tmp_path / "f.svg"
    assert main(["plot", "--results", str(results), "--out", str(svg_path),
                 "--mode", "OOD"]) == 0
    body = svg_path.read_text()
    assert body.startswith("<svg") and "naive" in body and "nlin" in body

    stdout = capsys.readouterr().out
    assert "event=run_done" in stdout and "event=eval_done" in stdout

    # an output path that is a file, or a report path that is a directory,
    # is a user error
    capsys.readouterr()
    assert main(["gen", "--kind", "sinusoid", "--n", "1", "--seed", "1",
                 "--length", "320", "--out", str(report_path)]) == 1
    assert main(["run", "--config", str(cfg_path), "--out", str(report_path)]) == 1
    assert main(["eval", "--results", str(results), "--report", str(results)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 3 and "internal error" not in err


def test_eval_names_an_unreadable_run_file(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CFG)
    results = tmp_path / "results"
    assert main(["run", "--config", str(cfg_path), "--out", str(results)]) == 0
    broken = sorted(results.glob("*.json"))[0]
    broken.write_text(broken.read_text()[:40])
    capsys.readouterr()
    assert main(["eval", "--results", str(results), "--report", str(tmp_path / "r.json")]) == 1
    assert broken.name in capsys.readouterr().err


def test_plot_names_an_unreadable_run_file(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CFG)
    results = tmp_path / "results"
    assert main(["run", "--config", str(cfg_path), "--out", str(results)]) == 0
    broken = sorted(results.glob("*.json"))[-1]
    broken.write_text(broken.read_text()[:40])
    capsys.readouterr()
    assert main(["plot", "--results", str(results), "--out", str(tmp_path / "f.svg")]) == 1
    assert broken.name in capsys.readouterr().err


def test_prep_selects_segments(tmp_path):
    rng = np.random.default_rng(5)
    rows = ["unique_id,ds,y"]
    for sid in ("a", "b"):
        t = np.arange(140)
        values = np.sin(2 * np.pi * t / 12) + rng.normal(size=140) * 0.05
        rows += [f"{sid},{i},{v!r}" for i, v in enumerate(map(float, values))]
    raw = tmp_path / "raw.csv"
    raw.write_text("\n".join(rows) + "\n")
    out = tmp_path / "prep"
    assert main(["prep", "--input", str(raw), "--out", str(out),
                 "--keep", "2", "--patch-len", "64", "--stride", "32", "--nlags", "8"]) == 0
    selected = load_csv(out / "selected.csv")
    assert len(selected) == 2
    assert all(len(s) == 64 for s in selected)


def _raw_parents(path, parents=6, length=64 + 32 * 7):
    """Long-format parents for ``prep``: AR(1) plus a seasonal term, every
    third a random walk, so the screen keeps some segments and drops others."""
    rng = np.random.default_rng(11)
    rows = ["unique_id,ds,y"]
    for p in range(parents):
        noise = rng.normal(size=length)
        if p % 3 == 2:
            values = np.cumsum(noise)
        else:
            values = np.sin(2 * np.pi * np.arange(length) / (8 + p)) + 0.5 * noise
        rows += [f"p{p},{i},{v!r}" for i, v in enumerate(values.tolist())]
    path.write_text("\n".join(rows) + "\n")


PREP_ARGS = ["--keep", "10", "--patch-len", "64", "--stride", "32", "--nlags", "8"]


def test_prep_selects_the_same_bytes_with_one_and_two_workers(tmp_path, monkeypatch):
    raw = tmp_path / "raw.csv"
    _raw_parents(raw)
    written = []
    for workers in ("1", "2"):
        monkeypatch.setenv("SPECBENCH_WORKERS", workers)
        out = tmp_path / f"prep{workers}"
        assert main(["prep", "--input", str(raw), "--out", str(out), *PREP_ARGS]) == 0
        written.append((out / "selected.csv").read_bytes())
    assert written[0] == written[1]
    assert len(load_csv(tmp_path / "prep1" / "selected.csv")) == 10


@pytest.mark.parametrize("value", ["two", "0"])
def test_prep_with_a_bad_worker_count_exits_1(tmp_path, monkeypatch, capsys, value):
    raw = tmp_path / "raw.csv"
    _raw_parents(raw)
    monkeypatch.setenv("SPECBENCH_WORKERS", value)
    out = tmp_path / "prep"
    assert main(["prep", "--input", str(raw), "--out", str(out), *PREP_ARGS]) == 1
    assert "error: SPECBENCH_WORKERS" in capsys.readouterr().err
    assert not (out / "selected.csv").exists()


def test_cka_outputs_symmetric_unit_diagonal(tmp_path, capsys):
    out = tmp_path / "cka.json"
    assert main(["cka", "--kind", "trend1", "--seed", "1", "--series", "2",
                 "--length", "256", "--context-len", "48", "--horizon", "16",
                 "--patch-len", "16", "--patch-stride", "8", "--steps", "4",
                 "--windows-batch", "8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    matrix = np.asarray(doc["cka"])
    assert matrix.shape == (4, 4)
    np.testing.assert_allclose(np.diag(matrix), 1.0, atol=1e-9)
    np.testing.assert_allclose(matrix, matrix.T, atol=1e-9)
    assert doc["variants"] == ["id_composed", "ood_both", "ood_sinusoid", "ood_trend"]