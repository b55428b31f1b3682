import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specbench
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


def _raw_parents(path, parents=6, length=64 + 32 * 7, names=None):
    """Long-format parents for ``prep``: AR(1) plus a seasonal term, every
    third a random walk, so the screen keeps some segments and drops others.
    Parent ``p`` is named ``names[p]``, or ``p{p}``."""
    rng = np.random.default_rng(11)
    rows = ["unique_id,ds,y"]
    for p in range(parents):
        noise = rng.normal(size=length)
        if p % 3 == 2:
            values = np.cumsum(noise)
        else:
            values = np.sin(2 * np.pi * np.arange(length) / (8 + p)) + 0.5 * noise
        name = names[p] if names else f"p{p}"
        rows += [f"{name},{i},{v!r}" for i, v in enumerate(values.tolist())]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


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


def test_prep_writes_what_load_csv_reads_back(tmp_path):
    raw = tmp_path / "raw.csv"
    names = [" lead", "trail ", "é-1", "日本", "a\tb", "p_5"]
    _raw_parents(raw, names=names)
    out = tmp_path / "prep"
    assert main(["prep", "--input", str(raw), "--out", str(out), *PREP_ARGS]) == 0
    parents = {ts.id: ts.values for ts in load_csv(raw)}
    selected = load_csv(out / "selected.csv")
    assert len(selected) == 10
    for ts in selected:
        name, _, offset = ts.id.rpartition("_")
        assert name in names
        start = int(offset)
        assert ts.values.tobytes() == parents[name][start : start + 64].tobytes()


def test_prep_rejects_a_quoted_id_before_writing(tmp_path, capsys):
    # csv quoting would read "p,0" as one id, which prep would then write
    # unquoted as a line of four fields
    raw = tmp_path / "raw.csv"
    _raw_parents(raw, names=['"p,0"', "p1", "p2", "p3", "p4", "p5"])
    out = tmp_path / "prep"
    assert main(["prep", "--input", str(raw), "--out", str(out), *PREP_ARGS]) == 1
    assert f"error: {raw}:2 has a quote character" in capsys.readouterr().err
    assert not (out / "selected.csv").exists()


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


@pytest.mark.parametrize("argv, flag", [
    (["gen", "--n", "0"], "--n"),
    (["gen", "--n", "-1"], "--n"),
    (["cka", "--steps", "0"], "--steps"),
    (["cka", "--horizon", "0"], "--horizon"),
    (["prep", "--input", "raw.csv", "--stride", "0"], "--stride"),
    (["prep", "--input", "raw.csv", "--nlags", "-3"], "--nlags"),
])
def test_count_flags_must_be_positive(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a positive integer" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, wording", [
    (["prep", "--input", "raw.csv", "--keep", "-1"], "--keep", "a non-negative integer"),
    (["prep", "--input", "raw.csv", "--keep", "two"], "--keep", "a non-negative integer"),
    (["cka", "--series", "1"], "--series", "an integer >= 2"),
    (["cka", "--series", "0"], "--series", "an integer >= 2"),
])
def test_bounded_flags_name_the_flag(tmp_path, capsys, argv, flag, wording):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 1
    assert f"argument {flag}: must be {wording}" in capsys.readouterr().err
    assert not out.exists()


def test_prep_keeps_nothing_with_keep_0(tmp_path):
    raw = tmp_path / "raw.csv"
    _raw_parents(raw)
    out = tmp_path / "prep"
    assert main(["prep", "--input", str(raw), "--out", str(out), "--keep", "0",
                 "--patch-len", "64", "--stride", "32", "--nlags", "8"]) == 0
    assert (out / "selected.csv").read_text() == "unique_id,ds,y\n"


@pytest.mark.parametrize("rows, named", [
    (["a,0,1.0", ",1,2.0"], "raw.csv:3 has an empty unique_id"),
    (["a,0,1.0", "a,1,nan"], "series 'a' has non-finite y nan at sample 1"),
    (["a,0,1.0", "b,0,2.0", "b,1,inf"], "series 'b' has non-finite y inf at sample 1"),
    (["a,0,1e400", "a,1,2.0"], "series 'a' has non-finite y inf at sample 0"),
    (["a,0,1.0", "b\udcff,0,2.0"], "raw.csv is not UTF-8 text: byte 0xff"),
])
def test_prep_rejects_bad_values_as_user_errors(tmp_path, capsys, rows, named):
    raw = tmp_path / "raw.csv"
    # surrogateescape writes "\udcff" as the lone byte 0xff
    text = "\n".join(["unique_id,ds,y", *rows]) + "\n"
    raw.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main(["prep", "--input", str(raw), "--out", str(tmp_path / "prep")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


_IMPORT_CONTRACT_CHILD = """
import json, sys
from pathlib import Path

def scipy_state():
    # numpy's own OpenBLAS is libscipy_openblas64_; scipy's is libscipy_openblas
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            names = {Path(line.split()[-1]).name for line in fh if "openblas" in line}
        blas = any(n.startswith("libscipy_openblas")
                   and not n.startswith("libscipy_openblas64") for n in names)
    except OSError:
        blas = None
    return {"module": "scipy" in sys.modules, "blas": blas,
            "special": "scipy.special" in sys.modules, "ma": "numpy.ma" in sys.modules}

from specbench.harness import cli
print(json.dumps(scipy_state()))

Path("exp.cfg").write_text(sys.argv[1])
assert cli.main(["run", "--config", "exp.cfg", "--out", "results"]) == 0
assert cli.main(["eval", "--results", "results", "--report", "report.json"]) == 0
report = json.loads(Path("report.json").read_text())
assert set(report["cd"]) == {"ID", "OOD"}, report["cd"]
assert all(0.0 <= cd["friedman_p"] <= 1.0 for cd in report["cd"].values())
print(json.dumps(scipy_state()))

import numpy as np
from specbench.models import Family, LossKind, ModelConfig, TrainConfig, fit
from specbench.series import ForecastTask, TimeSeries, make_windows
cfg = ModelConfig(family=Family.PATCH_TRANSFORMER, horizon=4, context_len=16, patch_len=8,
                  patch_stride=4, custom_dims=(12, 24, 1, 2), loss=LossKind.STUDENT_T)
t = np.arange(64)
train = make_windows(TimeSeries("s", np.sin(2 * np.pi * t / 16)), ForecastTask(16, 4))
model = fit(cfg, train, None, TrainConfig(max_steps=2, val_check_every=1, windows_batch=4))
assert [step for step, _, _ in model.history] == [1, 2]
assert all(np.isfinite(loss) for _, loss, _ in model.history)
print(json.dumps(scipy_state()))
"""

_STATISTICAL_ZOO_CFG = """
[task]
context_len = 48
horizon = 16

[run]
seeds = 1
""" + "".join(
    f'\n[dataset "{kind}"]\nkind = {kind}\nn_series = 2\nseed = 1\nlength = 320\n'
    for kind in ("sinusoid", "trend1", "trend2")
) + "".join(
    f'\n[model "{family.lower()}"]\nfamily = {family}\n'
    for family in ("NAIVE_LAST", "SES", "HOLT")
)


def test_commands_start_and_rank_without_scipy(tmp_path):
    # a fresh interpreter: other tests in this session import scipy first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(specbench.__file__).resolve().parent.parent),
                    env.get("PYTHONPATH", "")) if p
    )
    env["SPECBENCH_WORKERS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CONTRACT_CHILD, _STATISTICAL_ZOO_CFG],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported, ranked, student_t = [json.loads(line) for line in proc.stdout.splitlines()
                                   if line.startswith("{")]
    # after `import specbench.harness.cli`, and after a run and an eval
    # with Friedman and Wilcoxon-Holm over 3 models x 3 datasets
    for state in (imported, ranked):
        assert state["module"] is False and state["blas"] is not True
    # scipy used to import numpy.ma up front; a pool worker must not pay
    # for it now (np.unique imports it, and SES, HOLT and trend data ran)
    assert ranked["ma"] is False
    # only the Student-t loss's log-gamma terms import scipy
    assert student_t["special"] is True
