import dataclasses
import json

import numpy as np
import pytest

from specbench.errors import ConfigError
from specbench.harness import (
    RunResult,
    aggregate,
    cd_diagram_svg,
    load_config,
    parse_config,
    plot_forecast,
    run_id,
    run_matrix,
)
from specbench.evaluation import ScoreMatrix, cd_analysis
from specbench.harness import runner
from specbench.models import Family, ModelConfig, ModelSize, Tokenization, TrainConfig

CFG_TEXT = """
# tiny experiment
[task]
context_len = 48
horizon = 16
k = 2

[run]
seeds = 1,5
max_steps = 40
val_check_every = 20
windows_batch = 16

[dataset "sins"]
kind = sinusoid
n_series = 2
seed = 3
length = 320

[model "naive"]
family = NAIVE_LAST

[model "nlin"]
family = NLINEAR
"""


def test_parse_config_round():
    cfg = parse_config(CFG_TEXT)
    assert cfg.task.context_len == 48 and cfg.task.horizon == 16
    assert cfg.seeds == (1, 5)
    assert [d.name for d in cfg.datasets] == ["sins"]
    assert cfg.datasets[0].k == 2
    assert [m.name for m in cfg.models] == ["naive", "nlin"]
    assert cfg.train.max_steps == 40


def test_parse_config_model_axes():
    cfg = parse_config(
        CFG_TEXT
        + """
[model "pt"]
family = PATCH_TRANSFORMER
tokenization = PATCH
patch_len = 16
patch_stride = 8
size = TINY
"""
    )
    spec = cfg.models[-1]
    assert spec.family is Family.PATCH_TRANSFORMER
    model_cfg = spec.materialize(cfg.task)
    assert model_cfg.patch_len == 16
    assert model_cfg.size is ModelSize.TINY
    assert model_cfg.tokenization is Tokenization.PATCH
    assert model_cfg.context_len == 48 and model_cfg.horizon == 16


@pytest.mark.parametrize(
    "mutation",
    [
        "[task]\nbogus_key = 1\n",
        "[dataset \"x\"]\nkind = martian\n",
        "[model \"m\"]\ntokenization = PATCH\n",  # missing family
        "key_without_section = 1\n",
        "[dataset]\nkind = csv\n",  # missing label
        "[task]\ncontext_len = not_a_number\n",
        "[task]\nk = 3\n",  # second [task] section
        "[run]\nmax_steps = 5\n",  # second [run] section
        "[model \"m\"]\nfamily = NLINEAR\nhorizon = 8\n",  # the task sets it
        "[model \"m\"]\nfamily = MLP\ncustom_dims = 8,16\n",  # needs four values
    ],
)
def test_parse_config_rejects_malformed(mutation):
    with pytest.raises(ConfigError):
        parse_config(CFG_TEXT + mutation)


@pytest.mark.parametrize("section", ["task", "run"])
def test_parse_config_rejects_labelled_task_and_run(section):
    # a rewrite, not an append: CFG_TEXT already holds both sections
    with pytest.raises(ConfigError, match="label"):
        parse_config(CFG_TEXT.replace(f"[{section}]", f'[{section} "x"]'))


def test_parse_config_task_k_applies_regardless_of_section_order():
    text = """
[dataset "before"]
kind = sinusoid
[dataset "own"]
kind = sinusoid
k = 1
[model "naive"]
family = NAIVE_LAST
[task]
k = 3
"""
    cfg = parse_config(text)
    assert [d.k for d in cfg.datasets] == [3, 1]


def test_parse_config_run_keys_are_train_fields():
    with pytest.raises(ConfigError, match="seed"):  # set per run by seeds
        parse_config(CFG_TEXT.replace("seeds = 1,5", "seed = 1"))
    cfg = parse_config(CFG_TEXT.replace("windows_batch = 16", "windows_batch = 16\nlr = 0.01"))
    assert cfg.train == TrainConfig(lr=0.01, windows_batch=16, max_steps=40, val_check_every=20)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def _write_cfg(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CFG_TEXT)
    return path


def test_run_matrix_cardinality_and_cache(tmp_path):
    cfg = load_config(_write_cfg(tmp_path))
    out = tmp_path / "results"
    results = run_matrix(cfg, out_dir=out)
    # 1 dataset x 2 models x 2 seeds x 2 modes
    assert len(results) == 8
    assert all(r.error is None for r in results)
    files = sorted(out.glob("*.json"))
    assert len(files) == 8

    # cache hit: bytes untouched on re-run
    stamps = {f.name: f.read_bytes() for f in files}
    events = []
    run_matrix(cfg, out_dir=out, progress=lambda **kw: events.append(kw["event"]))
    assert set(events) == {"cached"}
    for f in sorted(out.glob("*.json")):
        assert stamps[f.name] == f.read_bytes()

    # deleting one file recomputes exactly that run
    victim = files[3]
    victim_id = victim.stem
    victim.unlink()
    events.clear()
    rerun = run_matrix(cfg, out_dir=out, progress=lambda **kw: events.append(kw))
    recomputed = [e for e in events if e["event"] == "done"]
    assert len(recomputed) == 1 and recomputed[0]["run_id"] == victim_id
    assert len(rerun) == 8


def test_id_and_ood_share_test_windows(tmp_path):
    cfg = load_config(_write_cfg(tmp_path))
    out = tmp_path / "results"
    results = run_matrix(cfg, out_dir=out)
    by_key = {(r.model, r.seed, r.mode): r for r in results}
    for model in ("naive",):  # parameter-free: identical predictions either mode
        for seed in (1, 5):
            id_run = by_key[(model, seed, "ID")]
            ood_run = by_key[(model, seed, "OOD")]
            assert id_run.per_series_mae == ood_run.per_series_mae
            assert id_run.example["target"] == ood_run.example["target"]
            assert id_run.example["context"] == ood_run.example["context"]


def test_run_result_roundtrip(tmp_path):
    result = RunResult(
        run_id="abc", dataset="d", model="m", seed=1, mode="ID",
        mae=1.5, k_max=2.0, threshold_pass=True, n_series=2,
        per_series_mae=[1.0, 2.0], per_series_k_max=[2.0, 2.0],
        param_count=10, flop_estimate=20,
        example={"series": "s", "anchor": 3, "context": [1.0], "target": [2.0], "forecast": [2.5]},
        wall_time_s=0.25,
    )
    back = RunResult.from_json(result.to_json())
    assert back == result


def test_failed_runs_are_recorded_not_raised(tmp_path):
    text = CFG_TEXT.replace("context_len = 48", "context_len = 290")
    # context 290 on a 320-long series leaves no room: every run errors
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    cfg = load_config(path)
    results = run_matrix(cfg, out_dir=tmp_path / "res")
    assert len(results) == 8
    assert all(r.error is not None for r in results)
    report = aggregate(tmp_path / "res")
    assert len(report["errors"]) == 8


def test_aggregate_stats(tmp_path):
    cfg = load_config(_write_cfg(tmp_path))
    out = tmp_path / "results"
    run_matrix(cfg, out_dir=out)
    report = aggregate(out)
    assert report["missing_cells"] == []
    cell = report["cells"]["sins|naive|ID"]
    assert cell["n_seeds"] == 2 and cell["seeds"] == [1, 5]
    # population std over seeds
    runs = [RunResult.from_json(p.read_text()) for p in out.glob("*.json")]
    naive_id = sorted(
        [r for r in runs if r.model == "naive" and r.mode == "ID"], key=lambda r: r.seed
    )
    maes = np.array([r.mae for r in naive_id])
    assert cell["mae_mean"] == pytest.approx(maes.mean())
    assert cell["mae_std"] == pytest.approx(float(np.sqrt(((maes - maes.mean()) ** 2).mean())))
    # two models: ranks exist, cd needs >= 3 methods
    assert report["cd"] == {}
    assert set(report["avg_ranks"]) == {"ID", "OOD"}


def test_aggregate_seed_mean_then_rank(tmp_path):
    # hand-written run files: mean-over-seeds decides the rank
    out = tmp_path / "res"
    out.mkdir()
    specs = [
        ("m1", 1, 1.0), ("m1", 2, 3.0),   # mean 2.0
        ("m2", 1, 1.9), ("m2", 2, 2.0),   # mean 1.95 -> better
    ]
    for model, seed, value in specs:
        rr = RunResult(
            run_id=f"{model}-{seed}", dataset="d", model=model, seed=seed,
            mode="ID", mae=value, k_max=0.0, threshold_pass=False, n_series=1,
            per_series_mae=[value], per_series_k_max=[0.0],
        )
        (out / f"{model}-{seed}.json").write_text(rr.to_json())
    report = aggregate(out)
    ranks = report["avg_ranks"]["ID"]
    assert ranks["m2"] == 1.0 and ranks["m1"] == 2.0
    assert report["top3_win_counts"]["m1|ID"] == 1  # both in top 3 of 2 models


def test_context_length_ablation_windows_follow_model(tmp_path):
    text = """
[task]
context_len = 48
horizon = 16
[run]
seeds = 1
max_steps = 10
val_check_every = 5
windows_batch = 8
[dataset "s"]
kind = sinusoid
n_series = 1
seed = 1
length = 320
[model "short"]
family = NLINEAR
context_len = 32
[model "long"]
family = NLINEAR
context_len = 64
"""
    path = tmp_path / "ctx.cfg"
    path.write_text(text)
    results = run_matrix(load_config(path), out_dir=tmp_path / "res")
    assert all(r.error is None for r in results)
    by_model = {(r.model, r.mode): r for r in results}
    short = by_model[("short", "ID")]
    long = by_model[("long", "ID")]
    assert len(short.example["context"]) == 32
    assert len(long.example["context"]) == 64
    # same anchor and targets regardless of context length
    assert short.example["anchor"] == long.example["anchor"]
    assert short.example["target"] == long.example["target"]


def test_matrix_cardinality_two_datasets_three_models_three_seeds(tmp_path):
    text = """
[task]
context_len = 24
horizon = 8
[run]
seeds = 1,5,10
max_steps = 5
[dataset "s1"]
kind = sinusoid
n_series = 1
seed = 1
length = 160
[dataset "s2"]
kind = sinusoid
n_series = 1
seed = 2
length = 160
[model "naive"]
family = NAIVE_LAST
[model "snaive"]
family = SEASONAL_NAIVE
[model "ses"]
family = SES
"""
    path = tmp_path / "m.cfg"
    path.write_text(text)
    results = run_matrix(load_config(path), out_dir=tmp_path / "res")
    assert len(results) == 2 * 3 * 3 * 2  # datasets x models x seeds x modes = 36
    assert all(r.error is None for r in results)


def test_aggregate_population_std_over_three_seeds(tmp_path):
    out = tmp_path / "res"
    out.mkdir()
    for seed, value in ((1, 1.0), (5, 2.0), (10, 3.0)):
        rr = RunResult(
            run_id=f"m-{seed}", dataset="d", model="m", seed=seed, mode="ID",
            mae=value, k_max=0.0, threshold_pass=False, n_series=1,
            per_series_mae=[value], per_series_k_max=[0.0],
        )
        (out / f"m-{seed}.json").write_text(rr.to_json())
    rr = RunResult(
        run_id="m2-1", dataset="d", model="m2", seed=1, mode="ID",
        mae=9.0, k_max=0.0, threshold_pass=False, n_series=1,
        per_series_mae=[9.0], per_series_k_max=[0.0],
    )
    (out / "m2-1.json").write_text(rr.to_json())
    report = aggregate(out)
    cell = report["cells"]["d|m|ID"]
    assert cell["mae_mean"] == pytest.approx(2.0)
    assert cell["mae_std"] == pytest.approx(np.sqrt(2.0 / 3.0))  # denominator n


def test_plot_forecast_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(90)
    context = rng.normal(size=32)
    target = rng.normal(size=8)
    forecasts = {"m1": target + 0.1, "m2": target - 0.2}
    a = plot_forecast(context, target, forecasts, path=tmp_path / "a.svg", title="t")
    b = plot_forecast(context, target, forecasts, path=tmp_path / "b.svg", title="t")
    assert a == b
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    assert a.count("<polyline") == 2 + len(forecasts)
    # legend: ground truth + one entry per model
    assert a.count("<text") >= 1 + len(forecasts)


def test_plot_forecast_empty_forecast_set():
    svg = plot_forecast(np.arange(10.0), np.arange(4.0), {})
    assert svg.count("<polyline") == 2


def test_cd_diagram_svg_renders_groups():
    D = 12
    alt = np.where(np.arange(D) % 2 == 0, 0.2, -0.2)
    base = np.zeros(D)
    scores = np.stack([base, base + alt, base + 3.0, base + 3.0 + alt])
    cd = cd_analysis(ScoreMatrix(list("abcd"), [f"d{i}" for i in range(D)], scores))
    svg = cd_diagram_svg(cd)
    assert svg.count('stroke-width="4"') == 2  # two thick group bars
    for name in "abcd":
        assert name in svg


def test_worker_pool_matches_serial(tmp_path, monkeypatch):
    cfg = load_config(_write_cfg(tmp_path))
    serial_events, pooled_events = [], []
    serial = run_matrix(cfg, out_dir=tmp_path / "serial",
                        progress=lambda **kw: serial_events.append(kw))
    monkeypatch.setenv("SPECBENCH_WORKERS", "2")
    pooled = run_matrix(cfg, out_dir=tmp_path / "pooled",
                        progress=lambda **kw: pooled_events.append(kw))

    def shapes(events):
        return {(e["event"], tuple(sorted(e))) for e in events}

    assert shapes(serial_events) == shapes(pooled_events) == {
        ("run", ("dataset", "event", "mode", "model", "seed")),
        ("done", ("error", "event", "mae", "run_id")),
    }
    assert len(serial_events) == len(pooled_events) == 2 * len(serial)
    # the serial runner reports each run as it goes; the pool takes every
    # run before the first finishes
    assert [e["event"] for e in serial_events] == ["run", "done"] * len(serial)
    assert [e["event"] for e in pooled_events] == ["run"] * len(serial) + ["done"] * len(serial)

    def cells(events):
        return sorted(tuple(sorted(e.items())) for e in events if e["event"] == "run")

    assert cells(serial_events) == cells(pooled_events)
    by_id_serial = {r.run_id: r for r in serial}
    by_id_pooled = {r.run_id: r for r in pooled}
    assert by_id_serial.keys() == by_id_pooled.keys()
    for rid, a in by_id_serial.items():
        b = by_id_pooled[rid]
        assert a.per_series_mae == b.per_series_mae
        assert a.per_series_k_max == b.per_series_k_max
        assert a.example == b.example


def test_run_id_stability(tmp_path):
    cfg = load_config(_write_cfg(tmp_path))
    spec, model = cfg.datasets[0], cfg.models[0]
    a = run_id(cfg, spec, model, 1, "ID")
    b = run_id(cfg, spec, model, 1, "ID")
    assert a == b and len(a) == 16
    assert run_id(cfg, spec, model, 5, "ID") != a
    assert run_id(cfg, spec, model, 1, "OOD") != a


def test_run_id_hashes_materialized_model_config(tmp_path, monkeypatch):
    cfg = load_config(_write_cfg(tmp_path))
    spec, model = cfg.datasets[0], cfg.models[1]
    base = run_id(cfg, spec, model, 1, "ID")
    # an override equal to the default is the same run as no override
    same = dataclasses.replace(model, overrides={"patch_len": 96, "mlp_hidden": 512})
    assert run_id(cfg, spec, same, 1, "ID") == base
    assert run_id(cfg, spec, dataclasses.replace(model, overrides={"mlp_hidden": 64}), 1, "ID") != base
    # a changed default is a new run, so stale run files are not reused
    mlp_hidden = next(f for f in dataclasses.fields(ModelConfig) if f.name == "mlp_hidden")
    monkeypatch.setattr(mlp_hidden, "default", 64)
    assert run_id(cfg, spec, model, 1, "ID") != base


def test_run_id_changes_with_result_schema(tmp_path, monkeypatch):
    cfg = load_config(_write_cfg(tmp_path))
    cells = [
        (spec, model, seed, mode)
        for spec in cfg.datasets for model in cfg.models
        for seed in cfg.seeds for mode in ("ID", "OOD")
    ]
    before = [run_id(cfg, *cell) for cell in cells]
    monkeypatch.setattr(runner, "RESULT_SCHEMA", runner.RESULT_SCHEMA + 1)
    after = [run_id(cfg, *cell) for cell in cells]
    assert len(set(before)) == len(cells)
    assert all(a != b for a, b in zip(before, after))


def test_run_id_changes_with_every_train_field_but_seed(tmp_path):
    cfg = load_config(_write_cfg(tmp_path))
    spec, model = cfg.datasets[0], cfg.models[0]
    base = run_id(cfg, spec, model, 1, "ID")
    assert run_id(dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, seed=9)),
                  spec, model, 1, "ID") == base
    for f in dataclasses.fields(TrainConfig):
        if f.name == "seed":
            continue
        value = getattr(cfg.train, f.name)
        changed = dataclasses.replace(cfg.train, **{f.name: value * 2 if value else 0.5})
        assert run_id(dataclasses.replace(cfg, train=changed), spec, model, 1, "ID") != base, f.name


def test_invalid_model_config_becomes_error_runs(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CFG_TEXT + '\n[model "long_patch"]\nfamily = PATCH_TRANSFORMER\npatch_len = 64\n')
    results = run_matrix(load_config(path), out_dir=tmp_path / "res")
    bad = [r for r in results if r.model == "long_patch"]
    assert len(bad) == 4 and all(r.error.startswith("PatchTooLong") for r in bad)
    assert all(r.error is None for r in results if r.model != "long_patch")
    assert len({r.run_id for r in results}) == len(results)


def test_truncated_run_file_is_recomputed(tmp_path):
    cfg = load_config(_write_cfg(tmp_path))
    out = tmp_path / "results"
    first = run_matrix(cfg, out_dir=out)
    victim = out / f"{first[2].run_id}.json"
    payload = json.loads(victim.read_text())["result"]
    victim.write_bytes(victim.read_bytes()[:40])  # as left by a killed writer
    events = []
    rerun = run_matrix(cfg, out_dir=out, progress=lambda **kw: events.append(kw))
    recomputed = [e["run_id"] for e in events if e["event"] == "done"]
    assert recomputed == [first[2].run_id]
    assert json.loads(victim.read_text())["result"] == payload
    assert [r.run_id for r in rerun] == [r.run_id for r in first]
    assert sorted(p.name for p in out.iterdir()) == sorted(f"{r.run_id}.json" for r in first)


def test_aggregate_two_datasets_three_models(tmp_path):
    out = tmp_path / "res"
    out.mkdir()
    for d, dataset in enumerate(("d1", "d2")):
        for m, model in enumerate(("m1", "m2", "m3")):
            value = 1.0 + m + 0.5 * d
            rr = RunResult(
                run_id=f"{dataset}-{model}", dataset=dataset, model=model, seed=1,
                mode="ID", mae=value, k_max=0.0, threshold_pass=False, n_series=1,
                per_series_mae=[value], per_series_k_max=[0.0],
            )
            (out / f"{dataset}-{model}.json").write_text(rr.to_json())
    report = aggregate(out)
    assert report["avg_ranks"]["ID"] == {"m1": 1.0, "m2": 2.0, "m3": 3.0}
    assert report["cd"] == {}  # the signed-rank test needs three datasets
