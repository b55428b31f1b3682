"""Acceptance suite: one test per exit criterion, each at its stated
tolerance and runtime budget. The conftest hook prints a PASS/FAIL/SKIP
line per criterion at the end of the run."""
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import specbench
from specbench import (
    ForecastTask,
    ScoreMatrix,
    TimeSeries,
    basis_win_report,
    dft,
    friedman,
    gen_sinusoid_dataset,
    holm_correct,
    linear_cka,
    make_windows,
    mae,
    partial_sum,
    reconstruct_full,
    split_windows,
    topk_basis_win,
    wilcoxon_signed_rank,
)
from specbench.evaluation import _signed_rank_statistic
from specbench.models import (
    DEFAULT_SEEDS,
    Family,
    LossKind,
    ModelConfig,
    ModelSize,
    SIZE_TABLE,
    TrainConfig,
    fit,
    predict,
)
from specbench.models.losses import huber_loss, mae_loss, mse_loss, student_t_nll
from specbench.models.networks import build_network
from specbench.optim import rng_stream
from specbench.preprocess import ACF_LAGS, ADF_ALPHA, PATCH_LEN, PATCH_STRIDE, adf_test
from specbench.series import Windows

from helpers import fd_gradcheck, kink_margin, kink_safe_targets, take

SYNTH_TASK = ForecastTask(context_len=256, horizon=192)
SPLIT_POINT = 1008


def _deadline(budget_s: float):
    start = time.perf_counter()
    return lambda: time.perf_counter() - start < budget_s


# -- 1. spectral correctness -----------------------------------------------------


def test_criterion_1_spectral_correctness():
    within = _deadline(5.0)
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(8, 257))
        y = rng.normal(size=n)
        dec = dft(y)
        # naive O(n^2) oracle, built from the definition on every call
        t = np.arange(n)
        naive = (np.exp(-2j * np.pi * np.outer(t, t) / n) @ y) / n
        assert np.abs(dec.coeffs - naive).max() < 1e-10
        assert np.abs(reconstruct_full(dec) - y).max() < 1e-9
        energy = float(y @ y)
        assert abs(energy - n * float(np.sum(np.abs(dec.coeffs) ** 2))) / energy < 1e-9
    assert within(), "criterion 1 exceeded its 5 s budget"


# -- 2. compositional split exactness ----------------------------------------------


def test_criterion_2_compositional_split_exactness():
    within = _deadline(10.0)
    dataset = gen_sinusoid_dataset(seed=1)
    assert len(dataset.composed) == 100
    h = SYNTH_TASK.horizon
    for series, parts in zip(dataset.composed, dataset.components):
        dec = dft(series.values)
        split = split_windows(series, SYNTH_TASK, SPLIT_POINT, dec=dec, k=2)
        # the runner's OOD train rows: each basis source's windows in turn,
        # and each source is one generator component
        expected = [make_windows(part, SYNTH_TASK, 1, (0, SPLIT_POINT - h)) for part in parts]
        per_source = len(expected[0])
        assert len(split.train) == 2 * per_source
        matched = []
        for i in range(2):
            rows = take(split.train, np.s_[i * per_source : (i + 1) * per_source])
            matched += [
                j for j, want in enumerate(expected)
                if np.abs(rows.contexts - want.contexts).max() < 1e-6
                and np.abs(rows.targets - want.targets).max() < 1e-6
            ]
        assert sorted(matched) == [0, 1]

        for anchor, target in zip(split.test.anchors, split.test.targets):
            bounds = (anchor, anchor + h)
            assert np.abs(partial_sum(dec, 2, bounds) - target).max() < 1e-6
    assert within(), "criterion 2 exceeded its 10 s budget"


# -- 3. metric fidelity -------------------------------------------------------------


def test_criterion_3_metric_fidelity():
    within = _deadline(5.0)
    dataset = gen_sinusoid_dataset(seed=1)
    for series in dataset.composed:
        dec = dft(series.values)
        windows = split_windows(series, SYNTH_TASK, SPLIT_POINT).test
        target, anchor = windows.targets[0], windows.anchors[0]
        bounds = (anchor, anchor + SYNTH_TASK.horizon)
        for k in (1, 2):
            yhat = partial_sum(dec, k, bounds)
            assert topk_basis_win(target, yhat, dec, k, bounds)
        report = basis_win_report(target, target, dec, bounds)
        assert report.k_max == 2
    assert within(), "criterion 3 exceeded its 5 s budget"


# -- 4. statistics oracle equivalence -----------------------------------------------


def _enumeration_oracle(a, b):
    stat = _signed_rank_statistic(a, b)
    if stat is None:
        return 1.0
    w_obs, ranks = stat
    le = ge = 0
    for signs in itertools.product((0, 1), repeat=len(ranks)):
        w = sum(r for s, r in zip(signs, ranks) if s)
        le += w <= w_obs
        ge += w >= w_obs
    return min(1.0, 2.0 * min(le, ge) / 2 ** len(ranks))


def test_criterion_4_statistics_oracles():
    within = _deadline(30.0)
    rng = np.random.default_rng(104)
    for _ in range(100):
        n = int(rng.integers(3, 13))
        a = rng.normal(size=n).round(1)
        b = rng.normal(size=n).round(1)
        assert wilcoxon_signed_rank(a, b) == _enumeration_oracle(a, b)

    assert holm_correct([0.01, 0.04, 0.03]) == pytest.approx([0.03, 0.06, 0.06])

    scores = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 4))
    result = friedman(ScoreMatrix(["a", "b", "c"], list("wxyz"), scores))
    assert result.statistic == pytest.approx(8.0, abs=1e-12)
    assert abs(result.p_value - math.exp(-4.0)) < 1e-6
    assert within(), "criterion 4 exceeded its 30 s budget"


# -- 5. gradient integrity ------------------------------------------------------------


def _tiny(family, **kwargs):
    base = dict(
        family=family, horizon=4, context_len=16, patch_len=8, patch_stride=4,
        mlp_hidden=12, mlp_depth=2, nbeats_hidden=10, nbeats_blocks=2,
        nbeats_depth=1, nhits_pool_rates=(4, 1), custom_dims=(12, 24, 1, 2),
    )
    base.update(kwargs)
    return ModelConfig(**base)


def test_criterion_5_gradient_integrity():
    within = _deadline(60.0)
    losses = {
        LossKind.MAE: mae_loss,
        LossKind.MSE: mse_loss,
        LossKind.HUBER: huber_loss,
    }
    configs = [
        _tiny(Family.NLINEAR),
        _tiny(Family.DLINEAR),
        _tiny(Family.MLP),
        _tiny(Family.NBEATS_LITE),
        _tiny(Family.NHITS_LITE),
    ] + [_tiny(Family.PATCH_TRANSFORMER, loss=loss) for loss in LossKind]
    for i, cfg in enumerate(configs):
        net = build_network(cfg, rng_stream(200 + i, "acceptance"))
        rng = np.random.default_rng(300 + i)

        def make_loss_fn(ctx, tgt, net=net, cfg=cfg):
            def loss_fn():
                pred = net.forward(ctx)
                if cfg.loss is LossKind.STUDENT_T:
                    return student_t_nll(tgt, *pred)
                return losses[cfg.loss](tgt, pred)

            return loss_fn

        # redraw the evaluation point until it sits clear of relu/absval
        # kinks; finite differences are meaningless on top of one
        loss_fn = None
        for _ in range(25):
            ctx = rng.normal(size=(3, cfg.context_len))
            if cfg.loss in (LossKind.MAE, LossKind.HUBER):
                tgt = kink_safe_targets(net.forward(ctx).data, rng)
            else:
                tgt = rng.normal(size=(3, cfg.horizon)) * 2.0 + 0.3
            loss_fn = make_loss_fn(ctx, tgt)
            if kink_margin(loss_fn) > 1e-3:
                break

        worst = fd_gradcheck(loss_fn, net.params, rng=np.random.default_rng(400 + i))
        assert worst < 1e-4, f"{cfg.family} / {cfg.loss}: rel err {worst:.2e}"
    assert within(), "criterion 5 exceeded its 60 s budget"


# -- 6. training smoke ----------------------------------------------------------------


def test_criterion_6_training_smoke():
    within = _deadline(15 * 60.0)
    dataset = gen_sinusoid_dataset(n_series=5, seed=1)
    splits = [split_windows(series, SYNTH_TASK, SPLIT_POINT, k=2) for series in dataset.composed]
    train = Windows.concat([split.train for split in splits])
    val = Windows.concat([split.valid for split in splits])
    tests = Windows.concat([take(split.test, [0]) for split in splits])
    naive_mae = float(
        np.mean([np.abs(t - c[-1]).mean() for c, t in zip(tests.contexts, tests.targets)])
    )

    budgets = {
        Family.MLP: dict(max_steps=800, windows_batch=64),
        Family.PATCH_TRANSFORMER: dict(max_steps=250, windows_batch=32),
    }
    for family, budget in budgets.items():
        cfg = ModelConfig(family=family, horizon=192, context_len=256)
        assert cfg.patch_len == 96 and cfg.patch_stride == 8
        for seed in DEFAULT_SEEDS:
            tc = TrainConfig(seed=seed, val_check_every=100, **budget)
            assert tc.max_steps <= 2000
            model = fit(cfg, train, val, tc)
            ood_mae = float(
                np.mean([mae(t, f) for t, f in zip(tests.targets, predict(model, tests.contexts))])
            )
            assert ood_mae < naive_mae, (
                f"{family.value} seed {seed}: {ood_mae:.3f} !< naive {naive_mae:.3f}"
            )
    assert within(), "criterion 6 exceeded its 15 min budget"


# -- 7. paper-anchored configuration ---------------------------------------------------


def test_criterion_7_configuration_anchors():
    dataset = gen_sinusoid_dataset(seed=1)
    assert len(dataset.composed) == 100
    assert all(len(s) == 1200 for s in dataset.composed)
    assert SYNTH_TASK.horizon == 192

    assert PATCH_LEN == 1056 and PATCH_STRIDE == 528
    assert ADF_ALPHA == 0.001 and ACF_LAGS == 48

    cfg = ModelConfig(family=Family.PATCH_TRANSFORMER, horizon=192)
    assert cfg.size is ModelSize.TINY
    assert (cfg.hidden, cfg.ff_dim, cfg.n_layers, cfg.n_heads) == (256, 1024, 4, 4)
    assert SIZE_TABLE[ModelSize.TINY] == (256, 1024, 4, 4)
    assert cfg.patch_len == 96 and cfg.patch_stride == 8
    assert cfg.context_len == 256
    assert TrainConfig().lr == 1e-4
    assert tuple(DEFAULT_SEEDS) == (1, 5, 10)

    from specbench.harness import parse_config

    parsed = parse_config(
        '[dataset "d"]\nkind = sinusoid\n[model "m"]\nfamily = NAIVE_LAST\n'
    )
    assert parsed.task.context_len == 256 and parsed.task.horizon == 192
    assert parsed.seeds == (1, 5, 10)
    assert parsed.datasets[0].n_series == 100 and parsed.datasets[0].length == 1200


# -- 8. CKA properties -------------------------------------------------------------------


def test_criterion_8_cka_properties():
    within = _deadline(1.0)
    rng = np.random.default_rng(108)
    X = rng.normal(size=(20, 6))
    assert linear_cka(X, X) == pytest.approx(1.0, abs=1e-12)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    assert linear_cka(X, X @ Q) == pytest.approx(1.0, abs=1e-8)
    assert linear_cka(X, 4.2 * X) == pytest.approx(1.0, abs=1e-8)
    Y = rng.normal(size=(20, 9))
    assert linear_cka(X, Y) == pytest.approx(linear_cka(Y, X), abs=1e-12)

    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    B = np.array([[2.0, 1.0], [0.0, 1.0], [1.0, 3.0]])
    Ac = A - A.mean(axis=0)
    Bc = B - B.mean(axis=0)
    expected = (
        np.linalg.norm(Ac.T @ Bc) ** 2
        / (np.linalg.norm(Ac.T @ Ac) * np.linalg.norm(Bc.T @ Bc))
    )
    assert linear_cka(A, B) == pytest.approx(expected, abs=1e-12)
    assert within(), "criterion 8 exceeded its 1 s budget"


# -- 9. preprocessing oracle ----------------------------------------------------------------


def test_criterion_9_preprocessing_oracle():
    adfuller = pytest.importorskip("statsmodels.tsa.stattools").adfuller
    within = _deadline(60.0)
    rng = np.random.default_rng(109)
    for i in range(50):
        x = rng.normal(size=500)
        if i % 2:
            x = np.cumsum(x)
        mine = adf_test(x)
        stat, pval, lag, *_ = adfuller(x, regression="c", autolag="AIC")
        assert abs(mine.statistic - stat) < 1e-6
        assert mine.stationary == bool(pval < ADF_ALPHA)
    assert within(), "criterion 9 exceeded its 60 s budget"


def test_criterion_9_stationarity_rejection_rate():
    within = _deadline(60.0)
    correct = 0
    trials = 200
    rng = np.random.default_rng(110)
    for i in range(trials):
        noise = rng.normal(size=1056)
        if i % 2 == 0:
            correct += adf_test(noise).stationary
        else:
            correct += not adf_test(np.cumsum(noise)).stationary
    assert correct / trials >= 0.95
    assert within(), "criterion 9 exceeded its 60 s budget"


# -- 10. determinism --------------------------------------------------------------------------


_DETERMINISM_CFG = """
[task]
context_len = 48
horizon = 16
k = 2

[run]
seeds = 1
max_steps = 60
val_check_every = 20
windows_batch = 16

[dataset "gen"]
kind = csv
path = data/composed.csv
k = 2

[model "naive"]
family = NAIVE_LAST

[model "nlin"]
family = NLINEAR
"""


def test_criterion_10_pipeline_determinism(tmp_path):
    within = _deadline(20 * 60.0)
    # the children run from a temporary root, where a relative PYTHONPATH
    # no longer resolves; put the directory of the package this process
    # imported first, so they test the same specbench
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(specbench.__file__).resolve().parent.parent),
                    env.get("PYTHONPATH", "")) if p
    )

    def pipeline(tag: str, workers: str | None) -> tuple[bytes, dict[str, dict]]:
        # identical relative-path configs, executed from each pipeline's
        # own root, so run ids and file names must agree byte for byte
        run_env = {k: v for k, v in env.items() if k != "SPECBENCH_WORKERS"}
        if workers is not None:
            run_env["SPECBENCH_WORKERS"] = workers
        root = tmp_path / tag
        root.mkdir()
        (root / "exp.cfg").write_text(_DETERMINISM_CFG)
        for args in (
            ["gen", "--kind", "sinusoid", "--n", "2", "--seed", "1",
             "--length", "320", "--out", "data"],
            ["run", "--config", "exp.cfg", "--out", "results"],
            ["eval", "--results", "results", "--report", "report.json"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "specbench.harness.cli", *args],
                capture_output=True, text=True, cwd=root, env=run_env,
            )
            assert proc.returncode == 0, proc.stderr
        run_payloads = {}
        for path in sorted((root / "results").glob("*.json")):
            doc = json.loads(path.read_text())
            run_payloads[path.name] = doc["result"]
        return (root / "report.json").read_bytes(), run_payloads

    # the serial runner, then the default: a pool of one worker per CPU
    report_a, runs_a = pipeline("first", "1")
    report_b, runs_b = pipeline("second", None)
    assert report_a == report_b, "aggregated report bytes differ between runs"
    assert runs_a == runs_b, "per-run result payloads differ between runs"
    assert within(), "criterion 10 exceeded its 20 min budget"
