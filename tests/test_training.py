import hashlib
import tracemalloc

import numpy as np
import pytest

from specbench import ForecastTask, Windows, gen_sinusoid_dataset, split_windows
from specbench.errors import DivergedLoss, UnsupportedFamily
from specbench.models import (
    Attention,
    Decomposition,
    Family,
    Head,
    LossKind,
    ModelConfig,
    ModelSize,
    PosEncoding,
    Scaler,
    Tokenization,
    TrainConfig,
    apply_scaler,
    embed,
    fit,
    fit_scaler,
    invert_scaler,
    predict,
)
from specbench.models import networks, training
from specbench.models.networks import build_network
from specbench.models.losses import mae_loss, mse_loss, huber_loss, student_t_nll
from specbench.optim import rng_stream

from helpers import (
    backward_keeping_every_gradient,
    fd_gradcheck,
    kink_margin,
    kink_safe_targets,
    stack_windows,
    take,
)


def _sine_windows(count, l, h, seed=0, freq=16.0, noise=0.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        t0 = rng.integers(0, 1000)
        t = np.arange(t0, t0 + l + h)
        seq = 3.0 * np.sin(2 * np.pi * t / freq) + 1.5
        if noise:
            seq = seq + rng.normal(size=seq.size) * noise
        out.append((seq[:l], seq[l:], int(t0 + l)))
    return stack_windows(out)


def _tiny_cfg(family, **kwargs):
    defaults = dict(
        family=family,
        horizon=4,
        context_len=16,
        patch_len=8,
        patch_stride=4,
        size=ModelSize.TINY,
        mlp_hidden=12,
        mlp_depth=2,
        nbeats_hidden=10,
        nbeats_blocks=2,
        nbeats_depth=1,
        nhits_pool_rates=(4, 1),
    )
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def _tiny_transformer(**kwargs):
    return _tiny_cfg(Family.PATCH_TRANSFORMER, custom_dims=(12, 24, 1, 2), **kwargs)


def _loss_graph(kind):
    return {
        LossKind.MAE: mae_loss,
        LossKind.MSE: mse_loss,
        LossKind.HUBER: huber_loss,
    }[kind]


def _gradcheck_family(cfg, seed=3):
    net = build_network(cfg, rng_stream(seed, "gradcheck"))
    rng = np.random.default_rng(seed)

    def make_loss_fn(ctx, tgt):
        def loss_fn():
            pred = net.forward(ctx)
            if cfg.loss is LossKind.STUDENT_T:
                mu, sigma, nu = pred
                return student_t_nll(tgt, mu, sigma, nu)
            return _loss_graph(cfg.loss)(tgt, pred)

        return loss_fn

    loss_fn = None
    for _ in range(25):  # kink-free evaluation point for the FD oracle
        ctx = rng.normal(size=(3, cfg.context_len))
        if cfg.loss in (LossKind.MAE, LossKind.HUBER):
            tgt = kink_safe_targets(net.forward(ctx).data, rng)
        else:
            tgt = rng.normal(size=(3, cfg.horizon)) * 2.0 + 0.3
        loss_fn = make_loss_fn(ctx, tgt)
        if kink_margin(loss_fn) > 1e-3:
            break

    return fd_gradcheck(loss_fn, net.params, rng=np.random.default_rng(seed + 1))


@pytest.mark.parametrize(
    "family",
    [Family.NLINEAR, Family.DLINEAR, Family.MLP, Family.NBEATS_LITE, Family.NHITS_LITE],
)
def test_gradcheck_simple_families(family):
    assert _gradcheck_family(_tiny_cfg(family)) < 1e-4


@pytest.mark.parametrize("loss", list(LossKind))
def test_gradcheck_transformer_losses(loss):
    cfg = _tiny_transformer(loss=loss)
    assert _gradcheck_family(cfg) < 1e-4


@pytest.mark.parametrize(
    "axes",
    [
        dict(tokenization=Tokenization.NONE, patch_len=1, patch_stride=1),
        dict(tokenization=Tokenization.BINNING, patch_len=1, patch_stride=1),
        dict(tokenization=Tokenization.LAGS, patch_len=1, patch_stride=1),
        dict(attention=Attention.CAUSAL),
        dict(head=Head.RESIDUAL),
        dict(pos_encoding=PosEncoding.SINCOS),
        dict(pos_encoding=PosEncoding.RELATIVE),
        dict(pos_encoding=PosEncoding.ROPE),
        dict(decomposition=Decomposition.MOVING_AVG),
        dict(scaler=Scaler.ROBUST),
    ],
)
def test_gradcheck_transformer_axes(axes):
    cfg = _tiny_transformer(**axes)
    assert _gradcheck_family(cfg) < 1e-4


def _two_layer_transformer(**kwargs):
    return _tiny_cfg(Family.PATCH_TRANSFORMER, custom_dims=(12, 24, 2, 2), **kwargs)


# SHA-256 of each network's initial parameter values at seed 1, in
# declaration order, names excluded. Renaming a parameter keeps these; a
# changed shape, draw order or initializer moves them.
@pytest.mark.parametrize(
    "cfg, expected",
    [
        pytest.param(_tiny_cfg(Family.NLINEAR),
                     "6723d6d0dbeb36f4894a752daba8c04a2e3b8a9ff1e1ce5389d7b778ba854c10",
                     id="NLINEAR"),
        pytest.param(_tiny_cfg(Family.DLINEAR),
                     "a083e378e52606167f81f8331590fa702d2837d7c27f7d84882a02f124ee53b1",
                     id="DLINEAR"),
        pytest.param(_tiny_cfg(Family.MLP),
                     "9c048c43d288bb168beb714cb5883a856123e2e48500acd45d2abe1963e00f4f",
                     id="MLP"),
        pytest.param(_tiny_cfg(Family.NBEATS_LITE),
                     "ecd1b5ecca51533e8c2fd6aaa12759faa058b841dcbc97cfcc16f9e0f319b974",
                     id="NBEATS_LITE"),
        pytest.param(_tiny_cfg(Family.NHITS_LITE),
                     "b20f2e7952011894b758eb391e09eebc68592fd422d30792e535c8ceb8ac369f",
                     id="NHITS_LITE"),
        pytest.param(_two_layer_transformer(),
                     "32974bb094e54f0f09f6320f8235d088a91b1e36e02b5f3d4e350b33ff4689a7",
                     id="transformer"),
        pytest.param(_two_layer_transformer(
                         head=Head.RESIDUAL, loss=LossKind.STUDENT_T,
                         decomposition=Decomposition.MOVING_AVG, pos_encoding=PosEncoding.ROPE),
                     "422a218d4bd22e8c5d55205d316dcc561cac1414e2f84fec05663621226e4bbf",
                     id="transformer-residual"),
        pytest.param(_two_layer_transformer(tokenization=Tokenization.BINNING),
                     "875eeca22cd536ee8b6d41e5461e1fca67177fa29d639a3d9b76af998e424ab3",
                     id="transformer-binning"),
    ],
)
def test_initial_parameters_are_frozen(cfg, expected):
    net = build_network(cfg, rng_stream(1, f"init/{cfg.family.value}"))
    digest = hashlib.sha256()
    for tensor in net.params.values():
        digest.update(tensor.data.tobytes())
    assert digest.hexdigest() == expected


@pytest.mark.parametrize("family", [Family.NBEATS_LITE, Family.NHITS_LITE])
def test_residual_stack_skips_the_last_blocks_backcast(monkeypatch, family):
    # no block reads the residual after the last one; its backcast keeps its
    # parameters, so the init streams and the parameter count do not move
    applied = []
    inner = networks._apply

    def spy(params, name, x):
        applied.append(name)
        return inner(params, name, x)

    monkeypatch.setattr(networks, "_apply", spy)
    cfg = _tiny_cfg(family, nbeats_blocks=3, nhits_pool_rates=(4, 2, 1))
    net = build_network(cfg, rng_stream(1, "spy"))
    net.forward(np.random.default_rng(2).normal(size=(2, cfg.context_len)))
    assert [n for n in applied if n.endswith("backcast")] == ["block0.backcast", "block1.backcast"]
    assert [n for n in applied if n.endswith("forecast")] == [f"block{i}.forecast" for i in range(3)]
    assert {"block2.backcast.w", "block2.backcast.b"} <= net.params.keys()


def test_fit_determinism_bit_identical():
    train = _sine_windows(24, 16, 4, seed=1)
    valid = _sine_windows(4, 16, 4, seed=2)
    cfg = _tiny_cfg(Family.MLP)
    tc = TrainConfig(max_steps=30, val_check_every=10, windows_batch=8, seed=5)
    a = fit(cfg, train, valid, tc)
    b = fit(cfg, train, valid, tc)
    assert a.params.keys() == b.params.keys()
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name])
    assert a.history == b.history


def test_dropout_fit_unchanged_by_dropping_constant_gradients(monkeypatch):
    train = _sine_windows(24, 16, 4, seed=1, noise=0.2)
    valid = _sine_windows(4, 16, 4, seed=2, noise=0.2)
    cfg = _tiny_transformer()
    tc = TrainConfig(max_steps=6, val_check_every=3, windows_batch=8, seed=5, dropout=0.1)
    lean = fit(cfg, train, valid, tc)
    monkeypatch.setattr(training, "backward", backward_keeping_every_gradient)
    kept = fit(cfg, train, valid, tc)
    assert lean.history == kept.history
    for name in lean.params:
        np.testing.assert_array_equal(lean.params[name], kept.params[name])


def test_fit_seed_changes_parameters():
    train = _sine_windows(24, 16, 4, seed=1)
    valid = _sine_windows(4, 16, 4, seed=2)
    cfg = _tiny_cfg(Family.MLP)
    a = fit(cfg, train, valid, TrainConfig(max_steps=20, val_check_every=10, windows_batch=8, seed=1))
    b = fit(cfg, train, valid, TrainConfig(max_steps=20, val_check_every=10, windows_batch=8, seed=2))
    assert any(not np.array_equal(a.params[n], b.params[n]) for n in a.params)


def test_early_stopping_restores_best_validation():
    train = _sine_windows(30, 16, 4, seed=3, noise=0.3)
    valid = _sine_windows(6, 16, 4, seed=4, noise=0.3)
    cfg = _tiny_cfg(Family.MLP)
    tc = TrainConfig(max_steps=400, val_check_every=10, patience=3, windows_batch=8, seed=7, lr=5e-3)
    model = fit(cfg, train, valid, tc)
    assert model.history, "validation history must be recorded"
    best_recorded = min(v for _, _, v in model.history)
    # recompute validation loss at the returned parameters
    from specbench.models.training import _batch_loss

    net = model.network
    val_loss = _batch_loss(net, cfg, valid.contexts, valid.targets).data.item()
    assert val_loss == pytest.approx(best_recorded, abs=1e-12)
    assert model.history == sorted(model.history, key=lambda rec: rec[0])


def test_mlp_converges_on_noiseless_basis_sinusoid():
    # threshold 0.05 x amplitude, from the pilot run; 500 steps suffice
    amp, n = 7.0, 1200
    from specbench.series import ForecastTask, TimeSeries, make_windows

    basis = TimeSeries(id="b", values=amp * np.sin(2 * np.pi * 9 * np.arange(n) / n))
    task = ForecastTask(256, 192)
    train = make_windows(basis, task, 1, (0, 816))
    val = make_windows(basis, task, 1, (816 - 192 - 256, 1008))
    cfg = ModelConfig(family=Family.MLP, horizon=192, context_len=256)
    tc = TrainConfig(max_steps=500, val_check_every=100, windows_batch=64, seed=1)
    model = fit(cfg, train, val, tc)
    sample = take(train, np.s_[::25])
    train_mae = float(
        np.mean([np.abs(t - f).mean() for t, f in zip(sample.targets, predict(model, sample.contexts))])
    )
    assert train_mae < 0.05 * amp


def test_fit_rejects_mismatched_window_shapes():
    good = _sine_windows(6, 16, 4, seed=20)
    bad = _sine_windows(2, 12, 4, seed=21)
    cfg = _tiny_cfg(Family.MLP)
    with pytest.raises(ValueError):
        fit(cfg, bad, None, TrainConfig(max_steps=2))
    with pytest.raises(ValueError):
        fit(cfg, good, bad, TrainConfig(max_steps=2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_loss_raises():
    train = _sine_windows(12, 16, 4, seed=5)
    valid = _sine_windows(2, 16, 4, seed=6)
    cfg = _tiny_cfg(Family.MLP, loss=LossKind.MSE)
    # Adam bounds the update magnitude by lr, so overflowing float64 needs
    # an absurd rate; the second step's forward pass is non-finite
    tc = TrainConfig(max_steps=200, val_check_every=50, windows_batch=8, seed=1, lr=1e200)
    with pytest.raises(DivergedLoss):
        fit(cfg, train, valid, tc)


@pytest.mark.parametrize(
    "family,axes",
    [
        (Family.NLINEAR, {}),
        (Family.DLINEAR, {}),
        (Family.PATCH_TRANSFORMER, dict(head=Head.LINEAR)),
    ],
)
def test_scaling_equivariance(family, axes):
    train = _sine_windows(20, 16, 4, seed=8)
    valid = _sine_windows(3, 16, 4, seed=9)
    if family is Family.PATCH_TRANSFORMER:
        axes = dict(axes, custom_dims=(12, 24, 1, 2))
    cfg = _tiny_cfg(family, scaler=Scaler.REVIN_STANDARD, **axes)
    model = fit(cfg, train, valid, TrainConfig(max_steps=15, val_check_every=5, windows_batch=8, seed=1))
    ctx = train.contexts[0]
    base = predict(model, ctx)
    a, b = 2.5, -1.75
    shifted = predict(model, a * ctx + b)
    np.testing.assert_allclose(shifted, a * base + b, atol=1e-6)


def test_causal_attention_ignores_future_tokens():
    cfg = _tiny_transformer(attention=Attention.CAUSAL, pos_encoding=PosEncoding.SINCOS)
    net = build_network(cfg, rng_stream(2, "causal"))
    rng = np.random.default_rng(10)
    ctx = rng.normal(size=(1, 16))
    baseline = net.encode(ctx).data[0]
    # perturb only the final patch (tokens beyond the first)
    perturbed = ctx.copy()
    perturbed[0, -4:] += 5.0
    changed = net.encode(perturbed).data[0]
    np.testing.assert_allclose(changed[0], baseline[0], atol=1e-9)


def test_embed_shape_and_determinism():
    train = _sine_windows(12, 16, 4, seed=11)
    cfg = _tiny_transformer()
    model = fit(cfg, train, take(train, np.s_[:2]), TrainConfig(max_steps=5, val_check_every=5, windows_batch=4, seed=1))
    e1 = embed(model, train.contexts[0])
    e2 = embed(model, train.contexts[0])
    assert e1.shape == (3, 12)  # (16-8)/4+1 tokens, tiny hidden
    np.testing.assert_array_equal(e1, e2)
    with pytest.raises(UnsupportedFamily):
        embed(fit(_tiny_cfg(Family.NLINEAR), train, take(train, np.s_[:2]), TrainConfig(max_steps=5)), train.contexts[0])


def test_student_t_predict_is_the_location_head():
    train = _sine_windows(16, 16, 4, seed=12, noise=0.2)
    cfg = _tiny_transformer(loss=LossKind.STUDENT_T)
    model = fit(cfg, train, take(train, np.s_[:2]), TrainConfig(max_steps=10, val_check_every=5, windows_batch=4, seed=1))
    state = fit_scaler(cfg.scaler, train.contexts)
    mu, _, _ = model.network.forward(apply_scaler(state, train.contexts))
    np.testing.assert_array_equal(predict(model, train.contexts), invert_scaler(state, mu.data))
    # a statistical family has no loss head: no network, no parameters
    holt = fit(_tiny_cfg(Family.HOLT, loss=LossKind.STUDENT_T), train, None, TrainConfig())
    assert holt.network is None and holt.params == {}
    assert predict(holt, train.contexts).shape == (len(train), 4)


def test_identical_params_identical_embeddings():
    train = _sine_windows(12, 16, 4, seed=13)
    cfg = _tiny_transformer()
    tc = TrainConfig(max_steps=5, val_check_every=5, windows_batch=4, seed=3)
    m1 = fit(cfg, train, take(train, np.s_[:2]), tc)
    m2 = fit(cfg, train, take(train, np.s_[:2]), tc)
    np.testing.assert_array_equal(embed(m1, train.contexts[0]), embed(m2, train.contexts[0]))


@pytest.mark.parametrize(
    "cfg",
    [
        _tiny_cfg(Family.NLINEAR),
        _tiny_cfg(Family.NHITS_LITE),
        _tiny_transformer(loss=LossKind.STUDENT_T),
        _tiny_cfg(Family.SEASONAL_NAIVE),
        _tiny_cfg(Family.AR_LS, ar_order=3),
    ],
    ids=lambda cfg: cfg.family.value,
)
def test_predict_on_rows_matches_one_context_at_a_time(cfg):
    train = _sine_windows(12, 16, 4, seed=14, noise=0.1)
    model = fit(cfg, train, None, TrainConfig(max_steps=3, windows_batch=4, seed=1))
    batched = predict(model, train.contexts)
    one_by_one = np.stack([predict(model, c) for c in train.contexts])
    assert batched.shape == (len(train), 4)
    # one GEMM over n rows may sum in another order than n one-row GEMMs
    np.testing.assert_allclose(batched, one_by_one, rtol=1e-12, atol=1e-12)
    if cfg.family is Family.PATCH_TRANSFORMER:
        embedded = embed(model, train.contexts)
        assert embedded.shape == (len(train), 3, 12)
        np.testing.assert_allclose(
            embedded, np.stack([embed(model, c) for c in train.contexts]), rtol=1e-12, atol=1e-12
        )


def test_params_is_a_read_only_view_of_the_forecasting_network():
    train = _sine_windows(12, 16, 4, seed=15, noise=0.1)
    model = fit(_tiny_cfg(Family.NLINEAR), train, None, TrainConfig(max_steps=3, windows_batch=4))
    before = predict(model, train.contexts)
    with pytest.raises(TypeError):
        model.params["proj.w"] = np.zeros_like(model.params["proj.w"])
    np.testing.assert_array_equal(predict(model, train.contexts), before)
    # the view holds the network's own arrays, so an in-place edit reaches the forecast
    model.params["proj.w"][...] = 0.0
    assert not np.array_equal(predict(model, train.contexts), before)


def test_forecasts_use_the_trained_network_without_rebuilding_it(monkeypatch):
    builds = []

    def counting_build_network(cfg, rng):
        builds.append(cfg.family)
        return build_network(cfg, rng)

    monkeypatch.setattr(training, "build_network", counting_build_network)
    train = _sine_windows(12, 16, 4, seed=16, noise=0.1)
    model = fit(_tiny_transformer(loss=LossKind.STUDENT_T), train, None,
                TrainConfig(max_steps=3, windows_batch=4))
    assert len(builds) == 1
    predict(model, train.contexts)
    embed(model, train.contexts)
    assert len(builds) == 1


def test_paper_size_training_holds_source_values_not_window_rows():
    # the paper-default OOD sets: 100 series of 1200 samples, k = 2, split
    # 1008, l 256, h 192; as (l + h) rows the train windows alone are 252 MiB
    task = ForecastTask(256, 192)
    series = gen_sinusoid_dataset(100, seed=1, length=1200).composed
    tracemalloc.start()
    try:
        splits = [split_windows(s, task, 1008, k=2) for s in series]
        train = Windows.concat([split.train for split in splits])
        valid = Windows.concat([split.valid for split in splits])
        cfg = ModelConfig(family=Family.MLP, context_len=256, horizon=192)
        fit(cfg, train, valid, TrainConfig(max_steps=2, windows_batch=256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(train), len(valid)) == (73_800, 200)
    assert peak < 64e6
