import numpy as np

from specbench.autodiff import Tensor
from specbench.optim import _CHUNK, AdamState, adam_step, rng_stream, uniform_fan_in

from helpers import adam_step_reference


def test_zero_gradient_leaves_params_unchanged():
    params = {"w": Tensor(np.array([1.0, -2.0, 3.0]))}
    state = AdamState()
    before = params["w"].data.copy()
    adam_step(params, {"w": np.zeros(3)}, state)
    np.testing.assert_array_equal(params["w"].data, before)
    assert state.step == 1


def test_first_step_magnitude_is_lr_times_sign():
    lr = 1e-4
    grad = np.array([0.5, -3.0, 10.0])
    params = {"w": Tensor(np.zeros(3))}
    adam_step(params, {"w": grad}, AdamState(), lr=lr)
    # bias correction makes m_hat = g and v_hat = g^2 at t=1
    expected = -lr * np.sign(grad) * (np.abs(grad) / (np.abs(grad) + 1e-8))
    np.testing.assert_allclose(params["w"].data, expected, atol=1e-6)
    np.testing.assert_allclose(np.abs(params["w"].data), np.full(3, lr), atol=1e-6)


def test_trajectory_determinism():
    def run():
        rng = rng_stream(7, "init")
        params = {"w": Tensor(uniform_fan_in(rng, 4, (4, 2)))}
        state = AdamState()
        grad_rng = rng_stream(7, "grads")
        for _ in range(25):
            adam_step(params, {"w": grad_rng.normal(size=(4, 2))}, state, lr=1e-3)
        return params["w"].data

    a, b = run(), run()
    np.testing.assert_array_equal(a, b)


def test_adam_matches_out_of_place_reference_exactly():
    # besides small shapes: more than one block (not a whole number of
    # them), a whole number of blocks, exactly one block, and a 0-d scalar
    shapes = {
        "w": (5, 3), "b": (3,), "scale": (1,), "conv": (2, 4, 3),
        "big": (2 * _CHUNK + 77,), "blocks": (3, _CHUNK), "one_block": (_CHUNK,), "scalar": (),
    }
    rng = np.random.default_rng(41)
    init = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    fast = {name: Tensor(value.copy()) for name, value in init.items()}
    slow = {name: Tensor(value.copy()) for name, value in init.items()}
    for params in (fast, slow):
        # a Tensor is at least 1-d, so the 0-d parameter is set directly
        params["scalar"].data = init["scalar"].copy()
    fast_state, slow_state = AdamState(), AdamState()
    for _ in range(5):
        grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-4, 3)
                 for name, shape in shapes.items()}
        adam_step(fast, grads, fast_state, lr=3e-3)
        adam_step_reference(slow, grads, slow_state, lr=3e-3)
    assert fast_state.step == slow_state.step == 5
    for name, shape in shapes.items():
        assert fast[name].shape == shape
        np.testing.assert_array_equal(fast[name].data, slow[name].data)
        np.testing.assert_array_equal(fast_state.m[name], slow_state.m[name])
        np.testing.assert_array_equal(fast_state.v[name], slow_state.v[name])


def test_rng_stream_distinct_names():
    a = rng_stream(1, "alpha").normal(size=4)
    b = rng_stream(1, "beta").normal(size=4)
    assert not np.allclose(a, b)
    c = rng_stream(1, "alpha").normal(size=4)
    np.testing.assert_array_equal(a, c)


def test_uniform_fan_in_bounds():
    rng = rng_stream(3, "init")
    w = uniform_fan_in(rng, 64, (64, 32))
    bound = 1 / np.sqrt(64)
    assert np.all(np.abs(w) <= bound)
