import weakref

import numpy as np
import pytest

from specbench.autodiff import (
    Tape,
    Tensor,
    _emit,
    absval,
    add,
    backward,
    concat,
    div,
    embedding,
    layer_norm,
    lgamma,
    log,
    matmul,
    mean,
    mul,
    neg,
    recording,
    relu,
    reshape,
    softmax,
    softplus,
    sub,
    transpose,
    tslice,
)
from specbench.errors import NonScalarLoss, ShapeMismatch

from helpers import backward_keeping_every_gradient, fd_gradcheck, layer_norm_chain_reference


def test_matmul_shapes():
    out = matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))))
    assert out.shape == (2, 4)
    with pytest.raises(ShapeMismatch):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(31)
    s = softmax(Tensor(rng.normal(size=(5, 7)) * 10), axis=-1)
    np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(5), atol=1e-12)


def test_layer_norm_moments():
    rng = np.random.default_rng(32)
    y = layer_norm(
        Tensor(rng.normal(size=(4, 16)) * 3 + 2), Tensor(np.ones(16)), Tensor(np.zeros(16)),
        axis=-1, eps=1e-12,
    )
    np.testing.assert_allclose(y.data.mean(axis=-1), np.zeros(4), atol=1e-9)
    np.testing.assert_allclose(y.data.var(axis=-1), np.ones(4), atol=1e-9)


def test_backward_sum_of_squares():
    x = Tensor(np.array([1.0, -2.0, 3.0]))
    tape = Tape()
    with recording(tape):
        loss = mean(mul(x, x))
    (grad,) = backward(tape, loss, [x])
    np.testing.assert_allclose(grad, 2 * x.data / 3, atol=1e-12)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3))
    tape = Tape()
    with recording(tape):
        y = mul(x, x)
    with pytest.raises(NonScalarLoss):
        backward(tape, y, [x])


def test_detached_branch_gets_zero_gradient():
    x = Tensor(np.ones(3))
    unused = Tensor(np.ones(3))
    tape = Tape()
    with recording(tape):
        branch = mul(unused, unused)  # recorded but not part of the loss
        loss = mean(mul(x, x))
    del branch
    grad_x, grad_unused = backward(tape, loss, [x, unused])
    np.testing.assert_allclose(grad_x, 2 * np.ones(3) / 3)
    np.testing.assert_array_equal(grad_unused, np.zeros(3))


def test_two_layer_mlp_gradcheck():
    rng = np.random.default_rng(33)
    params = {
        "w1": Tensor(rng.normal(size=(6, 5)) * 0.4),
        "b1": Tensor(np.zeros(5)),
        "w2": Tensor(rng.normal(size=(5, 3)) * 0.4),
        "b2": Tensor(np.zeros(3)),
    }
    x = np.random.default_rng(34).normal(size=(4, 6))
    target = np.random.default_rng(35).normal(size=(4, 3))

    def loss_fn():
        h = relu(add(matmul(Tensor(x), params["w1"]), params["b1"]))
        out = add(matmul(h, params["w2"]), params["b2"])
        err = out - Tensor(target)
        return mean(mul(err, err))

    assert fd_gradcheck(loss_fn, params) < 1e-4


def test_shape_op_gradients():
    rng = np.random.default_rng(36)
    params = {"x": Tensor(rng.normal(size=(3, 4))), "table": Tensor(rng.normal(size=(5, 4)))}

    def loss_fn():
        x = params["x"]
        a = transpose(reshape(x, (4, 3)), (1, 0))
        b = concat([a, embedding(params["table"], np.array([4, 0, 4]))], axis=1)
        c = tslice(b, (slice(None), slice(1, 5)))
        # a (3, 1) column times (3, 4): the product's rule sums the
        # broadcast axis back down
        d = mul(reshape(mean(c, axis=1, keepdims=True), (3, 1)), c)
        return mean(mul(d, d))

    assert fd_gradcheck(loss_fn, params) < 1e-4


def test_nonlinearity_gradients():
    rng = np.random.default_rng(37)
    params = {"x": Tensor(rng.normal(size=(8,)) * 0.8 + 1.6)}

    def loss_fn():
        x = params["x"]
        y = div(softplus(x) + absval(x), log(softplus(x) + 1.0)) - relu(neg(x))
        return mean(mul(y, softmax(x, axis=-1)))

    assert fd_gradcheck(loss_fn, params) < 1e-4


def test_lgamma_gradient_and_values():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(38)
    x = rng.uniform(0.5, 10.0, size=16)
    np.testing.assert_allclose(lgamma(Tensor(x)).data, special.gammaln(x), atol=1e-12)
    params = {"x": Tensor(x)}

    def loss_fn():
        return mean(lgamma(params["x"]))

    assert fd_gradcheck(loss_fn, params) < 1e-4


def test_layer_norm_and_softmax_gradients():
    rng = np.random.default_rng(39)
    params = {
        "x": Tensor(rng.normal(size=(3, 6))),
        "gain": Tensor(rng.normal(size=6)),
        "bias": Tensor(rng.normal(size=6)),
    }
    weight = rng.normal(size=(3, 6))

    def loss_fn():
        y = layer_norm(params["x"], params["gain"], params["bias"], axis=-1, eps=1e-5)
        s = softmax(y, axis=-1)
        return mean(mul(s, Tensor(weight)))

    assert fd_gradcheck(loss_fn, params) < 1e-4


def test_affine_layer_norm_matches_three_record_chain_exactly():
    rng = np.random.default_rng(42)
    x = Tensor(rng.normal(size=(4, 5, 16)) * 3 + 1)
    gain = Tensor(rng.normal(size=16))
    bias = Tensor(rng.normal(size=16))
    weight = Tensor(rng.normal(size=(4, 5, 16)))
    results = []
    for norm in (layer_norm, layer_norm_chain_reference):
        tape = Tape()
        with recording(tape):
            y = norm(x, gain, bias, axis=-1, eps=1e-5)
            # x also feeds a residual path, so the order in which its two
            # gradients are summed is part of what must match
            loss = mean(mul(add(y, x), weight))
        results.append((y.data, *backward(tape, loss, [x, gain, bias])))
    for fused, chain in zip(*results):
        np.testing.assert_array_equal(fused, chain)


def test_layer_norm_rejects_mismatched_gain():
    with pytest.raises(ShapeMismatch):
        layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


def test_gradients_sum_exactly_when_rules_share_arrays():
    # add hands one array to both of its inputs, so x collects three
    # contributions that are the same array, and p is reached from two
    # branches; every value is exact in float64.
    x = Tensor(np.array([1.0, -2.0, 3.0, 0.5]))
    p = Tensor(np.array([0.5, 4.0, -3.0, 2.0]))
    c = Tensor(np.array([2.0, 5.0, -1.0, 0.25]))
    tape = Tape()
    with recording(tape):
        triple = add(add(x, x), x)
        loss = mean(add(mul(triple, p), mul(p, c)))
    grad_x, grad_p = backward(tape, loss, [x, p])
    np.testing.assert_array_equal(grad_x, 0.75 * p.data)
    np.testing.assert_array_equal(grad_p, 0.25 * (3.0 * x.data + c.data))


def test_backward_empties_the_tape():
    rng = np.random.default_rng(43)
    w = Tensor(rng.normal(size=(3, 2)))
    tape = Tape()
    with recording(tape):
        loss = mean(relu(matmul(Tensor(rng.normal(size=(5, 3))), w)))
    assert len(tape) == 3
    backward(tape, loss, [w])
    assert len(tape) == 0


def test_backward_drops_constant_leaf_gradients_during_sweep():
    # a spy one record before the mul: by the time its rule runs, the
    # gradient mul returned for the constant c must be gone, while the one
    # for x has been passed on.
    p = Tensor(np.array([1.0, -2.0, 3.0]))
    c = Tensor(np.array([4.0, 5.0, 6.0]))
    returned = {}
    alive_at_spy = {}

    def spy_rule(g):
        alive_at_spy.update({name: ref() is not None for name, ref in returned.items()})
        return (g,)

    tape = Tape()
    with recording(tape):
        x = _emit(Tensor(p.data.copy()), (p,), spy_rule)
        loss = mean(mul(x, c))
    op, out, inputs, mul_rule = tape.records[1]

    def watched_rule(g):
        g_x, g_c = mul_rule(g)
        returned.update(x=weakref.ref(g_x), c=weakref.ref(g_c))
        return g_x, g_c

    tape.records[1] = (op, out, inputs, watched_rule)
    (grad_p,) = backward(tape, loss, [p])
    assert alive_at_spy == {"x": True, "c": False}
    np.testing.assert_array_equal(grad_p, np.ones(3) / 3 * c.data)


def test_activations_no_rule_reads_are_freed_during_forward():
    rng = np.random.default_rng(44)
    x = rng.normal(size=(6, 4))
    params = [Tensor(rng.normal(size=(4, 5))), Tensor(rng.normal(size=5)),
              Tensor(rng.normal(size=(5, 2)))]

    def record():
        w1, b1, w2 = params
        raw = matmul(Tensor(x), w1)
        pre = add(raw, b1)
        refs = weakref.ref(raw.data), weakref.ref(pre.data)
        loss = mean(matmul(relu(pre), w2))
        return loss, refs

    tape = Tape()
    with recording(tape):
        loss, (raw_ref, pre_ref) = record()
    # the dense layer's GEMM output and the relu input are gone while the
    # tape still holds every record
    assert raw_ref() is None and pre_ref() is None
    assert len(tape) == 5
    grads = backward(tape, loss, params)
    reference_tape = Tape()
    with recording(reference_tape):
        reference_loss, _ = record()
    expected = backward_keeping_every_gradient(reference_tape, reference_loss, params)
    for grad, ref in zip(grads, expected):
        np.testing.assert_array_equal(grad, ref)


def test_no_rule_closes_over_a_tensor():
    rng = np.random.default_rng(45)
    x = Tensor(rng.uniform(0.5, 2.0, size=(2, 3, 4)))
    w = Tensor(rng.normal(size=(4, 4)))
    tape = Tape()
    with recording(tape):
        y = layer_norm(matmul(x, w), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        y = matmul(softmax(y), transpose(x, (0, 2, 1)))
        y = add(sub(y, neg(y)), div(softplus(y), absval(y) + 1.0))
        y = mul(relu(y), softplus(log(lgamma(mul(y, y) + 3.0))))
        y = add(reshape(mean(y, axis=0), (1, 3, 3)), Tensor(np.zeros((2, 3, 3))))
        rows = tslice(embedding(w, np.array([0, 2, 0])), (slice(None), slice(0, 3)))
        concat([tslice(y, (0,)), mean(y, axis=0), rows])
    held = [
        rule.__qualname__
        for _, _, _, rule in tape.records
        for cell in rule.__closure__ or ()
        if isinstance(cell.cell_contents, Tensor)
    ]
    assert len(tape) > 25 and held == []

    # With one operand a constant, the rule keeps nothing of the tensor
    # operand: only the constant's gradient would read it.
    c = rng.normal(size=(2, 3, 4))
    for op, args in (
        (add, (x, c)), (add, (c, x)), (mul, (x, c)), (mul, (c, x)), (mul, (x, 2.0)),
        (mul, (2.0, x)), (sub, (x, c)), (sub, (c, x)), (sub, (2.0, x)), (div, (x, c)),
        (div, (x, 2.0)), (matmul, (x, w.data)), (matmul, (c, w)),
        (matmul, (x, c.transpose(0, 2, 1))), (matmul, (c.transpose(0, 2, 1), x)),
    ):
        tape = Tape()
        with recording(tape):
            op(*args)
        ((_, _, inputs, rule),) = tape.records
        (tensor,) = (arg for arg in args if isinstance(arg, Tensor))
        cells = [cell.cell_contents for cell in rule.__closure__ or ()]
        assert inputs == (tensor.node,)
        assert not any(isinstance(cell, Tensor) for cell in cells)
        assert not any(
            isinstance(cell, np.ndarray) and np.shares_memory(cell, tensor.data) for cell in cells
        ), (op.__name__, [np.shape(arg) for arg in args])


def test_identity_survives_address_reuse():
    rng = np.random.default_rng(46)
    params = {"w": Tensor(rng.normal(size=(3, 4))), "v": Tensor(rng.normal(size=4))}
    scales = np.linspace(0.5, 1.5, 250)

    def loss_fn():
        # each step makes and drops constants and intermediates of
        # alternating shapes, whose addresses CPython hands to new objects
        # while the tape still needs their nodes
        w, v = params["w"], params["v"]
        total = Tensor(0.0)
        for i, s in enumerate(scales):
            h = mul(w, Tensor(s))
            if i % 2:
                z = mean(mul(h, h))
            else:
                z = mean(matmul(h, reshape(v, (4, 1))))
            total = add(total, z)
        return total

    tape = Tape()
    with recording(tape):
        loss = loss_fn()
    names = sorted(params)
    grads = backward(tape, loss, [params[n] for n in names])
    tape = Tape()
    with recording(tape):
        loss = loss_fn()
    expected = backward_keeping_every_gradient(tape, loss, [params[n] for n in names])
    for grad, ref in zip(grads, expected):
        np.testing.assert_array_equal(grad, ref)
    assert fd_gradcheck(loss_fn, params) < 1e-4


def test_tensor_from_another_tape_is_a_leaf_there():
    w = Tensor(np.array([[1.0, 2.0], [3.0, -1.0]]))
    first = Tape()
    with recording(first):
        t = matmul(Tensor(np.ones((1, 2))), w)
    second = Tape()
    with recording(second):
        loss = mean(mul(t, t))
    grad_w, grad_t = backward(second, loss, [w, t])
    np.testing.assert_array_equal(grad_w, np.zeros((2, 2)))
    np.testing.assert_array_equal(grad_t, t.data)


def test_embedding_gradient_scatter():
    table = Tensor(np.random.default_rng(40).normal(size=(5, 3)))
    idx = np.array([0, 2, 2, 4])
    tape = Tape()
    with recording(tape):
        out = embedding(table, idx)
        loss = mean(out)
    (grad,) = backward(tape, loss, [table])
    expected = np.zeros((5, 3))
    for i in idx:
        expected[i] += 1.0
    np.testing.assert_array_equal(grad, expected / out.size)


def test_no_recording_outside_tape():
    tape = Tape()
    x = Tensor(np.ones(3))
    y = mul(x, x)  # no active tape: nothing recorded
    assert len(tape) == 0
    assert y.shape == (3,)


# (op, tensor shape, constant, whether the constant is the second operand)
_CONSTANT_CASES = [
    (add, (4, 3), np.linspace(-1.0, 1.0, 3), True),
    (add, (4, 3), np.linspace(-1.0, 1.0, 24).reshape(2, 4, 3), False),
    (add, (4, 3), 2.5, True),
    (mul, (4, 3), np.linspace(-1.0, 1.0, 3), True),
    (mul, (4, 1), np.linspace(-1.0, 1.0, 24).reshape(2, 4, 3), False),
    (mul, (4, 3), 0.125, True),
    (mul, (4, 3), -3.0, False),
    (matmul, (5, 4), np.linspace(-1.0, 1.0, 12).reshape(4, 3), True),
    (matmul, (4, 3), np.linspace(-1.0, 1.0, 40).reshape(2, 5, 4), False),
    (matmul, (2, 5, 4), np.linspace(-1.0, 1.0, 24).reshape(2, 4, 3), True),
    (matmul, (3, 4, 6), np.linspace(-1.0, 1.0, 40).reshape(2, 1, 5, 4), False),
    (sub, (4, 3), np.linspace(-1.0, 1.0, 3), True),
    (sub, (4, 1), np.linspace(-1.0, 1.0, 24).reshape(2, 4, 3), False),
    (sub, (4, 3), 0.5, True),
    (sub, (4, 3), 1.0, False),
    (div, (4, 3), np.linspace(0.5, 1.5, 3), True),
    (div, (4, 1), np.linspace(-1.0, 1.0, 24).reshape(2, 4, 3), False),
    (div, (4, 3), 0.25, True),
    (div, (4, 3), -2.0, False),
]


@pytest.mark.parametrize("op, shape, constant, second", _CONSTANT_CASES)
def test_constant_operand_gradient_matches_a_wrapped_constant(op, shape, constant, second):
    rng = np.random.default_rng(47)
    x = Tensor(rng.normal(size=shape))

    def run(c):
        tape = Tape()
        with recording(tape):
            out = op(x, c) if second else op(c, x)
            loss = mean(mul(out, Tensor(np.cos(np.arange(out.size)).reshape(out.shape))))
        inputs = tape.records[0][2]
        (grad,) = backward(tape, loss, [x])
        return out.data, grad, inputs

    out, grad, inputs = run(constant)
    wrapped_out, wrapped_grad, wrapped_inputs = run(Tensor(constant))
    assert inputs == (x.node,) and len(wrapped_inputs) == 2
    np.testing.assert_array_equal(out, wrapped_out)
    np.testing.assert_array_equal(grad, wrapped_grad)


@pytest.mark.parametrize("op, tensor_shape, constant_shape, second", [
    (add, (4, 3), (5,), True),
    (add, (4, 3), (2, 4), False),
    (mul, (4, 3), (4, 2), True),
    (mul, (2, 3), (3, 2), False),
    (matmul, (2, 3), (4, 2), True),
    (matmul, (2, 3), (5, 4), False),
    (matmul, (2, 5, 3), (4, 3, 2), True),
])
def test_constant_operand_shape_mismatch_names_both_shapes(op, tensor_shape, constant_shape, second):
    x, c = Tensor(np.ones(tensor_shape)), np.ones(constant_shape)
    with pytest.raises(ShapeMismatch) as info:
        op(x, c) if second else op(c, x)
    assert str(tensor_shape) in str(info.value) and str(constant_shape) in str(info.value)


def test_an_array_on_the_left_defers_to_the_tensor():
    x = Tensor(np.array([1.0, 2.0, 4.0]))
    c = np.array([3.0, 5.0, 8.0])
    for got, want in (
        (c + x, add(c, x)), (c - x, sub(c, x)), (c * x, mul(c, x)), (c / x, div(c, x)),
        (np.float64(2.0) - x, sub(2.0, x)),
    ):
        assert isinstance(got, Tensor)
        np.testing.assert_array_equal(got.data, want.data)


def test_two_constant_operands_are_rejected():
    with pytest.raises(TypeError):
        add(np.ones(3), 1.0)
