"""Dense float64 tensors with tape-based reverse-mode differentiation.

Primitives compute with numpy and, while a tape is active (see
:func:`recording`), append a backward rule to it. Tapes are recorded in
execution order, which is already a topological order, so
:func:`backward` is a single reverse sweep.

A tensor's identity on a tape is its ``node`` number, never its address:
records hold the node numbers of their output and inputs, not the
tensors, and each rule closes over only the arrays and shapes its
backward reads. So an activation no rule reads (a raw GEMM output before
its bias add, a residual sum, a relu input) is freed during the forward
pass, and CPython may reuse its address while the tape still needs its
node. The sweep consumes the tape: each record is popped as its rule
runs, which frees the arrays it held, so a tape is swept once and left
empty. A tape and its tensors belong to one worker; nothing here is
shared mutable state apart from the thread-local active-tape stack and
the process-wide node counter.

Every binary op (``add``, ``sub``, ``mul``, ``div``, ``matmul``) also
takes a constant operand: a numpy array or a float in place of a Tensor
(one of the two must be a Tensor). A constant is not a tape input and gets
no gradient; the record lists only the tensor operand, and its rule keeps
nothing of that operand which only the constant's gradient would read (for
``mul``, the constant alone). Masks, positional tables, fixed pooling
matrices, loss targets and a network's raw input go in this way, so no
backward work is spent on them. Tensor sets ``__array_ufunc__ = None``, so
an array on the left of an operator defers to the Tensor's reflected method.
"""
from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import NonScalarLoss, ShapeMismatch

__all__ = [
    "Tensor",
    "Tape",
    "recording",
    "backward",
    "add", "sub", "mul", "div", "neg", "matmul",
    "relu", "log", "absval", "softplus", "lgamma",
    "softmax", "layer_norm", "mean", "concat", "tslice", "reshape", "transpose", "embedding",
]


# One counter for the process, so node numbers stay unique across threads
# and tapes; ``next`` on it is a single C call under the interpreter lock.
_NODES = itertools.count()


class Tensor:
    """A shaped view over a contiguous float64 numpy array.

    ``node`` is a number no other tensor in this process has; tapes and
    :func:`backward` know a tensor only by it.
    """

    __slots__ = ("data", "node")

    def __init__(self, data):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.node = next(_NODES)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # Operator sugar; a scalar or array operand is a constant. numpy defers
    # to the reflected method instead of building an object array.
    __array_ufunc__ = None

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Ordered record of primitive applications (op, output, inputs, rule)."""

    __slots__ = ("records",)

    def __init__(self):
        # Each record: (op name, output node, input nodes, backward) where
        # backward maps the output gradient to input gradients (None = no
        # flow). Records hold no tensors, so they keep no activation alive.
        self.records: list[tuple[str, int, tuple[int, ...], Callable]] = []

    def __len__(self) -> int:
        return len(self.records)


_ACTIVE = threading.local()


def _stack() -> list[Tape]:
    if not hasattr(_ACTIVE, "stack"):
        _ACTIVE.stack = []
    return _ACTIVE.stack


@contextmanager
def recording(tape: Tape):
    """Make ``tape`` the active recording target within the block."""
    stack = _stack()
    stack.append(tape)
    try:
        yield tape
    finally:
        stack.pop()


def _emit(
    out: Tensor, inputs: tuple[Tensor, ...], backward_rule: Callable, op: str = ""
) -> Tensor:
    stack = _stack()
    if stack:
        stack[-1].records.append((op, out.node, tuple(t.node for t in inputs), backward_rule))
    return out


def backward(tape: Tape, loss: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients of a scalar ``loss`` with respect to ``params``.

    ``params`` are leaves: tensors no primitive on ``tape`` produced.
    Parameters the loss does not reach get zero gradients. The sweep pops
    every record off ``tape``, so the tape is swept once and left empty,
    and it drops each record's output gradient once the rule has used it.
    Gradients of constant leaves (inputs that are neither parameters nor
    produced on the tape) are dropped before the next rule runs.
    """
    if loss.data.size != 1:
        raise NonScalarLoss(f"loss has shape {loss.shape}, expected a scalar")
    grads: dict[int, np.ndarray] = {loss.node: np.ones_like(loss.data)}
    wanted = {p.node for p in params}
    wanted.update(out for _, out, _, _ in tape.records)
    # Keys whose gradient is a buffer this sweep allocated. Only those are
    # added into in place: a rule may hand the same array to several
    # inputs (add returns its ``g`` to both), or pass its own ``g`` on.
    owned: set[int] = set()
    records = tape.records
    while records:
        _, key, inputs, rule = records.pop()
        g_out = grads.pop(key, None)
        if g_out is None:
            continue
        owned.discard(key)
        for key, g_in in zip(inputs, rule(g_out)):
            if g_in is None or key not in wanted:
                continue
            held = grads.get(key)
            if held is None:
                grads[key] = g_in
            elif key in owned:
                grads[key] += g_in
            else:
                grads[key] = held + g_in
                owned.add(key)
        g_in = None  # else the last returned gradient outlives the next rule
    return [grads[p.node] if p.node in grads else np.zeros_like(p.data) for p in params]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _operands(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The arrays of two operands, at least one a Tensor; a constant (an
    array or a float) is taken as a contiguous float64 array."""
    if isinstance(a, Tensor):
        return a.data, b.data if isinstance(b, Tensor) else _constant(b)
    if isinstance(b, Tensor):
        return _constant(a), b.data
    raise TypeError("at least one operand must be a Tensor")


def _constant(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)


def _elementwise(forward, x: np.ndarray, y: np.ndarray) -> Tensor:
    try:
        return Tensor(forward(x, y))
    except ValueError as exc:
        raise ShapeMismatch(f"operands {x.shape} and {y.shape}: {exc}") from None


# -- arithmetic ----------------------------------------------------------------

# Rules close over arrays and shapes, never over a Tensor, so each keeps
# alive only what its backward reads. Where one operand of a binary op is
# a constant, the rule returns the tensor operand's gradient alone and
# keeps nothing of that operand that only the constant's gradient would
# read.

def add(a, b) -> Tensor:
    x, y = _operands(a, b)
    out = _elementwise(np.add, x, y)
    sa, sb = x.shape, y.shape
    if not isinstance(b, Tensor):
        return _emit(out, (a,), lambda g: (_unbroadcast(g, sa),))
    if not isinstance(a, Tensor):
        return _emit(out, (b,), lambda g: (_unbroadcast(g, sb),))
    return _emit(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    x, y = _operands(a, b)
    out = _elementwise(np.subtract, x, y)
    sa, sb = x.shape, y.shape
    if not isinstance(b, Tensor):
        return _emit(out, (a,), lambda g: (_unbroadcast(g, sa),))
    if not isinstance(a, Tensor):
        return _emit(out, (b,), lambda g: (_unbroadcast(-g, sb),))
    return _emit(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a, b) -> Tensor:
    x, y = _operands(a, b)
    out = _elementwise(np.multiply, x, y)
    if not isinstance(b, Tensor):
        sa = x.shape
        return _emit(out, (a,), lambda g: (_unbroadcast(g * y, sa),))
    if not isinstance(a, Tensor):
        sb = y.shape
        return _emit(out, (b,), lambda g: (_unbroadcast(g * x, sb),))
    return _emit(
        out, (a, b), lambda g: (_unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape))
    )


def div(a, b) -> Tensor:
    x, y = _operands(a, b)
    out = _elementwise(np.divide, x, y)
    sa, sb = x.shape, y.shape
    if not isinstance(b, Tensor):
        return _emit(out, (a,), lambda g: (_unbroadcast(g / y, sa),))
    if not isinstance(a, Tensor):
        return _emit(out, (b,), lambda g: (_unbroadcast(-g * x / (y * y), sb),))
    return _emit(
        out, (a, b), lambda g: (_unbroadcast(g / y, sa), _unbroadcast(-g * x / (y * y), sb))
    )


def neg(a: Tensor) -> Tensor:
    return _emit(Tensor(-a.data), (a,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    x, y = _operands(a, b)
    if x.ndim < 2 or y.ndim < 2:
        raise ShapeMismatch("matmul operands must have ndim >= 2")
    if x.shape[-1] != y.shape[-2]:
        raise ShapeMismatch(f"matmul {x.shape} @ {y.shape}: inner dims differ")

    if y.ndim == 2:
        # Dense-layer case: flatten leading dims into single GEMMs instead
        # of numpy's per-row batched path (and avoid materializing a
        # (batch, K, N) gradient that would then be summed down to (K, N)).
        shape = x.shape
        k, n = y.shape
        x2 = x.reshape(-1, k)
        out = Tensor((x2 @ y).reshape(*shape[:-1], n))
        if not isinstance(b, Tensor):
            return _emit(out, (a,), lambda g: ((g.reshape(-1, n) @ y.T).reshape(shape),))
        if not isinstance(a, Tensor):
            return _emit(out, (b,), lambda g: (x2.T @ g.reshape(-1, n),))

        def rule(g):
            g2 = g.reshape(-1, n)
            return (g2 @ y.T).reshape(shape), x2.T @ g2

        return _emit(out, (a, b), rule)

    try:
        out = Tensor(x @ y)
    except ValueError as exc:
        raise ShapeMismatch(f"matmul {x.shape} @ {y.shape}: {exc}") from None
    sa, sb = x.shape, y.shape
    if not isinstance(b, Tensor):
        return _emit(out, (a,), lambda g: (_unbroadcast(g @ y.swapaxes(-1, -2), sa),))
    if not isinstance(a, Tensor):
        return _emit(out, (b,), lambda g: (_unbroadcast(x.swapaxes(-1, -2) @ g, sb),))

    def rule(g):
        ga = _unbroadcast(g @ y.swapaxes(-1, -2), sa)
        gb = _unbroadcast(x.swapaxes(-1, -2) @ g, sb)
        return ga, gb

    return _emit(out, (a, b), rule)


# -- elementwise nonlinearities -------------------------------------------------

def relu(a: Tensor) -> Tensor:
    # out > 0 exactly where a > 0, so the rule keeps the output it shares
    # with the next layer instead of the input
    out = np.maximum(a.data, 0.0)
    return _emit(Tensor(out), (a,), lambda g: (g * (out > 0),), op="relu")


def log(a: Tensor) -> Tensor:
    x = a.data
    return _emit(Tensor(np.log(x)), (a,), lambda g: (g / x,))


def absval(a: Tensor) -> Tensor:
    sign = np.sign(a.data)
    return _emit(Tensor(np.abs(a.data)), (a,), lambda g: (g * sign,), op="absval")


def softplus(a: Tensor) -> Tensor:
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    sig = 1.0 / (1.0 + np.exp(-x))
    return _emit(Tensor(out), (a,), lambda g: (g * sig,))


def lgamma(a: Tensor) -> Tensor:
    """Log-gamma for positive inputs; gradient is the digamma function."""
    # scipy is imported here, on the first call, so no command pays for it
    # at start-up; only the Student-t loss reaches this. A pool worker that
    # fits a Student-t model therefore imports scipy itself, about 0.2 s
    # once per worker, and scipy's own OpenBLAS then loads after the
    # worker set its BLAS to one thread. That is harmless: gammaln and
    # digamma call no BLAS.
    from scipy import special

    x = a.data
    return _emit(Tensor(special.gammaln(x)), (a,), lambda g: (g * special.digamma(x),))


# -- normalization and reductions ------------------------------------------------

def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def rule(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - inner),)

    return _emit(Tensor(s), (a,), rule)


def layer_norm(
    a: Tensor, gain: Tensor, bias: Tensor, axis: int = -1, eps: float = 1e-5
) -> Tensor:
    """``normalize(a) * gain + bias`` along ``axis``, as one tape record.

    Forward and backward reuse their temporaries through ``out=`` ufuncs,
    with the operations and their order of the out-of-place expressions.
    """
    x = a.data
    mu = x.mean(axis=axis, keepdims=True)
    y = np.subtract(x, mu)  # centered, normalised in place below
    out = np.multiply(y, y)  # squares first, then the output
    inv_std = out.mean(axis=axis, keepdims=True)
    inv_std += eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    y *= inv_std
    try:
        np.multiply(y, gain.data, out=out)
        out += bias.data
    except ValueError as exc:
        raise ShapeMismatch(
            f"layer_norm of {a.shape} with gain {gain.shape}, bias {bias.shape}: {exc}"
        ) from None

    scale = gain.data
    bias_shape = bias.shape

    def rule(g):
        gy = np.multiply(g, scale)
        g_mean = gy.mean(axis=axis, keepdims=True)
        tmp = np.multiply(gy, y)
        gyy_mean = tmp.mean(axis=axis, keepdims=True)
        # inv_std * (gy - g_mean - y * gyy_mean), built in gy
        gy -= g_mean
        gy -= np.multiply(y, gyy_mean, out=tmp)
        gy *= inv_std
        return (
            gy,
            _unbroadcast(np.multiply(g, y, out=tmp), scale.shape),
            _unbroadcast(g, bias_shape),
        )

    return _emit(Tensor(out), (a, gain, bias), rule)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.shape
    count = a.data.size if axis is None else np.prod([shape[ax] for ax in np.atleast_1d(axis)])

    def rule(g):
        g = np.asarray(g)
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape) / count,)

    return _emit(Tensor(out), (a,), rule)


# -- shape manipulation -----------------------------------------------------------

def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def rule(g):
        return tuple(np.split(g, splits, axis=axis))

    return _emit(out, tuple(tensors), rule)


def tslice(a: Tensor, key) -> Tensor:
    """Basic (non-repeating) numpy slice of a tensor."""
    out = Tensor(a.data[key])
    shape = a.shape

    def rule(g):
        full = np.zeros(shape)
        full[key] += g
        return (full,)

    return _emit(out, (a,), rule)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    old = a.shape
    return _emit(out, (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes=None) -> Tensor:
    out = Tensor(a.data.transpose(axes))
    inverse = None if axes is None else np.argsort(axes)
    return _emit(out, (a,), lambda g: (g.transpose(inverse),))


def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``table[indices]``; gradients scatter-add into the table."""
    indices = np.asarray(indices)
    out = Tensor(table.data[indices])
    shape = table.shape

    def rule(g):
        gt = np.zeros(shape)
        np.add.at(gt, indices, g)
        return (gt,)

    return _emit(out, (table,), rule)
