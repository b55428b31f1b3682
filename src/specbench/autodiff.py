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
"""
from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np
from scipy import special

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

    # Operator sugar; scalars and arrays are lifted to constant tensors.
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _lift(other))


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=np.float64))


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
    return [grads.get(p.node, np.zeros_like(p.data)) for p in params]


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


def _binary(a: Tensor, b: Tensor, forward, rule) -> Tensor:
    try:
        out = Tensor(forward(a.data, b.data))
    except ValueError as exc:
        raise ShapeMismatch(f"operands {a.shape} and {b.shape}: {exc}") from None
    return _emit(out, (a, b), rule)


# -- arithmetic ----------------------------------------------------------------

# Rules close over arrays and shapes, never over a Tensor, so each keeps
# alive only what its backward reads.

def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape
    return _binary(a, b, np.add, lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape
    return _binary(a, b, np.subtract, lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data
    return _binary(
        a, b, np.multiply,
        lambda g: (_unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data
    return _binary(
        a, b, np.divide,
        lambda g: (
            _unbroadcast(g / y, x.shape),
            _unbroadcast(-g * x / (y * y), y.shape),
        ),
    )


def neg(a: Tensor) -> Tensor:
    return _emit(Tensor(-a.data), (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatch("matmul operands must have ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}: inner dims differ")

    if b.ndim == 2:
        # Dense-layer case: flatten leading dims into single GEMMs instead
        # of numpy's per-row batched path (and avoid materializing a
        # (batch, K, N) gradient that would then be summed down to (K, N)).
        shape = a.shape
        w = b.data
        k, n = w.shape
        a2 = a.data.reshape(-1, k)
        out = Tensor((a2 @ w).reshape(*shape[:-1], n))

        def rule(g):
            g2 = g.reshape(-1, n)
            return (g2 @ w.T).reshape(shape), a2.T @ g2

        return _emit(out, (a, b), rule)

    x, y = a.data, b.data
    try:
        out = Tensor(x @ y)
    except ValueError as exc:
        raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}: {exc}") from None

    def rule(g):
        ga = _unbroadcast(g @ y.swapaxes(-1, -2), x.shape)
        gb = _unbroadcast(x.swapaxes(-1, -2) @ g, y.shape)
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
    """``normalize(a) * gain + bias`` along ``axis``, as one tape record."""
    mu = a.data.mean(axis=axis, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=axis, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    y = centered * inv_std
    try:
        out = Tensor(y * gain.data + bias.data)
    except ValueError as exc:
        raise ShapeMismatch(
            f"layer_norm of {a.shape} with gain {gain.shape}, bias {bias.shape}: {exc}"
        ) from None

    scale = gain.data
    bias_shape = bias.shape

    def rule(g):
        gy = g * scale
        g_mean = gy.mean(axis=axis, keepdims=True)
        gyy_mean = (gy * y).mean(axis=axis, keepdims=True)
        return (
            inv_std * (gy - g_mean - y * gyy_mean),
            _unbroadcast(g * y, scale.shape),
            _unbroadcast(g, bias_shape),
        )

    return _emit(out, (a, gain, bias), rule)


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
