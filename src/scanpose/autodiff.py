"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and the _Node that records how it was
produced; backward() replays the nodes in reverse topological order
accumulating gradients. Every operation stores an explicit closure computing
its input gradients, so custom primitives (bilinear sampling, the selective
scan, triangulation) plug in through from_op with their own analytic backward
passes.

Retention rule: the tape holds nodes, never Tensors, and a closure captures
the arrays, shapes and flags it reads, never a Tensor. An intermediate's data
is therefore freed as soon as the forward drops its name, unless a backward
reads it.

Broadcasting follows numpy; gradients are summed back over broadcast axes.
"""

from __future__ import annotations

import numpy as np


class _Node:
    """The parents' nodes (None for a constant), the backward closure (None
    for a leaf) and a leaf's accumulated gradient."""
    __slots__ = ("parents", "backward", "grad")

    def __init__(self, parents=(), backward=None):
        self.parents = parents
        self.backward = backward
        self.grad = None


class Tensor:
    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=float)
        self._node = _Node() if requires_grad else None  # None: a constant

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @property
    def shape(self):
        return self.data.shape

    @property
    def requires_grad(self) -> bool:
        """True for a parameter and for every op output on the tape."""
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar output")
        if self._node is None:
            return
        order = _toposort(self._node)
        grads = {id(self._node): np.ones_like(self.data)}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.backward is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node.parents, node.backward(g)):
                if pg is None or parent is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # -- operators -----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -Tensor._lift(other))

    def __rsub__(self, other):
        return add(Tensor._lift(other), -self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(Tensor._lift(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis, keepdims)


def _toposort(root: _Node):
    """Reverse DFS post-order over the nodes; constants are not walked."""
    seen = set()
    order = []
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p is not None and id(p) not in seen:
                stack.append((p, False))
    return list(reversed(order))


def from_op(data: np.ndarray, parents, backward) -> Tensor:
    """Create a graph node: `backward(upstream)` must return one gradient
    (ndarray or None) per parent, in order."""
    out = Tensor(data)
    nodes = tuple(p._node if isinstance(p, Tensor) else None for p in parents)
    if any(n is not None for n in nodes):
        out._node = _Node(nodes, backward)
    return out


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=float), requires_grad=True)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- arithmetic ---------------------------------------------------------------

# binary ops return no gradient for a constant operand (a mask, a denominator),
# and keep an operand's data only when the other operand's gradient reads it
def add(a, b) -> Tensor:
    a, b = Tensor._lift(a), Tensor._lift(b)
    ga, gb, sa, sb = a.requires_grad, b.requires_grad, a.shape, b.shape
    return from_op(a.data + b.data, (a, b),
                   lambda g: (_unbroadcast(g, sa) if ga else None,
                              _unbroadcast(g, sb) if gb else None))


def mul(a, b) -> Tensor:
    a, b = Tensor._lift(a), Tensor._lift(b)
    ga, gb, sa, sb = a.requires_grad, b.requires_grad, a.shape, b.shape
    xa, xb = a.data if gb else None, b.data if ga else None
    return from_op(a.data * b.data, (a, b),
                   lambda g: (_unbroadcast(g * xb, sa) if ga else None,
                              _unbroadcast(g * xa, sb) if gb else None))


def div(a, b) -> Tensor:
    a, b = Tensor._lift(a), Tensor._lift(b)
    ga, gb, sa, sb = a.requires_grad, b.requires_grad, a.shape, b.shape
    xa, xb = a.data if gb else None, b.data
    return from_op(a.data / b.data, (a, b),
                   lambda g: (_unbroadcast(g / xb, sa) if ga else None,
                              _unbroadcast(-g * xa / (xb * xb), sb) if gb else None))


def matmul(a, b) -> Tensor:
    a, b = Tensor._lift(a), Tensor._lift(b)
    ga, gb, sa, sb = a.requires_grad, b.requires_grad, a.shape, b.shape
    if len(sa) > 2 and len(sb) == 2:  # one 2-D GEMM over the rows, not one per slice
        rows = a.data.reshape(-1, sa[-1])
        xa, xb = rows if gb else None, b.data if ga else None
        return from_op((rows @ b.data).reshape(sa[:-1] + sb[-1:]), (a, b), lambda g: (
            (g.reshape(-1, sb[-1]) @ xb.T).reshape(sa) if ga else None,
            xa.T @ g.reshape(-1, sb[-1]) if gb else None))
    xa, xb = a.data if gb else None, b.data if ga else None

    def backward(g):
        return (_unbroadcast(g @ np.swapaxes(xb, -1, -2), sa) if ga else None,
                _unbroadcast(np.swapaxes(xa, -1, -2) @ g, sb) if gb else None)

    return from_op(a.data @ b.data, (a, b), backward)


# -- shape --------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = Tensor._lift(a)
    in_shape = a.shape
    return from_op(a.data.reshape(shape), (a,),
                   lambda g: (g.reshape(in_shape),))


def transpose(a, axes) -> Tensor:
    a = Tensor._lift(a)
    inv = np.argsort(axes)
    return from_op(np.transpose(a.data, axes), (a,),
                   lambda g: (np.transpose(g, inv),))


def _selects_once(idx) -> bool:
    """True when indexing with idx reaches no element twice: basic indices,
    one boolean mask, or one non-negative integer array without repeats."""
    arrays = [np.asarray(i) for i in (idx if isinstance(idx, tuple) else (idx,))
              if not (i is None or i is Ellipsis or isinstance(i, (slice, int, np.integer)))]
    if len(arrays) != 1:
        return not arrays  # two index arrays can pair up into repeats
    a0 = arrays[0]
    return a0.dtype == bool or (a0.min(initial=0) >= 0 and np.unique(a0).size == a0.size)


def take(a, idx) -> Tensor:
    """Indexing / gather. Backward assigns when no element is reached twice
    and scatter-adds otherwise."""
    a = Tensor._lift(a)
    shape = a.shape

    def backward(g):
        out = np.zeros(shape)
        if _selects_once(idx):
            out[idx] = g
        else:
            np.add.at(out, idx, g)
        return (out,)

    return from_op(a.data[idx], (a,), backward)


def where(cond, a, b) -> Tensor:
    """cond is a constant boolean array."""
    cond = np.asarray(cond, dtype=bool)
    a, b = Tensor._lift(a), Tensor._lift(b)
    ga, gb, sa, sb = a.requires_grad, b.requires_grad, a.shape, b.shape
    return from_op(np.where(cond, a.data, b.data), (a, b),
                   lambda g: (_unbroadcast(np.where(cond, g, 0.0), sa) if ga else None,
                              _unbroadcast(np.where(cond, 0.0, g), sb) if gb else None))


# -- reductions ---------------------------------------------------------------

def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = Tensor._lift(a)
    in_shape = a.shape

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = Tensor._lift(a)
    in_shape = a.shape
    count = a.data.size if axis is None else np.prod(
        [in_shape[ax] for ax in np.atleast_1d(axis)])

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape) / count,)

    return from_op(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


# -- elementwise nonlinearities -------------------------------------------------

def exp(a) -> Tensor:
    a = Tensor._lift(a)
    out_data = np.exp(a.data)
    return from_op(out_data, (a,), lambda g: (g * out_data,))


def log(a) -> Tensor:
    a = Tensor._lift(a)
    x = a.data
    return from_op(np.log(x), (a,), lambda g: (g / x,))


def sqrt(a) -> Tensor:
    a = Tensor._lift(a)
    out_data = np.sqrt(a.data)
    return from_op(out_data, (a,), lambda g: (g / (2.0 * out_data),))


def tanh(a) -> Tensor:
    a = Tensor._lift(a)
    out_data = np.tanh(a.data)
    return from_op(out_data, (a,), lambda g: (g * (1.0 - out_data * out_data),))


def sigmoid(a) -> Tensor:
    a = Tensor._lift(a)
    e = np.exp(-np.abs(a.data))  # <= 1, so neither branch overflows
    out_data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return from_op(out_data, (a,), lambda g: (g * out_data * (1.0 - out_data),))


def abs_(a) -> Tensor:
    a = Tensor._lift(a)
    x = a.data
    return from_op(np.abs(x), (a,), lambda g: (g * np.sign(x),))


def softmax(logits: Tensor, axis: int) -> Tensor:
    """Softmax over `axis`. The max shift keeps exp from overflowing; it is
    detached, which is exact for softmax gradients."""
    cmax = np.max(logits.data, axis=axis, keepdims=True)
    e = exp(logits - Tensor(cmax))
    return div(e, sum_(e, axis=axis, keepdims=True))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    mu = mean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = mean(mul(xc, xc), axis=-1, keepdims=True)
    return mul(div(xc, sqrt(var + 1e-6)), gamma) + beta
