"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and remembers how it was produced; backward()
replays the graph in reverse topological order accumulating gradients. Every
operation stores an explicit closure computing its input gradients, so custom
primitives (bilinear sampling, the selective scan, triangulation) plug in
through from_op with their own analytic backward passes.

Broadcasting follows numpy; gradients are summed back over broadcast axes.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def backward(self, seed=None):
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without seed needs a scalar output")
            seed = np.ones_like(self.data)
        order = _toposort(self)
        grads = {id(self): np.asarray(seed, dtype=float)}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None or node._backward is None:
                if g is not None and node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not _needs_grad(parent):
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


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._backward is not None


def _toposort(root: Tensor):
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
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return list(reversed(order))


def from_op(data: np.ndarray, parents, backward) -> Tensor:
    """Create a graph node: `backward(upstream)` must return one gradient
    (ndarray or None) per parent, in order."""
    out = Tensor(data)
    tracked = tuple(Tensor._lift(p) for p in parents)
    if any(_needs_grad(p) for p in tracked):
        out._parents = tracked
        out._backward = backward
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

def add(a, b) -> Tensor:
    a, b = Tensor._lift(a), Tensor._lift(b)
    return from_op(a.data + b.data, (a, b),
                   lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = Tensor._lift(a), Tensor._lift(b)
    return from_op(a.data * b.data, (a, b),
                   lambda g: (_unbroadcast(g * b.data, a.shape),
                              _unbroadcast(g * a.data, b.shape)))


def div(a, b) -> Tensor:
    a, b = Tensor._lift(a), Tensor._lift(b)
    return from_op(a.data / b.data, (a, b),
                   lambda g: (_unbroadcast(g / b.data, a.shape),
                              _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def matmul(a, b) -> Tensor:
    a, b = Tensor._lift(a), Tensor._lift(b)

    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return from_op(a.data @ b.data, (a, b), backward)


# -- shape --------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = Tensor._lift(a)
    return from_op(a.data.reshape(shape), (a,),
                   lambda g: (g.reshape(a.shape),))


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

    def backward(g):
        out = np.zeros_like(a.data)
        if _selects_once(idx):
            out[idx] = g
        else:
            np.add.at(out, idx, g)
        return (out,)

    return from_op(a.data[idx], (a,), backward)


def concat(parts, axis=0) -> Tensor:
    parts = [Tensor._lift(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return from_op(np.concatenate([p.data for p in parts], axis=axis),
                   tuple(parts), backward)


def stack(parts, axis=0) -> Tensor:
    parts = [Tensor._lift(p) for p in parts]

    def backward(g):
        return tuple(np.moveaxis(g, axis, 0))

    return from_op(np.stack([p.data for p in parts], axis=axis),
                   tuple(parts), backward)


def where(cond, a, b) -> Tensor:
    """cond is a constant boolean array."""
    cond = np.asarray(cond, dtype=bool)
    a, b = Tensor._lift(a), Tensor._lift(b)
    return from_op(np.where(cond, a.data, b.data), (a, b),
                   lambda g: (_unbroadcast(np.where(cond, g, 0.0), a.shape),
                              _unbroadcast(np.where(cond, 0.0, g), b.shape)))


# -- reductions ---------------------------------------------------------------

def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = Tensor._lift(a)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = Tensor._lift(a)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in np.atleast_1d(axis)])

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / count,)

    return from_op(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


# -- elementwise nonlinearities -------------------------------------------------

def exp(a) -> Tensor:
    a = Tensor._lift(a)
    out_data = np.exp(a.data)
    return from_op(out_data, (a,), lambda g: (g * out_data,))


def log(a) -> Tensor:
    a = Tensor._lift(a)
    return from_op(np.log(a.data), (a,), lambda g: (g / a.data,))


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
    out_data = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(a.data))),
                        np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))
    return from_op(out_data, (a,), lambda g: (g * out_data * (1.0 - out_data),))


def softplus(a) -> Tensor:
    a = Tensor._lift(a)
    sig = 1.0 / (1.0 + np.exp(-np.abs(a.data)))
    return from_op(np.logaddexp(0.0, a.data), (a,),
                   lambda g: (g * np.where(a.data >= 0, sig, 1.0 - sig),))


def abs_(a) -> Tensor:
    a = Tensor._lift(a)
    return from_op(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def masked_softmax(logits: Tensor, mask, axis: int) -> Tensor:
    """Softmax over `axis` with weight 0 at masked-out (False) positions.

    Positions where the mask is all-False along the axis come out as zeros.
    The shift constant is detached, which is exact for softmax gradients.
    """
    mask = np.asarray(mask, dtype=bool)
    shifted = np.where(mask, logits.data, -np.inf)
    cmax = np.max(shifted, axis=axis, keepdims=True)
    cmax = np.where(np.isfinite(cmax), cmax, 0.0)
    # masked positions are pinned to exponent 0 so huge masked logits cannot
    # overflow; their weight is zeroed right after
    z = where(mask, logits - Tensor(cmax), Tensor(np.zeros_like(logits.data)))
    e = mul(exp(z), mask.astype(float))
    denom = sum_(e, axis=axis, keepdims=True)
    safe = where(denom.data > 0.0, denom, Tensor(np.ones_like(denom.data)))
    return div(e, safe)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    mu = mean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = mean(mul(xc, xc), axis=-1, keepdims=True)
    return mul(div(xc, sqrt(var + eps)), gamma) + beta
