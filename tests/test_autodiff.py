import weakref

import numpy as np
import pytest

from scanpose import autodiff as ad
from oracles import rel_error


def fd_check(build, arrays, step=1e-6, tol=1e-6):
    """build(tensors: dict) -> scalar Tensor; checks each array's gradient."""
    tensors = {k: ad.parameter(v) for k, v in arrays.items()}
    loss = build(tensors)
    loss.backward()
    for name, arr in arrays.items():
        fd = np.zeros_like(arr, dtype=float)
        for i in range(arr.size):
            for sgn in (+1, -1):
                pert = {k: v.copy().astype(float) for k, v in arrays.items()}
                pert[name].flat[i] += sgn * step
                val = build({k: ad.Tensor(v) for k, v in pert.items()}).data
                fd.flat[i] += sgn * float(val) / (2 * step)
        an = tensors[name].grad
        assert an is not None, f"no gradient for {name}"
        assert rel_error(an, fd) < tol, f"{name}: {rel_error(an, fd)}"


def test_arithmetic_chain():
    rng = np.random.default_rng(0)
    arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4)),
              "c": rng.uniform(0.5, 2.0, size=(1, 4))}
    fd_check(lambda t: ((t["a"] * t["b"] + t["a"] / t["c"] - 0.7 * t["b"]).sum()),
             arrays)


def test_matmul_broadcast():
    rng = np.random.default_rng(1)
    arrays = {"a": rng.normal(size=(5, 3, 4)), "b": rng.normal(size=(4, 2))}
    fd_check(lambda t: (t["a"] @ t["b"]).sum(), arrays)


@pytest.mark.parametrize("transposed", [False, True])
def test_matmul_nd_by_weight_matches_per_slice_form(transposed):
    """An N-d operand times a 2-D weight runs as one flat GEMM; its value and
    both gradients match the per-slice products and sums, and pass the
    central-difference check."""
    rng = np.random.default_rng(15)
    a = rng.normal(size=(3, 5, 6, 4))
    if transposed:  # a non-contiguous operand, as a transpose leaves it
        a = np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    w = rng.normal(size=(4, 7))
    up = rng.normal(size=(3, 5, 6, 7))
    ta, tw = ad.parameter(a), ad.parameter(w)
    out = ad.matmul(ta, tw)
    (out * up).sum().backward()
    per_slice = np.stack([[a[i, j] @ w for j in range(5)] for i in range(3)])
    grad_a = np.stack([[up[i, j] @ w.T for j in range(5)] for i in range(3)])
    grad_w = sum(a[i, j].T @ up[i, j] for i in range(3) for j in range(5))
    assert rel_error(out.data, per_slice) < 1e-12
    assert rel_error(ta.grad, grad_a) < 1e-12
    assert rel_error(tw.grad, grad_w) < 1e-12
    assert ta.data.flags.c_contiguous != transposed
    fd_check(lambda t: (ad.matmul(t["a"], t["w"]) * up).sum(), {"a": a, "w": w})


def test_reductions_and_shapes():
    rng = np.random.default_rng(2)
    arrays = {"a": rng.normal(size=(4, 6))}

    def build(t):
        x = t["a"].reshape((2, 2, 6)).transpose((1, 0, 2))
        return x.mean(axis=2).sum() + x.sum(axis=(0, 1)).mean()

    fd_check(build, arrays)


def test_gather_scatter_roundtrip():
    rng = np.random.default_rng(3)
    idx = np.array([2, 0, 1, 0])
    arrays = {"a": rng.normal(size=(3, 5))}
    fd_check(lambda t: (t["a"][idx] * np.arange(20).reshape(4, 5)).sum(), arrays)


def test_where():
    rng = np.random.default_rng(4)
    arrays = {"a": rng.normal(size=(5, 2)), "b": rng.normal(size=(1, 2))}
    cond = np.array([[True], [False], [True], [False], [True]])
    fd_check(lambda t: ad.where(cond, t["a"], 0.5 * t["b"]).sum(), arrays)


def test_nonlinearities():
    rng = np.random.default_rng(5)
    arrays = {"a": rng.normal(size=(4, 3))}

    def build(t):
        x = t["a"]
        return (ad.tanh(x).sum() + ad.sigmoid(x).sum()
                + ad.exp(0.1 * x).sum() + ad.log(ad.exp(0.1 * x) + 1.0).sum()
                + ad.sqrt(ad.abs_(x) + 1.0).sum())

    fd_check(build, arrays, tol=1e-5)


def test_sigmoid_matches_three_exp_expression_bit_for_bit():
    x = np.concatenate([np.linspace(-800.0, 800.0, 4001), [0.0, -0.0, 1e-300, -1e-300]])
    expect = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                      np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    assert ad.sigmoid(ad.Tensor(x)).data.tobytes() == expect.tobytes()


def test_softmax_grad_and_sums_to_one():
    rng = np.random.default_rng(6)
    arrays = {"a": rng.normal(size=(2, 4))}

    def build(t):
        w = ad.softmax(t["a"], axis=1)
        return (w * np.arange(8).reshape(2, 4)).sum()

    fd_check(build, arrays)
    w = ad.softmax(ad.Tensor(rng.normal(size=(2, 4))), axis=1)
    assert np.allclose(w.data.sum(axis=1), 1.0)


def test_softmax_huge_logits_do_not_overflow():
    logits = ad.Tensor(np.array([[1.0, 2000.0, 0.5]]))
    w = ad.softmax(logits, axis=1)
    assert np.all(np.isfinite(w.data))
    assert w.data[0, 1] == 1.0  # exp(-1999) underflows to 0 next to it


def test_layer_norm_matches_manual():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 5))
    gamma = rng.normal(size=5)
    beta = rng.normal(size=5)
    out = ad.layer_norm(ad.Tensor(x), ad.Tensor(gamma), ad.Tensor(beta))
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    expect = (x - mu) / np.sqrt(var + 1e-6) * gamma + beta
    assert rel_error(out.data, expect) < 1e-12
    arrays = {"x": x, "g": gamma, "b": beta}
    fd_check(lambda t: (ad.layer_norm(t["x"], t["g"], t["b"])
                        * np.arange(15).reshape(3, 5)).sum(), arrays, tol=1e-5)


def test_gradient_accumulates_over_shared_nodes():
    a = ad.parameter(np.array([2.0]))
    y = a * a + a * 3.0  # dy/da = 2a + 3 = 7
    y.backward()
    assert np.allclose(a.grad, [7.0])


def test_no_grad_constants_stay_untracked():
    a = ad.Tensor(np.ones(3))
    b = ad.Tensor(np.ones(3))
    out = (a * b).sum()
    assert out._node is None and not out.requires_grad
    with pytest.raises(ValueError):
        ad.Tensor(np.ones(3)).backward()  # only a scalar output is seeded


def test_custom_op_plugs_in():
    rng = np.random.default_rng(8)
    x = ad.parameter(rng.normal(size=4))

    def backward(g):
        return (3.0 * x.data ** 2 * g,)

    y = ad.from_op(x.data ** 3, (x,), backward)
    y.sum().backward()
    assert rel_error(x.grad, 3.0 * x.data ** 2) < 1e-12


@pytest.mark.parametrize("idx, expected", [
    ((Ellipsis, slice(0, 2)), lambda g: np.concatenate([g, np.zeros((3, 2))], axis=1)),
    ((slice(None), np.array([3, 0, 2, 1])), lambda g: g[:, np.argsort([3, 0, 2, 1])]),
    (np.array([2, 0, 2, -1]), lambda g: np.stack([g[1], np.zeros(4), g[0] + g[2] + g[3]])),
    (np.array([0, -3]), lambda g: np.stack([g[0] + g[1], np.zeros(4), np.zeros(4)])),
    (np.array([True, False, True]), lambda g: np.stack([g[0], np.zeros(4), g[1]])),
])
def test_take_backward_assigns_or_accumulates(idx, expected):
    rng = np.random.default_rng(9)
    a = ad.parameter(rng.normal(size=(3, 4)))
    out = a[idx]
    g = rng.normal(size=out.shape)
    (out * g).sum().backward()
    assert np.array_equal(a.grad, expected(g))


_BINARY = {
    "add": (ad.add, (3, 4), (1, 4)),
    "mul": (ad.mul, (3, 4), (3, 1)),
    "div": (ad.div, (2, 3, 4), (4,)),
    "where": (lambda a, b: ad.where(np.arange(12).reshape(3, 4) % 3 == 0, a, b),
              (3, 4), (1, 4)),
    "matmul": (ad.matmul, (2, 3, 4), (4, 5)),
}


@pytest.mark.parametrize("constant", [0, 1])
@pytest.mark.parametrize("op", sorted(_BINARY))
def test_constant_operand_gets_no_gradient(op, constant):
    """A constant operand (a plain array or an untracked Tensor) gets None
    from the backward; the other operand's gradient is bit-equal to the one
    it gets when both operands are parameters."""
    fn, shape_a, shape_b = _BINARY[op]
    rng = np.random.default_rng(10)
    data = [rng.normal(size=shape_a), rng.uniform(0.5, 2.0, size=shape_b)]
    both = fn(*(ad.parameter(d) for d in data))
    upstream = rng.normal(size=both.shape)
    want = both._node.backward(upstream)
    for const in (data[constant], ad.Tensor(data[constant])):
        operands = [ad.parameter(d) for d in data]
        operands[constant] = const
        got = fn(*operands)._node.backward(upstream)
        assert got[constant] is None
        assert np.array_equal(got[1 - constant], want[1 - constant])


def _take_from_sum(a, b):
    x = a + b  # take's backward keeps only x's shape
    return x, x[np.array([2, 0])]


# op -> its output, or (the tensor whose data must be freed, the op's output)
_RETENTION = {
    "add": lambda a, b: a + b,
    "mul by a mask": lambda a, b: ad.mul(a, np.array([[1.0], [0.0], [1.0]])),
    "sum_": lambda a, b: ad.sum_(a, axis=0),
    "take": _take_from_sum,
}


def _pair(out):
    return out if isinstance(out, tuple) else (out, out)


def _retention_run(op, keep):
    rng = np.random.default_rng(14)
    a, b = ad.parameter(rng.normal(size=(3, 4))), ad.parameter(rng.normal(size=(3, 4)))
    dropped, top = _pair(_RETENTION[op](a, b))
    # a constant weight and a sum keep shapes and the weight, not top's data
    loss = ad.sum_(ad.mul(top, rng.normal(size=top.shape)))
    ref = weakref.ref(dropped.data)
    kept = (dropped, top) if keep else ()
    del dropped, top
    alive = ref() is not None
    loss.backward()
    return alive, a.grad, b.grad, kept


@pytest.mark.parametrize("op", sorted(_RETENTION))
def test_tape_keeps_no_forward_output_the_backward_does_not_read(op):
    """Once the forward drops its name, an intermediate that no backward
    reads is freed, and the gradients are those of a run that keeps it."""
    alive, ga, gb, _ = _retention_run(op, keep=False)
    assert not alive
    alive, want_a, want_b, _ = _retention_run(op, keep=True)
    assert alive
    for got, want in ((ga, want_a), (gb, want_b)):
        assert (got is None and want is None) or np.array_equal(got, want)
    assert ga is not None
