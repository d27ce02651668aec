import decimal
import math
import warnings

import numpy as np
import pytest

from scanpose import ssm
from oracles import (expm_taylor_ld, lti_scan_ld, phi1_prime, rel_error, scan_grads_mp,
                     selective_scan_backward_step_major, selective_scan_step_major)


def random_selective(rng, L=3, S=4, scale=0.5):
    return ssm.SelectiveParams(
        w_delta=rng.normal(scale=scale, size=(L, L)),
        b_delta=rng.normal(scale=scale, size=L),
        w_b=rng.normal(scale=scale, size=(L, S)),
        w_c=rng.normal(scale=scale, size=(L, S)),
        A=-rng.uniform(0.2, 1.5, size=(L, S)),
        D=rng.normal(scale=scale, size=L),
    )


def scan(sel, x):
    """One (steps, L) sequence through the batched scan."""
    return ssm.selective_scan_batch(sel, np.asarray(x, dtype=float)[None])[0][0]


def scan_backward(sel, x, upstream):
    """Gradients of scan(sel, x) for the input and every parameter, given
    dLoss/dy = upstream of shape (steps, L)."""
    _, cache = ssm.selective_scan_batch(sel, np.asarray(x, dtype=float)[None])
    grads = ssm.selective_scan_backward(sel, cache, np.asarray(upstream, dtype=float)[None])
    grads["x"] = grads["x"][0]
    return grads


def naive_selective_scan(sel, x):
    """Literal per-step, per-channel, per-state recurrence from the
    definitions; no vectorization shared with the implementation."""
    T, L = x.shape
    S = sel.A.shape[1]
    y = np.zeros((T, L))
    h = [[0.0] * S for _ in range(L)]
    for t in range(T):
        pre = [sum(x[t][i] * sel.w_delta[i][l] for i in range(L)) + sel.b_delta[l]
               for l in range(L)]
        delta = [math.log1p(math.exp(p)) if p < 30 else p for p in pre]
        Bt = [sum(x[t][i] * sel.w_b[i][s] for i in range(L)) for s in range(S)]
        Ct = [sum(x[t][i] * sel.w_c[i][s] for i in range(L)) for s in range(S)]
        for l in range(L):
            acc = 0.0
            for s in range(S):
                m = delta[l] * sel.A[l][s]
                abar = math.exp(m)
                if abs(m) >= 1e-3:
                    bbar = math.expm1(m) / sel.A[l][s]
                else:
                    bbar = delta[l] * sum(m ** k / math.factorial(k + 1)
                                          for k in range(6))
                h[l][s] = abar * h[l][s] + bbar * Bt[s] * x[t][l]
                acc += Ct[s] * h[l][s]
            y[t][l] = acc + sel.D[l] * x[t][l]
    return y


def constant_step(delta):
    """b_delta whose softplus is delta: with w_delta = 0 every step of a
    channel then has step size delta."""
    return np.log(np.expm1(delta))


def scan_zoh(A, delta):
    """The zero-order hold factors of one scan step for the state coefficients
    A (L, S) and per-channel step sizes delta (L,): abar, g / delta (that is,
    phi1(m)), m = delta A as the scan multiplies it, and delta."""
    L, S = A.shape
    sel = ssm.SelectiveParams(w_delta=np.zeros((L, L)), b_delta=constant_step(delta),
                              w_b=np.zeros((L, S)), w_c=np.zeros((L, S)), A=A,
                              D=np.zeros(L))
    _, cache = ssm.selective_scan_batch(sel, np.zeros((1, 1, L)))
    abar, g = ssm._zoh(sel.A, cache["delta"])  # state-major: (L, [S,] steps, batch)
    delta = cache["delta"][:, 0, 0]
    return abar[..., 0, 0], g[..., 0, 0] / delta[:, None], delta[:, None] * A, delta


def lti_system(rng, n=4):
    """A stable diagonal time-invariant system (a, b, c, d, delta)."""
    return (rng.uniform(-2.0, -0.1, size=n), rng.normal(size=n), rng.normal(size=n),
            float(rng.normal()), float(rng.uniform(0.1, 0.8)))


def lti_scan(a, b, c, d, delta, xs):
    """The selective scan run as a time-invariant one: channel 0 carries the
    data xs and channel 1 is fixed at 1.0, so with w_delta = 0 every step has
    step size delta, B_t = b and C_t = c. Returns channel 0's output."""
    n = len(a)
    w_b = np.zeros((2, n))
    w_b[1] = b
    w_c = np.zeros((2, n))
    w_c[1] = c
    sel = ssm.SelectiveParams(w_delta=np.zeros((2, 2)),
                              b_delta=constant_step(np.full(2, delta)),
                              w_b=w_b, w_c=w_c, A=np.stack([a, a]), D=[d, 0.0])
    xs = np.asarray(xs, dtype=float)
    return scan(sel, np.stack([xs, np.ones(xs.size)], axis=1))[:, 0]


def scan_recurrent(a, b, c, d, delta, xs):
    """The time-invariant diagonal recurrence h_t = abar h_{t-1} + g b x_t,
    y_t = sum(h_t c) + d x_t from a zero state, one step at a time, with the
    expressions in the order that the selective scan evaluates them."""
    m = delta * np.asarray(a, dtype=float)
    abar = np.exp(m)
    g = np.expm1(m) / a
    h = np.zeros(m.size)
    y = np.empty(len(xs))
    for t, x in enumerate(xs):
        h = abar * h + g * b * x
        y[t] = np.sum(h * c) + d * x
    return y


# ---------------------------------------------------------------------------
# zero-order hold: the scan's abar and g
# ---------------------------------------------------------------------------

def test_zoh_zero_A_limit():
    # exp(0) = 1 and phi1(0) = 1, so g = delta and bbar = delta B
    abar, phi, _, delta = scan_zoh(np.zeros((1, 1)), np.array([0.1]))
    assert np.allclose(abar, [[1.0]])
    assert np.allclose(phi * delta, [[0.1]])


def test_zoh_scalar_closed_form():
    # a = -1, delta = ln 2 (the softplus of 0): abar = 1/2,
    # bbar = a^-1 (e^{da} - 1) b = 1/2 for b = 1
    sel = ssm.SelectiveParams(w_delta=np.zeros((1, 1)), b_delta=[0.0],
                              w_b=[[0.0]], w_c=[[0.0]], A=[[-1.0]], D=[0.0])
    _, cache = ssm.selective_scan_batch(sel, np.zeros((1, 1, 1)))
    abar, g = ssm._zoh(sel.A, cache["delta"])
    assert abs(abar.item() - 0.5) < 1e-14
    assert abs(g.item() - 0.5) < 1e-14


def test_zoh_diagonal_matches_dense_expm_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        L, S = (int(v) for v in rng.integers(1, 5, size=2))
        A = rng.uniform(-3.0, 1.0, size=(L, S))
        abar, phi, _, delta = scan_zoh(A, rng.uniform(0.05, 1.5, size=L))
        m = (delta[:, None].astype(np.longdouble) * A).ravel()
        E = np.asarray(np.diag(expm_taylor_ld(np.diag(m))), dtype=float)
        assert rel_error(abar.ravel(), E) < 1e-12
        assert rel_error(phi.ravel(), np.asarray(np.expm1(m) / m, dtype=float)) < 1e-12


def test_zoh_series_switch_continuity():
    # straddle |m| = 1e-3 and compare both sides: the factor has no branch there
    rng = np.random.default_rng(7)
    for _ in range(10):
        L, S = 3, 4
        delta = rng.uniform(0.2, 1.0, size=L)
        sign = rng.choice([-1.0, 1.0], size=(L, S))
        lo, hi = (scan_zoh(sign * 1e-3 * scale / delta[:, None], delta)
                  for scale in (1.0 - 1e-9, 1.0 + 1e-9))
        assert np.all(np.abs(lo[2]) < 1e-3)
        assert np.all(np.abs(hi[2]) > 1e-3)
        assert np.max(np.abs(lo[0] - hi[0])) < 1e-10
        assert np.max(np.abs(lo[1] - hi[1])) < 1e-10


# ---------------------------------------------------------------------------
# the selective scan as a time-invariant scan
# ---------------------------------------------------------------------------

def test_scan_zero_input_zero_output():
    assert np.all(lti_scan(*lti_system(np.random.default_rng(8)), np.zeros(12)) == 0.0)


def test_scan_single_step_unrolled():
    a, b, c, d, delta = lti_system(np.random.default_rng(9))
    x1 = 1.7
    bbar = np.expm1(delta * a) / a * b
    y = lti_scan(a, b, c, d, delta, [x1])
    assert abs(y[0] - (c @ bbar * x1 + d * x1)) < 1e-12


# the scan's state matrix is diagonal: the diagonal case is the only one
@pytest.mark.parametrize("diagonal", [True])
def test_scan_matches_convolution_kernel_oracle(diagonal):
    rng = np.random.default_rng(10)
    for _ in range(10):
        system = lti_system(rng)
        x = rng.normal(size=16)
        assert rel_error(lti_scan(*system, x), lti_scan_ld(*system, x)) < 1e-10


def test_scan_linearity():
    rng = np.random.default_rng(11)
    system = lti_system(rng)
    x = rng.normal(size=20)
    z = rng.normal(size=20)
    lhs = lti_scan(*system, 2.5 * x - 1.25 * z)
    rhs = 2.5 * lti_scan(*system, x) - 1.25 * lti_scan(*system, z)
    assert rel_error(lhs, rhs) < 1e-12


def test_scan_empty_sequence_raises():
    with pytest.raises(ValueError, match="expected non-empty"):
        lti_scan(*lti_system(np.random.default_rng(12)), [])


# ---------------------------------------------------------------------------
# selective_scan_batch
# ---------------------------------------------------------------------------

def test_selective_constant_projections_reduce_to_lti():
    rng = np.random.default_rng(13)
    L, S = 3, 4
    b_delta = rng.normal(size=L)
    w_b = np.zeros((L, S))
    w_c = np.zeros((L, S))
    sel = ssm.SelectiveParams(w_delta=np.zeros((L, L)), b_delta=b_delta,
                              w_b=w_b, w_c=w_c, A=-rng.uniform(0.2, 1.0, (L, S)),
                              D=rng.normal(size=L))
    x = rng.normal(size=(9, L))
    y = scan(sel, x)
    # with B_t = C_t = 0 the recurrence reduces to the pure feed-through
    assert rel_error(y, x * sel.D) < 1e-12


def test_selective_constant_delta_matches_scan_recurrent_exactly():
    # a single always-on channel drives constant B_t and C_t, so the data
    # channel runs the time-invariant recurrence
    rng = np.random.default_rng(14)
    S = 3
    L = 2  # channel 0 is data, channel 1 is constant 1.0
    Bconst = rng.normal(size=S)
    Cconst = rng.normal(size=S)
    w_b = np.zeros((L, S))
    w_b[1] = Bconst
    w_c = np.zeros((L, S))
    w_c[1] = Cconst
    b_delta = rng.normal(size=L)
    A = -rng.uniform(0.2, 1.2, size=(L, S))
    D = rng.normal(size=L)
    sel = ssm.SelectiveParams(w_delta=np.zeros((L, L)), b_delta=b_delta,
                              w_b=w_b, w_c=w_c, A=A, D=D)
    xs = rng.normal(size=10)
    y = scan(sel, np.stack([xs, np.ones(10)], axis=1))
    delta0 = float(np.logaddexp(0.0, b_delta[0]))
    expect = scan_recurrent(A[0], Bconst, Cconst, float(D[0]), delta0, xs)
    assert np.array_equal(y[:, 0], expect)


def test_selective_matches_naive_oracle():
    rng = np.random.default_rng(15)
    for _ in range(10):
        L = int(rng.integers(1, 5))
        S = int(rng.integers(1, 5))
        T = int(rng.integers(1, 12))
        sel = random_selective(rng, L=L, S=S)
        x = rng.normal(size=(T, L))
        assert rel_error(scan(sel, x), naive_selective_scan(sel, x)) < 1e-10


def test_selective_zero_input_zero_bias_is_zero():
    rng = np.random.default_rng(16)
    sel = random_selective(rng, L=3, S=2)
    x = np.zeros((7, 3))
    assert np.all(scan(sel, x) == 0.0)


def test_selective_causality():
    rng = np.random.default_rng(17)
    sel = random_selective(rng, L=3, S=3)
    x = rng.normal(size=(10, 3))
    y = scan(sel, x)
    x2 = x.copy()
    x2[6:] += rng.normal(size=(4, 3))  # future-only perturbation
    y2 = scan(sel, x2)
    assert np.array_equal(y[:6], y2[:6])
    assert not np.allclose(y[6:], y2[6:])


def test_selective_empty_raises():
    sel = random_selective(np.random.default_rng(18))
    with pytest.raises(ValueError, match="expected non-empty"):
        ssm.selective_scan_batch(sel, np.zeros((1, 0, 3)))
    with pytest.raises(ValueError, match="expected non-empty"):
        ssm.selective_scan_batch(sel, np.zeros((0, 3)))  # one unbatched sequence


# ---------------------------------------------------------------------------
# selective_scan_backward
# ---------------------------------------------------------------------------

def _flatten_params(sel):
    return np.concatenate([sel.w_delta.ravel(), sel.b_delta.ravel(),
                           sel.w_b.ravel(), sel.w_c.ravel(),
                           sel.A.ravel(), sel.D.ravel()])


def _rebuild(flat, L, S):
    idx = 0
    def take(shape):
        nonlocal idx
        size = int(np.prod(shape))
        out = flat[idx: idx + size].reshape(shape)
        idx += size
        return out
    return ssm.SelectiveParams(w_delta=take((L, L)), b_delta=take((L,)),
                               w_b=take((L, S)), w_c=take((L, S)),
                               A=take((L, S)), D=take((L,)))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(19)
    L, S, T = 3, 4, 8
    sel = random_selective(rng, L=L, S=S)
    x = rng.normal(size=(T, L))
    upstream = rng.normal(size=(T, L))
    grads = scan_backward(sel, x, upstream)

    def loss_wrt_x(xf):
        return float(np.sum(scan(sel, xf.reshape(T, L)) * upstream))

    def loss_wrt_p(pf):
        return float(np.sum(scan(_rebuild(pf, L, S), x) * upstream))

    step = 1e-6
    fd_x = np.array([
        (loss_wrt_x(xp) - loss_wrt_x(xm)) / (2 * step)
        for xp, xm in ((x.ravel() + step * e, x.ravel() - step * e)
                       for e in np.eye(x.size))
    ]).reshape(T, L)
    assert rel_error(grads["x"], fd_x) < 1e-4

    p0 = _flatten_params(sel)
    fd_p = np.array([
        (loss_wrt_p(p0 + step * e) - loss_wrt_p(p0 - step * e)) / (2 * step)
        for e in np.eye(p0.size)
    ])
    analytic = np.concatenate([grads["w_delta"].ravel(), grads["b_delta"].ravel(),
                               grads["w_b"].ravel(), grads["w_c"].ravel(),
                               grads["A"].ravel(), grads["D"].ravel()])
    assert rel_error(analytic, fd_p) < 1e-4

    # a softplus saturated at pre < -709 passes exactly no gradient, and
    # exp(-pre) overflowing on the way raises no warning
    saturated = ssm.SelectiveParams(**{**sel.__dict__, "b_delta": [-800.0, *sel.b_delta[1:]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grads = scan_backward(saturated, x, upstream)
    assert np.all(grads["b_delta"][0] == 0.0) and np.all(grads["w_delta"][:, 0] == 0.0)
    assert all(np.all(np.isfinite(v)) for v in grads.values())


def test_backward_zero_upstream_zero_grads():
    rng = np.random.default_rng(20)
    sel = random_selective(rng)
    x = rng.normal(size=(6, 3))
    grads = scan_backward(sel, x, np.zeros((6, 3)))
    for v in grads.values():
        assert np.all(v == 0.0)


def test_backward_causality_of_input_gradients():
    rng = np.random.default_rng(21)
    sel = random_selective(rng)
    x = rng.normal(size=(9, 3))
    upstream = np.zeros((9, 3))
    upstream[4] = rng.normal(size=3)  # loss reads only step 4
    grads = scan_backward(sel, x, upstream)
    assert np.all(grads["x"][5:] == 0.0)
    assert np.any(grads["x"][:5] != 0.0)


def test_batched_scan_matches_per_sequence():
    rng = np.random.default_rng(22)
    sel = random_selective(rng)
    xb = rng.normal(size=(5, 7, 3))
    yb, _ = ssm.selective_scan_batch(sel, xb)
    for b in range(5):
        assert np.array_equal(yb[b], scan(sel, xb[b]))  # rows do not interact
        assert rel_error(yb[b], naive_selective_scan(sel, xb[b])) < 1e-10


def test_batched_scan_output_keeps_input_layout():
    # seq[:, order] is step-major, not C-contiguous; a C-ordered input with
    # the same values gives the same y
    rng = np.random.default_rng(23)
    sel = random_selective(rng)
    seq = rng.normal(size=(4, 9, 3))
    x = seq[:, rng.permutation(9)]
    assert not x.flags.c_contiguous
    y, _ = ssm.selective_scan_batch(sel, x)
    assert np.array_equal(y, ssm.selective_scan_batch(sel, np.ascontiguousarray(x))[0])


def _mixed_selective(rng, L=3):
    """Selective parameters whose m = delta * A lands below 1e-3 (first state),
    between 1e-3 and _PHI1P_THRESHOLD (second) and above both (rest)."""
    sel = random_selective(rng, L=L, S=4)
    A = np.tile([-2e-4, -0.02, -0.5, -1.2], (L, 1))
    return ssm.SelectiveParams(w_delta=sel.w_delta, b_delta=sel.b_delta,
                               w_b=sel.w_b, w_c=sel.w_c, A=A, D=sel.D)


def loop_selective_backward(sel, cache, upstream):
    """Reference reverse pass: one step at a time, every gradient
    accumulated inside the loop."""
    cache = {**cache, **dict(zip(("abar", "g"), ssm._zoh(sel.A, cache["delta"])))}
    # batch-major: (L|S, T, B) -> (B, T, L|S) and (L, S, T, B) -> (B, T, L, S)
    cache = {k: np.transpose(v, (2, 1, 0) if v.ndim == 3 else (3, 2, 0, 1))
             for k, v in cache.items()}
    x, delta, Bm, Cm = cache["x"], cache["delta"], cache["Bm"], cache["Cm"]
    abar, g, hs = cache["abar"], cache["g"], cache["hs"]
    m = delta[..., None] * sel.A
    T = x.shape[1]
    dx, dBm, dCm = np.zeros_like(x), np.zeros_like(Bm), np.zeros_like(Cm)
    ddelta, dA, dD = np.zeros_like(delta), np.zeros_like(sel.A), np.zeros_like(sel.D)
    phi1p = phi1_prime(m)
    dh_next = np.zeros_like(hs[:, 0])
    for t in range(T - 1, -1, -1):
        dy = upstream[:, t]
        dD += np.sum(dy * x[:, t], axis=0)
        dx[:, t] += dy * sel.D
        dCm[:, t] = np.einsum("bl,bls->bs", dy, hs[:, t])
        dh = dy[..., None] * Cm[:, t, None, :] + dh_next
        h_prev = hs[:, t - 1] if t > 0 else np.zeros_like(dh)
        dabar = dh * h_prev
        dG = dh * Bm[:, t, None, :] * x[:, t, :, None]
        dBm[:, t] = np.einsum("bls,bls,bl->bs", dh, g[:, t], x[:, t])
        dx[:, t] += np.einsum("bls,bls,bs->bl", dh, g[:, t], Bm[:, t])
        ddelta[:, t] = np.einsum("bls,ls,bls->bl", dabar, sel.A, abar[:, t]) \
            + np.einsum("bls,bls->bl", dG, abar[:, t])
        dA += np.einsum("bls,bl,bls->ls", dabar, delta[:, t], abar[:, t]) \
            + np.einsum("bls,bl,bls->ls", dG, delta[:, t] ** 2, phi1p[:, t])
        dh_next = dh * abar[:, t]
    dpre = ddelta * (1.0 / (1.0 + np.exp(-cache["pre"])))
    dx += dpre @ sel.w_delta.T + dBm @ sel.w_b.T + dCm @ sel.w_c.T
    return {"x": dx, "w_delta": np.einsum("btl,btk->lk", x, dpre),
            "b_delta": dpre.sum(axis=(0, 1)), "w_b": np.einsum("btl,bts->ls", x, dBm),
            "w_c": np.einsum("btl,bts->ls", x, dCm), "A": dA, "D": dD}


def test_batched_backward_matches_loop_per_sample_and_fd():
    rng = np.random.default_rng(23)
    B, T, L, S = 3, 8, 3, 4
    sel = _mixed_selective(rng, L=L)
    x = rng.normal(size=(B, T, L))
    upstream = rng.normal(size=(B, T, L))
    _, cache = ssm.selective_scan_batch(sel, x)
    small = np.abs(cache["delta"][:, None] * sel.A[..., None, None])  # |m|
    assert np.any(small < 1e-3)
    assert np.any((small >= 1e-3) & (small < ssm._PHI1P_THRESHOLD))
    assert np.any(small >= ssm._PHI1P_THRESHOLD)
    grads = ssm.selective_scan_backward(sel, cache, upstream)
    reference = loop_selective_backward(sel, cache, upstream)
    for name, value in reference.items():
        assert rel_error(grads[name], value) < 1e-12, name

    per_sample = [scan_backward(sel, x[b], upstream[b]) for b in range(B)]
    assert rel_error(grads["x"], np.stack([g["x"] for g in per_sample])) < 1e-12
    for name in ("w_delta", "b_delta", "w_b", "w_c", "A", "D"):
        assert rel_error(grads[name], sum(g[name] for g in per_sample)) < 1e-12, name

    def loss(s, xf):
        return float(np.sum(ssm.selective_scan_batch(s, xf)[0] * upstream))

    step = 1e-6
    fd_x = np.array([(loss(sel, x + step * e) - loss(sel, x - step * e)) / (2 * step)
                     for e in np.eye(x.size).reshape(x.size, B, T, L)]).reshape(x.shape)
    assert rel_error(grads["x"], fd_x) < 1e-4
    p0 = _flatten_params(sel)
    fd_p = np.array([(loss(_rebuild(p0 + step * e, L, S), x)
                      - loss(_rebuild(p0 - step * e, L, S), x)) / (2 * step)
                     for e in np.eye(p0.size)])
    analytic = np.concatenate([grads[k].ravel() for k in
                               ("w_delta", "b_delta", "w_b", "w_c", "A", "D")])
    assert rel_error(analytic, fd_p) < 1e-4


@pytest.mark.parametrize("batch, steps", [(24, 75), (96, 105)])  # smoke and wide scans
def test_scan_matches_step_major_kernel(batch, steps):
    # the state-major kernel keeps the step-major forward's operation order,
    # so y matches bit for bit; its backward reassociates the sums over L, S
    # and steps * batch
    rng = np.random.default_rng(24)
    sel = _mixed_selective(rng, L=17)
    x = rng.normal(size=(batch, steps, 17))
    upstream = rng.normal(size=x.shape)
    y, cache = ssm.selective_scan_batch(sel, x)
    y_ref, cache_ref = selective_scan_step_major(sel, x)
    assert np.array_equal(y, y_ref)
    grads = ssm.selective_scan_backward(sel, cache, upstream)
    reference = selective_scan_backward_step_major(sel, cache_ref, upstream)
    assert grads.keys() == reference.keys()
    for name, value in reference.items():
        assert rel_error(grads[name], value) < 1e-12, name


def test_scan_cache_holds_no_recomputable_state():
    # the backward recomputes m = delta A, abar and g; only the states hs are
    # cached at the full (L, S, steps, batch) size
    rng = np.random.default_rng(25)
    for B, T, L, S in ((3, 5, 3, 4), (96, 105, 17, 4)):  # a tiny and the wide scan
        _, cache = ssm.selective_scan_batch(random_selective(rng, L=L, S=S),
                                            rng.normal(size=(B, T, L)))
        full = {k for k, v in cache.items() if v.size == L * S * T * B}
        assert full == {"hs"}
        assert cache["hs"].shape == (L, S, T, B)
    # 9.77 MiB at the wide shape; abar and g made it 20.2 MiB
    assert sum(v.nbytes for v in cache.values()) < 10 * 2 ** 20


def test_backward_splits_series_and_closed_form_states():
    # dA takes the series on the (channel, state) rows whose largest |m| is
    # below the threshold and the closed form on the rest; this call holds
    # both in one column and an exact A = 0 column, and a RuntimeWarning raises
    rng = np.random.default_rng(26)
    B, T, L, S = 3, 6, 3, 4
    sel = random_selective(rng, L=L, S=S)
    sel = ssm.SelectiveParams(**{**sel.__dict__, "A": [[0.0, -2e-4, -0.8, -0.01],
                                                       [0.0, -0.3, -0.01, -2e-4],
                                                       [0.0, -1.2, -0.5, -0.02]]})
    x = rng.normal(size=(B, T, L))
    upstream = rng.normal(size=(B, T, L))
    _, cache = ssm.selective_scan_batch(sel, x)
    series = np.abs(sel.A) * cache["delta"].max(axis=(1, 2))[:, None] < ssm._PHI1P_THRESHOLD
    assert np.all(series[:, 0]) and np.any(series[:, 1]) and not np.all(series[:, 1])
    grads = ssm.selective_scan_backward(sel, cache, upstream)
    for name, value in loop_selective_backward(sel, cache, upstream).items():
        assert rel_error(grads[name], value) < 1e-12, name

    def loss(s, xf):
        return float(np.sum(ssm.selective_scan_batch(s, xf)[0] * upstream))

    step = 1e-6
    fd_x = np.array([(loss(sel, x + step * e) - loss(sel, x - step * e)) / (2 * step)
                     for e in np.eye(x.size).reshape(x.size, B, T, L)]).reshape(x.shape)
    assert rel_error(grads["x"], fd_x) < 1e-4
    p0 = _flatten_params(sel)
    fd_p = np.array([(loss(_rebuild(p0 + step * e, L, S), x)
                      - loss(_rebuild(p0 - step * e, L, S), x)) / (2 * step)
                     for e in np.eye(p0.size)])
    analytic = np.concatenate([grads[k].ravel() for k in
                               ("w_delta", "b_delta", "w_b", "w_c", "A", "D")])
    assert rel_error(analytic, fd_p) < 1e-4


def test_backward_matches_mpmath_oracle_on_both_dA_forms():
    # one channel with A = 0, a state whose |m| stays below the threshold
    # (series) and one with |m| in 0.5-5 (closed form), against a 50-digit
    # scalar loop; the worst element read 5.0e-14 relative over seeds 300-499,
    # 4.0e-14 over these ten, so the bound keeps a 10x margin
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        sel = ssm.SelectiveParams(w_delta=[[0.8]], b_delta=[0.5], w_b=rng.normal(size=(1, 3)),
                                  w_c=rng.normal(size=(1, 3)), A=[[0.0, -0.01, -2.0]],
                                  D=rng.normal(size=1))
        x = rng.uniform(-1.0, 1.0, size=(2, 5, 1))  # delta in 0.55-1.55
        upstream = rng.normal(size=(2, 5, 1))
        _, cache = ssm.selective_scan_batch(sel, x)
        m = np.abs(cache["delta"][0]) * np.abs(sel.A[0, :, None, None])
        assert m[1].max() < ssm._PHI1P_THRESHOLD and 0.5 <= m[2].min() and m[2].max() <= 5.0
        grads = ssm.selective_scan_backward(sel, cache, upstream)
        for name, value in scan_grads_mp(sel, x, upstream).items():
            assert np.all(np.abs(grads[name] - value) < 5e-13 * np.abs(value)), name

def test_phi1_and_derivative_match_scalar_definitions_on_mixed_arrays():
    def phi1_def(m):
        if m == 0.0:
            return 1.0
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            d = decimal.Decimal(m)
            return float((d.exp() - 1) / d)

    def phi1p_def(m):
        if m == 0.0:
            return 0.5
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            d = decimal.Decimal(m)
            return float((d.exp() * (d - 1) + 1) / (d * d))

    # m = +-0, m = 1e-3 and m exactly at the phi1' threshold are included; phi1'
    # is a series for |m| below the threshold only, the states it serves (its
    # closed form above is checked through dA against oracles.scan_grads_mp);
    # a divide or invalid warning raises
    base = [0.0, 1e-5, 5e-4, 9.9e-4, 1e-3, 2e-3, 0.03, 0.049,
            ssm._PHI1P_THRESHOLD, 0.2, 2.5, 40.0]
    m = np.array(base + [-v for v in base])
    m = np.stack([m, m[::-1]])  # both thresholds are crossed within each row
    assert np.any(np.signbit(m) & (m == 0.0))  # -0.0 is present
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # phi1 as the scan forms it, g / delta at A = m / delta
        delta = np.array([0.7, 1.3])
        _, got, m_scan, _ = scan_zoh(m / delta[:, None], delta)
        below = np.abs(m) < ssm._PHI1P_THRESHOLD
        got_p = ssm._phi1_prime(m[below])
    assert np.array_equal(np.signbit(m_scan), np.signbit(m))
    assert np.max(np.abs(m_scan - m) / np.maximum(np.abs(m), 1e-300)) < 1e-15
    want = np.vectorize(phi1_def)(m_scan)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13
    want_p = np.vectorize(phi1p_def)(m[below])
    assert np.max(np.abs(got_p - want_p) / np.abs(want_p)) < 1e-13
