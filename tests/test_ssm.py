import decimal
import math
import warnings

import numpy as np
import pytest

from scanpose import ssm
from oracles import expm_taylor_ld, rel_error


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


# ---------------------------------------------------------------------------
# discretize_zoh
# ---------------------------------------------------------------------------

def test_zoh_zero_A_limit():
    p = ssm.SSMParams(A=np.zeros((1, 1)), B=[2.0], C=[1.0], D=0.0, delta=0.1,
                      diagonal=True)
    abar, bbar = ssm.discretize_zoh(p)
    assert np.allclose(abar, [[1.0]])
    assert np.allclose(bbar, [[0.2]])


def test_zoh_scalar_closed_form():
    # a = -1, b = 1, delta = ln 2: abar = 1/2, bbar = a^-1 (e^{da} - 1) b = 1/2
    p = ssm.SSMParams(A=[[-1.0]], B=[1.0], C=[1.0], D=0.0, delta=math.log(2.0))
    abar, bbar = ssm.discretize_zoh(p)
    assert abs(abar[0, 0] - 0.5) < 1e-14
    assert abs(bbar[0, 0] - 0.5) < 1e-14


def test_zoh_diagonal_matches_dense_expm_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        a = rng.uniform(-3.0, 1.0, size=n)
        b = rng.normal(size=n)
        delta = float(rng.uniform(0.05, 1.5))
        p = ssm.SSMParams(A=np.diag(a), B=b, C=np.ones(n), D=0.0, delta=delta,
                          diagonal=True)
        abar, bbar = ssm.discretize_zoh(p)
        dA = delta * np.diag(a)
        E = np.asarray(expm_taylor_ld(dA), dtype=float)
        assert rel_error(abar, E) < 1e-12
        phi = expm_taylor_ld(dA) - np.eye(n)
        expect_b = np.linalg.solve(dA, np.asarray(phi, dtype=float)) @ (delta * b)
        assert rel_error(bbar[:, 0], expect_b) < 1e-12


def test_zoh_dense_matches_taylor_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        A = rng.normal(scale=1.0, size=(n, n))
        b = rng.normal(size=n)
        delta = float(rng.uniform(0.05, 0.8))
        p = ssm.SSMParams(A=A, B=b, C=np.ones(n), D=0.0, delta=delta)
        abar, bbar = ssm.discretize_zoh(p)
        dA = (delta * A).astype(np.longdouble)
        E = expm_taylor_ld(dA)
        assert rel_error(abar, np.asarray(E, dtype=float)) < 1e-12
        # phi1(dA) dB via longdouble series
        phi = np.zeros_like(dA)
        term = np.eye(n, dtype=np.longdouble)
        for k in range(30):
            phi = phi + term / math.factorial(k + 1)
            term = term @ dA
        expect_b = np.asarray(phi @ (delta * b.astype(np.longdouble)), dtype=float)
        assert rel_error(bbar[:, 0], expect_b) < 1e-12


def test_zoh_singular_dense_A_above_threshold():
    # singular but large-norm A exercises the augmented-exponential path
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = ssm.SSMParams(A=A, B=[1.0, 1.0], C=[1.0, 0.0], D=0.0, delta=1.0)
    abar, bbar = ssm.discretize_zoh(p)
    # exp(dA) = I + dA for nilpotent dA; phi1(dA) = I + dA/2
    assert rel_error(abar, np.eye(2) + A) < 1e-14
    assert rel_error(bbar[:, 0], (np.eye(2) + A / 2.0) @ np.ones(2)) < 1e-14


def test_zoh_series_switch_continuity():
    # straddle ||dA||_inf = SERIES_THRESHOLD and compare both branches
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = 4
        A = rng.normal(size=(n, n))
        A /= np.max(np.sum(np.abs(A), axis=1))  # ||A||_inf = 1
        b = rng.normal(size=n)
        lo = ssm.SSMParams(A=A, B=b, C=np.ones(n), D=0.0,
                           delta=ssm.SERIES_THRESHOLD * (1.0 - 1e-9))
        hi = ssm.SSMParams(A=A, B=b, C=np.ones(n), D=0.0,
                           delta=ssm.SERIES_THRESHOLD * (1.0 + 1e-9))
        ab_lo, bb_lo = ssm.discretize_zoh(lo)
        ab_hi, bb_hi = ssm.discretize_zoh(hi)
        assert np.max(np.abs(ab_lo - ab_hi)) < 1e-10
        assert np.max(np.abs(bb_lo - bb_hi)) < 1e-10


# ---------------------------------------------------------------------------
# scan_recurrent
# ---------------------------------------------------------------------------

def lti_params(rng, n=4, diagonal=False):
    if diagonal:
        A = np.diag(rng.uniform(-2.0, -0.1, size=n))
    else:
        A = rng.normal(scale=0.6, size=(n, n))
    return ssm.SSMParams(A=A, B=rng.normal(size=n), C=rng.normal(size=n),
                         D=float(rng.normal()), delta=float(rng.uniform(0.1, 0.8)),
                         diagonal=diagonal)


def test_scan_zero_input_zero_output():
    p = lti_params(np.random.default_rng(8))
    assert np.all(ssm.scan_recurrent(p, np.zeros(12)) == 0.0)


def test_scan_single_step_unrolled():
    p = lti_params(np.random.default_rng(9))
    abar, bbar = ssm.discretize_zoh(p)
    x1 = 1.7
    y = ssm.scan_recurrent(p, [x1])
    assert abs(y[0] - (p.C @ bbar[:, 0] * x1 + p.D * x1)) < 1e-12


@pytest.mark.parametrize("diagonal", [False, True])
def test_scan_matches_convolution_kernel_oracle(diagonal):
    rng = np.random.default_rng(10)
    for _ in range(10):
        p = lti_params(rng, diagonal=diagonal)
        x = rng.normal(size=16)
        abar, bbar = ssm.discretize_zoh(p)
        # kernel tap k: C Abar^k Bbar
        taps = []
        Ak = np.eye(p.n)
        for k in range(16):
            taps.append(p.C @ Ak @ bbar[:, 0])
            Ak = abar @ Ak
        y_expect = np.array([
            p.D * x[t] + sum(taps[t - k] * x[k] for k in range(t + 1))
            for t in range(16)
        ])
        assert rel_error(ssm.scan_recurrent(p, x), y_expect) < 1e-10


def test_scan_linearity():
    rng = np.random.default_rng(11)
    A = rng.normal(scale=0.5, size=(4, 4)) - 1.2 * np.eye(4)  # stable system
    p = ssm.SSMParams(A=A, B=rng.normal(size=4), C=rng.normal(size=4),
                      D=float(rng.normal()), delta=0.4)
    x = rng.normal(size=20)
    z = rng.normal(size=20)
    lhs = ssm.scan_recurrent(p, 2.5 * x - 1.25 * z)
    rhs = 2.5 * ssm.scan_recurrent(p, x) - 1.25 * ssm.scan_recurrent(p, z)
    assert rel_error(lhs, rhs) < 1e-12


def test_scan_empty_sequence_raises():
    p = lti_params(np.random.default_rng(12))
    with pytest.raises(ssm.EmptySequence):
        ssm.scan_recurrent(p, [])


# ---------------------------------------------------------------------------
# selective_scan_batch
# ---------------------------------------------------------------------------

def test_selective_constant_projections_reduce_to_lti():
    rng = np.random.default_rng(13)
    L, S = 3, 4
    b_delta = rng.normal(size=L)
    w_b = np.zeros((L, S))
    w_c = np.zeros((L, S))
    # constant B_t, C_t require nonzero values independent of x: emulate via
    # a constant input channel is not available, so pin B, C through biases by
    # scanning a one-hot-augmented system instead: here simply use constant
    # x-independent projections w_b = w_c = 0 plus explicit taps below.
    sel = ssm.SelectiveParams(w_delta=np.zeros((L, L)), b_delta=b_delta,
                              w_b=w_b, w_c=w_c, A=-rng.uniform(0.2, 1.0, (L, S)),
                              D=rng.normal(size=L))
    x = rng.normal(size=(9, L))
    y = scan(sel, x)
    # with B_t = C_t = 0 the recurrence reduces to the pure feed-through
    assert rel_error(y, x * sel.D) < 1e-12


def test_selective_constant_delta_matches_scan_recurrent_exactly():
    # put the constant through in a way that exercises the state: a single
    # always-on channel drives constant B_t and C_t
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
    tokens = np.stack([xs, np.ones(10)], axis=1)
    y = scan(sel, tokens)
    delta0 = float(np.logaddexp(0.0, b_delta[0]))
    ref = ssm.SSMParams(A=np.diag(A[0]), B=Bconst, C=Cconst, D=float(D[0]),
                        delta=delta0, diagonal=True)
    expect = ssm.scan_recurrent(ref, xs)
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
    with pytest.raises(ssm.EmptySequence):
        ssm.selective_scan_batch(sel, np.zeros((1, 0, 3)))
    with pytest.raises(ssm.EmptySequence):
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
    # seq[:, order] is step-major, not C-contiguous; the scan runs step-major
    # and y is a view of its step-major result, so the gather's layout is kept
    # without a copy, and a C-ordered input gives the same values
    rng = np.random.default_rng(23)
    sel = random_selective(rng)
    seq = rng.normal(size=(4, 9, 3))
    x = seq[:, rng.permutation(9)]
    assert not x.flags.c_contiguous
    y, _ = ssm.selective_scan_batch(sel, x)
    assert list(np.argsort(y.strides)) == list(np.argsort(x.strides))
    assert np.array_equal(y, ssm.selective_scan_batch(sel, np.ascontiguousarray(x))[0])


def _mixed_selective(rng, L=3):
    """Selective parameters whose m = delta * A lands below SERIES_THRESHOLD
    (first state), between the thresholds (second) and above both (rest)."""
    sel = random_selective(rng, L=L, S=4)
    A = np.tile([-2e-4, -0.02, -0.5, -1.2], (L, 1))
    return ssm.SelectiveParams(w_delta=sel.w_delta, b_delta=sel.b_delta,
                               w_b=sel.w_b, w_c=sel.w_c, A=A, D=sel.D)


def loop_selective_backward(sel, cache, upstream):
    """Reference reverse pass: one step at a time, every gradient
    accumulated inside the loop."""
    cache = {k: np.swapaxes(v, 0, 1) for k, v in cache.items()}  # batch-major
    x, delta, Bm, Cm = cache["x"], cache["delta"], cache["Bm"], cache["Cm"]
    m, abar, g, hs = cache["m"], cache["abar"], cache["g"], cache["hs"]
    T = x.shape[1]
    dx, dBm, dCm = np.zeros_like(x), np.zeros_like(Bm), np.zeros_like(Cm)
    ddelta, dA, dD = np.zeros_like(delta), np.zeros_like(sel.A), np.zeros_like(sel.D)
    phi1p = ssm._phi1_prime(m, abar)
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
    small = np.abs(cache["m"])
    assert np.any(small < ssm.SERIES_THRESHOLD)
    assert np.any((small >= ssm.SERIES_THRESHOLD) & (small < ssm._PHI1P_THRESHOLD))
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

    # m = +-0 and m exactly at either threshold (where the direct branch takes
    # over) are included; a divide or invalid warning raises
    base = [0.0, 1e-5, 5e-4, 9.9e-4, ssm.SERIES_THRESHOLD, 2e-3, 0.03, 0.049,
            ssm._PHI1P_THRESHOLD, 0.2, 2.5, 40.0]
    m = np.array(base + [-v for v in base])
    m = np.stack([m, m[::-1]])  # both thresholds are crossed within each row
    assert np.any(np.signbit(m) & (m == 0.0))  # -0.0 is present
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ssm._phi1(m)
        got_p = ssm._phi1_prime(m, np.exp(m))
    want = np.vectorize(phi1_def)(m)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13
    want_p = np.vectorize(phi1p_def)(m)
    assert np.max(np.abs(got_p - want_p) / np.abs(want_p)) < 1e-13
