"""Diagonal selective state-space scan, forward and exact backward.

Each of the L feature channels carries its own d_state-dimensional latent
state with a diagonal state matrix A (L, d_state) shared across steps. Per
step, learned projections of the input token x_t give the step size delta_t
(through a softplus, to stay positive) and the input and output vectors B_t
and C_t. Zero-order hold discretizes the continuous dynamics h' = A h + B x
elementwise with m = delta_t A: Abar = exp(m), Bbar = delta_t phi1(m) B_t,
where delta_t phi1(m) = (exp(m) - 1) / A, or delta_t where A = 0. The scan
unrolls h_t = Abar h_{t-1} + Bbar x_t, y_t = C_t h_t + D x_t from a zero state.

selective_scan_batch scans (batch, steps, L) sequences and returns the
outputs with a cache of the inputs, the projections and the states, and
selective_scan_backward is the exact reverse accumulation of that recurrence
from the cache; it recomputes Abar and Bbar from delta rather than storing them.
Both run state-major, with steps * batch innermost, so every elementwise pass
has a long contiguous inner loop and A[l, s] broadcasts as a scalar; y is a view
of the state-major result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# d/dm phi1(m) = (exp(m)(m - 1) + 1) / m^2; series coefficients k / (k+1)!
_PHI1P_COEFF = [k / math.factorial(k + 1) for k in range(1, 9)]
_PHI1P_THRESHOLD = 0.05


def _phi1_prime(m: np.ndarray) -> np.ndarray:
    """Elementwise d/dm phi1(m) by its 8-term series, for |m| < _PHI1P_THRESHOLD."""
    out = 0.0
    for coeff in reversed(_PHI1P_COEFF):  # Horner
        out = out * m + coeff
    return out


def _zoh(A: np.ndarray, delta: np.ndarray):
    """The zero-order hold factors abar = exp(m) and g = expm1(m) / A (delta
    where A = 0), m = delta A, as (L, S, steps, batch) from delta (L, steps, batch)."""
    m = delta[:, None] * A[..., None, None]
    abar = np.exp(m)
    g = np.expm1(m, out=m)  # g takes m's buffer: m is not read again
    with np.errstate(invalid="ignore"):  # 0 / 0 where A = 0, overwritten below
        g /= A[..., None, None]
    l, s = np.nonzero(A == 0.0)
    g[l, s] = delta[l]
    return abar, g


@dataclass(frozen=True)
class SelectiveParams:
    """Input-dependent scan parameters.

    Per-step quantities are produced from each L-dim token x_t:
      delta_t = softplus(x_t @ w_delta + b_delta)   (L,)
      B_t     = x_t @ w_b                            (d_state,)
      C_t     = x_t @ w_c                            (d_state,)
    A (L, d_state) holds the diagonal state coefficients per channel and is
    shared across steps, as is the feed-through D (L,).
    """
    w_delta: np.ndarray  # (L, L)
    b_delta: np.ndarray  # (L,)
    w_b: np.ndarray      # (L, d_state)
    w_c: np.ndarray      # (L, d_state)
    A: np.ndarray        # (L, d_state)
    D: np.ndarray        # (L,)

    def __post_init__(self):
        for name in ("w_delta", "b_delta", "w_b", "w_c", "A", "D"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        L = self.b_delta.shape[0]
        S = self.A.shape[1]
        if self.w_delta.shape != (L, L) or self.w_b.shape != (L, S) \
                or self.w_c.shape != (L, S) or self.A.shape != (L, S) \
                or self.D.shape != (L,):
            raise ValueError("inconsistent selective parameter shapes")


def selective_scan_batch(sel: SelectiveParams, x):
    """Batched scan over (batch, steps, L). Returns y, a (batch, steps, L) view
    of an (L, steps, batch) array, and the cache for the exact backward: x, pre
    (before the softplus) and delta as (L, steps, batch), Bm and Cm as (S, steps,
    batch) and the states hs as (L, S, steps, batch). The backward recomputes
    abar and g with _zoh."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[1] == 0:
        raise ValueError(f"expected non-empty (batch, steps, L), got {x.shape}")
    (Bn, T, L), S = x.shape, sel.A.shape[1]
    # one GEMM per projection over every (step, batch) row, each transposed once
    rows = np.ascontiguousarray(np.swapaxes(x, 0, 1)).reshape(-1, L)
    xs = np.ascontiguousarray(rows.T).reshape(L, T, Bn)
    pre = np.ascontiguousarray((rows @ sel.w_delta + sel.b_delta).T).reshape(L, T, Bn)
    # softplus max(pre, 0) + log1p(exp(-|pre|)), in place, keeps steps positive
    delta = np.abs(pre)
    np.log1p(np.exp(np.negative(delta, out=delta), out=delta), out=delta)
    delta += np.maximum(pre, 0.0)
    Bm = np.ascontiguousarray((rows @ sel.w_b).T).reshape(S, T, Bn)
    Cm = np.ascontiguousarray((rows @ sel.w_c).T).reshape(S, T, Bn)
    abar, g = _zoh(sel.A, delta)
    # hs starts as the input term, in g's buffer; the loop adds only the carried state
    hs = np.multiply(g, Bm, out=g)
    hs *= xs[:, None]
    step = np.empty_like(hs[:, :, 0])
    for t in range(1, T):
        hs[:, :, t] += np.multiply(abar[:, :, t], hs[:, :, t - 1], out=step)
    # y = sum_s hs[:, s] Cm[s], in np.sum's order for S < 8
    y = np.multiply(hs[:, 0], Cm[0])
    term = np.empty_like(y)
    for s in range(1, S):
        y += np.multiply(hs[:, s], Cm[s], out=term)
    y += np.multiply(sel.D[:, None, None], xs, out=term)
    cache = {"x": xs, "pre": pre, "delta": delta, "Bm": Bm, "Cm": Cm, "hs": hs}
    return np.transpose(y, (2, 1, 0)), cache


def selective_scan_backward(sel: SelectiveParams, cache, upstream: np.ndarray):
    """Reverse accumulation through the cache of selective_scan_batch;
    upstream is dLoss/dy, shaped like y. Returns a dict of gradients for the
    inputs and every parameter. With u = B_t x_t, (Abar, G) has d/d delta =
    (A Abar, Abar) and d/dA = (delta Abar, (delta Abar - G) / A), which meet in
    v = A h_{t-1} + u: d delta = sum_s dh Abar v, dA = sum (delta dh Abar v - dh G u) / A.
    Sums over L or S run with steps * batch innermost; sums over steps * batch
    are stacked matmuls."""
    x, delta, Bm, Cm, hs = (cache[k] for k in ("x", "delta", "Bm", "Cm", "hs"))
    up = np.ascontiguousarray(np.transpose(upstream, (2, 1, 0)))  # (L, T, B)
    L, S, T, Bn = hs.shape
    abar, g = _zoh(sel.A, delta)  # the forward's expressions, so the same bits
    # only dh is recurrent: dh_t = dy_t C_t + Abar_{t+1} dh_{t+1}
    dh = up[:, None] * Cm
    step = np.empty_like(dh[:, :, 0])
    for t in range(T - 2, -1, -1):
        dh[:, :, t] += np.multiply(dh[:, :, t + 1], abar[:, :, t + 1], out=step)
    dCm = np.einsum("lstb,ltb->stb", hs, up)
    # states whose |m| stays below the threshold (A = 0 too) keep dA's per-element
    # form dh delta (abar h_{t-1} + delta phi1'(m) B_t x_t): the closed form cancels
    series = np.abs(sel.A) * delta.max(axis=(1, 2))[:, None] < _PHI1P_THRESHOLD
    l, s = np.nonzero(series)
    dl, hprev = delta[l], np.concatenate((np.zeros((l.size, 1, Bn)), hs[l, s, :-1]), axis=1)
    dA_series = np.sum(dh[l, s] * dl * (abar[l, s] * hprev + Bm[s] * x[l] * dl
                                        * _phi1_prime(dl * sel.A[l, s, None, None])), axis=(1, 2))
    q = np.multiply(dh, g, out=g)  # dh G, then q = dh G B_t
    dBm = np.einsum("lstb,ltb->stb", q, x)
    q *= Bm
    dx = up * sel.D[:, None, None] + q.sum(axis=1)
    xk, dk = x.reshape(L, -1, 1), delta.reshape(L, -1, 1)
    qx = np.matmul(q.reshape(L, S, -1), xk)[..., 0]
    # w = dh Abar v in dh's buffer, v in q's, A h_{t-1} in abar's
    w = np.multiply(dh, abar, out=dh)
    v = np.multiply(Bm, x[:, None], out=q)
    v[:, :, 1:] += np.multiply(hs[:, :, :-1], sel.A[..., None, None], out=abar[:, :, 1:])
    w *= v
    ddelta = w.sum(axis=1)
    dA = np.matmul(w.reshape(L, S, -1), dk)[..., 0] - qx
    np.divide(dA, sel.A, out=dA, where=~series)
    dA[l, s] = dA_series
    dD = np.matmul(up.reshape(L, 1, -1), xk).reshape(L)

    # through the softplus: d delta / d pre = 1 / (1 + exp(-pre)), in place;
    # exp overflows to inf for pre < -709, which gives the exact limit 0
    with np.errstate(over="ignore"):
        dpre = np.exp(np.negative(cache["pre"]))
    np.divide(ddelta, np.add(dpre, 1.0, out=dpre), out=dpre)
    # the projections' gradients as one GEMM each over the K columns
    dpre, dx, cols = dpre.reshape(L, -1), dx.reshape(L, -1), x.reshape(L, -1)
    dBm, dCm = dBm.reshape(S, -1), dCm.reshape(S, -1)
    dx += sel.w_delta @ dpre
    dx += sel.w_b @ dBm
    dx += sel.w_c @ dCm
    return {"x": np.transpose(dx.reshape(up.shape), (2, 1, 0)), "w_delta": cols @ dpre.T,
            "b_delta": np.sum(dpre, axis=1), "w_b": cols @ dBm.T, "w_c": cols @ dCm.T,
            "A": dA, "D": dD}
