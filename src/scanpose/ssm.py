"""Diagonal selective state-space scan, forward and exact backward.

Each of the L feature channels carries its own d_state-dimensional latent
state with a diagonal state matrix A (L, d_state) shared across steps. Per
step, learned projections of the input token x_t give the step size delta_t
(through a softplus, to stay positive) and the input and output vectors B_t
and C_t. Zero-order hold discretizes the continuous dynamics h' = A h + B x
elementwise with m = delta_t A: Abar = exp(m), Bbar = delta_t phi1(m) B_t,
where phi1(m) = (exp(m) - 1) / m. The scan unrolls
h_t = Abar h_{t-1} + Bbar x_t, y_t = C_t h_t + D x_t from a zero state.

selective_scan_batch scans (batch, steps, L) sequences and returns the
outputs with a cache, and selective_scan_backward is the exact reverse
accumulation of that recurrence from the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SERIES_THRESHOLD = 1e-3
_PHI1_COEFF = [1.0 / math.factorial(k + 1) for k in range(6)]
# d/dm phi1(m) = (exp(m)(m - 1) + 1) / m^2; series coefficients k / (k+1)!
_PHI1P_COEFF = [k / math.factorial(k + 1) for k in range(1, 9)]
_PHI1P_THRESHOLD = 0.05


class EmptySequence(Exception):
    pass


def _series(coeffs, m: np.ndarray) -> np.ndarray:
    """Horner evaluation of sum_k coeffs[k] m^k."""
    acc = np.zeros_like(m)
    for coeff in reversed(coeffs):
        acc = acc * m + coeff
    return acc


def _phi1(m: np.ndarray) -> np.ndarray:
    """Elementwise (exp(m) - 1) / m with a 6-term series below the threshold."""
    small = np.abs(m) < SERIES_THRESHOLD
    with np.errstate(divide="ignore", invalid="ignore"):  # m = 0 gets the series below
        out = np.expm1(m)
        out /= m
    out[small] = _series(_PHI1_COEFF, m[small])
    return out


def _phi1_prime(m: np.ndarray, abar: np.ndarray) -> np.ndarray:
    """Elementwise d/dm phi1(m) given abar = exp(m); 8-term series below the threshold."""
    small = np.abs(m) < _PHI1P_THRESHOLD
    # (abar (m - 1) + 1) / m^2 in place: a new temporary costs more than its arithmetic
    out = m - 1.0
    out *= abar
    out += 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # m = 0 gets the series below
        out /= np.multiply(m, m)
    out[small] = _series(_PHI1P_COEFF, m[small])
    return out


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
    """Batched scan over (batch, steps, L); returns outputs plus the cache
    needed for the exact backward pass. The scan runs step-major: every
    cached array is (steps, batch, ...), so each step of the recurrence is one
    contiguous block, and y is a (batch, steps, L) view of a step-major array."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[1] == 0:
        raise EmptySequence(f"expected non-empty (batch, steps, L), got {x.shape}")
    xt = np.ascontiguousarray(np.swapaxes(x, 0, 1))  # (T, B, L)
    T, L, S = xt.shape[0], xt.shape[2], sel.A.shape[1]
    rows = xt.reshape(-1, L)  # one GEMM per projection over every (step, batch) row
    pre = (rows @ sel.w_delta).reshape(xt.shape)
    pre += sel.b_delta
    # softplus max(pre, 0) + log1p(exp(-|pre|)), in place, keeps steps positive
    delta = np.abs(pre)
    np.log1p(np.exp(np.negative(delta, out=delta), out=delta), out=delta)
    delta += np.maximum(pre, 0.0)
    Bm = (rows @ sel.w_b).reshape(T, -1, S)  # (T, B, S)
    Cm = (rows @ sel.w_c).reshape(T, -1, S)
    m = delta[..., None] * sel.A  # (T, B, L, S)
    abar = np.exp(m)
    g = _phi1(m)
    g *= delta[..., None]  # ZOH input factor, per channel and state
    # hs starts as the input term; the loop adds only the carried state
    hs = g * Bm[:, :, None, :]  # (T, B, L, S)
    hs *= xt[..., None]
    step = np.empty_like(hs[0])
    for t in range(1, T):
        hs[t] += np.multiply(abar[t], hs[t - 1], out=step)
    # y = sum_s hs[..., s] Cm[..., s], in np.sum's order for S < 8
    y = np.multiply(hs[..., 0], Cm[:, :, None, 0])
    term = np.empty_like(y)
    for s in range(1, S):
        y += np.multiply(hs[..., s], Cm[:, :, None, s], out=term)
    y += sel.D * xt
    cache = {"x": xt, "pre": pre, "delta": delta, "Bm": Bm, "Cm": Cm,
             "m": m, "abar": abar, "g": g, "hs": hs}
    return np.swapaxes(y, 0, 1), cache


def selective_scan_backward(sel: SelectiveParams, cache, upstream: np.ndarray):
    """Reverse accumulation through the cache of selective_scan_batch;
    upstream is dLoss/dy, shaped like y. Returns a dict of gradients for the
    inputs and every parameter."""
    x, delta, Bm, Cm = cache["x"], cache["delta"], cache["Bm"], cache["Cm"]
    m, abar, g, hs = cache["m"], cache["abar"], cache["g"], cache["hs"]
    up = np.ascontiguousarray(np.swapaxes(upstream, 0, 1))  # (T, B, L)
    T, L, S = up.shape[0], up.shape[2], sel.A.shape[1]

    # only dh is recurrent: dh_t = dy_t C_t + Abar_{t+1} dh_{t+1}
    dh = up[..., None] * Cm[:, :, None, :]  # (T, B, L, S)
    step = np.empty_like(dh[0])
    for t in range(T - 2, -1, -1):
        dh[t] += np.multiply(dh[t + 1], abar[t + 1], out=step)
    dCm = np.einsum("tbl,tbls->tbs", up, hs)
    dhg = dh * g
    dBm = np.einsum("tbls,tbl->tbs", dhg, x)
    dx = up * sel.D + np.einsum("tbls,tbs->tbl", dhg, Bm)
    # through Abar = exp(m), m = delta A: dm = dh h_{t-1} Abar
    dm = np.multiply(dh, abar, out=dhg)
    dm[0] = 0.0
    dm[1:] *= hs[:-1]
    # through G = delta phi1(m): dG = dh B_t x_t, dG/d delta = Abar,
    # dG/dA = delta^2 phi1'(m)
    dG = np.multiply(dh, Bm[:, :, None, :], out=dh)
    dG *= x[..., None]
    ddelta = np.einsum("tbls,ls->tbl", dm, sel.A) \
        + np.einsum("tbls,tbls->tbl", dG, abar)
    dA = np.einsum("tbls,tbl->ls", dm, delta) \
        + np.einsum("tbls,tbls,tbl->ls", dG, _phi1_prime(m, abar), delta * delta)
    dD = np.sum(up * x, axis=(0, 1))

    # through the softplus: d delta / d pre = 1 / (1 + exp(-pre)), in place;
    # exp overflows to inf for pre < -709, which gives the exact limit 0
    dpre = np.negative(cache["pre"])
    with np.errstate(over="ignore"):
        np.exp(dpre, out=dpre)
    dpre += 1.0
    np.divide(1.0, dpre, out=dpre)
    dpre *= ddelta

    # the projections' gradients as one GEMM each over the (step, batch) rows
    dpre = dpre.reshape(-1, L)
    dBm, dCm, rows = dBm.reshape(-1, S), dCm.reshape(-1, S), x.reshape(-1, L)
    dx = dx.reshape(-1, L)
    dx += dpre @ sel.w_delta.T
    dx += dBm @ sel.w_b.T
    dx += dCm @ sel.w_c.T
    return {
        "x": np.swapaxes(dx.reshape(up.shape), 0, 1),
        "w_delta": rows.T @ dpre,
        "b_delta": np.sum(dpre, axis=0),
        "w_b": rows.T @ dBm,
        "w_c": rows.T @ dCm,
        "A": dA,
        "D": dD,
    }
