"""State-space sequence machinery.

Continuous dynamics h' = A h + B x, y = C h + D x are discretized with the
zero-order hold rule (Abar = exp(dA), Bbar = phi1(dA) * dB, where
phi1(m) = (exp(m) - 1) / m) and unrolled as the linear recurrence
h_t = Abar h_{t-1} + Bbar x_t, y_t = C h_t + D x_t.

The selective variant recomputes (delta_t, B_t, C_t) from each input token
through learned projections (delta through a softplus to stay positive),
applies the same per-step discretization with a diagonal state matrix shared
across steps, and scans channelwise: each of the L feature channels carries
its own d_state-dimensional latent state. The public scan API is two
functions: selective_scan_batch scans (batch, steps, L) sequences and returns
the outputs with a cache, and selective_scan_backward is the exact reverse
accumulation of that recurrence from the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import expit

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
    m = np.asarray(m, dtype=float)
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
class SSMParams:
    """Fixed (time-invariant) parameters: A (N,N), B (N,), C (N,), D scalar,
    step size delta. `diagonal` flags that A is diagonal and the fast
    elementwise path applies."""
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: float
    delta: float
    diagonal: bool = False

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float).reshape(-1)
        C = np.asarray(self.C, dtype=float).reshape(-1)
        n = A.shape[0]
        if A.shape != (n, n) or B.shape != (n,) or C.shape != (n,):
            raise ValueError(f"inconsistent shapes A{A.shape} B{B.shape} C{C.shape}")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B)) and np.all(np.isfinite(C))):
            raise ValueError("parameters must be finite")
        if self.diagonal and np.any(A != np.diag(np.diag(A))):
            raise ValueError("diagonal flag set but A has off-diagonal entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def discretize_zoh(params: SSMParams):
    """Zero-order hold discretization.

    Returns (Abar, Bbar) with shapes (N, N) and (N, 1). Bbar is computed
    through the phi1 series when ||delta * A||_inf < SERIES_THRESHOLD, which
    also covers singular A; above the threshold the augmented-matrix
    exponential [[dA, dB], [0, 0]] supplies both factors at once.
    """
    dA = params.delta * params.A
    dB = params.delta * params.B
    if params.diagonal:
        a = np.diag(dA)
        return np.diag(np.exp(a)), (_phi1(a) * dB)[:, None]
    n = params.n
    norm = np.max(np.sum(np.abs(dA), axis=1)) if n else 0.0
    if norm < SERIES_THRESHOLD:
        Abar = expm(dA)
        phi = np.zeros_like(dA)
        term = np.eye(n)
        for coeff in _PHI1_COEFF:
            phi = phi + coeff * term
            term = term @ dA
        return Abar, (phi @ dB)[:, None]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = dA
    aug[:n, n] = dB
    E = expm(aug)
    return E[:n, :n], E[:n, n:]


def scan_recurrent(params: SSMParams, x) -> np.ndarray:
    """Run the discretized recurrence from a zero state over a scalar input
    sequence."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size == 0:
        raise EmptySequence("scan_recurrent needs a non-empty sequence")
    h = np.zeros(params.n)
    y = np.empty_like(x)
    if params.diagonal:
        # expression shapes mirror the selective scan so that a selective scan
        # with constant projections reproduces this path bit for bit
        a = np.diag(params.delta * params.A)
        abar = np.exp(a)
        g = params.delta * _phi1(a)
        for t in range(x.size):
            h = abar * h + g * params.B * x[t]
            y[t] = np.sum(h * params.C) + params.D * x[t]
        return y
    Abar, Bbar = discretize_zoh(params)
    bbar = Bbar[:, 0]
    for t in range(x.size):
        h = Abar @ h + bbar * x[t]
        y[t] = params.C @ h + params.D * x[t]
    return y


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

    # the projections' gradients as one GEMM each over the (step, batch) rows
    dpre = (ddelta * expit(cache["pre"])).reshape(-1, L)  # softplus'
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
