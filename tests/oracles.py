"""Independent reference computations shared by the test suite.

Everything here is deliberately written from the mathematical definitions,
on separate code paths from the library (longdouble arithmetic, cyclic
Jacobi rotations, Taylor series), so that agreement is meaningful. The
`*_loop` references are the straightforward per-item loops that vectorised
library code replaced; tests hold the library to them bit for bit where the
arithmetic is unchanged.
"""

import math

import mpmath
import numpy as np

from scanpose import autodiff as ad
from scanpose import geometry, ssm
from scanpose.pipeline import MASK_MARGIN, _bilinear_forward
from scanpose.tokens import _GRID_JITTER

LD = np.longdouble


def jacobi_eigh_ld(M, sweeps=100):
    """Eigendecomposition of a small symmetric matrix via cyclic Jacobi
    rotations in longdouble. Returns (eigenvalues ascending, eigenvectors)."""
    A = np.array(M, dtype=LD)
    n = A.shape[0]
    V = np.eye(n, dtype=LD)
    for _ in range(sweeps):
        off = LD(0)
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += A[p, q] * A[p, q]
        if off <= LD(1e-60) * max(LD(1), np.trace(A @ A)):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if A[p, q] == 0:
                    continue
                theta = (A[q, q] - A[p, p]) / (2 * A[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1))
                if theta == 0:
                    t = LD(1)
                c = 1 / np.sqrt(t * t + 1)
                s = t * c
                J = np.eye(n, dtype=LD)
                J[p, p] = c
                J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                V = V @ J
    order = np.argsort(np.diag(A))
    return np.diag(A)[order], V[:, order]


def expm_taylor_ld(M, scale_pow=None):
    """Matrix exponential by scaling-and-squaring over a longdouble Taylor
    series. Independent of scipy's Pade implementation."""
    A = np.array(M, dtype=LD)
    n = A.shape[0]
    norm = float(np.max(np.sum(np.abs(A), axis=1))) if A.size else 0.0
    if scale_pow is None:
        scale_pow = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 3)
    B = A / LD(2) ** scale_pow
    E = np.eye(n, dtype=LD)
    term = np.eye(n, dtype=LD)
    for k in range(1, 40):
        term = term @ B / LD(k)
        E = E + term
        if np.max(np.abs(term)) < LD(1e-40):
            break
    for _ in range(scale_pow):
        E = E @ E
    return E


def lti_scan_ld(a, b, c, d, delta, x):
    """Output of the diagonal time-invariant system h' = diag(a) h + b x,
    y = c . h + d x, discretized by zero-order hold with step delta and run
    from a zero state over the scalar sequence x. It is computed as the
    convolution y_t = d x_t + sum_{k <= t} K_{t-k} x_k with the kernel taps
    K_j = c . (Abar^j Bbar), where Abar = exp(delta a) and
    Bbar = (exp(delta a) - 1) / a * b, in longdouble."""
    a, b, c, x = (np.array(v, dtype=LD) for v in (a, b, c, x))
    m = LD(delta) * a
    abar = np.exp(m)
    bbar = np.expm1(m) / a * b
    taps = [np.sum(c * abar ** j * bbar) for j in range(x.size)]
    y = [LD(d) * x[t] + sum(taps[t - k] * x[k] for k in range(t + 1))
         for t in range(x.size)]
    return np.asarray(y, dtype=float)


def project_ld(P, X):
    """Pixel coordinates of the world point X (3,) through the camera P
    (3, 4): the homogeneous division, in longdouble."""
    h = np.array(P, dtype=LD) @ np.append(np.array(X, dtype=LD), LD(1))
    return np.asarray(h[:2] / h[2], dtype=float)


def triangulation_system_ld(positions, confidences, projections, sizes,
                            coord_scale=1000.0):
    """Rebuild the normalized weighted DLT system in longdouble.

    positions: (T, 2); confidences: (T,); projections: (T, 3, 4);
    sizes: list of (w, h). Returns the stacked (2T, 4) longdouble matrix.
    """
    rows = []
    for t in range(len(projections)):
        w, h = sizes[t]
        s = LD(2) / (LD(w) + LD(h))
        cx, cy = LD(w) / 2, LD(h) / 2
        N = np.array([[s, 0, -s * cx], [0, s, -s * cy], [0, 0, 1]], dtype=LD)
        Pn = N @ np.array(projections[t], dtype=LD)
        Pt = Pn * np.array([coord_scale, coord_scale, coord_scale, 1], dtype=LD)
        ux = s * (LD(positions[t][0]) - cx)
        uy = s * (LD(positions[t][1]) - cy)
        c = LD(confidences[t])
        rows.append(c * (ux * Pt[2] - Pt[0]))
        rows.append(c * (uy * Pt[2] - Pt[1]))
    return np.array(rows, dtype=LD)


def triangulate_ld(positions, confidences, projections, sizes,
                   coord_scale=1000.0):
    """Weighted least-squares triangulation solved through a longdouble
    Jacobi eigendecomposition of the normal matrix."""
    A = triangulation_system_ld(positions, confidences, projections, sizes,
                                coord_scale)
    M = A.T @ A
    lam, V = jacobi_eigh_ld(M)
    v = V[:, 0]
    return np.asarray(coord_scale * v[:3] / v[3], dtype=float)


def central_difference(f, x, step):
    """Central-difference gradient of scalar-or-vector f at flat array x."""
    x = np.asarray(x, dtype=float)
    base = np.asarray(f(x), dtype=float)
    grad = np.zeros(x.shape + base.shape)
    for i in range(x.size):
        xp = x.copy()
        xp.flat[i] += step
        xm = x.copy()
        xm.flat[i] -= step
        fp = np.asarray(f(xp), dtype=float)
        fm = np.asarray(f(xm), dtype=float)
        grad.reshape(x.size, -1)[i] = ((fp - fm) / (2 * step)).ravel()
    return grad


def rel_error(a, b, floor=1e-12):
    """Normwise relative difference with an absolute floor."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()), floor)
    return np.linalg.norm((a - b).ravel()) / denom


def greedy_pose_nms(geometry, scores, radius_mm):
    """Greedy pose NMS from its definition, in pure Python: visit poses by
    descending score (ties to the lower index) and keep one unless its mean
    per-joint distance to a pose kept before it is below the radius."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-float(scores[i]), i))
    kept = []
    for i in order:
        pose = [tuple(map(float, joint)) for joint in geometry[i]]
        near = False
        for k in kept:
            other = [tuple(map(float, joint)) for joint in geometry[k]]
            dist = math.fsum(math.dist(a, b) for a, b in zip(pose, other)) / len(pose)
            near = near or dist < radius_mm
        if not near:
            kept.append(i)
    return [i in kept for i in range(n)]


def render_heatmaps_loop(cfg, uv, valid, rng):
    """Feature pyramids rendered one full-image Gaussian at a time: for each
    view, level, actor and joint, exp(-d²/σ²) over the whole (H, W) image,
    summed over actors in actor order in float64. Then the coordinate and
    sinusoid channels, the noise draw (view-major, then level) and one cast
    per level. uv (T, Z*J, 2) and valid (T, Z*J) are the projected joints.
    Returns one list of level arrays per view."""
    T = uv.shape[0]
    J = cfg.num_joints
    Z = uv.shape[1] // J
    sig2 = 2.0 * cfg.heatmap_sigma_px ** 2
    out = []
    for t in range(T):
        levels = []
        for s in range(cfg.num_scales):
            f = 1.0 / (2 ** s)
            W = max(int(round(cfg.image_width * f)), 1)
            H = max(int(round(cfg.image_height * f)), 1)
            cols, rows = np.meshgrid(np.arange(W), np.arange(H))
            grid = np.zeros((H, W, cfg.feature_dim))
            heat = np.zeros((J, H, W))
            for z in range(Z):
                for j in range(J):
                    idx = z * J + j
                    if not valid[t, idx]:
                        continue
                    ux, uy = uv[t, idx] * f
                    d2 = (cols[:1] - ux) ** 2 + (rows[:, :1] - uy) ** 2
                    heat[j] += np.exp(-d2 / sig2)
            grid[:, :, :J] = heat.transpose(1, 2, 0)
            xn = (cols / f) / cfg.image_width
            yn = (rows / f) / cfg.image_height
            grid[:, :, J] = xn
            grid[:, :, J + 1] = yn
            for i in range(cfg.feature_dim - J - 2):
                k = 1 + i // 2
                grid[:, :, J + 2 + i] = (np.sin(2.0 * np.pi * k * xn) if i % 2 == 0
                                         else np.cos(2.0 * np.pi * k * yn))
            if cfg.heatmap_noise > 0.0:
                grid[:, :, :J] += rng.normal(0.0, cfg.heatmap_noise,
                                             size=(H, W, J))
            levels.append(grid.astype(np.float32))
        out.append(levels)
    return out


def normalized_camera_loop(projection, width, height):
    """geometry._normalized_cameras for one view (3, 4) of the given image
    size: (P_tilde, s, center), built from the 3x3 pixel normalization."""
    w, h = float(width), float(height)
    s = 2.0 / (w + h)
    cx, cy = w / 2.0, h / 2.0
    N = np.array([[s, 0.0, -s * cx], [0.0, s, -s * cy], [0.0, 0.0, 1.0]])
    Pn = N @ projection
    Pt = Pn * np.array([geometry.COORD_SCALE, geometry.COORD_SCALE,
                        geometry.COORD_SCALE, 1.0])
    return Pt, s, np.array([cx, cy])


def grid_centers_loop(n, ground_bounds, rng):
    """tokens.grid_centers one token at a time."""
    xmin, ymin, xmax, ymax = (float(v) for v in ground_bounds)
    gx = int(np.ceil(np.sqrt(n)))
    gy = int(np.ceil(n / gx))
    cw = (xmax - xmin) / gx
    ch = (ymax - ymin) / gy
    centers = np.empty((n, 2))
    jit = rng.uniform(-_GRID_JITTER, _GRID_JITTER, size=(n, 2))
    for i in range(n):
        col, row = i % gx, i // gx
        centers[i, 0] = xmin + (col + 0.5 + jit[i, 0]) * cw
        centers[i, 1] = ymin + (row + 0.5 + jit[i, 1]) * ch
    return centers


def project_op_loop(geometry_t, rig):
    """pipeline.project_op with one image-bounds test and one backward term
    per view, accumulated view by view into a zero gradient."""
    projections = rig.projections
    uv, depth, valid = geometry.project_batch(projections, geometry_t.data)
    pad = (MASK_MARGIN - 1.0) / 2.0
    for t, (w, h) in enumerate(rig.sizes):
        valid[t] &= ((uv[t, ..., 0] >= -pad * w) & (uv[t, ..., 0] <= w + pad * w)
                     & (uv[t, ..., 1] >= -pad * h) & (uv[t, ..., 1] <= h + pad * h))
    safe_depth = np.where(valid, depth, 1.0)
    gdata = geometry_t.data

    def backward(g):
        gx = np.zeros_like(gdata)
        for t in range(len(rig)):
            P = projections[t]
            du = (P[0, :3][None] - uv[t][..., 0:1] * P[2, :3][None]) / safe_depth[t][..., None]
            dv = (P[1, :3][None] - uv[t][..., 1:2] * P[2, :3][None]) / safe_depth[t][..., None]
            mask = valid[t][..., None]
            gx += np.where(mask, g[t][..., 0:1] * du + g[t][..., 1:2] * dv, 0.0)
        return (gx,)

    return ad.from_op(uv, (geometry_t,), backward), valid


def stack_node(parts, axis):
    """np.stack as a graph node: each part's gradient is its slice."""
    return ad.from_op(np.stack([p.data for p in parts], axis=axis), parts,
                      lambda g: tuple(np.moveaxis(g, axis, 0)))


def concat_node(parts, axis):
    """np.concatenate as a graph node: each part's gradient is its slice."""
    splits = np.cumsum([p.shape[axis] for p in parts])[:-1]
    return ad.from_op(np.concatenate([p.data for p in parts], axis=axis), parts,
                      lambda g: tuple(np.split(g, splits, axis=axis)))


def bilinear_block_op(grid, pos):
    """The per-(view, level) sampling primitive that pipeline.bilinear_op
    replaced: grid (H, W, C) at positions Tensor (..., 2), giving (..., C)."""
    value, slopes = _bilinear_forward(grid, pos.data, pos.requires_grad)
    if slopes is None:
        return ad.Tensor(value)
    dvdx, dvdy = slopes
    return ad.from_op(value, (pos,), lambda g: (
        np.stack([np.sum(g * dvdx, axis=-1), np.sum(g * dvdy, axis=-1)], axis=-1),))


def stencil_op(blocks, valid):
    """The T*S bilinear blocks (n, J, P, L), view-major, as one stencil
    (T, n, J, S*P*L), zero in the views that `valid` drops; the primitive that
    assembled the stencil before pipeline.bilinear_op wrote it directly."""
    T, (n, J, P, L), S = len(valid), blocks[0].shape, len(blocks) // len(valid)
    mask = valid.reshape((T, n, J, 1, 1)).astype(float)
    out = np.empty((T, n, J, S, P, L))
    for k, block in enumerate(blocks):
        np.multiply(block.data, mask[k // S], out=out[k // S, :, :, k % S])
    return ad.from_op(out.reshape((T, n, J, -1)), blocks, lambda g: tuple(
        g.reshape((T, n, J, S, P, L))[t, :, :, s] * mask[t]
        for t in range(T) for s in range(S)))


def stencil_blocks(pyramids, anchors, off, valid):
    """The masked stencil as pipeline._attention_samples built it one block at
    a time: per-view anchors (n, J, 1, 2) and per-level offsets (n, J, P, 2)
    taken from anchors (T, n, J, 2) and off (n, J, S, P, 2), one position
    Tensor and one bilinear_block_op per (view, level), then stencil_op."""
    n, J, S = off.shape[:3]
    offsets = [off[:, :, s] for s in range(S)]
    anchor = [anchors[t].reshape((n, J, 1, 2)) for t in range(len(pyramids))]
    return stencil_op([bilinear_block_op(pyr.levels[s], anchor[t] * 0.5 ** s + offsets[s])
                       for t, pyr in enumerate(pyramids) for s in range(S)], valid)


def attention_samples_loop(visual, anchors, valid, pyramids, p, prefix, config):
    """pipeline._attention_samples one (view, scale) at a time: each block's
    weighted sum over points, summed over scales per view, and the view mask
    applied to the per-view sums and, a second time, to the raw stencil.
    Returns (per_view, fused, stencil) as the pipeline does."""
    n, J, L = visual.shape
    T = len(pyramids)
    S, P = config.num_scales, config.num_points
    off = (visual @ p[prefix + "off_w"] + p[prefix + "off_b"]).reshape((n, J, S, P, 2))
    alog = (visual @ p[prefix + "alog_w"] + p[prefix + "alog_b"]).reshape((n, J, S * P))
    w_sp = ad.softmax(alog, axis=-1).reshape((n, J, S, P))
    per_view = []
    raw_view = []
    for t in range(T):
        pyr = pyramids[t]
        anchor_t = anchors[t].reshape((n, J, 1, 2))
        per_scale = []
        raw_scale = []
        for s in range(S):
            pos = anchor_t * 0.5 ** s + off[:, :, s]
            samples = bilinear_block_op(pyr.levels[s], pos)
            raw_scale.append(samples)
            per_scale.append((w_sp[:, :, s].reshape((n, J, P, 1)) * samples).sum(axis=2))
        total = per_scale[0]
        for extra in per_scale[1:]:
            total = total + extra
        per_view.append(total)
        raw_view.append(stack_node(raw_scale, axis=2))
    vmask = valid[..., None].astype(float)
    masked = ad.mul(stack_node(per_view, axis=0), vmask)
    stencil = ad.mul(stack_node(raw_view, axis=0).reshape((T, n, J, S * P * L)), vmask)
    denom = np.maximum(valid.sum(axis=0), 1)[None, ..., None]
    fused = ad.sum_(ad.div(masked, denom), axis=0)
    return masked, fused, stencil


def head_composition(stencil, x2, w1, b1):
    """pipeline.head_op from generic ops: the shared features x2 copied to
    every view, joined to the stencil rows, one matmul, the bias, tanh."""
    x2b = stack_node([x2] * stencil.shape[0], axis=0)
    return ad.tanh(concat_node([stencil, x2b], axis=-1) @ w1 + b1)


def phi1_prime(m):
    """d/dm phi1(m) = (exp(m)(m - 1) + 1) / m^2, elementwise. The closed form
    is taken in long double, exp included, so its cancellation costs little
    of float64; where |m| < 0.05 the Taylor sum over k = 1..8 of
    k m^(k-1) / (k+1)!."""
    mL = np.asarray(m, dtype=LD)
    with np.errstate(divide="ignore", invalid="ignore"):  # m = 0 takes the sum
        closed = ((mL - 1) * np.exp(mL) + 1) / (mL * mL)
    series = sum(k * m ** (k - 1) / math.factorial(k + 1) for k in range(1, 9))
    return np.where(np.abs(m) < 0.05, series, closed.astype(float))


def scan_grads_mp(sel, x, upstream, dps=50):
    """Gradients of sum(upstream * y) for A, b_delta and w_delta, with y the
    selective scan of x (batch, steps, L): a scalar loop in mpmath at dps
    digits that unrolls the recurrence forward and accumulates the textbook
    chain rule in reverse, dAbar/dA = delta Abar, dG/dA = delta^2 phi1'(m),
    dAbar/d delta = A Abar, dG/d delta = Abar. Returns float64 arrays."""
    with mpmath.workdps(dps):
        mp = mpmath.mpf
        L, S = np.shape(sel.A)
        A = [[mp(float(a)) for a in row] for row in sel.A]
        dA = [[mp(0)] * S for _ in range(L)]
        db, dw = [mp(0)] * L, [[mp(0)] * L for _ in range(L)]
        for xb, ub in zip(np.asarray(x, dtype=float), np.asarray(upstream, dtype=float)):
            xs = [[mp(float(v)) for v in row] for row in xb]
            steps = []  # per step: pre, delta, B_t, C_t, abar, h
            h = [[mp(0)] * S for _ in range(L)]
            for xt in xs:
                pre = [mpmath.fsum(xt[i] * mp(float(sel.w_delta[i][l])) for i in range(L))
                       + mp(float(sel.b_delta[l])) for l in range(L)]
                delta = [mpmath.log1p(mpmath.exp(p)) for p in pre]
                Bt = [mpmath.fsum(xt[i] * mp(float(sel.w_b[i][s])) for i in range(L))
                      for s in range(S)]
                Ct = [mpmath.fsum(xt[i] * mp(float(sel.w_c[i][s])) for i in range(L))
                      for s in range(S)]
                abar = [[mpmath.exp(delta[l] * A[l][s]) for s in range(S)] for l in range(L)]
                g = [[mpmath.expm1(delta[l] * A[l][s]) / A[l][s] if A[l][s] else delta[l]
                      for s in range(S)] for l in range(L)]
                h = [[abar[l][s] * h[l][s] + g[l][s] * Bt[s] * xt[l] for s in range(S)]
                     for l in range(L)]
                steps.append((pre, delta, Bt, Ct, abar, h))
            dh_next = [[mp(0)] * S for _ in range(L)]
            for t in range(len(xs) - 1, -1, -1):
                pre, delta, Bt, Ct, abar, _ = steps[t]
                h_prev = steps[t - 1][5] if t else [[mp(0)] * S for _ in range(L)]
                for l in range(L):
                    ddelta = mp(0)
                    for s in range(S):
                        dh = mp(float(ub[t][l])) * Ct[s] + dh_next[l][s]
                        dabar, dg = dh * h_prev[l][s], dh * Bt[s] * xs[t][l]
                        m = delta[l] * A[l][s]
                        phi1p = (abar[l][s] * (m - 1) + 1) / (m * m) if m else mp(1) / 2
                        dA[l][s] += dabar * delta[l] * abar[l][s] + dg * delta[l] ** 2 * phi1p
                        ddelta += dabar * A[l][s] * abar[l][s] + dg * abar[l][s]
                        dh_next[l][s] = dh * abar[l][s]
                    dpre = ddelta / (1 + mpmath.exp(-pre[l]))
                    db[l] += dpre
                    for i in range(L):
                        dw[i][l] += xs[t][i] * dpre
        return {k: np.array(v, dtype=float) for k, v in
                (("A", dA), ("b_delta", db), ("w_delta", dw))}


def selective_scan_step_major(sel, x):
    """The step-major selective scan that ssm.selective_scan_batch replaced:
    every cached array is (steps, batch, ...), the cache holds m = delta A, and
    y is a (batch, steps, L) view of a step-major array. The state-major
    kernel keeps its forward operation order, so y must match bit for bit."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[1] == 0:
        raise ssm.EmptySequence(f"expected non-empty (batch, steps, L), got {x.shape}")
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
    with np.errstate(invalid="ignore"):  # 0 / 0 where A = 0, replaced below
        g = np.expm1(m) / sel.A  # ZOH input factor delta phi1(m), per channel and state
    g = np.where(sel.A == 0.0, delta[..., None], g)
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


def selective_scan_backward_step_major(sel, cache, upstream):
    """The step-major backward that ssm.selective_scan_backward replaced, with
    its einsum reductions, reading the cache of selective_scan_step_major."""
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
        + np.einsum("tbls,tbls,tbl->ls", dG, phi1_prime(m), delta * delta)
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
