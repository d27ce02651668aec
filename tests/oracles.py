"""Independent reference computations shared by the test suite.

Everything here is deliberately written from the mathematical definitions,
on separate code paths from the library (longdouble arithmetic, cyclic
Jacobi rotations, Taylor series), so that agreement is meaningful. The
`*_loop` references are the straightforward per-item loops that vectorised
library code replaced; tests hold the library to them bit for bit where the
arithmetic is unchanged.
"""

import math

import numpy as np

from scanpose import autodiff as ad
from scanpose import geometry
from scanpose.pipeline import MASK_MARGIN, bilinear_op
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
            levels.append(grid.astype(np.dtype(cfg.grid_dtype)))
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
            pos = anchor_t * pyr.scale_factors[s] + off[:, :, s]
            samples = bilinear_op(pyr.levels[s], pos)
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
