"""Independent reference computations shared by the test suite.

Everything here is deliberately written from the mathematical definitions,
on separate code paths from the library (longdouble arithmetic, cyclic
Jacobi rotations, Taylor series), so that agreement is meaningful.
"""

import math

import numpy as np

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
