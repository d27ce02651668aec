"""Pinhole cameras, confidence-weighted algebraic triangulation, and their Jacobians.

World coordinates are millimeters, image coordinates are pixels. A camera is a
3x4 projection matrix mapping homogeneous world points to homogeneous pixels.
A CameraRig holds its T cameras as stacked arrays (projections (T, 3, 4),
image sizes (T, 2), view ids (T,)), the form every computation reads.
Triangulation solves the weighted homogeneous linear system (two rows per view,
scaled by that view's confidence) for the right singular vector of the smallest
singular value. Rows are built from pixel-normalized cameras and the world
columns are rescaled to meters before the solve; both transforms leave exact
data exact and keep the system well conditioned. Triangulation is batched:
triangulate_batch builds and factors B systems at once, a zero confidence
masks a view, and degenerate points are flagged (ok=False) instead of raising.

Rig JSON schema::

    {"views": [{"id": int, "P": [12 row-major reals], "w": int, "h": int}, ...]}
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEPTH_EPSILON = 1e-6
SVD_GAP_EPSILON = 1e-10

# world columns are divided by this before the homogeneous solve (mm -> m)
COORD_SCALE = 1000.0

# sigma_2/sigma_0 below this means the stacked system has no unique null direction
RANK_RATIO_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CameraRig:
    """T cameras as stacked arrays: projections (T, 3, 4), image sizes
    (T, 2) as (width, height) in pixels, and view ids (T,).

    The rig holds read-only copies of the arrays it is given, so it cannot
    be changed past its checks; rigs compare and hash by identity."""
    projections: np.ndarray
    sizes: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        P = np.array(self.projections, dtype=float)
        if P.ndim != 3 or P.shape[1:] != (3, 4):
            raise ValueError(f"projections must be (T, 3, 4), got {P.shape}")
        sizes = np.array(self.sizes, dtype=int)
        ids = np.array(self.ids, dtype=int)
        if sizes.shape != (len(P), 2) or ids.shape != (len(P),):
            raise ValueError(f"{len(P)} views need sizes (T, 2) and ids (T,), "
                             f"got {sizes.shape} and {ids.shape}")
        deficient = np.nonzero(np.linalg.matrix_rank(P) != 3)[0]
        if deficient.size:
            raise ValueError(f"projection of view {ids[deficient[0]]} is rank deficient")
        if len(np.unique(ids)) != len(ids):
            raise ValueError(f"duplicate view ids: {ids.tolist()}")
        for name, value in (("projections", P), ("sizes", sizes), ("ids", ids)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.projections)

    def to_doc(self) -> dict:
        """The rig as a JSON object in the schema above."""
        return {"views": [
            {"id": int(i), "P": P.ravel().tolist(), "w": int(w), "h": int(h)}
            for i, P, (w, h) in zip(self.ids, self.projections, self.sizes)]}

    @staticmethod
    def from_doc(doc: dict) -> "CameraRig":
        views = doc["views"]
        return CameraRig(
            projections=np.asarray([item["P"] for item in views],
                                   dtype=float).reshape(len(views), 3, 4),
            sizes=np.array([[int(item["w"]), int(item["h"])] for item in views],
                           dtype=int).reshape(len(views), 2),
            ids=np.array([int(item["id"]) for item in views], dtype=int))


def look_at_camera(position, target, focal: float, width: int,
                   height: int) -> np.ndarray:
    """Projection matrix (3, 4) of a pinhole camera at `position` aimed at
    `target`, principal point at the image center, pixel y growing downward
    and the roll fixed by world +z."""
    pos = np.asarray(position, dtype=float)
    fwd = np.asarray(target, dtype=float) - pos
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(fwd, np.array([0.0, 0.0, 1.0]))
    if np.linalg.norm(right) < 1e-9:
        right = np.cross(fwd, np.array([1.0, 0.0, 0.0]))
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    R = np.stack([right, down, fwd])
    t = -R @ pos
    K = np.array([
        [focal, 0.0, width / 2.0],
        [0.0, focal, height / 2.0],
        [0.0, 0.0, 1.0],
    ])
    return K @ np.concatenate([R, t[:, None]], axis=1)


def project_batch(projections: np.ndarray, points: np.ndarray):
    """Project points (..., 3) through stacked cameras (T, 3, 4).

    Returns (uv, depth, valid): uv is (T, ..., 2), depth (T, ...) and
    valid (T, ...) marks depth > DEPTH_EPSILON. Invalid entries get uv = 0
    instead of raising, so callers can mask.
    """
    pts = np.asarray(points, dtype=float)
    ph = np.concatenate([pts, np.ones(pts.shape[:-1] + (1,))], axis=-1)
    # (T, 3, 4) @ (..., 4) -> (T, ..., 3)
    h = np.einsum("tij,...j->t...i", np.asarray(projections, dtype=float), ph)
    depth = h[..., 2]
    valid = depth > DEPTH_EPSILON
    safe = np.where(valid, depth, 1.0)
    uv = h[..., :2] / safe[..., None]
    uv = np.where(valid[..., None], uv, 0.0)
    return uv, depth, valid


def _normalized_cameras(rig: CameraRig):
    """Pixel-normalized, column-scaled camera matrices of every view.

    Returns (P_tilde (T, 3, 4), s (T,), centers (T, 2)): s maps pixel offsets
    from the image center into normalized units, and P_tilde already carries
    the COORD_SCALE column rescaling for the world coordinates.
    """
    wh = rig.sizes.astype(float)
    s = 2.0 / (wh[:, 0] + wh[:, 1])
    centers = wh / 2.0
    N = np.zeros((len(rig), 3, 3))
    N[:, 0, 0] = N[:, 1, 1] = s
    N[:, :2, 2] = -s[:, None] * centers
    N[:, 2, 2] = 1.0
    Pt = (N @ rig.projections) * np.array([COORD_SCALE, COORD_SCALE, COORD_SCALE, 1.0])
    return Pt, s, centers


def triangulate_batch(positions: np.ndarray, confidences: np.ndarray,
                      rig: CameraRig):
    """Triangulate B points: build and factor their weighted DLT systems.

    positions: (B, T, 2); confidences: (B, T), zero meaning "masked out",
    which is exactly equivalent to removing the view. Returns (points (B, 3),
    ok (B,), vjp); points with a degenerate system or fewer than two
    positive weights get ok=False and a zero point. vjp(cot) pulls a
    cotangent cot (B, 3) on the points back through the same factorization
    and returns (d_pos (B, T, 2), d_conf (B, T), ok), with
    d_pos[b, t, k] = sum_i cot_bi dX_bi / du_btk; its ok also requires the
    two smallest singular values to be separated by SVD_GAP_EPSILON, and rows
    that are not ok get zero gradients.
    """
    Pt, s, centers = _normalized_cameras(rig)
    un = s[None, :, None] * (positions - centers[None, :, :])  # (B, T, 2)
    r1 = un[..., 0:1] * Pt[None, :, 2, :] - Pt[None, :, 0, :]  # (B, T, 4)
    r2 = un[..., 1:2] * Pt[None, :, 2, :] - Pt[None, :, 1, :]
    cmax = np.max(confidences, axis=1)  # (B,)
    ok = np.sum(confidences > 0.0, axis=1) >= 2
    safe_cmax = np.where(cmax > 0.0, cmax, 1.0)
    cn = confidences / safe_cmax[:, None]  # (B, T)
    A = np.concatenate([cn[..., None] * r1, cn[..., None] * r2], axis=1)  # (B, 2T, 4)
    # dividing by the RMS row norm leaves the homogeneous minimizer (and every
    # gradient) unchanged and keeps the singular values near unity
    g = np.linalg.norm(A, axis=(1, 2)) / np.sqrt(A.shape[1])
    g = np.where(g > 0.0, g, 1.0)[:, None, None]
    _, sv, Vt = np.linalg.svd(A / g, full_matrices=False)  # U unused; sv descending
    ok = ok & (sv[:, 0] > 0.0) & (sv[:, 2] > RANK_RATIO_TOL * sv[:, 0])
    v = Vt[:, -1, :]  # (B, 4)
    ok = ok & (np.abs(v[:, 3]) > 1e-12)
    w = np.where(np.abs(v[:, 3]) > 1e-12, v[:, 3], 1.0)
    pts = COORD_SCALE * v[:, :3] / w[:, None]

    def vjp(cot):
        # implicit differentiation of M v = lam v for the smallest eigenpair
        # of M = A^T A: dv = sum_{k>0} (v_k^T dM v) / (lam_0 - lam_k) v_k, so
        # cot . dX = q^T dM v with q = sum_k (a . v_k) / (lam_0 - lam_k) v_k,
        # where a is the cotangent carried from X back to v
        ok_j = ok & (sv[:, 2] - sv[:, 3] > SVD_GAP_EPSILON * np.maximum(sv[:, 0], 1.0))
        denom = sv[:, 3:] ** 2 - sv[:, 2::-1] ** 2  # (B, 3), ascending eigenvalue order
        denom = np.where(np.abs(denom) > 1e-300, denom, -1e-300)
        Vrest = Vt[:, 2::-1, :]  # (B, 3, 4) the matching v_k as rows
        cw = cot * (COORD_SCALE / w)[:, None]  # (B, 3)
        a = np.concatenate([cw, -np.sum(cw * pts, axis=1, keepdims=True) / COORD_SCALE],
                           axis=1)  # (B, 4)
        q = np.einsum("bkj,bk->bj", Vrest, np.einsum("bkj,bj->bk", Vrest, a) / denom)
        # dM/du = c^2 s (p3 r^T + r p3^T), dM/dc = 2 c (r1 r1^T + r2 r2^T), all / g^2
        qv = np.stack([q, v], axis=-1) / g  # (B, 4, 2)
        (qp3, vp3), (qr1, vr1), (qr2, vr2) = (
            np.moveaxis(rows @ qv, -1, 0) for rows in (Pt[None, :, 2, :], r1, r2))  # (B, T)
        d_pos = np.stack([qp3 * vr1 + qr1 * vp3, qp3 * vr2 + qr2 * vp3],
                         axis=-1) * (cn * cn * s)[..., None]  # (B, T, 2)
        # scale invariance makes treating cmax as a constant exact
        d_conf = (2.0 * cn) * (qr1 * vr1 + qr2 * vr2) / safe_cmax[:, None]
        return (np.where(ok_j[:, None, None], d_pos, 0.0),
                np.where(ok_j[:, None], d_conf, 0.0), ok_j)

    return np.where(ok[:, None], pts, 0.0), ok, vjp


def triangulation_jacobian_batch(positions: np.ndarray, confidences: np.ndarray,
                                 rig: CameraRig):
    """Batched analytic Jacobians of triangulate_batch, one basis cotangent
    per coordinate through its vjp.

    Returns (points (B,3), d_pos (B,T,3,2), d_conf (B,T,3), ok (B,)).
    Degenerate or gap-deficient points get ok=False with zero gradients
    instead of raising, so the caller can keep previous geometry.
    """
    pts, _, vjp = triangulate_batch(positions, confidences, rig)
    d_pos, d_conf, ok = zip(*(vjp(np.broadcast_to(e, pts.shape)) for e in np.eye(3)))
    return (np.where(ok[0][:, None], pts, 0.0), np.stack(d_pos, axis=2),
            np.stack(d_conf, axis=2), ok[0])
