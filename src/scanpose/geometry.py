"""Pinhole cameras, confidence-weighted algebraic triangulation, and their Jacobians.

World coordinates are millimeters, image coordinates are pixels. A camera is a
3x4 projection matrix mapping homogeneous world points to homogeneous pixels.
Triangulation solves the weighted homogeneous linear system (two rows per view,
scaled by that view's confidence) for the right singular vector of the smallest
singular value. Rows are built from pixel-normalized cameras and the world
columns are rescaled to meters before the solve; both transforms leave exact
data exact and keep the system well conditioned. Triangulation is batched:
factor_triangulation builds and factors B systems at once, a zero confidence
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


@dataclass(frozen=True)
class CameraView:
    projection: np.ndarray  # (3, 4)
    image_width: int
    image_height: int
    view_id: int

    def __post_init__(self):
        P = np.asarray(self.projection, dtype=float)
        if P.shape != (3, 4):
            raise ValueError(f"projection must be 3x4, got {P.shape}")
        if np.linalg.matrix_rank(P) != 3:
            raise ValueError(f"projection of view {self.view_id} is rank deficient")
        object.__setattr__(self, "projection", P)


@dataclass(frozen=True)
class CameraRig:
    views: tuple[CameraView, ...]

    def __post_init__(self):
        object.__setattr__(self, "views", tuple(self.views))
        ids = [v.view_id for v in self.views]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate view ids: {ids}")

    def __len__(self) -> int:
        return len(self.views)

    def to_doc(self) -> dict:
        """The rig as a JSON object in the schema above."""
        return {"views": [
            {"id": v.view_id, "P": [float(x) for x in v.projection.ravel()],
             "w": v.image_width, "h": v.image_height}
            for v in self.views]}

    @staticmethod
    def from_doc(doc: dict) -> "CameraRig":
        return CameraRig(views=tuple(
            CameraView(projection=np.asarray(item["P"], dtype=float).reshape(3, 4),
                       image_width=int(item["w"]), image_height=int(item["h"]),
                       view_id=int(item["id"]))
            for item in doc["views"]))


def look_at_camera(position, target, focal: float, width: int, height: int,
                   view_id: int) -> CameraView:
    """Pinhole camera at `position` aimed at `target`, principal point at the
    image center, pixel y growing downward and the roll fixed by world +z."""
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
    P = K @ np.concatenate([R, t[:, None]], axis=1)
    return CameraView(projection=P, image_width=width, image_height=height,
                      view_id=view_id)


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


def _normalized_camera(view: CameraView) -> tuple[np.ndarray, float, np.ndarray]:
    """Pixel-normalized, column-scaled camera matrix.

    Returns (P_tilde, s, center): s maps pixel offsets from the image center
    into normalized units, and P_tilde already carries the COORD_SCALE column
    rescaling for the world coordinates.
    """
    w, h = float(view.image_width), float(view.image_height)
    s = 2.0 / (w + h)
    cx, cy = w / 2.0, h / 2.0
    N = np.array([[s, 0.0, -s * cx], [0.0, s, -s * cy], [0.0, 0.0, 1.0]])
    Pn = N @ view.projection
    Pt = Pn * np.array([COORD_SCALE, COORD_SCALE, COORD_SCALE, 1.0])
    return Pt, s, np.array([cx, cy])


def _normalized_cameras_batch(rig: CameraRig):
    Pt, s, centers = zip(*(_normalized_camera(v) for v in rig.views))
    return np.stack(Pt), np.array(s), np.stack(centers)  # (T, 3, 4), (T,), (T, 2)


def factor_triangulation(positions: np.ndarray, confidences: np.ndarray,
                         rig: CameraRig):
    """Build and factor the weighted DLT systems of B points.

    positions: (B, T, 2); confidences: (B, T), zero meaning "masked out",
    which is exactly equivalent to removing the view. Returns (points (B, 3),
    ok (B,), jacobian); points with a degenerate system or fewer than
    two positive weights get ok=False and a zero point. jacobian()
    differentiates from the same factorization and returns (d_pos (B, T, 3, 2),
    d_conf (B, T, 3), ok), with d_pos[b, t, i, k] = dX_bi / du_btk; its ok
    also requires the two smallest singular values to be separated by
    SVD_GAP_EPSILON, and rows that are not ok get zero gradients.
    """
    Pt, s, centers = _normalized_cameras_batch(rig)
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

    def jacobian():
        # implicit differentiation of M v = lam v for the smallest eigenpair
        # of M = A^T A: dv = sum_{k>0} (v_k^T dM v) / (lam_0 - lam_k) v_k.
        # Full Jacobians, not cotangent products: reordering these sums moves
        # near-zero head gradients that Adam's first step scales to full size
        ok_j = ok & (sv[:, 2] - sv[:, 3] > SVD_GAP_EPSILON * np.maximum(sv[:, 0], 1.0))
        denom = sv[:, 3:] ** 2 - sv[:, 2::-1] ** 2  # (B, 3), ascending eigenvalue order
        denom = np.where(np.abs(denom) > 1e-300, denom, -1e-300)
        Vrest = np.swapaxes(Vt[:, 2::-1, :], -1, -2)  # (B, 4, 3) the matching v_k

        def _grads(dM):  # dM: (B, T, 4, 4) -> (B, T, 3)
            proj = np.einsum("bik,btij,bj->btk", Vrest, dM, v) / denom[:, None, :]
            dv = np.einsum("bik,btk->bti", Vrest, proj)  # (B, T, 4)
            return (COORD_SCALE / w[:, None, None]) * (
                dv[..., :3] - (pts / COORD_SCALE)[:, None, :] * dv[..., 3:4])

        c2 = (cn * cn)[..., None, None]
        r1g, r2g, p3 = r1 / g, r2 / g, Pt[None, :, 2, :] / g  # (B, T, 4)
        outer_p3_r1 = p3[..., :, None] * r1g[..., None, :]  # (B, T, 4, 4)
        outer_p3_r2 = p3[..., :, None] * r2g[..., None, :]
        dM_ux = c2 * (outer_p3_r1 + np.swapaxes(outer_p3_r1, -1, -2))
        dM_uy = c2 * (outer_p3_r2 + np.swapaxes(outer_p3_r2, -1, -2))
        d_pos = np.stack([_grads(dM_ux) * s[None, :, None],
                          _grads(dM_uy) * s[None, :, None]], axis=-1)  # (B, T, 3, 2)
        outer_r1 = r1g[..., :, None] * r1g[..., None, :]
        outer_r2 = r2g[..., :, None] * r2g[..., None, :]
        dM_c = (2.0 * cn)[..., None, None] * (outer_r1 + outer_r2)
        # scale invariance makes treating cmax as a constant exact
        d_conf = _grads(dM_c) / safe_cmax[:, None, None]
        return (np.where(ok_j[:, None, None, None], d_pos, 0.0),
                np.where(ok_j[:, None, None], d_conf, 0.0), ok_j)

    return np.where(ok[:, None], pts, 0.0), ok, jacobian


def triangulate_batch(positions: np.ndarray, confidences: np.ndarray,
                      rig: CameraRig):
    """Triangulate B points; returns (points (B, 3), ok (B,)) as
    factor_triangulation does."""
    return factor_triangulation(positions, confidences, rig)[:2]


def triangulation_jacobian_batch(positions: np.ndarray, confidences: np.ndarray,
                                 rig: CameraRig):
    """Batched analytic Jacobians of triangulate_batch.

    Returns (points (B,3), d_pos (B,T,3,2), d_conf (B,T,3), ok (B,)).
    Degenerate or gap-deficient points get ok=False with zero gradients
    instead of raising, so the caller can keep previous geometry.
    """
    pts, _, jacobian = factor_triangulation(positions, confidences, rig)
    d_pos, d_conf, ok = jacobian()
    return np.where(ok[:, None], pts, 0.0), d_pos, d_conf, ok
