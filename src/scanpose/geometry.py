"""Pinhole cameras, confidence-weighted algebraic triangulation, and their Jacobians.

World coordinates are millimeters, image coordinates are pixels. A camera is a
3x4 projection matrix mapping homogeneous world points to homogeneous pixels.
Triangulation solves the weighted homogeneous linear system (two rows per view,
scaled by that view's confidence) for the right singular vector of the smallest
singular value. Rows are built from pixel-normalized cameras and the world
columns are rescaled to meters before the solve; both transforms leave exact
data exact and keep the system well conditioned.

Rig JSON schema::

    {"views": [{"id": int, "P": [12 row-major reals], "w": int, "h": int}, ...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

DEPTH_EPSILON = 1e-6
SVD_GAP_EPSILON = 1e-10

# world columns are divided by this before the homogeneous solve (mm -> m)
COORD_SCALE = 1000.0

# sigma_2/sigma_0 below this means the stacked system has no unique null direction
RANK_RATIO_TOL = 1e-9


class GeometryError(Exception):
    pass


class DegenerateDepth(GeometryError):
    """Point is at or behind the camera's principal plane."""


class InsufficientViews(GeometryError):
    """Fewer than two positive-confidence observations."""


class SingularSystem(GeometryError):
    """Stacked triangulation system is rank deficient or solves at infinity."""


class NonDifferentiablePoint(GeometryError):
    """Smallest singular value is not simple; the solution is not differentiable."""


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

    def view_by_id(self, view_id: int) -> CameraView:
        for v in self.views:
            if v.view_id == view_id:
                return v
        raise KeyError(f"no view with id {view_id}")

    def to_json(self) -> str:
        return json.dumps({
            "views": [
                {
                    "id": v.view_id,
                    "P": [float(x) for x in v.projection.ravel()],
                    "w": v.image_width,
                    "h": v.image_height,
                }
                for v in self.views
            ]
        })

    @staticmethod
    def from_json(text: str) -> "CameraRig":
        doc = json.loads(text)
        views = tuple(
            CameraView(
                projection=np.asarray(item["P"], dtype=float).reshape(3, 4),
                image_width=int(item["w"]),
                image_height=int(item["h"]),
                view_id=int(item["id"]),
            )
            for item in doc["views"]
        )
        return CameraRig(views=views)


@dataclass(frozen=True)
class ViewObservation:
    view_id: int
    position: np.ndarray  # (2,) pixels
    confidence: float

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (2,):
            raise ValueError(f"position must have shape (2,), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("position must be finite")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")
        object.__setattr__(self, "position", pos)


def look_at_camera(position, target, focal: float, width: int, height: int,
                   view_id: int, up=(0.0, 0.0, 1.0)) -> CameraView:
    """Pinhole camera at `position` aimed at `target`, principal point at the
    image center, pixel y growing downward. `up` breaks the roll ambiguity."""
    pos = np.asarray(position, dtype=float)
    fwd = np.asarray(target, dtype=float) - pos
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(fwd, np.asarray(up, dtype=float))
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


def project(view: CameraView, point: np.ndarray) -> np.ndarray:
    """Project a world point (mm) to pixel coordinates.

    Raises DegenerateDepth when the homogeneous depth is not strictly greater
    than DEPTH_EPSILON (point at or behind the camera plane).
    """
    p = np.asarray(point, dtype=float)
    h = view.projection @ np.append(p, 1.0)
    if h[2] <= DEPTH_EPSILON:
        raise DegenerateDepth(
            f"view {view.view_id}: homogeneous depth {h[2]:.3e} <= {DEPTH_EPSILON}"
        )
    return h[:2] / h[2]


def project_batch(projections: np.ndarray, points: np.ndarray,
                  depth_epsilon: float = DEPTH_EPSILON):
    """Project points (..., 3) through stacked cameras (T, 3, 4).

    Returns (uv, depth, valid): uv is (T, ..., 2), depth (T, ...) and
    valid (T, ...) marks depth > depth_epsilon. Invalid entries get uv = 0
    instead of raising, so callers can mask.
    """
    pts = np.asarray(points, dtype=float)
    ph = np.concatenate([pts, np.ones(pts.shape[:-1] + (1,))], axis=-1)
    # (T, 3, 4) @ (..., 4) -> (T, ..., 3)
    h = np.einsum("tij,...j->t...i", np.asarray(projections, dtype=float), ph)
    depth = h[..., 2]
    valid = depth > depth_epsilon
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


def _stack_rows(observations, rig: CameraRig):
    """Per-view normalized DLT rows and bookkeeping for the weighted solve.

    The stacked matrix is divided by its RMS row norm at the end. A global
    scalar leaves the homogeneous minimizer (and, by scale invariance, every
    gradient) exactly unchanged while keeping singular values near unity.
    """
    rows = []
    meta = []  # (confidence, s, r1, r2, p3) per observation, globally rescaled
    cmax = max((o.confidence for o in observations), default=0.0)
    if cmax <= 0.0:
        return np.zeros((0, 4)), meta
    for obs in observations:
        view = rig.view_by_id(obs.view_id)
        Pt, s, center = _normalized_camera(view)
        un = s * (obs.position - center)
        r1 = un[0] * Pt[2] - Pt[0]
        r2 = un[1] * Pt[2] - Pt[1]
        c = obs.confidence / cmax  # global rescale; solution is scale invariant
        rows.append(c * r1)
        rows.append(c * r2)
        meta.append((c, s, r1, r2, Pt[2]))
    A = np.asarray(rows)
    g = np.linalg.norm(A) / np.sqrt(A.shape[0])
    if g <= 0.0:
        g = 1.0
    meta = [(c, s, r1 / g, r2 / g, p3 / g) for (c, s, r1, r2, p3) in meta]
    return A / g, meta


def triangulate_algebraic(observations, rig: CameraRig) -> np.ndarray:
    """Confidence-weighted DLT triangulation.

    Each positive-confidence observation contributes two rows scaled by its
    confidence; the returned point is the dehomogenized right singular vector
    of the smallest singular value.
    """
    obs = [o for o in observations if o.confidence > 0.0]
    if len(obs) < 2:
        raise InsufficientViews(
            f"need >= 2 positive-confidence observations, got {len(obs)}"
        )
    A, _ = _stack_rows(obs, rig)
    _, sv, Vt = np.linalg.svd(A)
    if sv[0] <= 0.0 or sv[2] <= RANK_RATIO_TOL * sv[0]:
        raise SingularSystem("stacked system is rank deficient")
    v = Vt[-1]
    if abs(v[3]) <= 1e-12:
        raise SingularSystem("solution lies at infinity")
    return COORD_SCALE * v[:3] / v[3]


def triangulation_jacobian(observations, rig: CameraRig):
    """Analytic gradients of the triangulated point.

    Implicitly differentiates the normal equations M v = lambda v of the
    weighted system. Returns (point, d_position, d_confidence) where
    d_position[t, i, k] = dX_i / du_{t,k} and d_confidence[t, i] = dX_i / dc_t,
    indexed in the order of `observations` (zero-confidence views get zeros).

    Raises NonDifferentiablePoint when the two smallest singular values are
    separated by less than SVD_GAP_EPSILON.
    """
    positive = [o for o in observations if o.confidence > 0.0]
    if len(positive) < 2:
        raise InsufficientViews(
            f"need >= 2 positive-confidence observations, got {len(positive)}"
        )
    A, meta_pos = _stack_rows(positive, rig)
    _, sv_desc, Vt = np.linalg.svd(A)
    sv = sv_desc[::-1]
    lam = sv * sv
    V = Vt[::-1].T  # eigenvectors of A^T A, ascending eigenvalue order
    if sv[1] - sv[0] <= SVD_GAP_EPSILON:
        raise NonDifferentiablePoint(
            f"singular value gap {sv[1] - sv[0]:.3e} <= {SVD_GAP_EPSILON}"
        )
    if sv[1] <= RANK_RATIO_TOL * sv[3]:
        raise SingularSystem("stacked system is rank deficient")
    v = V[:, 0]
    if abs(v[3]) <= 1e-12:
        raise SingularSystem("solution lies at infinity")
    point = COORD_SCALE * v[:3] / v[3]

    # dv = sum_{k>0} (v_k^T dM v) / (lam_0 - lam_k) v_k ; then dehomogenize.
    denom = lam[0] - lam[1:]  # (3,)
    Vrest = V[:, 1:]  # (4, 3)

    def _point_grad(dM: np.ndarray) -> np.ndarray:
        coeff = (Vrest.T @ dM @ v) / denom  # (3,)
        dv = Vrest @ coeff
        return (COORD_SCALE / v[3]) * (dv[:3] - (point / COORD_SCALE) * dv[3])

    pos_iter = iter(meta_pos)
    d_position = np.zeros((len(observations), 3, 2))
    d_confidence = np.zeros((len(observations), 3))
    for t, obs in enumerate(observations):
        if obs.confidence <= 0.0:
            continue  # its rows vanish from the system
        c, s, r1, r2, p3 = next(pos_iter)
        dM_ux = c * c * (np.outer(p3, r1) + np.outer(r1, p3))
        dM_uy = c * c * (np.outer(p3, r2) + np.outer(r2, p3))
        d_position[t, :, 0] = _point_grad(dM_ux) * s
        d_position[t, :, 1] = _point_grad(dM_uy) * s
        dM_c = 2.0 * c * (np.outer(r1, r1) + np.outer(r2, r2))
        # c was rescaled by 1/cmax; scale invariance makes treating cmax as a
        # constant exact (the gradient has no component along the weights).
        cmax = obs.confidence / c
        d_confidence[t] = _point_grad(dM_c) / cmax
    return point, d_position, d_confidence


def reprojection_error(point: np.ndarray, observations, rig: CameraRig) -> float:
    """Mean pixel distance between the point's projections and the observations."""
    dists = []
    for obs in observations:
        uv = project(rig.view_by_id(obs.view_id), point)
        dists.append(float(np.linalg.norm(uv - obs.position)))
    return float(np.mean(dists))


# ---------------------------------------------------------------------------
# batched paths used by the refinement pipeline (same math, mask semantics:
# weight zero rows are algebraically identical to dropping the view)
# ---------------------------------------------------------------------------

def _normalized_cameras_batch(rig: CameraRig):
    Pt, s, centers = zip(*(_normalized_camera(v) for v in rig.views))
    return np.stack(Pt), np.array(s), np.stack(centers)  # (T, 3, 4), (T,), (T, 2)


def factor_triangulation(positions: np.ndarray, confidences: np.ndarray,
                         rig: CameraRig, min_views: int = 2):
    """Build and factor the weighted DLT systems of B points.

    positions: (B, T, 2); confidences: (B, T), zero meaning "masked out",
    which is exactly equivalent to removing the view. Returns (points (B, 3),
    ok (B,), jacobian); points with a degenerate system or fewer than
    min_views positive weights get ok=False and a zero point. jacobian()
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
    ok = np.sum(confidences > 0.0, axis=1) >= min_views
    safe_cmax = np.where(cmax > 0.0, cmax, 1.0)
    cn = confidences / safe_cmax[:, None]  # (B, T)
    A = np.concatenate([cn[..., None] * r1, cn[..., None] * r2], axis=1)  # (B, 2T, 4)
    g = np.linalg.norm(A, axis=(1, 2)) / np.sqrt(A.shape[1])
    g = np.where(g > 0.0, g, 1.0)[:, None, None]
    _, sv, Vt = np.linalg.svd(A / g)  # singular values descending
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
        d_conf = _grads(dM_c) / safe_cmax[:, None, None]
        return (np.where(ok_j[:, None, None, None], d_pos, 0.0),
                np.where(ok_j[:, None, None], d_conf, 0.0), ok_j)

    return np.where(ok[:, None], pts, 0.0), ok, jacobian


def triangulate_batch(positions: np.ndarray, confidences: np.ndarray,
                      rig: CameraRig, min_views: int = 2):
    """Triangulate B points; returns (points (B, 3), ok (B,)) as
    factor_triangulation does."""
    return factor_triangulation(positions, confidences, rig, min_views)[:2]


def triangulation_jacobian_batch(positions: np.ndarray, confidences: np.ndarray,
                                 rig: CameraRig, min_views: int = 2):
    """Batched analytic Jacobians mirroring triangulation_jacobian.

    Returns (points (B,3), d_pos (B,T,3,2), d_conf (B,T,3), ok (B,)).
    Degenerate or gap-deficient points get ok=False with zero gradients
    instead of raising, so the caller can keep previous geometry.
    """
    pts, _, jacobian = factor_triangulation(positions, confidences, rig, min_views)
    d_pos, d_conf, ok = jacobian()
    return np.where(ok[:, None], pts, 0.0), d_pos, d_conf, ok
