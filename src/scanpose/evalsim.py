"""Synthetic multi-camera scenes and the pose metric suite.

Scenes stand in for real captures: articulated skeletons (T-pose template
plus bounded joint perturbations) placed on the ground plane, cameras on a
ring around the space, and per-view feature pyramids rendered as per-joint
Gaussian keypoint heatmaps stacked with coordinate channels (plus sinusoidal
position channels when the feature dim exceeds joints + 2).

Camera ring slots advance by the golden angle from slot 0, so the first K
cameras of a seed are always a prefix of the first K+1: evaluating the same
scene with fewer or more cameras mirrors the nested cross-camera protocol.

Scene files: a JSON manifest (rig, skeletons, config echo) plus a binary
feature-grid container. Reports serialize to JSON and CSV.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import container
from .geometry import CameraRig, look_at_camera, project_batch
from .pipeline import FeaturePyramid
from .tokens import load_tpose

MAP_THRESHOLDS_MM = (25.0, 50.0, 75.0, 100.0, 125.0, 150.0)
RECALL_RADIUS_MM = 500.0

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


class ShapeMismatch(Exception):
    pass


class ZeroLengthLimb(Exception):
    pass


@dataclass(frozen=True)
class SceneConfig:
    num_actors: int = 2
    num_cameras: int = 5
    space_size: tuple = (8000.0, 8000.0, 2000.0)
    camera_radius: tuple = (5200.0, 6400.0)
    camera_height: tuple = (1900.0, 3100.0)
    image_width: int = 96
    image_height: int = 72
    focal_scale: float = 0.75  # focal length = focal_scale * image_width
    num_scales: int = 2
    num_joints: int = 15
    feature_dim: int = 17  # >= num_joints + 2 (heatmaps + coordinate channels)
    heatmap_sigma_px: float = 4.0
    joint_noise_mm: float = 120.0
    heatmap_noise: float = 0.0
    placement_margin: float = 0.30  # actors stay in the central box
    min_actor_spacing_mm: float = 1200.0
    grid_dtype: str = "float32"  # storage dtype of the rendered grids
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_cameras < 2:
            raise ValueError("need at least two cameras")
        if self.num_actors < 1:
            raise ValueError("need at least one actor")
        if self.feature_dim < self.num_joints + 2:
            raise ValueError("feature_dim must cover per-joint heatmaps plus "
                             "two coordinate channels")
        if self.num_scales < 1:
            raise ValueError("need at least one pyramid level")
        if np.dtype(self.grid_dtype).kind != "f":
            raise ValueError(f"grid_dtype must be a float dtype, got {self.grid_dtype!r}")

    @property
    def ground_bounds(self) -> tuple:
        hx, hy = self.space_size[0] / 2.0, self.space_size[1] / 2.0
        return (-hx, -hy, hx, hy)


@dataclass
class Scene:
    rig: CameraRig
    gt_poses: np.ndarray  # (Z, J, 3) mm
    pyramids: list  # FeaturePyramid per view
    config: SceneConfig
    seed: int


def camera_ring(cfg: SceneConfig, rng: np.random.Generator,
                num_cameras: int | None = None) -> CameraRig:
    """Cameras on a ring looking at the space center. Slot angles advance by
    the golden angle, and per-slot radius/height draws are sequential, so the
    first K cameras are identical for any requested count."""
    T = cfg.num_cameras if num_cameras is None else num_cameras
    center = np.array([0.0, 0.0, cfg.space_size[2] / 2.0])
    phase = rng.uniform(0.0, 2.0 * np.pi)
    views = []
    for t in range(T):
        ang = phase + t * _GOLDEN_ANGLE
        radius = rng.uniform(*cfg.camera_radius)
        height = rng.uniform(*cfg.camera_height)
        pos = np.array([radius * np.cos(ang), radius * np.sin(ang), height])
        views.append(look_at_camera(pos, center,
                                    cfg.focal_scale * cfg.image_width,
                                    cfg.image_width, cfg.image_height,
                                    view_id=t))
    return CameraRig(views=tuple(views))


def sample_actor_poses(cfg: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    """(Z, J, 3) skeletons: template translated to spaced ground positions
    with bounded uniform joint perturbations."""
    template, _, _ = load_tpose(cfg.num_joints)
    hx = cfg.space_size[0] / 2.0 * (1.0 - 2.0 * cfg.placement_margin)
    hy = cfg.space_size[1] / 2.0 * (1.0 - 2.0 * cfg.placement_margin)
    centers = []
    for _ in range(cfg.num_actors):
        for _attempt in range(64):
            c = rng.uniform([-hx, -hy], [hx, hy])
            if all(np.linalg.norm(c - prev) >= cfg.min_actor_spacing_mm
                   for prev in centers):
                break
        centers.append(c)
    poses = np.empty((cfg.num_actors, template.shape[0], 3))
    for z, c in enumerate(centers):
        jitter = rng.uniform(-cfg.joint_noise_mm, cfg.joint_noise_mm,
                             size=template.shape)
        poses[z] = template + np.array([c[0], c[1], 0.0]) + jitter
    return poses


def _positional_channels(cfg: SceneConfig, xn: np.ndarray, yn: np.ndarray):
    """Coordinate channels plus deterministic sinusoids filling feature_dim."""
    extra = cfg.feature_dim - cfg.num_joints - 2
    channels = [xn, yn]
    for i in range(extra):
        k = 1 + i // 2
        channels.append(np.sin(2.0 * np.pi * k * xn) if i % 2 == 0
                        else np.cos(2.0 * np.pi * k * yn))
    return channels


def render_pyramids(cfg: SceneConfig, rig: CameraRig, poses: np.ndarray,
                    rng: np.random.Generator) -> list:
    """Per-view feature pyramids. Channel layout: one Gaussian heatmap per
    joint type (summed over actors), then x/y coordinate channels, then
    sinusoidal position channels. The finest level is at full pixel
    resolution; each coarser level halves it, keeping the Gaussian width
    fixed in grid units (wider image-plane basins at coarse scales)."""
    projections = np.stack([v.projection for v in rig.views])
    flat = poses.reshape(-1, 3)
    uv, _, valid = project_batch(projections, flat)  # (T, Z*J, 2)
    T = len(rig.views)
    Z, J, _ = poses.shape
    pyramids = []
    for t in range(T):
        levels = []
        factors = []
        for s in range(cfg.num_scales):
            f_s = 1.0 / (2 ** s)
            W_s = max(int(round(cfg.image_width * f_s)), 1)
            H_s = max(int(round(cfg.image_height * f_s)), 1)
            cols, rows = np.meshgrid(np.arange(W_s), np.arange(H_s))
            grid = np.zeros((H_s, W_s, cfg.feature_dim))
            heat = np.zeros((J, H_s, W_s))
            sig2 = 2.0 * cfg.heatmap_sigma_px ** 2
            for z in range(Z):
                for j in range(J):
                    idx = z * J + j
                    if not valid[t, idx]:
                        continue
                    ux, uy = uv[t, idx] * f_s
                    d2 = (cols[:1] - ux) ** 2 + (rows[:, :1] - uy) ** 2
                    heat[j] += np.exp(-d2 / sig2)
            grid[:, :, :J] = heat.transpose(1, 2, 0)
            xn = (cols / f_s) / cfg.image_width
            yn = (rows / f_s) / cfg.image_height
            for c, channel in enumerate(_positional_channels(cfg, xn, yn)):
                grid[:, :, cfg.num_joints + c] = channel
            if cfg.heatmap_noise > 0.0:
                grid[:, :, :J] += rng.normal(0.0, cfg.heatmap_noise,
                                             size=(H_s, W_s, J))
            levels.append(grid.astype(np.dtype(cfg.grid_dtype)))
            factors.append(f_s)
        pyramids.append(FeaturePyramid(levels=tuple(levels),
                                       scale_factors=tuple(factors)))
    return pyramids


def generate_scene(cfg: SceneConfig, seed: int | None = None,
                   num_cameras: int | None = None) -> Scene:
    """Deterministic per seed. num_cameras overrides the rig size while
    keeping actors and heatmap noise identical (nested camera prefixes)."""
    seed = cfg.rng_seed if seed is None else seed
    ring_seq, actor_seq, noise_seq = np.random.SeedSequence(seed).spawn(3)
    rig = camera_ring(cfg, np.random.default_rng(ring_seq), num_cameras)
    poses = sample_actor_poses(cfg, np.random.default_rng(actor_seq))
    pyramids = render_pyramids(cfg, rig, poses, np.random.default_rng(noise_seq))
    return Scene(rig=rig, gt_poses=poses, pyramids=pyramids, config=cfg,
                 seed=seed)


# ---------------------------------------------------------------------------
# scene files
# ---------------------------------------------------------------------------

def save_scene(scene: Scene, path_prefix: str) -> tuple[str, str]:
    """Write <prefix>.json (manifest) and <prefix>.grids.bin (feature grids)."""
    grids = {}
    for t, pyr in enumerate(scene.pyramids):
        for s, level in enumerate(pyr.levels):
            grids[f"view{t}/level{s}"] = level
    grids_path = path_prefix + ".grids.bin"
    container.save_container(grids_path, grids, meta={
        "kind": "scanpose-scene-grids",
        "scale_factors": [list(p.scale_factors) for p in scene.pyramids],
    })
    manifest = {
        "kind": "scanpose-scene",
        "seed": scene.seed,
        "config": asdict(scene.config),
        "rig": scene.rig.to_doc(),
        "gt_poses": scene.gt_poses.tolist(),
        "grids_file": os.path.basename(grids_path),
    }
    manifest_path = path_prefix + ".json"
    container.atomic_write(manifest_path, json.dumps(manifest, sort_keys=True).encode())
    return manifest_path, grids_path


def load_scene(manifest_path: str) -> Scene:
    with open(manifest_path) as fh:
        doc = json.load(fh)
    if doc.get("kind") != "scanpose-scene":
        raise ValueError(f"{manifest_path} is not a scene manifest")
    cfg = container.build_dataclass(SceneConfig, doc["config"], manifest_path)
    rig = CameraRig.from_doc(doc["rig"])
    grids_path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)),
                              doc["grids_file"])
    arrays, meta = container.load_container(grids_path)
    pyramids = []
    for t in range(len(rig.views)):
        levels = []
        s = 0
        while f"view{t}/level{s}" in arrays:
            levels.append(arrays[f"view{t}/level{s}"])
            s += 1
        pyramids.append(FeaturePyramid(levels=tuple(levels),
                                       scale_factors=tuple(meta["scale_factors"][t])))
    return Scene(rig=rig, gt_poses=np.asarray(doc["gt_poses"], dtype=float),
                 pyramids=pyramids, config=cfg, seed=int(doc["seed"]))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def mpjpe(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean per-joint Euclidean distance in millimeters."""
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"pred {pred.shape} vs gt {gt.shape}")
    return float(np.mean(np.linalg.norm(pred - gt, axis=-1)))


def greedy_match(preds: np.ndarray, scores: np.ndarray, gts: np.ndarray):
    """Score-descending matching: each prediction claims its nearest
    still-unmatched ground truth. Returns (order, gt_index or -1, distance)."""
    order = np.argsort(-np.asarray(scores), kind="stable")
    taken = np.zeros(len(gts), dtype=bool)
    matches = []
    for pi in order:
        if taken.all():
            matches.append((int(pi), -1, np.inf))
            continue
        dists = np.array([mpjpe(preds[pi], g) if not taken[zi] else np.inf
                          for zi, g in enumerate(gts)])
        zi = int(np.argmin(dists))
        taken[zi] = True
        matches.append((int(pi), zi, float(dists[zi])))
    return matches


def ap_at(preds: np.ndarray, scores: np.ndarray, gts: np.ndarray,
          threshold_mm: float) -> float:
    """Average precision: a prediction is a true positive iff the MPJPE to
    its greedily matched ground truth is below the threshold."""
    if len(preds) == 0 or len(gts) == 0:
        return 0.0
    matches = greedy_match(preds, scores, gts)
    tp = 0
    ap = 0.0
    prev_recall = 0.0
    for k, (_, zi, dist) in enumerate(matches, start=1):
        if zi >= 0 and dist < threshold_mm:
            tp += 1
        precision = tp / k
        recall = tp / len(gts)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return float(ap)


def pcp(pred: np.ndarray, gt: np.ndarray, limb_table) -> float:
    """Fraction of limbs whose mean endpoint error is under half the ground
    truth limb length (strict)."""
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"pred {pred.shape} vs gt {gt.shape}")
    correct = 0
    for a, b in limb_table:
        length = float(np.linalg.norm(gt[a] - gt[b]))
        if length <= 0.0:
            raise ZeroLengthLimb(f"limb ({a}, {b}) has zero length")
        err = 0.5 * (np.linalg.norm(pred[a] - gt[a])
                     + np.linalg.norm(pred[b] - gt[b]))
        if err < 0.5 * length:
            correct += 1
    return correct / len(limb_table)


@dataclass
class EvalReport:
    mpjpe_mm: float  # NaN when nothing was matched
    mpjpe_defined: bool
    ap: dict
    map: float
    recall: float
    pcp_per_actor: list
    pcp_avg: float
    num_predictions: int
    num_gt: int

    def to_json(self) -> str:
        doc = asdict(self)
        doc["ap"] = {str(int(k)): v for k, v in self.ap.items()}
        return json.dumps(doc, sort_keys=True)

    def csv_rows(self):
        rows = [("mpjpe_mm", self.mpjpe_mm), ("recall", self.recall),
                ("map", self.map)]
        rows += [(f"ap{int(t)}", self.ap[t]) for t in sorted(self.ap)]
        # PCP follows the percentage convention on the external surface
        rows += [(f"pcp_actor{i}_pct", 100.0 * v)
                 for i, v in enumerate(self.pcp_per_actor)]
        rows.append(("pcp_avg_pct", 100.0 * self.pcp_avg))
        return rows


def evaluate(pred_poses: np.ndarray, pred_scores: np.ndarray,
             gt_poses: np.ndarray) -> EvalReport:
    """Aggregate metric report under the same greedy matching as ap_at; PCP
    uses the limbs of the T-pose template truncated to the poses' joints."""
    _, _, limb_table = load_tpose(np.asarray(gt_poses).shape[1])
    Z = len(gt_poses)
    ap = {thr: ap_at(pred_poses, pred_scores, gt_poses, thr)
          for thr in MAP_THRESHOLDS_MM}
    if len(pred_poses) == 0:
        return EvalReport(mpjpe_mm=float("nan"), mpjpe_defined=False, ap=ap,
                          map=0.0, recall=0.0, pcp_per_actor=[0.0] * Z,
                          pcp_avg=0.0, num_predictions=0, num_gt=Z)
    matches = greedy_match(pred_poses, pred_scores, gt_poses)
    matched = [(pi, zi, d) for pi, zi, d in matches if zi >= 0]
    dists = [d for _, _, d in matched]
    recall = sum(1 for d in dists if d < RECALL_RADIUS_MM) / Z
    pcp_per_actor = [0.0] * Z
    for pi, zi, _ in matched:
        pcp_per_actor[zi] = pcp(pred_poses[pi], gt_poses[zi], limb_table)
    return EvalReport(
        mpjpe_mm=float(np.mean(dists)) if dists else float("nan"),
        mpjpe_defined=bool(dists),
        ap=ap, map=float(np.mean([ap[t] for t in MAP_THRESHOLDS_MM])),
        recall=float(recall), pcp_per_actor=pcp_per_actor,
        pcp_avg=float(np.mean(pcp_per_actor)),
        num_predictions=int(len(pred_poses)), num_gt=int(Z))
