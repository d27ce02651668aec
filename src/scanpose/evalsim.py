"""Synthetic multi-camera scenes and the pose metric suite.

Scenes stand in for real captures: articulated skeletons (T-pose template
plus bounded joint perturbations) placed on the ground plane, cameras on a
ring around the space, and per-view feature pyramids rendered as per-joint
Gaussian keypoint heatmaps stacked with coordinate channels (plus sinusoidal
position channels when the feature dim exceeds joints + 2).

Camera ring slots advance by the golden angle from slot 0, so the first K
cameras of a seed are always a prefix of the first K+1: evaluating the same
scene with fewer or more cameras mirrors the nested cross-camera protocol.

A scene file is one container (the format model files use): the rig's
stacked arrays, the skeletons and every feature grid, with the config echo
and the seed in its meta. Reports serialize to JSON and CSV.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import container
from .geometry import CameraRig, look_at_camera, project_batch
from .pipeline import FeaturePyramid, level_scales, level_shapes
from .tokens import load_tpose, pose_distances

MAP_THRESHOLDS_MM = (25.0, 50.0, 75.0, 100.0, 125.0, 150.0)
RECALL_RADIUS_MM = 500.0

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


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
        if not self.heatmap_sigma_px > 0:
            raise ValueError("heatmap_sigma_px must be positive")

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


def camera_ring(cfg: SceneConfig, rng: np.random.Generator) -> CameraRig:
    """cfg.num_cameras cameras on a ring looking at the space center. Slot
    angles advance by the golden angle, and per-slot radius/height draws are
    sequential, so the first K cameras are identical for any camera count."""
    center = np.array([0.0, 0.0, cfg.space_size[2] / 2.0])
    phase = rng.uniform(0.0, 2.0 * np.pi)
    projections = []
    for t in range(cfg.num_cameras):
        ang = phase + t * _GOLDEN_ANGLE
        radius = rng.uniform(*cfg.camera_radius)
        height = rng.uniform(*cfg.camera_height)
        pos = np.array([radius * np.cos(ang), radius * np.sin(ang), height])
        projections.append(look_at_camera(pos, center,
                                          cfg.focal_scale * cfg.image_width,
                                          cfg.image_width, cfg.image_height))
    return CameraRig(projections=np.stack(projections),
                     sizes=np.tile([cfg.image_width, cfg.image_height], (cfg.num_cameras, 1)))


def sample_actor_poses(cfg: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    """(Z, J, 3) skeletons: template translated to spaced ground positions
    with bounded uniform joint perturbations. Raises ValueError
    when 64 draws find no centre min_actor_spacing_mm from the others."""
    template, _, _ = load_tpose(cfg.num_joints)
    hx = cfg.space_size[0] / 2.0 * (1.0 - 2.0 * cfg.placement_margin)
    hy = cfg.space_size[1] / 2.0 * (1.0 - 2.0 * cfg.placement_margin)
    centers = []
    for z in range(cfg.num_actors):
        for _attempt in range(64):
            c = rng.uniform([-hx, -hy], [hx, hy])
            if all(np.linalg.norm(c - prev) >= cfg.min_actor_spacing_mm
                   for prev in centers):
                break
        else:
            raise ValueError(
                f"actor {z}: no centre at least {cfg.min_actor_spacing_mm} mm "
                f"from the others in 64 draws over the placement box "
                f"[{-hx}, {hx}] x [{-hy}, {hy}] mm")
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
    fixed in grid units (wider image-plane basins at coarse scales). The
    Gaussian is separable, so each view and level takes 1-D Gaussians along
    the columns and rows and sums them over actors in one batched product.
    Heatmaps and noise accumulate in float64, cast to float32 once per level."""
    uv, _, valid = project_batch(rig.projections, poses)  # (T, Z, J, 2)
    J = poses.shape[1]
    sig2 = 2.0 * cfg.heatmap_sigma_px ** 2
    factors, bases = level_scales(cfg.num_scales), []
    for f_s, (H_s, W_s) in zip(factors, level_shapes(cfg.image_width, cfg.image_height,
                                                     cfg.num_scales)):
        cols, rows = np.meshgrid(np.arange(W_s), np.arange(H_s))
        xn = (cols / f_s) / cfg.image_width
        yn = (rows / f_s) / cfg.image_height
        # the position channels are the same in every view
        base = np.empty((H_s, W_s, cfg.feature_dim), dtype=np.float32)
        base[:, :, J:] = np.stack(_positional_channels(cfg, xn, yn), axis=-1)
        bases.append(base)
    pyramids = []
    for t in range(len(rig)):
        levels = []
        for f_s, base in zip(factors, bases):
            H_s, W_s = base.shape[:2]
            ux, uy = np.moveaxis(uv[t, ..., None] * f_s, 2, 0)  # (Z, J, 1) each
            gx = np.exp(-(np.arange(W_s) - ux) ** 2 / sig2) * valid[t, ..., None]
            gy = np.exp(-(np.arange(H_s) - uy) ** 2 / sig2)
            # (J, H, Z) @ (J, Z, W) -> (J, H, W), summed over actors
            heat = (gy.transpose(1, 2, 0) @ gx.transpose(1, 0, 2)).transpose(1, 2, 0)
            if cfg.heatmap_noise > 0.0:
                heat = heat + rng.normal(0.0, cfg.heatmap_noise,
                                         size=(H_s, W_s, J))
            grid = base.copy()
            grid[:, :, :J] = heat
            levels.append(grid)
        pyramids.append(FeaturePyramid(levels=tuple(levels)))
    return pyramids


def generate_scene(cfg: SceneConfig, seed: int,
                   num_cameras: int | None = None) -> Scene:
    """Deterministic per seed. num_cameras replaces cfg.num_cameras, keeping
    actors and heatmap noise identical (nested camera prefixes)."""
    if num_cameras is not None:
        cfg = replace(cfg, num_cameras=num_cameras)
    ring_seq, actor_seq, noise_seq = np.random.SeedSequence(seed).spawn(3)
    rig = camera_ring(cfg, np.random.default_rng(ring_seq))
    poses = sample_actor_poses(cfg, np.random.default_rng(actor_seq))
    pyramids = render_pyramids(cfg, rig, poses, np.random.default_rng(noise_seq))
    return Scene(rig=rig, gt_poses=poses, pyramids=pyramids, config=cfg,
                 seed=seed)


# ---------------------------------------------------------------------------
# scene files
# ---------------------------------------------------------------------------

def save_scene(scene: Scene, path: str) -> None:
    """Write the scene as one container at path."""
    arrays = {"rig/projections": scene.rig.projections, "rig/sizes": scene.rig.sizes,
              "gt_poses": scene.gt_poses}
    for t, pyr in enumerate(scene.pyramids):
        for s, level in enumerate(pyr.levels):
            arrays[f"view{t}/level{s}"] = level
    container.save_container(path, arrays, meta={
        "kind": "scanpose-scene", "seed": scene.seed, "config": asdict(scene.config)})


def load_scene(path: str) -> Scene:
    """The scene in the container at path; a ValueError names path. Every
    view and grid must have the config's image size. Arrays the scene does
    not read are ignored."""
    arrays, meta = container.load_container(path)
    container.require_keys(meta, path, "scanpose-scene", "config", "seed")
    container.require_keys(arrays, path, None, "rig/projections", "rig/sizes", "gt_poses")
    cfg = container.build_dataclass(SceneConfig, meta["config"], path)
    try:
        rig = CameraRig(projections=arrays["rig/projections"], sizes=arrays["rig/sizes"])
        if len(rig) != cfg.num_cameras:
            raise ValueError(f"config.num_cameras is {cfg.num_cameras}, but the rig "
                             f"has {len(rig)} views")
        size = (cfg.image_width, cfg.image_height)
        if np.any(rig.sizes != size):
            raise ValueError(f"rig/sizes must be the config's image size {size} in every "
                             f"view, got {rig.sizes.tolist()}")
        poses = np.asarray(arrays["gt_poses"], dtype=float)
        if poses.shape != (cfg.num_actors, cfg.num_joints, 3):
            raise ValueError(f"gt_poses must be (num_actors, num_joints, 3) = "
                             f"{(cfg.num_actors, cfg.num_joints, 3)}, got {poses.shape}")
        if not np.all(np.isfinite(poses)):
            raise ValueError("gt_poses must be finite")
        pyramids = []
        for t in range(len(rig)):
            levels = []
            while f"view{t}/level{len(levels)}" in arrays:
                levels.append(arrays[f"view{t}/level{len(levels)}"])
            for s, (grid, shape) in enumerate(zip(levels, level_shapes(*size, len(levels)))):
                if grid.shape[:2] != shape:
                    raise ValueError(f"view{t}/level{s} is {grid.shape[:2]} (H, W), not the "
                                     f"{shape} that image size {size} gives level {s}")
            pyramids.append(FeaturePyramid(levels=tuple(levels)))
        return Scene(rig=rig, gt_poses=poses, pyramids=pyramids, config=cfg,
                     seed=int(meta["seed"]))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def greedy_match(preds: np.ndarray, scores: np.ndarray, gts: np.ndarray):
    """Score-descending matching: each prediction claims its nearest
    still-unmatched ground truth. Returns (order, gt_index or -1, distance)."""
    order = np.argsort(-np.asarray(scores), kind="stable")
    taken = np.zeros(len(gts), dtype=bool)
    dist = pose_distances(np.asarray(preds, dtype=float), np.asarray(gts, dtype=float))
    matches = []
    for pi in order:
        if taken.all():
            matches.append((int(pi), -1, np.inf))
            continue
        zi = int(np.argmin(np.where(taken, np.inf, dist[pi])))
        taken[zi] = True
        matches.append((int(pi), zi, float(dist[pi, zi])))
    return matches


def ap_from_matches(matches, num_gt: int, threshold_mm: float) -> float:
    """Average precision over greedy_match's output: a prediction is a true
    positive iff the MPJPE to its matched ground truth is below the
    threshold."""
    tp = 0
    ap = 0.0
    prev_recall = 0.0
    for k, (_, zi, dist) in enumerate(matches, start=1):
        if zi >= 0 and dist < threshold_mm:
            tp += 1
        precision = tp / k
        recall = tp / num_gt
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return float(ap)


def pcp(pred: np.ndarray, gt: np.ndarray, limb_table) -> float:
    """Fraction of limbs whose mean endpoint error is under half the ground
    truth limb length (strict)."""
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if pred.shape != gt.shape:
        raise ValueError(f"pred {pred.shape} vs gt {gt.shape}")
    correct = 0
    for a, b in limb_table:
        length = float(np.linalg.norm(gt[a] - gt[b]))
        if length <= 0.0:
            raise ValueError(f"limb ({a}, {b}) has zero length")
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
    """Aggregate metric report from one greedy matching; PCP uses the limbs
    of the T-pose template truncated to the poses' joints."""
    _, _, limb_table = load_tpose(np.asarray(gt_poses).shape[1])
    Z = len(gt_poses)
    matches = greedy_match(pred_poses, pred_scores, gt_poses)
    ap = {thr: ap_from_matches(matches, Z, thr) for thr in MAP_THRESHOLDS_MM}
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


def summarize(reports) -> dict:
    """The scene-set row: for each csv_rows column of the report with the most
    ground truths (a superset of the others'), the mean of the reports' finite
    values, or NaN where none has one; an undefined MPJPE is NaN, so skipped."""
    rows = [dict(rep.csv_rows()) for rep in reports]
    columns = {name: [row[name] for row in rows if np.isfinite(row.get(name, np.nan))]
               for name, _ in max(reports, key=lambda rep: rep.num_gt).csv_rows()}
    return {name: float(np.mean(finite)) if finite else float("nan")
            for name, finite in columns.items()}
