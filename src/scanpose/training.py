"""Ground-truth assignment, losses, and the desk-scale training loop.

Tokens are matched to ground truth by their initial anchor geometry: each
ground-truth human, in index order, claims its nearest unclaimed token by
mean-joint distance; everything else is negative. The pose loss is an L1 on
positive tokens' 3D joints plus per-view L1 on their refined 2D estimates
against reprojected ground truth, applied at every layer. The classifier is
trained with binary cross-entropy on the per-token positive probability.

Optimization is plain Adam over the summed loss; everything is deterministic
for a fixed seed. The metric rows, one per epoch with columns
epoch,pose_loss,cls_loss,val_mpjpe_mm,ap25, are kept in the model's meta
and written out as CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import container, evalsim, pipeline
from .geometry import project_batch

METRIC_COLUMNS = ("epoch", "pose_loss", "cls_loss", "val_mpjpe_mm", "ap25")

_PROB_FLOOR = 1e-12
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and floor


def metric_rows(meta: dict, path: str) -> list:
    """The training history in the meta of the model at path: its "metrics",
    one row of METRIC_COLUMNS per epoch. A ValueError names path and the
    fault unless each row is an object with an int epoch and numbers."""
    rows = container.require_keys(meta, path, None, "metrics")["metrics"]
    if not isinstance(rows, list):
        raise ValueError(f"{path}: \"metrics\" must be a list, got {type(rows).__name__}")
    for row in rows:
        for col in METRIC_COLUMNS:
            value = container.require_keys(row, path, None, col)[col]
            what, like = ("an int", 0) if col == "epoch" else ("a number", 0.0)
            if not container.fits(value, like):
                raise ValueError(f"{path}: metrics {col} must be {what}, got {value!r}")
    return rows


def match_gt(initial_geometry: np.ndarray, humans: np.ndarray) -> np.ndarray:
    """Greedy anchor matching: ground truths (Z, J, 3) claim, in index order,
    their nearest unclaimed token by mean-joint distance (ties to lower
    index), which is evalsim.greedy_match with the ground truths as equally
    scored predictions. Returns token_to_gt (N,): a ground-truth index, or -1."""
    N, Z = len(initial_geometry), len(humans)
    if N < Z:
        raise ValueError(f"{N} tokens cannot host {Z} humans")
    token_to_gt = np.full(N, -1, dtype=int)
    for z, claimed, _ in evalsim.greedy_match(humans, np.zeros(Z), initial_geometry):
        token_to_gt[claimed] = z
    return token_to_gt


def pose_loss(token_to_gt: np.ndarray, layer_outputs, humans: np.ndarray,
              gt_uv: np.ndarray, gt_valid: np.ndarray):
    """Summed L1 on positive tokens: 3D joints against the ground truth
    humans (Z, J, 3) plus per-view 2D estimates against its reprojection
    gt_uv (T, Z, J, 2) where gt_valid (T, Z, J), at every layer.
    Returns a scalar Tensor (zero Tensor when nothing is positive)."""
    pos = np.nonzero(token_to_gt >= 0)[0]
    if pos.size == 0:
        return ad.Tensor(np.zeros(()))
    z_idx = token_to_gt[pos]
    target_3d = humans[z_idx]  # (P, J, 3)
    target_2d = gt_uv[:, z_idx]  # (T, P, J, 2)
    target_valid = gt_valid[:, z_idx]  # (T, P, J)
    total = None
    for out in layer_outputs:
        g = out.geometry[pos]
        term = ad.abs_(g - target_3d).sum()
        est = out.positions_2d[:, pos]
        mask = (out.valid[:, pos] & target_valid)[..., None].astype(float)
        term = term + ad.mul(ad.abs_(est - target_2d), mask).sum()
        total = term if total is None else total + term
    return total


def classification_loss(token_to_gt: np.ndarray, token_scores: ad.Tensor):
    """Binary cross-entropy of the per-token positive probability against the
    positive/negative label, averaged over tokens."""
    labels = (token_to_gt >= 0).astype(float)
    # a NaN score fails both comparisons and stays on the differentiable branch
    raw = token_scores.data
    s = ad.where((raw < _PROB_FLOOR) | (raw > 1.0 - _PROB_FLOOR),
                 np.clip(raw, _PROB_FLOOR, 1.0 - _PROB_FLOOR), token_scores)
    loss = -(ad.mul(ad.log(s), labels) + ad.mul(ad.log(1.0 - s), 1.0 - labels))
    return loss.mean()


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def adam_init(params: dict) -> dict:
    return {"m": {k: np.zeros_like(v) for k, v in params.items()},
            "v": {k: np.zeros_like(v) for k, v in params.items()},
            "t": 0}


def adam_step(params: dict, grads: dict, state: dict, lr: float) -> dict:
    state["t"] += 1
    t = state["t"]
    out = {}
    for k, value in params.items():
        g = grads[k]
        state["m"][k] = _BETA1 * state["m"][k] + (1 - _BETA1) * g
        state["v"][k] = _BETA2 * state["v"][k] + (1 - _BETA2) * (g * g)
        mhat = state["m"][k] / (1 - _BETA1 ** t)
        vhat = state["v"][k] / (1 - _BETA2 ** t)
        out[k] = value - lr * mhat / (np.sqrt(vhat) + _ADAM_EPS)
    return out


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    steps: int = 500
    learning_rate: float = 4e-4
    lambda_cls: float = 1.0
    val_fraction: float = 0.25

    def __post_init__(self):
        if self.steps < 0 or self.learning_rate < 0 or not self.lambda_cls >= 0:
            raise ValueError("steps, learning_rate and lambda_cls must be non-negative")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ValueError("val_fraction must be in [0, 1)")


def split_scenes(scenes, val_fraction: float):
    n_val = int(round(len(scenes) * val_fraction))
    n_val = min(n_val, len(scenes) - 1) if len(scenes) > 1 else 0
    if n_val == 0:
        return list(scenes), list(scenes[-1:])
    return list(scenes[:-n_val]), list(scenes[-n_val:])


def scene_loss(param_tensors: dict, scene: evalsim.Scene,
               config: pipeline.PipelineConfig, train_cfg: TrainConfig):
    """Forward in train mode and total loss for one scene."""
    outputs, geom0 = pipeline.run_pipeline(scene.pyramids, scene.rig,
                                           param_tensors, config, mode="train",
                                           scene_seed=scene.seed)
    token_to_gt = match_gt(geom0, scene.gt_poses)
    gt_uv, _, gt_valid = project_batch(scene.rig.projections, scene.gt_poses)
    p_loss = pose_loss(token_to_gt, outputs, scene.gt_poses, gt_uv, gt_valid)
    c_loss = classification_loss(token_to_gt, outputs[0].scores)
    for out in outputs[1:]:
        c_loss = c_loss + classification_loss(token_to_gt, out.scores)
    total = p_loss + train_cfg.lambda_cls * c_loss
    return total, float(p_loss.data), float(c_loss.data)


def evaluate_model(params: dict, config: pipeline.PipelineConfig, scenes):
    """Eval-mode pipeline + metric report per scene; returns the reports and
    their evalsim.summarize MPJPE and AP25. The weights are plain Tensors, so
    the forward records no tape and keeps no backward caches."""
    tensors = {k: ad.Tensor(v) for k, v in params.items()}
    reports = []
    for scene in scenes:
        outputs, _ = pipeline.run_pipeline(scene.pyramids, scene.rig, tensors,
                                           config, mode="eval",
                                           scene_seed=scene.seed)
        last = outputs[-1]
        reports.append(evalsim.evaluate(last.geometry.data, last.scores.data, scene.gt_poses))
    summary = evalsim.summarize(reports)
    return reports, summary["mpjpe_mm"], summary["ap25"]


def train(config: pipeline.PipelineConfig, scenes, rng_seed: int,
          train_cfg: TrainConfig,
          initial_params: dict | None = None, epoch_offset: int = 0):
    """Adam over pose + classification loss. Returns (params, metric rows).

    Deterministic for fixed seed and inputs: scenes round-robin in order,
    epoch metrics after each pass over the training split (and once at the
    end if training stops mid-epoch).
    """
    if len(scenes) < 1:
        raise ValueError("need at least one scene")
    train_scenes, val_scenes = split_scenes(scenes, train_cfg.val_fraction)
    params = initial_params if initial_params is not None \
        else pipeline.init_params(config, rng_seed)
    params = {k: np.array(v, dtype=float) for k, v in params.items()}
    state = adam_init(params)
    metrics = []
    epoch_pose, epoch_cls = [], []

    def flush_epoch():
        epoch = epoch_offset + len(metrics)
        _, val_mpjpe, val_ap25 = evaluate_model(params, config, val_scenes)
        metrics.append({
            "epoch": epoch,
            "pose_loss": float(np.mean(epoch_pose)) if epoch_pose else float("nan"),
            "cls_loss": float(np.mean(epoch_cls)) if epoch_cls else float("nan"),
            "val_mpjpe_mm": val_mpjpe,
            "ap25": val_ap25,
        })
        epoch_pose.clear()
        epoch_cls.clear()

    def check_finite(step):  # the parameters that step `step` starts from
        if any(not np.all(np.isfinite(v)) for v in params.values()):
            raise FloatingPointError(f"non-finite parameters at step {step}")

    check_finite(0)
    for step in range(train_cfg.steps):
        scene = train_scenes[step % len(train_scenes)]
        tensors = pipeline.params_to_tensors(params)
        total, p_val, c_val = scene_loss(tensors, scene, config, train_cfg)
        if not (np.isfinite(p_val) and np.isfinite(c_val)):
            raise FloatingPointError(f"non-finite loss at step {step}")
        epoch_pose.append(p_val)
        epoch_cls.append(c_val)
        total.backward()
        grads = {k: t.grad for k, t in tensors.items() if t.grad is not None}
        params = adam_step(params, grads, state, train_cfg.learning_rate)
        check_finite(step + 1)
        if (step + 1) % len(train_scenes) == 0:
            flush_epoch()
    if epoch_pose or not metrics:
        flush_epoch()
    return params, metrics


def write_metrics_csv(path: str, rows) -> None:
    """Columns: epoch,pose_loss,cls_loss,val_mpjpe_mm,ap25 (atomic write)."""
    container.write_csv(path, METRIC_COLUMNS,
                        [[row[col] for col in METRIC_COLUMNS] for row in rows])
