"""Joint-token geometry: the T-pose template, grid initialization and pose NMS.

A token is one person hypothesis: per-joint visual features plus per-joint 3D
geometry, held by the pipeline as stacked arrays ((n, J, L) and (n, J, 3)).
Geometry starts as the canonical T-pose translated to grid-jittered ground
centers. Scoring and the score filter live in the pipeline (score_op,
run_pipeline); nms_keep_mask is the pose NMS it applies after the last layer.
The T-pose template serializes as {"joints": [[x, y, z], ...], "names": [...],
"limbs": [[a, b], ...]}.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

_GRID_JITTER = 0.45  # fraction of a grid cell, keeps jittered centers in bounds


def load_tpose(num_joints: int | None = None):
    """Load the T-pose template. Returns (joints (J, 3) mm, names, limbs).

    num_joints truncates the skeleton (tiny test configs); limbs with an
    endpoint outside the kept range are dropped.
    """
    with resources.files("scanpose.data").joinpath("tpose.json").open() as fh:
        doc = json.load(fh)
    joints = np.asarray(doc["joints"], dtype=float)
    names = list(doc["names"])
    limbs = [tuple(l) for l in doc["limbs"]]
    if num_joints is not None:
        if not (1 <= num_joints <= len(joints)):
            raise ValueError(f"num_joints must be in [1, {len(joints)}]")
        joints = joints[:num_joints]
        names = names[:num_joints]
        limbs = [l for l in limbs if l[0] < num_joints and l[1] < num_joints]
    return joints, names, limbs


def grid_centers(n: int, ground_bounds, rng: np.random.Generator) -> np.ndarray:
    """n ground-plane centers on a uniform grid, jittered within their cells."""
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


def initial_geometry(n: int, ground_bounds, rng_seed: int,
                     template: np.ndarray) -> np.ndarray:
    """(n, J, 3) geometries: the T-pose translated to jittered grid centers.

    The jitter comes from the first child of SeedSequence(rng_seed), so token
    grids stay fixed for a given seed.
    """
    if n < 1:
        raise ValueError("need at least one token")
    jitter_rng = np.random.default_rng(np.random.SeedSequence(rng_seed).spawn(2)[0])
    centers = grid_centers(n, ground_bounds, jitter_rng)
    offsets = np.concatenate([centers, np.zeros((n, 1))], axis=1)
    return template[None, :, :] + offsets[:, None, :]


def nms_keep_mask(geometry: np.ndarray, scores: np.ndarray,
                  radius_mm: float) -> np.ndarray:
    """Greedy pose NMS on stacked geometry (n, J, 3); ties by lower index.
    A pose is dropped when its mean per-joint distance to a kept pose is
    below radius_mm."""
    geometry = np.asarray(geometry)
    order = np.argsort(-np.asarray(scores), kind="stable")
    keep = np.zeros(len(order), dtype=bool)
    for idx in order:
        dist = np.mean(np.linalg.norm(geometry[idx] - geometry[keep], axis=-1),
                       axis=-1)
        keep[idx] = not np.any(dist < radius_mm)
    return keep
