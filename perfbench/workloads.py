"""The three workloads: set-up, one op, per-op checks and once-per-run checks.

An op is one training step on the train workloads and one scene on
eval-sweep. Each op calls the library's public functions in the order the
command-line front end reaches them; the benchmark only generates inputs
from the seed, times the calls and checks the outputs.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from scanpose import cli, evalsim, pipeline, training

SMOKE_CONFIG = os.path.join("configs", "smoke.json")

# steps of the benchmark's loop compared bit for bit against training.train
REFERENCE_STEPS = 2

EVAL_CAMERAS = (3, 5, 7)
# eval-sweep fingerprint: the first scenes of the sweep at every camera count
FINGERPRINT_SCENES = 3


class CheckFailed(Exception):
    pass


def _finite(name, value):
    if not np.all(np.isfinite(value)):
        raise CheckFailed(f"non-finite {name}")


class TrainLoop:
    """Adam steps over the training split, round-robin, as training.train
    takes them; no validation pass and no rendering inside the loop."""

    # the first two steps still grow the heap: on train-wide the second
    # step takes about 15% longer than the ones after it
    warmup_ops = 2
    ops_per_cycle = 1

    def __init__(self, root: str, overrides: list):
        self.root = root
        self.overrides = overrides

    def setup(self, seed: int, worker: int = 0, workers: int = 1):
        """Every worker takes the same steps from the same start, the steps
        that the step-loop check compares with training.train."""
        self.cfg = cli.load_config(os.path.join(self.root, SMOKE_CONFIG),
                                   self.overrides, seed_override=seed)
        self.scenes = cli.build_scenes(self.cfg)
        self.train_scenes, _ = training.split_scenes(
            self.scenes, self.cfg.train.val_fraction)
        params = pipeline.init_params(self.cfg.pipeline, self.cfg.seed)
        self.params = {k: np.array(v, dtype=float) for k, v in params.items()}
        self.state = training.adam_init(self.params)
        self.step = 0
        self.first_loss = None
        self.reference_point = None

    def op(self):
        """One step; returns what check() needs. Only this is timed."""
        scene = self.train_scenes[self.step % len(self.train_scenes)]
        tensors = pipeline.params_to_tensors(self.params)
        total, p_val, c_val = training.scene_loss(
            tensors, scene, self.cfg.pipeline, self.cfg.train)
        total.backward()
        grads = {k: t.grad for k, t in tensors.items() if t.grad is not None}
        self.params = training.adam_step(self.params, grads, self.state,
                                         self.cfg.train.learning_rate)
        self.step += 1
        return total, p_val, c_val, grads

    def check(self, result):
        total, p_val, c_val, grads = result
        _finite("loss", [float(total.data), p_val, c_val])
        for k, g in grads.items():
            _finite(f"gradient {k}", g)
        for k, v in self.params.items():
            _finite(f"parameter {k}", v)
        if self.step == 1:
            self.first_loss = float(total.data)
        if self.step == REFERENCE_STEPS:
            self.reference_point = self.params

    def run_checks(self) -> list:
        """Step-loop check: training.train over REFERENCE_STEPS steps from the
        same seed must give bit-identical parameters. Returns failures."""
        ref_cfg = dataclasses.replace(self.cfg.train, steps=REFERENCE_STEPS)
        ref_params, _ = training.train(self.cfg.pipeline, self.scenes,
                                       rng_seed=self.cfg.seed, train_cfg=ref_cfg)
        mine = self.reference_point
        if mine is None:
            return [f"the loop took fewer than {REFERENCE_STEPS} steps"]
        if set(mine) != set(ref_params):
            return ["step loop and training.train disagree on parameter names"]
        drifted = sorted(k for k in mine
                         if mine[k].dtype != ref_params[k].dtype
                         or not np.array_equal(mine[k], ref_params[k]))
        if drifted:
            return [f"step loop drifted from training.train after "
                    f"{REFERENCE_STEPS} steps in {', '.join(drifted)}"]
        return []

    def fingerprint(self) -> dict:
        return {"step1_loss": self.first_loss}


class EvalSweep:
    """Eval-mode inference on fresh scenes, cycling the camera counts the
    way `scanpose eval --cameras 3,5,7` does, with seed-initialised
    parameters."""

    warmup_ops = len(EVAL_CAMERAS)
    ops_per_cycle = len(EVAL_CAMERAS)

    def __init__(self, root: str):
        self.root = root

    def setup(self, seed: int, worker: int = 0, workers: int = 1):
        """Worker i of n starts at the i/n point of the scene seeds, so that
        the workers of a run together cover every scene seed and not only
        the first few."""
        self.cfg = cli.load_config(os.path.join(self.root, SMOKE_CONFIG),
                                   seed_override=seed)
        self.params = pipeline.init_params(self.cfg.pipeline, self.cfg.seed)
        self.first = len(EVAL_CAMERAS) * (worker * self.cfg.num_scenes // workers)
        self.index = self.first
        self.prints = {k: [] for k in EVAL_CAMERAS}

    def _scene_of(self, index: int):
        cameras = EVAL_CAMERAS[index % len(EVAL_CAMERAS)]
        scene_seed = self.cfg.seed + (index // len(EVAL_CAMERAS)) % self.cfg.num_scenes
        return scene_seed, cameras

    def op(self):
        scene_seed, cameras = self._scene_of(self.index)
        scene = evalsim.generate_scene(self.cfg.scene, seed=scene_seed,
                                       num_cameras=cameras)
        reports, _, _ = training.evaluate_model(self.params, self.cfg.pipeline,
                                                [scene])
        self.index += 1
        return cameras, reports[0]

    def check(self, result):
        cameras, report = result
        values = list(report.ap.values()) + [report.map]
        if not all(0.0 <= v <= 1.0 for v in values):
            raise CheckFailed(f"AP or mAP outside [0, 1]: {values}")
        if report.mpjpe_defined:
            _finite("MPJPE", report.mpjpe_mm)
        _finite("recall and PCP", [report.recall, report.pcp_avg])
        if report.num_predictions > self.cfg.pipeline.num_tokens:
            raise CheckFailed(f"{report.num_predictions} predictions from "
                              f"{self.cfg.pipeline.num_tokens} tokens")
        if self.index - self.first <= FINGERPRINT_SCENES * len(EVAL_CAMERAS):
            self.prints[cameras].append(report)

    def run_checks(self) -> list:
        """Re-generating a scene from its seed gives identical pyramids."""
        scene_seed, cameras = self._scene_of(1)
        a, b = (evalsim.generate_scene(self.cfg.scene, seed=scene_seed,
                                       num_cameras=cameras) for _ in range(2))
        same = all(np.array_equal(la, lb) and la.dtype == lb.dtype
                   for pa, pb in zip(a.pyramids, b.pyramids)
                   for la, lb in zip(pa.levels, pb.levels))
        same = same and np.array_equal(a.gt_poses, b.gt_poses)
        return [] if same else [f"scene seed {scene_seed} re-generated "
                                f"different pyramids"]

    def fingerprint(self) -> dict:
        out = {}
        for cameras, reports in self.prints.items():
            mpjpes = [r.mpjpe_mm for r in reports if r.mpjpe_defined]
            out[f"K{cameras}"] = {
                "scenes": len(reports),
                "mean_mpjpe_mm": float(np.mean(mpjpes)) if mpjpes else None,
                "map": float(np.mean([r.map for r in reports])) if reports else None,
            }
        return out


def make(name: str, root: str):
    if name == "train-smoke":
        return TrainLoop(root, [])
    if name == "train-wide":
        return TrainLoop(root, ["pipeline.num_tokens=96", "scene.num_cameras=7"])
    if name == "eval-sweep":
        return EvalSweep(root)
    raise ValueError(f"unknown workload {name!r}")
