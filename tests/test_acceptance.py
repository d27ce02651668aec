"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The smoke-training criteria
(5-7) share one CLI-trained model on the reference scenario in
configs/smoke.json; expect a few minutes of wall time for the whole module.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from scanpose import autodiff as ad
from scanpose import cli, evalsim, pipeline, ssm, training
from scanpose.tokens import load_tpose, pose_distances
from oracles import expm_taylor_ld, lti_scan_ld, rel_error
from test_evalsim import ap_at
from test_geometry import jacobian_and_fd, observe, oracle, ring_rig, triangulate
from test_pipeline import as_joints, bilinear, sample
from test_ssm import (lti_scan, lti_system, naive_selective_scan, random_selective,
                      scan, scan_backward, scan_zoh)

SMOKE_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                            "smoke.json")


def _report(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"[ACCEPTANCE] criterion {criterion} ({description}): {status}{extra}")
    assert ok, f"criterion {criterion} ({description}) failed{extra}"


# ---------------------------------------------------------------------------
# criterion 1: scan oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_scan_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    worst_sel = 0.0
    for _ in range(200):
        L = int(rng.integers(1, 9))
        S = int(rng.integers(1, 9))
        T = int(rng.integers(1, 33))
        sel = random_selective(rng, L=L, S=S)
        x = rng.normal(size=(T, L))
        worst_sel = max(worst_sel,
                        rel_error(scan(sel, x),
                                  naive_selective_scan(sel, x)))
    worst_lti = 0.0
    for _ in range(50):
        system = lti_system(rng, n=int(rng.integers(1, 7)))
        x = rng.normal(size=24)
        worst_lti = max(worst_lti, rel_error(lti_scan(*system, x), lti_scan_ld(*system, x)))
    elapsed = time.time() - start
    ok = worst_sel < 1e-10 and worst_lti < 1e-10 and elapsed < 10.0
    _report(1, "scan oracle equivalence", ok,
            f"selective {worst_sel:.2e}, LTI {worst_lti:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: ZOH discretization
# ---------------------------------------------------------------------------

def test_criterion_2_zoh_against_matrix_exponential_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(60):
        L, S = (int(v) for v in rng.integers(1, 7, size=2))
        A = rng.uniform(-3.0, 1.0, size=(L, S))
        if trial % 5 == 0:
            A = A * 1e-5  # exercise the series-fallback region around m -> 0
        abar, phi, _, delta = scan_zoh(A, rng.uniform(0.05, 1.0, size=L))
        m = (delta[:, None].astype(np.longdouble) * A).ravel()
        E = np.diag(expm_taylor_ld(np.diag(m)))
        worst = max(worst, rel_error(abar.ravel(), np.asarray(E, dtype=float)))
        series = sum(m ** k / math.factorial(k + 1) for k in range(40))  # phi1(m)
        worst = max(worst, rel_error(phi.ravel(), np.asarray(series, dtype=float)))

    cont = 0.0
    for _ in range(10):
        L, S = 3, 4
        delta = rng.uniform(0.2, 1.0, size=L)
        sign = rng.choice([-1.0, 1.0], size=(L, S))
        lo, hi = (scan_zoh(sign * ssm.SERIES_THRESHOLD * scale / delta[:, None], delta)
                  for scale in (1 - 1e-9, 1 + 1e-9))
        assert np.all(np.abs(lo[2]) < ssm.SERIES_THRESHOLD)
        assert np.all(np.abs(hi[2]) > ssm.SERIES_THRESHOLD)
        cont = max(cont, float(np.max(np.abs(lo[0] - hi[0]))),
                   float(np.max(np.abs(lo[1] - hi[1]))))
    ok = worst < 1e-12 and cont < 1e-10
    _report(2, "ZOH discretization", ok, f"worst {worst:.2e}, switch {cont:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: triangulation
# ---------------------------------------------------------------------------

def test_criterion_3_triangulation():
    rng = np.random.default_rng(103)
    worst_exact = 0.0
    not_ok = 0
    for _ in range(1000):
        T = int(rng.integers(2, 7))
        rig = ring_rig(T, rng)
        X = rng.uniform(-2000.0, 2000.0, size=3) + np.array([0, 0, 1000.0])
        out, ok = triangulate(*observe(rig, X), rig)
        not_ok += not ok
        worst_exact = max(worst_exact, float(np.max(np.abs(out - X))))

    worst_noisy = 0.0
    for _ in range(50):
        T = int(rng.integers(2, 6))
        rig = ring_rig(T, rng)
        X = rng.uniform(-1500.0, 1500.0, size=3) + np.array([0, 0, 1000.0])
        confs = rng.uniform(0.2, 1.0, size=T)
        positions, _ = observe(rig, X, noise=2.0, rng=rng)
        out, ok = triangulate(positions, confs, rig)
        not_ok += not ok
        worst_noisy = max(worst_noisy, rel_error(out, oracle(positions, confs, rig)))

    rig = ring_rig(3, rng)
    X = np.array([140.0, -230.0, 1250.0])
    positions, confs = observe(rig, X, confidences=[1.0, 1.0, 0.0])
    positions[2] += np.array([80.0, -40.0])  # corrupted, but masked
    out, ok = triangulate(positions, confs, rig)
    not_ok += not ok
    zero_conf = float(np.max(np.abs(out - X)))
    ok = (worst_exact < 1e-6 and worst_noisy < 1e-9 and zero_conf < 1e-6
          and not_ok == 0)
    _report(3, "triangulation", ok,
            f"exact {worst_exact:.2e} mm, noisy {worst_noisy:.2e}, "
            f"masked {zero_conf:.2e} mm, not ok {not_ok}")


# ---------------------------------------------------------------------------
# criterion 4: gradient suite
# ---------------------------------------------------------------------------

def _fd_vs_analytic_sample(params: dict, tensors: dict, loss_of, rng,
                           per_array: int = 4, step_scale: float = 1e-6):
    worst = 0.0
    for name in sorted(params):
        arr = params[name]
        idxs = rng.choice(arr.size, size=min(per_array, arr.size), replace=False)
        for i in idxs:
            step = step_scale * max(1.0, abs(arr.flat[i]))
            vals = []
            for sgn in (+1, -1):
                pert = {k: v.copy() for k, v in params.items()}
                pert[name].flat[i] += sgn * step
                vals.append(float(loss_of(pipeline.params_to_tensors(pert)).data))
            fd = (vals[0] - vals[1]) / (2 * step)
            grad = tensors[name].grad
            an = grad.flat[i] if grad is not None else 0.0
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-4))
    return worst


def test_criterion_4_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(104)

    # triangulation: analytic vs central differences, 100 instances
    worst_tri = 0.0
    for _ in range(100):
        T = int(rng.integers(2, 5))
        rig = ring_rig(T, rng)
        X = rng.uniform(-1200.0, 1200.0, size=3) + np.array([0, 0, 1000.0])
        confs = rng.uniform(0.25, 0.85, size=T)
        positions, _ = observe(rig, X, noise=1.5, rng=rng)
        worst_tri = max(worst_tri, rel_error(*jacobian_and_fd(positions, confs, rig)))

    # selective scan backward vs finite differences
    sel = random_selective(rng, L=3, S=4)
    x = rng.normal(size=(8, 3))
    upstream = rng.normal(size=(8, 3))
    grads = scan_backward(sel, x, upstream)
    step = 1e-6
    fd_x = np.zeros_like(x)
    for i in range(x.size):
        d = np.zeros_like(x)
        d.flat[i] = step
        fd_x.flat[i] = (np.sum(scan(sel, x + d) * upstream)
                        - np.sum(scan(sel, x - d) * upstream)) / (2 * step)
    worst_scan = rel_error(grads["x"], fd_x)

    # bilinear sampling
    grid = rng.normal(size=(6, 8, 3))
    pos = rng.uniform(0.6, 4.4, size=(5, 2)) + 0.013
    up = rng.normal(size=(5, 3))
    p_t = ad.parameter(as_joints(pos))
    (bilinear(grid, p_t) * up.reshape((1, 1, 5, 3))).sum().backward()
    fd_pos = np.zeros_like(pos)
    for i in range(pos.size):
        d = np.zeros_like(pos)
        d.flat[i] = step
        fd_pos.flat[i] = float(np.sum(sample(grid, pos + d) * up)
                               - np.sum(sample(grid, pos - d) * up)) / (2 * step)
    worst_bil = rel_error(p_t.grad.reshape(pos.shape), fd_pos)

    # projective attention parameters through the attention surface
    scene = evalsim.generate_scene(evalsim.SceneConfig(
        num_actors=1, num_cameras=2, num_joints=3, feature_dim=8,
        image_width=64, image_height=48, joint_noise_mm=0.0), 104)
    config = pipeline.PipelineConfig(
        num_layers=1, num_tokens=4, num_joints=3, feature_dim=8, num_points=2,
        num_scales=2, d_state=2, head_hidden=8, ffn_hidden=8,
        ground_bounds=scene.config.ground_bounds, init_seed=3)
    attn_params = {k: v + rng.normal(scale=0.05, size=v.shape)
                   for k, v in pipeline.init_params(config, 104).items()
                   if k.startswith("layer0.") and
                   any(tag in k for tag in ("off_", "alog_", "aout_"))}
    geom0 = pipeline.init_token_state(config)
    visual0 = rng.normal(size=(4, 3, 8))
    mixer_holder = {}

    def attn_loss(tensors):
        vis = ad.Tensor(visual0)
        anchors, valid = pipeline.project_op(ad.Tensor(geom0), scene.rig)
        _, fused, stencil = pipeline._attention_samples(
            vis, anchors, valid, scene.pyramids, tensors, "layer0.", config)
        if "m" not in mixer_holder:
            mixer_holder["m"] = rng.normal(size=fused.shape)
            mixer_holder["s"] = rng.normal(size=stencil.shape)
        return (fused * mixer_holder["m"]).sum() + (stencil * mixer_holder["s"]).sum()

    attn_tensors = pipeline.params_to_tensors(attn_params)
    attn_loss(attn_tensors).backward()
    worst_attn = _fd_vs_analytic_sample(attn_params, attn_tensors, attn_loss, rng,
                                        per_array=6)

    # end-to-end tiny pipeline, every parameter array sampled densely
    params = pipeline.init_params(config, rng_seed=105)
    cfg2 = pipeline.PipelineConfig(
        num_layers=2, num_tokens=4, num_joints=3, feature_dim=8, num_points=2,
        num_scales=2, d_state=2, head_hidden=8, ffn_hidden=8,
        ground_bounds=scene.config.ground_bounds, init_seed=3, max_offset_px=24.0)
    params = pipeline.init_params(cfg2, rng_seed=105)
    for k in params:
        params[k] = params[k] + rng.normal(scale=0.05, size=params[k].shape)
    probe_mixers = {}

    # mixers scale millimeter/pixel outputs near unity: an O(1e5) probe loss
    # would leave central differences with ~1e-3 relative roundoff
    probe_scales = {"g": 1e-3, "u": 1e-2, "c": 1.0, "s": 1.0}

    def e2e_loss(tensors):
        outputs, _ = pipeline.run_pipeline(scene.pyramids, scene.rig, tensors,
                                           cfg2, mode="train")
        total = None
        for i, out in enumerate(outputs):
            for name, tens in (("g", out.geometry), ("u", out.positions_2d),
                               ("c", out.confidences), ("s", out.scores)):
                key = f"{name}{i}"
                if key not in probe_mixers:
                    probe_mixers[key] = rng.normal(size=tens.shape) * probe_scales[name]
                term = (tens * probe_mixers[key]).sum()
                total = term if total is None else total + term
        return total

    tensors = pipeline.params_to_tensors(params)
    e2e_loss(tensors).backward()
    worst_e2e = _fd_vs_analytic_sample(params, tensors, e2e_loss, rng,
                                       per_array=8)
    elapsed = time.time() - start
    ok = (worst_tri < 1e-5 and worst_scan < 1e-3 and worst_bil < 1e-3
          and worst_attn < 1e-3 and worst_e2e < 1e-3 and elapsed < 120.0)
    _report(4, "gradient suite", ok,
            f"triangulation {worst_tri:.2e}, scan {worst_scan:.2e}, "
            f"bilinear {worst_bil:.2e}, attention {worst_attn:.2e}, "
            f"end-to-end {worst_e2e:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criteria 5-7: smoke scenario (shared CLI-trained model)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def smoke_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("smoke")
    scenes_dir = base / "scenes"
    run_dir = base / "run"
    t0 = time.time()
    assert cli.main(["generate", "--config", SMOKE_CONFIG,
                     "--out", str(scenes_dir)]) == 0
    assert cli.main(["train", "--config", SMOKE_CONFIG, "--out", str(run_dir),
                     "--scenes", str(scenes_dir)]) == 0
    cfg = cli.load_config(SMOKE_CONFIG)
    return {"base": base, "scenes_dir": scenes_dir, "run_dir": run_dir,
            "cfg": cfg, "train_seconds": time.time() - t0}


def test_criterion_5_smoke_training(smoke_run):
    cfg = smoke_run["cfg"]
    scenes = cli.load_scene_dir(str(smoke_run["scenes_dir"]))
    _, val_scenes = training.split_scenes(scenes, cfg.train.val_fraction)
    untrained = pipeline.init_params(cfg.pipeline, rng_seed=cfg.seed)
    _, mpjpe_untrained, _ = training.evaluate_model(untrained, cfg.pipeline,
                                                    val_scenes)
    rows = training.read_metrics_csv(str(smoke_run["run_dir"] / "metrics.csv"))
    mpjpe_trained = rows[-1]["val_mpjpe_mm"]

    params, pipe_cfg, _ = pipeline.load_model(str(smoke_run["run_dir"] / "model.bin"))
    tensors = pipeline.params_to_tensors(params)
    first_layer, last_layer = [], []
    for scene in val_scenes:
        outs, _ = pipeline.run_pipeline(
            scene.pyramids, scene.rig, tensors, pipe_cfg, mode="train",
            init_seed=training.scene_init_seed(pipe_cfg, scene))
        for layer, acc in ((outs[0], first_layer), (outs[-1], last_layer)):
            rep = evalsim.evaluate(layer.geometry.data, layer.scores.data,
                                   scene.gt_poses)
            acc.append(rep.mpjpe_mm)
    ratio = mpjpe_trained / mpjpe_untrained
    progressive = float(np.mean(last_layer)) <= float(np.mean(first_layer))
    ok = (ratio < 0.5 and progressive and smoke_run["train_seconds"] < 600.0)
    _report(5, "smoke training", ok,
            f"mpjpe {mpjpe_untrained:.0f} -> {mpjpe_trained:.0f} mm "
            f"(ratio {ratio:.2f}), layers {np.mean(first_layer):.0f} -> "
            f"{np.mean(last_layer):.0f} mm, {smoke_run['train_seconds']:.0f}s")


def test_criterion_6_ablation_ordering(smoke_run):
    import dataclasses
    cfg = smoke_run["cfg"]
    scenes = cli.load_scene_dir(str(smoke_run["scenes_dir"]))
    rows = training.read_metrics_csv(str(smoke_run["run_dir"] / "metrics.csv"))
    results = {"pss": rows[-1]["val_mpjpe_mm"]}
    for variant in ("proj_attention_only", "mean"):
        pipe_cfg = dataclasses.replace(cfg.pipeline, block_variant=variant)
        _, metrics = training.train(pipe_cfg, scenes, rng_seed=cfg.seed,
                                    train_cfg=cfg.train)
        results[variant] = metrics[-1]["val_mpjpe_mm"]
    ok = (results["pss"] <= results["proj_attention_only"]
          <= results["mean"])
    _report(6, "ablation ordering", ok,
            f"pss {results['pss']:.0f} <= proj_only "
            f"{results['proj_attention_only']:.0f} <= mean "
            f"{results['mean']:.0f} mm")


def test_criterion_7_cross_camera_sweep(smoke_run):
    eval_dir = smoke_run["base"] / "sweep"
    code = cli.main(["eval", "--model", str(smoke_run["run_dir"] / "model.bin"),
                     "--scenes", str(smoke_run["scenes_dir"]),
                     "--out", str(eval_dir), "--cameras", "3,7"])
    assert code == 0
    with open(eval_dir / "sweep.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = {int(line.split(",")[0]): dict(zip(header, line.strip().split(",")))
                for line in fh}
    ap3 = float(rows[3]["ap25"])
    ap7 = float(rows[7]["ap25"])
    reports_ok = all((eval_dir / f"report_cam{k}.csv").exists() for k in (3, 7))
    mpjpe3 = float(rows[3]["mpjpe_mm"])
    mpjpe7 = float(rows[7]["mpjpe_mm"])
    ok = reports_ok and ap7 >= ap3 and np.isfinite(mpjpe3) and np.isfinite(mpjpe7)
    _report(7, "cross-camera sweep", ok,
            f"ap25: 3cam {ap3:.3f} <= 7cam {ap7:.3f}; "
            f"mpjpe 3cam {mpjpe3:.0f} / 7cam {mpjpe7:.0f} mm")


# ---------------------------------------------------------------------------
# criterion 8: metric suite
# ---------------------------------------------------------------------------

def test_criterion_8_metric_suite():
    rng = np.random.default_rng(108)
    template, _, limbs = load_tpose()
    ok = evalsim.MAP_THRESHOLDS_MM == (25.0, 50.0, 75.0, 100.0, 125.0, 150.0)
    for _ in range(100):
        Z = int(rng.integers(1, 6))
        P = int(rng.integers(0, 7))
        gts = np.stack([template + np.append(rng.uniform(-2500, 2500, 2), 0.0)
                        for _ in range(Z)])
        if P:
            preds = np.stack([gts[rng.integers(0, Z)]
                              + rng.normal(scale=rng.uniform(5, 300),
                                           size=template.shape)
                              for _ in range(P)])
            scores = rng.uniform(size=P)
        else:
            preds = np.zeros((0, 15, 3))
            scores = np.zeros(0)

        if P:
            k = int(rng.integers(0, P))
            manual = np.mean(np.linalg.norm(preds[k] - gts[0], axis=-1))
            ok &= abs(pose_distances(preds[k][None], gts[0][None])[0, 0] - manual) < 1e-12
            manual_pcp = 0
            for a, b in limbs:
                length = np.linalg.norm(gts[0][a] - gts[0][b])
                err = 0.5 * (np.linalg.norm(preds[k][a] - gts[0][a])
                             + np.linalg.norm(preds[k][b] - gts[0][b]))
                manual_pcp += err < 0.5 * length
            ok &= evalsim.pcp(preds[k], gts[0], limbs) == manual_pcp / len(limbs)

        thr = float(rng.choice(evalsim.MAP_THRESHOLDS_MM))
        got = ap_at(preds, scores, gts, thr)
        if P == 0:
            ok &= got == 0.0
        else:
            matches = evalsim.greedy_match(preds, scores, gts)
            tp = 0
            acc = 0.0
            for rank, (_, zi, dist) in enumerate(matches, start=1):
                if zi >= 0 and dist < thr:
                    tp += 1
                    acc += tp / rank
            ok &= abs(got - acc / Z) < 1e-12
        parts = [ap_at(preds, scores, gts, t)
                 for t in evalsim.MAP_THRESHOLDS_MM]
        ok &= evalsim.evaluate(preds, scores, gts).map == np.mean(parts)
    _report(8, "metric suite", bool(ok))


# ---------------------------------------------------------------------------
# criterion 9: determinism of every command
# ---------------------------------------------------------------------------

def test_criterion_9_command_determinism(tmp_path):
    doc = {
        "seed": 11,
        "num_scenes": 3,
        "scene": {"num_actors": 1, "num_cameras": 3, "image_width": 64,
                  "image_height": 48, "num_joints": 6, "feature_dim": 8,
                  "joint_noise_mm": 60.0},
        "pipeline": {"num_layers": 1, "num_tokens": 6, "num_points": 2,
                     "d_state": 2, "head_hidden": 8, "ffn_hidden": 8},
        "train": {"steps": 6, "learning_rate": 1e-3, "val_fraction": 0.34},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))

    identical = True
    for attempt in ("x", "y"):
        root = tmp_path / attempt
        assert cli.main(["generate", "--config", str(cfg_path),
                         "--out", str(root / "scenes")]) == 0
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out", str(root / "run"),
                         "--scenes", str(root / "scenes")]) == 0
        assert cli.main(["eval", "--model", str(root / "run" / "model.bin"),
                         "--scenes", str(root / "scenes"),
                         "--out", str(root / "eval"), "--cameras", "3,4"]) == 0
        assert cli.main(["ablate", "--config", str(cfg_path),
                         "--out", str(root / "ablate")]) == 0

    def same(rel):
        a = (tmp_path / "x" / rel).read_bytes()
        b = (tmp_path / "y" / rel).read_bytes()
        return a == b

    checks = {
        "scenes/scenes_manifest.json": same("scenes/scenes_manifest.json"),
        "run/metrics.csv": same("run/metrics.csv"),
        "run/model.bin": same("run/model.bin"),
        "eval/report_cam3.csv": same("eval/report_cam3.csv"),
        "eval/sweep.csv": same("eval/sweep.csv"),
        "ablate/ablation.csv": same("ablate/ablation.csv"),
    }
    identical = all(checks.values())
    _report(9, "command determinism", identical,
            ", ".join(k for k, v in checks.items() if not v) or "all byte-identical")
