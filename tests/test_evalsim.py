import dataclasses
import os
import re

import numpy as np
import pytest

from oracles import render_heatmaps_loop
from scanpose import cli, container
from scanpose import evalsim as ev
from scanpose import geometry as geo
from scanpose.tokens import load_tpose, pose_distances

SMOKE_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                            "smoke.json")


def small_cfg(**kw):
    defaults = dict(num_actors=1, num_cameras=3, image_width=96, image_height=72,
                    num_scales=2, joint_noise_mm=0.0)
    defaults.update(kw)
    return ev.SceneConfig(**defaults)


# ---------------------------------------------------------------------------
# scene generation
# ---------------------------------------------------------------------------

def test_zero_perturbation_gives_translated_tpose():
    scene = ev.generate_scene(small_cfg(), 42)
    template, _, _ = load_tpose()
    diff = scene.gt_poses[0] - template
    assert np.allclose(diff, diff[0])  # constant translation across joints
    assert abs(diff[0, 2]) < 1e-9  # ground placement only


def test_heatmap_peaks_align_with_projections():
    scene = ev.generate_scene(small_cfg(heatmap_sigma_px=3.0), 42)
    uv, _, valid = geo.project_batch(scene.rig.projections, scene.gt_poses.reshape(-1, 3))
    checked = 0
    for t, pyr in enumerate(scene.pyramids):
        finest = pyr.levels[0]
        H, W = finest.shape[:2]
        for j in range(scene.config.num_joints):
            if not valid[t, j]:
                continue
            x, y = uv[t, j]
            if not (1.0 <= x <= W - 2.0 and 1.0 <= y <= H - 2.0):
                continue
            flat = np.argmax(finest[:, :, j])
            row, col = np.unravel_index(flat, (H, W))
            assert abs(col - x) <= 0.5 + 1e-9
            assert abs(row - y) <= 0.5 + 1e-9
            checked += 1
    assert checked > 10


def _render_oracle(cfg, rig, poses, rng):
    """Per-pixel float64 rendering: heatmap channels summed over actors in
    actor order, coordinate and sinusoid channels, then the noise draw; cast
    per level."""
    Z, J, _ = poses.shape
    sig2 = 2.0 * cfg.heatmap_sigma_px ** 2
    out = []
    for projection in rig.projections:
        uv, _, valid = geo.project_batch(projection[None], poses)
        levels = []
        for s in range(cfg.num_scales):
            f = 1.0 / (2 ** s)
            W = max(int(round(cfg.image_width * f)), 1)
            H = max(int(round(cfg.image_height * f)), 1)
            grid = np.zeros((H, W, cfg.feature_dim))
            for r in range(H):
                for c in range(W):
                    for z in range(Z):
                        for j in range(J):
                            if not valid[0, z, j]:
                                continue
                            ux, uy = uv[0, z, j] * f
                            d2 = (c - ux) ** 2 + (r - uy) ** 2
                            grid[r, c, j] += np.exp(np.array([-d2 / sig2]))[0]
                    xn = (c / f) / cfg.image_width
                    yn = (r / f) / cfg.image_height
                    grid[r, c, J] = xn
                    grid[r, c, J + 1] = yn
                    for i in range(cfg.feature_dim - J - 2):
                        k = 1 + i // 2
                        wave = np.sin if i % 2 == 0 else np.cos
                        arg = 2.0 * np.pi * k * (xn if i % 2 == 0 else yn)
                        grid[r, c, J + 2 + i] = wave(np.array([arg]))[0]
            if cfg.heatmap_noise > 0.0:
                grid[:, :, :J] += rng.normal(0.0, cfg.heatmap_noise, size=(H, W, J))
            levels.append(grid.astype(np.float32))
        out.append(levels)
    return out


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_render_matches_per_pixel_oracle_exactly(noise):
    cfg = small_cfg(num_actors=2, num_cameras=2, image_width=24, image_height=18,
                    num_joints=4, feature_dim=6, heatmap_sigma_px=2.5,
                    heatmap_noise=noise)
    scene = ev.generate_scene(cfg, 42)
    got = ev.render_pyramids(cfg, scene.rig, scene.gt_poses,
                             np.random.default_rng(5))
    expect = _render_oracle(cfg, scene.rig, scene.gt_poses,
                            np.random.default_rng(5))
    for pyr, levels in zip(got, expect):
        assert len(pyr.levels) == len(levels) == 2
        for a, b in zip(pyr.levels, levels):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert a[..., :4].max() > 0.5  # the heatmaps are not empty


def test_render_sinusoid_channels_match_per_pixel_oracle_exactly():
    cfg = small_cfg(num_actors=2, num_cameras=2, image_width=24, image_height=18,
                    num_joints=4, feature_dim=9, heatmap_sigma_px=2.5)
    scene = ev.generate_scene(cfg, 42)
    expect = _render_oracle(cfg, scene.rig, scene.gt_poses, None)
    for pyr, levels in zip(scene.pyramids, expect):
        for a, b in zip(pyr.levels, levels):
            assert a.shape[-1] == 9 and np.array_equal(a, b)
            assert np.ptp(a[..., 6:], axis=(0, 1)).min() > 0.5  # real waves


def _loop_render(cfg, seed, num_cameras):
    """generate_scene's pyramids and render_heatmaps_loop's for one seed."""
    scene = ev.generate_scene(cfg, seed, num_cameras=num_cameras)
    uv, _, valid = geo.project_batch(scene.rig.projections, scene.gt_poses.reshape(-1, 3))
    noise_seq = np.random.SeedSequence(seed).spawn(3)[2]
    expect = render_heatmaps_loop(cfg, uv, valid, np.random.default_rng(noise_seq))
    return [list(p.levels) for p in scene.pyramids], expect


def test_render_matches_loop_oracle_byte_for_byte_on_smoke_and_benchmark_scenes():
    """The smoke config's ten training scenes (seed 7, five cameras) and the
    benchmark's first three scene seeds at 3, 5 and 7 cameras."""
    cfg = cli.load_config(SMOKE_CONFIG)
    cases = [(cfg.seed + i, None) for i in range(cfg.num_scenes)]
    cases += [(seed, K) for seed in (1, 2, 3) for K in (3, 5, 7)]
    for seed, K in cases:
        got, expect = _loop_render(cfg.scene, seed, K)
        assert len(got) == (K or cfg.scene.num_cameras)
        for a_levels, b_levels in zip(got, expect):
            for a, b in zip(a_levels, b_levels):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_render_matches_loop_oracle_within_one_ulp_with_noise():
    """exp(a)·exp(b) and exp(a+b) can differ in the last float64 bit, so
    off the scenes above an entry may move by one float32 ulp, not more."""
    smoke = cli.load_config(SMOKE_CONFIG).scene
    for num_actors in (1, 3, 4):
        cfg = dataclasses.replace(smoke, num_actors=num_actors,
                                  heatmap_noise=0.05)
        for seed in (100, 101):
            got, expect = _loop_render(cfg, seed, 7)
            for a_levels, b_levels in zip(got, expect):
                for a, b in zip(a_levels, b_levels):
                    ulp = np.spacing(np.maximum(np.abs(a), np.abs(b)))
                    assert np.all(np.abs(a - b) <= ulp)


def test_same_seed_identical_scene_bytes(tmp_path):
    cfg = small_cfg(num_actors=2, heatmap_noise=0.01)
    a = ev.generate_scene(cfg, 42)
    b = ev.generate_scene(cfg, 42)
    assert np.array_equal(a.gt_poses, b.gt_poses)
    ev.save_scene(a, str(tmp_path / "a.bin"))
    ev.save_scene(b, str(tmp_path / "b.bin"))
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_camera_count_override_keeps_prefix_and_actors():
    cfg = small_cfg(num_cameras=5, num_actors=2)
    base = ev.generate_scene(cfg, 42)
    fewer = ev.generate_scene(cfg, 42, num_cameras=3)
    more = ev.generate_scene(cfg, 42, num_cameras=7)
    assert np.array_equal(base.gt_poses, fewer.gt_poses)
    assert np.array_equal(base.gt_poses, more.gt_poses)
    for k in range(3):
        assert np.allclose(fewer.rig.projections[k], base.rig.projections[k])
    for k in range(5):
        assert np.allclose(more.rig.projections[k], base.rig.projections[k])
    # a scene states its own camera count
    for scene, K in ((fewer, 3), (base, 5), (more, 7)):
        assert scene.config.num_cameras == K == len(scene.rig) == len(scene.pyramids)
    assert fewer.config == dataclasses.replace(cfg, num_cameras=3)


def test_coordinate_channels_consistent_across_levels():
    scene = ev.generate_scene(small_cfg(), 42)
    pyr = scene.pyramids[0]
    J = scene.config.num_joints
    fine, coarse = pyr.levels[0], pyr.levels[1]
    # node (r, c) in the coarse level sits at pixel (2c, 2r) = fine node
    assert np.allclose(coarse[:, :, J], fine[::2, ::2, J])
    assert np.allclose(coarse[:, :, J + 1], fine[::2, ::2, J + 1])


def assert_same_scene(loaded, original):
    """Rig arrays, poses and float32 grids byte for byte with their dtypes,
    and the same config and seed."""
    for name in ("projections", "sizes"):
        a, b = getattr(loaded.rig, name), getattr(original.rig, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert loaded.gt_poses.dtype == original.gt_poses.dtype
    assert loaded.gt_poses.tobytes() == original.gt_poses.tobytes()
    assert loaded.config == original.config and loaded.seed == original.seed
    for a, b in zip(loaded.pyramids, original.pyramids, strict=True):
        for ga, gb in zip(a.levels, b.levels, strict=True):
            assert ga.dtype == gb.dtype == np.float32
            assert ga.tobytes() == gb.tobytes()


def test_scene_roundtrip(tmp_path):
    """A scene comes back from its container byte for byte, also with its
    views' projections in reverse order; the file holds the rig, the poses
    and the grids and nothing else. A rig of two image sizes does not load:
    a scene states one image size, its config's."""
    cfg = small_cfg(num_actors=2, feature_dim=20)
    scene = ev.generate_scene(cfg, 42)
    swapped = dataclasses.replace(scene, rig=geo.CameraRig(
        projections=scene.rig.projections[::-1], sizes=scene.rig.sizes))
    for i, original in enumerate((scene, swapped)):
        path = str(tmp_path / f"scene_{i:03d}.bin")
        ev.save_scene(original, path)
        assert set(container.load_container(path)[0]) == {
            "rig/projections", "rig/sizes", "gt_poses",
            *(f"view{t}/level{s}" for t in range(3) for s in range(2))}
        assert_same_scene(ev.load_scene(path), original)
    path = str(tmp_path / "mixed.bin")
    ev.save_scene(dataclasses.replace(scene, rig=geo.CameraRig(
        projections=scene.rig.projections, sizes=[[96, 72], [80, 60], [96, 72]])), path)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: rig/sizes must be the config's image size (96, 72) in every view")):
        ev.load_scene(path)


def test_scene_with_view_ids_and_scale_factors_loads(tmp_path):
    """A scene file in the earlier layout, which also held the view ids
    rig/ids and the per-view scale_factors (T, S), loads to the same scene:
    the loader reads only the arrays it needs."""
    scene = ev.generate_scene(small_cfg(num_actors=2), 42)
    path = str(tmp_path / "scene_000.bin")
    ev.save_scene(scene, path)
    arrays, meta = container.load_container(path)
    arrays["rig/ids"] = np.array([7, 2, 11])
    arrays["scale_factors"] = np.tile([1.0, 0.5], (3, 1))
    container.save_container(path, arrays, meta)
    assert_same_scene(ev.load_scene(path), scene)


def test_actor_placement_fails_loudly_when_spacing_cannot_be_met():
    cfg = small_cfg(num_actors=6, min_actor_spacing_mm=4000.0)
    with pytest.raises(ValueError, match="no centre at least") as exc:
        ev.generate_scene(cfg, 9)
    message = str(exc.value)
    assert re.match(r"actor [1-5]: ", message) and "4000.0 mm" in message
    assert "[-1600.0, 1600.0] x [-1600.0, 1600.0] mm" in message


def test_actor_spacing_enforced():
    cfg = small_cfg(num_actors=3, min_actor_spacing_mm=1500.0)
    scene = ev.generate_scene(cfg, 9)
    centers = scene.gt_poses[:, 2, :2]  # mid-hip ground positions
    for i in range(3):
        for k in range(i + 1, 3):
            assert np.linalg.norm(centers[i] - centers[k]) >= 1000.0


# ---------------------------------------------------------------------------
# mpjpe: one pair's entry of tokens.pose_distances
# ---------------------------------------------------------------------------

def mpjpe(pred, gt):
    return float(pose_distances(pred[None], gt[None])[0, 0])


def test_mpjpe_identical_zero():
    pose = np.random.default_rng(0).normal(size=(15, 3))
    assert mpjpe(pose, pose) == 0.0


def test_mpjpe_uniform_offset_345():
    rng = np.random.default_rng(1)
    gt = rng.normal(size=(15, 3))
    assert abs(mpjpe(gt + np.array([3.0, 0.0, 4.0]), gt) - 5.0) < 1e-12


def test_mpjpe_matches_per_joint_recomputation():
    rng = np.random.default_rng(2)
    gt = rng.normal(size=(15, 3)) * 100
    pred = gt + rng.normal(size=(15, 3)) * 10
    expect = np.mean([np.linalg.norm(pred[j] - gt[j]) for j in range(15)])
    assert abs(mpjpe(pred, gt) - expect) < 1e-12


def test_mpjpe_shape_mismatch():
    with pytest.raises(ValueError):
        mpjpe(np.zeros((15, 3)), np.zeros((14, 3)))


# ---------------------------------------------------------------------------
# AP / mAP
# ---------------------------------------------------------------------------

def _skel(center, J=1):
    return np.tile(np.asarray(center, dtype=float), (J, 1))


def ap_at(preds, scores, gts, threshold_mm):
    """AP at one threshold, from the one matching that evaluate makes."""
    return ev.ap_from_matches(ev.greedy_match(preds, scores, gts), len(gts),
                              threshold_mm)


def test_ap_no_predictions_is_zero():
    assert ap_at(np.zeros((0, 1, 3)), np.zeros(0), _skel([0, 0, 0])[None], 25.0) == 0.0


def test_ap_single_exact_prediction_is_one():
    gt = _skel([0, 0, 0])[None]
    assert ap_at(gt.copy(), np.array([0.9]), gt, 25.0) == 1.0


def test_ap_hand_constructed_case():
    gts = np.stack([_skel([0, 0, 0]), _skel([2000, 0, 0])])
    preds = np.stack([_skel([10, 0, 0]), _skel([30, 0, 0]), _skel([2005, 0, 0])])
    scores = np.array([0.9, 0.8, 0.7])
    # score order: p0 -> gt0 (10mm, TP@25); p1 -> gt1 (1970mm, FP@25);
    # p2 -> nothing left (FP). AP@25 = 0.5 * 1.0
    assert abs(ap_at(preds, scores, gts, 25.0) - 0.5) < 1e-12
    # with a 2000mm threshold the second prediction turns TP at precision 1
    assert abs(ap_at(preds, scores, gts, 2000.0) - 1.0) < 1e-12


def test_ap_matches_tp_position_oracle():
    # AP equals (1/Z) * sum of precision at each true-positive rank: an
    # independent route to the same area under the step PR curve
    rng = np.random.default_rng(3)
    for _ in range(50):
        Z = int(rng.integers(1, 6))
        P = int(rng.integers(0, 8))
        gts = np.stack([_skel(rng.uniform(-3000, 3000, 3)) for _ in range(Z)])
        preds = np.stack([_skel(rng.uniform(-3000, 3000, 3)) for _ in range(P)]) \
            if P else np.zeros((0, 1, 3))
        scores = rng.uniform(size=P)
        thr = float(rng.choice([25.0, 250.0, 2500.0]))
        got = ap_at(preds, scores, gts, thr)
        if P == 0:
            assert got == 0.0
            continue
        matches = ev.greedy_match(preds, scores, gts)
        tp = 0
        acc = 0.0
        for k, (_, zi, dist) in enumerate(matches, start=1):
            if zi >= 0 and dist < thr:
                tp += 1
                acc += tp / k
        assert abs(got - acc / Z) < 1e-12


def test_ap_monotone_in_threshold():
    rng = np.random.default_rng(4)
    gts = np.stack([_skel(rng.uniform(-2000, 2000, 3)) for _ in range(4)])
    preds = gts + rng.normal(scale=80.0, size=gts.shape)
    scores = rng.uniform(size=4)
    values = [ap_at(preds, scores, gts, t) for t in ev.MAP_THRESHOLDS_MM]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_map_is_exact_mean_of_six_thresholds():
    # evaluate scores PCP too, so the poses are skeletons with real limbs
    rng = np.random.default_rng(5)
    template, _, _ = load_tpose()
    gts = np.stack([template + rng.uniform(-2000, 2000, 3) for _ in range(3)])
    preds = gts + rng.normal(scale=60.0, size=gts.shape)
    scores = rng.uniform(size=3)
    parts = [ap_at(preds, scores, gts, t) for t in ev.MAP_THRESHOLDS_MM]
    assert len(set(parts)) > 1  # the thresholds disagree
    assert ev.evaluate(preds, scores, gts).map == np.mean(parts)
    assert ev.MAP_THRESHOLDS_MM == (25.0, 50.0, 75.0, 100.0, 125.0, 150.0)


def test_evaluate_matches_once(monkeypatch):
    rng = np.random.default_rng(9)
    template, _, _ = load_tpose()
    gts = np.stack([template + np.array([x, 0, 0]) for x in (-1500.0, 1500.0)])
    preds = gts[[1, 0, 0]] + rng.normal(scale=40.0, size=(3, 15, 3))
    calls = []
    real = ev.greedy_match

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ev, "greedy_match", counting)
    ev.evaluate(preds, np.array([0.9, 0.8, 0.7]), gts)
    assert len(calls) == 1


def test_map_perfect_and_empty():
    template, _, _ = load_tpose()
    gts = np.stack([template + [100, 0, 0], template + [-3000, 0, 0]])
    assert ev.evaluate(gts.copy(), np.array([0.9, 0.8]), gts).map == 1.0
    assert ev.evaluate(np.zeros((0, 15, 3)), np.zeros(0), gts).map == 0.0


# ---------------------------------------------------------------------------
# PCP
# ---------------------------------------------------------------------------

def test_pcp_exact_prediction():
    template, _, limbs = load_tpose()
    assert ev.pcp(template, template, limbs) == 1.0


def test_pcp_boundary_is_strict():
    gt = np.array([[0.0, 0.0, 0.0], [400.0, 0.0, 0.0]])
    pred = gt + np.array([[0.0, 200.0, 0.0], [0.0, 200.0, 0.0]])
    assert ev.pcp(pred, gt, [(0, 1)]) == 0.0
    slightly_less = gt + np.array([[0.0, 199.0, 0.0], [0.0, 199.0, 0.0]])
    assert ev.pcp(slightly_less, gt, [(0, 1)]) == 1.0


def test_pcp_shape_mismatch():
    template, _, limbs = load_tpose()
    with pytest.raises(ValueError, match="vs gt"):
        ev.pcp(template[:-1], template, limbs)


def test_pcp_zero_length_limb():
    gt = np.zeros((2, 3))
    with pytest.raises(ValueError, match=r"limb \(0, 1\) has zero length"):
        ev.pcp(gt, gt, [(0, 1)])


def test_pcp_mixed_matches_enumeration():
    rng = np.random.default_rng(6)
    template, _, limbs = load_tpose()
    pred = template + rng.normal(scale=90.0, size=template.shape)
    got = ev.pcp(pred, template, limbs)
    correct = 0
    for a, b in limbs:
        length = np.linalg.norm(template[a] - template[b])
        err = 0.5 * (np.linalg.norm(pred[a] - template[a])
                     + np.linalg.norm(pred[b] - template[b]))
        correct += err < 0.5 * length
    assert got == correct / len(limbs)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_perfect_output():
    rng = np.random.default_rng(7)
    template, _, _ = load_tpose()
    gts = np.stack([template + np.array([x, 0, 0]) for x in (-1500.0, 1500.0)])
    report = ev.evaluate(gts.copy(), np.array([0.95, 0.9]), gts)
    assert report.mpjpe_mm == 0.0
    assert report.map == 1.0
    assert report.recall == 1.0
    assert report.pcp_avg == 1.0
    assert all(v == 1.0 for v in report.ap.values())


def test_evaluate_empty_output():
    template, _, _ = load_tpose()
    gts = np.stack([template, template + np.array([2000.0, 0.0, 0.0])])
    report = ev.evaluate(np.zeros((0, 15, 3)), np.zeros(0), gts)
    assert report.to_json() == (
        '{"ap": {"100": 0.0, "125": 0.0, "150": 0.0, "25": 0.0, "50": 0.0, "75": 0.0}, '
        '"map": 0.0, "mpjpe_defined": false, "mpjpe_mm": NaN, "num_gt": 2, '
        '"num_predictions": 0, "pcp_avg": 0.0, "pcp_per_actor": [0.0, 0.0], "recall": 0.0}')


def test_evaluate_matches_component_metrics():
    rng = np.random.default_rng(8)
    template, _, _ = load_tpose()
    gts = np.stack([template + np.array([x, y, 0]) for x, y in
                    ((-2000.0, 0.0), (1800.0, 500.0), (0.0, -2200.0))])
    preds = gts + rng.normal(scale=120.0, size=gts.shape)
    scores = rng.uniform(0.5, 1.0, size=3)
    report = ev.evaluate(preds, scores, gts)
    for thr in ev.MAP_THRESHOLDS_MM:
        assert report.ap[thr] == ap_at(preds, scores, gts, thr)
    assert report.map == np.mean([ap_at(preds, scores, gts, thr)
                                  for thr in ev.MAP_THRESHOLDS_MM])
    matches = ev.greedy_match(preds, scores, gts)
    dists = [d for _, zi, d in matches if zi >= 0]
    assert abs(report.mpjpe_mm - np.mean(dists)) < 1e-12


def test_metrics_invariant_under_joint_translation():
    rng = np.random.default_rng(9)
    template, _, _ = load_tpose()
    gts = np.stack([template, template + np.array([2000.0, 100.0, 0.0])])
    preds = gts + rng.normal(scale=40.0, size=gts.shape)
    scores = np.array([0.8, 0.6])
    shift = np.array([512.0, -777.0, 123.0])
    a = ev.evaluate(preds, scores, gts)
    b = ev.evaluate(preds + shift, scores, gts + shift)
    assert a.mpjpe_mm == pytest.approx(b.mpjpe_mm, rel=0, abs=1e-9)
    assert a.map == pytest.approx(b.map, abs=1e-12)
    assert a.recall == b.recall
    assert a.pcp_avg == pytest.approx(b.pcp_avg, abs=1e-12)


def test_report_serialization():
    template, _, _ = load_tpose()
    report = ev.evaluate(template[None], np.array([0.9]), template[None])
    doc = report.to_json()
    assert "mpjpe_mm" in doc
    rows = dict(report.csv_rows())
    assert "mpjpe_mm" in rows and "ap25" in rows
    assert rows["pcp_avg_pct"] == 100.0  # percentage on the CSV surface


def test_summarize_averages_each_columns_finite_values():
    """The scene-set row: a scene whose MPJPE is undefined is left out of the
    MPJPE mean, a column no scene fills reads NaN, and a 1-actor and a
    3-actor scene give the 3-actor columns in its order, in either order of
    the scenes, each PCP column averaged over the scenes that have it."""
    nan = float("nan")

    def report(mpjpe, pcp):
        return ev.EvalReport(mpjpe_mm=mpjpe, mpjpe_defined=not np.isnan(mpjpe),
                             ap={25.0: 0.5}, map=0.5, recall=1.0, pcp_per_actor=pcp,
                             pcp_avg=float(np.mean(pcp)), num_predictions=len(pcp),
                             num_gt=len(pcp))

    missed, found = report(nan, [0.0]), report(100.0, [0.5])
    assert ev.summarize([missed, found])["mpjpe_mm"] == 100.0
    assert ev.summarize([found, missed])["recall"] == 1.0
    assert np.isnan(ev.summarize([missed, missed])["mpjpe_mm"])
    trio = report(300.0, [1.0, 0.5, 0.0])
    for pair in ([found, trio], [trio, found]):
        summary = ev.summarize(pair)
        assert list(summary) == [name for name, _ in trio.csv_rows()]
        assert summary["mpjpe_mm"] == 200.0
        assert summary["pcp_actor0_pct"] == 75.0 and summary["pcp_actor1_pct"] == 50.0
        assert summary["pcp_actor2_pct"] == 0.0 and summary["pcp_avg_pct"] == 50.0
