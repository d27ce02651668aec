import os
import tracemalloc

import numpy as np
import pytest

from scanpose import autodiff as ad
from scanpose import cli
from scanpose import evalsim as ev
from scanpose import pipeline as pl
from scanpose import training as tr
from scanpose.tokens import load_tpose
from oracles import project_ld


def small_scene(seed=7, **kw):
    defaults = dict(num_actors=2, num_cameras=3, image_width=64, image_height=48,
                    num_joints=6, feature_dim=8, joint_noise_mm=80.0)
    defaults.update(kw)
    return ev.generate_scene(ev.SceneConfig(**defaults), seed)


def small_config(scene, **kw):
    defaults = dict(num_layers=1, num_tokens=6, num_joints=scene.config.num_joints,
                    feature_dim=scene.config.feature_dim, num_points=2,
                    num_scales=scene.config.num_scales, d_state=2, head_hidden=8,
                    ffn_hidden=8, ground_bounds=scene.config.ground_bounds,
                    init_seed=1)
    defaults.update(kw)
    return pl.PipelineConfig(**defaults)


def gts_of(scene):
    return tr.GroundTruthSet.from_scene(scene)


# ---------------------------------------------------------------------------
# ground-truth matching
# ---------------------------------------------------------------------------

def fake_gts(humans):
    humans = np.asarray(humans, dtype=float)
    Z, J, _ = humans.shape
    return tr.GroundTruthSet(humans=humans,
                             positions_2d=np.zeros((Z, 1, J, 2)),
                             valid_2d=np.ones((Z, 1, J), dtype=bool))


def test_match_token_anchored_at_gt_is_positive():
    template, _, _ = load_tpose(4)
    anchors = np.stack([template + np.array([x, 0.0, 0.0])
                        for x in (-3000.0, 0.0, 3000.0)])
    gts = fake_gts(template[None])
    a = tr.match_gt(anchors, gts)
    assert a.token_to_gt[1] == 0
    assert a.token_to_gt[0] == -1 and a.token_to_gt[2] == -1


def test_match_w1_single_gt_takes_global_nearest():
    rng = np.random.default_rng(1)
    template, _, _ = load_tpose(4)
    offsets = rng.uniform(-4000, 4000, size=(8, 3)) * np.array([1, 1, 0])
    anchors = template[None] + offsets[:, None, :]
    human = template + np.array([123.0, -77.0, 0.0])
    gts = fake_gts(human[None])
    a = tr.match_gt(anchors, gts)
    dists = np.mean(np.linalg.norm(anchors - human[None], axis=-1), axis=-1)
    assert a.token_to_gt[int(np.argmin(dists))] == 0
    assert (a.token_to_gt >= 0).sum() == 1


def test_match_insufficient_tokens():
    template, _, _ = load_tpose(2)
    anchors = template[None]
    humans = np.stack([template, template + 100.0])
    with pytest.raises(tr.InsufficientTokens):
        tr.match_gt(anchors, fake_gts(humans))


def test_match_stable_under_index_permutation():
    rng = np.random.default_rng(2)
    template, _, _ = load_tpose(3)
    offsets = rng.uniform(-4000, 4000, size=(10, 3)) * np.array([1, 1, 0])
    anchors = template[None] + offsets[:, None, :]
    humans = np.stack([template + np.array([500.0, 0, 0]),
                       template + np.array([-2000.0, 900.0, 0])])
    a = tr.match_gt(anchors, fake_gts(humans))
    perm = rng.permutation(10)
    b = tr.match_gt(anchors[perm], fake_gts(humans))
    # relabeled positive sets coincide: token i of the permuted match is
    # token perm[i] of the first one
    for z in range(2):
        orig = {int(i) for i in np.nonzero(a.token_to_gt == z)[0]}
        permuted = {int(perm[i]) for i in np.nonzero(b.token_to_gt == z)[0]}
        assert orig == permuted


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _layer_stub(geometry, positions_2d, valid):
    return pl.LayerOutput(
        positions_2d=positions_2d if isinstance(positions_2d, ad.Tensor)
        else ad.Tensor(positions_2d),
        confidences=ad.Tensor(np.zeros(valid.shape)),
        valid=valid,
        geometry=geometry if isinstance(geometry, ad.Tensor)
        else ad.Tensor(geometry),
        scores=ad.Tensor(np.zeros(geometry.shape[0])),
        kept=np.arange(geometry.shape[0]),
        flagged=np.zeros(geometry.shape[:2], dtype=bool))


def _loss_fixture(J=3, T=2, N=4):
    rng = np.random.default_rng(3)
    humans = rng.normal(scale=500.0, size=(1, J, 3))
    gt2d = rng.normal(scale=30.0, size=(1, T, J, 2))
    gts = tr.GroundTruthSet(humans=humans, positions_2d=gt2d,
                            valid_2d=np.ones((1, T, J), dtype=bool))
    assignment = tr.Assignment(token_to_gt=np.array([-1, 0, -1, -1]))
    return rng, gts, assignment, J, T, N


def test_pose_loss_perfect_predictions_zero():
    rng, gts, assignment, J, T, N = _loss_fixture()
    geometry = np.zeros((N, J, 3))
    geometry[1] = gts.humans[0]
    est = np.zeros((T, N, J, 2))
    est[:, 1] = gts.positions_2d[0]
    out = _layer_stub(geometry, est, np.ones((T, N, J), dtype=bool))
    assert float(tr.pose_loss(assignment, [out], gts).data) == 0.0


def test_pose_loss_single_joint_l1_is_six():
    rng, gts, assignment, J, T, N = _loss_fixture()
    geometry = np.zeros((N, J, 3))
    geometry[1] = gts.humans[0]
    geometry[1, 0] += np.array([1.0, 2.0, 3.0])
    est = np.zeros((T, N, J, 2))
    est[:, 1] = gts.positions_2d[0]
    out = _layer_stub(geometry, est, np.ones((T, N, J), dtype=bool))
    assert float(tr.pose_loss(assignment, [out], gts).data) == pytest.approx(6.0)


def test_pose_loss_matches_recomputation_and_sums_layers():
    rng, gts, assignment, J, T, N = _loss_fixture()
    outs = []
    expect = 0.0
    for _ in range(2):
        geometry = rng.normal(scale=400.0, size=(N, J, 3))
        est = rng.normal(scale=25.0, size=(T, N, J, 2))
        valid = rng.uniform(size=(T, N, J)) > 0.3
        outs.append(_layer_stub(geometry, est, valid))
        expect += np.abs(geometry[1] - gts.humans[0]).sum()
        mask = valid[:, 1] & gts.valid_2d[0]
        expect += (np.abs(est[:, 1] - gts.positions_2d[0]) * mask[..., None]).sum()
    got = float(tr.pose_loss(assignment, outs, gts).data)
    assert got == pytest.approx(expect, rel=1e-12)


def test_pose_loss_invariant_to_negative_reordering():
    rng, gts, assignment, J, T, N = _loss_fixture()
    geometry = rng.normal(scale=400.0, size=(N, J, 3))
    est = rng.normal(scale=25.0, size=(T, N, J, 2))
    valid = np.ones((T, N, J), dtype=bool)
    base = float(tr.pose_loss(assignment, [_layer_stub(geometry, est, valid)],
                              gts).data)
    perm = [2, 1, 3, 0]  # permutes negatives, keeps the positive at index 1
    geometry2 = geometry[perm]
    est2 = est[:, perm]
    got = float(tr.pose_loss(assignment, [_layer_stub(geometry2, est2, valid)],
                             gts).data)
    assert got == pytest.approx(base, rel=1e-12)


def test_pose_loss_zero_gradient_for_negative_geometry():
    rng, gts, assignment, J, T, N = _loss_fixture()
    geometry = ad.parameter(rng.normal(scale=400.0, size=(N, J, 3)))
    est = ad.parameter(rng.normal(scale=25.0, size=(T, N, J, 2)))
    valid = np.ones((T, N, J), dtype=bool)
    out = _layer_stub(geometry, est, valid)
    tr.pose_loss(assignment, [out], gts).backward()
    negatives = [0, 2, 3]
    assert np.all(geometry.grad[negatives] == 0.0)
    assert np.any(geometry.grad[1] != 0.0)
    assert np.all(est.grad[:, negatives] == 0.0)


def test_classification_loss_perfect_is_zero():
    assignment = tr.Assignment(token_to_gt=np.array([0, -1, -1]))
    scores = ad.Tensor(np.array([1.0, 0.0, 0.0]))
    assert float(tr.classification_loss(assignment, scores).data) < 1e-9


def test_classification_loss_half_is_ln2():
    assignment = tr.Assignment(token_to_gt=np.array([0, -1, -1, -1]))
    scores = ad.Tensor(np.full(4, 0.5))
    got = float(tr.classification_loss(assignment, scores).data)
    assert got == pytest.approx(np.log(2.0), rel=1e-12)


def test_classification_loss_matches_scalar_recomputation():
    rng = np.random.default_rng(4)
    labels = np.array([1, 0, 0, 1, 0])
    assignment = tr.Assignment(token_to_gt=np.where(labels > 0, 0, -1))
    s = rng.uniform(0.05, 0.95, size=5)
    got = float(tr.classification_loss(assignment, ad.Tensor(s)).data)
    expect = np.mean([-(y * np.log(p) + (1 - y) * np.log(1 - p))
                      for y, p in zip(labels, s)])
    assert got == pytest.approx(expect, rel=1e-12)


def test_classification_loss_clamp_stops_gradient_but_not_nan():
    """Scores outside [floor, 1 - floor] are clamped and get no gradient; a
    NaN score is not clamped, so it reaches the loss and its gradient."""
    assignment = tr.Assignment(token_to_gt=np.array([0, -1, 0, -1, -1]))
    scores = ad.parameter(np.array([0.0, 1.0, 0.3, 1.0 - 1e-13, np.nan]))
    loss = tr.classification_loss(assignment, scores)
    loss.backward()
    assert np.isnan(loss.data)
    assert np.all(scores.grad[[0, 1, 3]] == 0.0)
    assert np.isfinite(scores.grad[2]) and scores.grad[2] != 0.0
    assert np.isnan(scores.grad[4])


# ---------------------------------------------------------------------------
# ground truth projections
# ---------------------------------------------------------------------------

def test_gts_projections_recomputed_from_rig():
    scene = small_scene()
    gts = gts_of(scene)
    for z in range(scene.gt_poses.shape[0]):
        for t, projection in enumerate(scene.rig.projections):
            for j in range(scene.config.num_joints):
                if gts.valid_2d[z, t, j]:
                    assert np.allclose(gts.positions_2d[z, t, j],
                                       project_ld(projection, scene.gt_poses[z, j]))


# ---------------------------------------------------------------------------
# optimizer and loop
# ---------------------------------------------------------------------------

def test_zero_learning_rate_leaves_params_unchanged():
    scene = small_scene()
    config = small_config(scene)
    scenes = [scene, small_scene(seed=8)]
    init = pl.init_params(config, rng_seed=5)
    params, _ = tr.train(config, scenes, rng_seed=5,
                         train_cfg=tr.TrainConfig(steps=3, learning_rate=0.0),
                         initial_params=init)
    for k in init:
        assert np.array_equal(params[k], init[k])


def test_training_loss_decreases_on_tiny_scene():
    scene = small_scene()
    config = small_config(scene)
    tcfg = tr.TrainConfig(steps=200, learning_rate=2e-3, val_fraction=0.0)
    params, metrics = tr.train(config, [scene], rng_seed=6, train_cfg=tcfg)
    assert metrics[-1]["pose_loss"] < metrics[0]["pose_loss"]


def test_identical_seeds_identical_metrics():
    scenes = [small_scene(seed=s) for s in (7, 8, 9)]
    config = small_config(scenes[0])
    tcfg = tr.TrainConfig(steps=6, learning_rate=1e-3)
    _, m1 = tr.train(config, scenes, rng_seed=7, train_cfg=tcfg)
    _, m2 = tr.train(config, scenes, rng_seed=7, train_cfg=tcfg)
    assert m1 == m2


def test_divergence_detected_on_nonfinite_loss():
    scene = small_scene()
    config = small_config(scene)
    bad = pl.init_params(config, rng_seed=8)
    bad["joint_embeds"] = bad["joint_embeds"] + np.inf
    with pytest.raises(tr.DivergenceDetected):
        tr.train(config, [scene], rng_seed=8,
                 train_cfg=tr.TrainConfig(steps=1), initial_params=bad)


def test_evaluate_model_builds_no_tape(monkeypatch):
    scene = small_scene()
    config = small_config(scene, num_layers=2)
    params = pl.init_params(config, rng_seed=3)
    seen = []
    run_pipeline = pl.run_pipeline
    score_op = pl.score_op

    def spy(pyramids, rig, tensors, cfg, **kw):
        seen.append(any(t.requires_grad for t in tensors.values()))
        outputs, geom0 = run_pipeline(pyramids, rig, tensors, cfg, **kw)
        seen.extend(getattr(out, name)._node is not None for out in outputs
                    for name in ("positions_2d", "confidences", "geometry",
                                 "scores"))
        return outputs, geom0

    def score_spy(visual, p):  # each layer's updated features
        seen.append(visual._node is not None)
        return score_op(visual, p)

    monkeypatch.setattr(pl, "run_pipeline", spy)
    monkeypatch.setattr(pl, "score_op", score_spy)
    reports, _, _ = tr.evaluate_model(params, config, [scene, scene])
    assert len(reports) == 2 and len(seen) == 2 * (1 + 2 * 5)
    assert not any(seen)


# the forward of one smoke step leaves 38.5 MB live when the tape keeps only
# what the backward reads, and 63.3 MB when every intermediate stays alive
SMOKE_TAPE_BOUND_MB = 45.0


def test_smoke_forward_tape_stays_small():
    cfg = cli.load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "configs", "smoke.json"), seed_override=1)
    scene = ev.generate_scene(cfg.scene, seed=cfg.seed)  # the first training scene
    tensors = pl.params_to_tensors(pl.init_params(cfg.pipeline, cfg.seed))
    tracemalloc.start()
    try:
        total, _, _ = tr.scene_loss(tensors, scene, cfg.pipeline, cfg.train)
        live_mb = tracemalloc.get_traced_memory()[0] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert live_mb <= SMOKE_TAPE_BOUND_MB, f"{live_mb:.1f} MB live after the forward"
    total.backward()
    assert tensors["layer0.off_w"].grad is not None


# the same smoke forward records 293 autodiff.from_op nodes with one masked
# sample stencil per layer and one clamp in the classification loss; it
# recorded 405 when the attention block built its weighted sums one
# (view, scale) at a time
SMOKE_TAPE_NODES = 293


def test_smoke_forward_records_no_more_tape_nodes(monkeypatch):
    cfg = cli.load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "configs", "smoke.json"), seed_override=1)
    scene = ev.generate_scene(cfg.scene, seed=cfg.seed)
    tensors = pl.params_to_tensors(pl.init_params(cfg.pipeline, cfg.seed))
    nodes = []
    from_op = ad.from_op

    def counting(data, parents, backward):
        nodes.append(None)
        return from_op(data, parents, backward)

    monkeypatch.setattr(ad, "from_op", counting)
    tr.scene_loss(tensors, scene, cfg.pipeline, cfg.train)
    assert len(nodes) <= SMOKE_TAPE_NODES, f"{len(nodes)} tape nodes"


def test_metrics_csv_roundtrip(tmp_path):
    rows = [{"epoch": 0, "pose_loss": 12.5, "cls_loss": 0.7,
             "val_mpjpe_mm": 1234.5678, "ap25": 0.125},
            {"epoch": 1, "pose_loss": 10.0, "cls_loss": float("nan"),
             "val_mpjpe_mm": 1000.0, "ap25": 0.25}]
    path = str(tmp_path / "metrics.csv")
    tr.write_metrics_csv(path, rows)
    text = open(path).read()
    assert text.splitlines()[0] == "epoch,pose_loss,cls_loss,val_mpjpe_mm,ap25"
    back = tr.read_metrics_csv(path)
    assert back[0]["val_mpjpe_mm"] == 1234.5678
    assert np.isnan(back[1]["cls_loss"])
    assert back[1]["epoch"] == 1
