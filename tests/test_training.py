import os
import tracemalloc

import numpy as np
import pytest

from scanpose import autodiff as ad
from scanpose import cli
from scanpose import evalsim as ev
from scanpose import pipeline as pl
from scanpose import ssm
from scanpose import training as tr
from scanpose.tokens import load_tpose
from oracles import project_ld
from test_pipeline import seeded_head_params


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


# ---------------------------------------------------------------------------
# ground-truth matching
# ---------------------------------------------------------------------------

def test_match_token_anchored_at_gt_is_positive():
    template, _, _ = load_tpose(4)
    anchors = np.stack([template + np.array([x, 0.0, 0.0])
                        for x in (-3000.0, 0.0, 3000.0)])
    token_to_gt = tr.match_gt(anchors, template[None])
    assert token_to_gt[1] == 0
    assert token_to_gt[0] == -1 and token_to_gt[2] == -1


def test_match_w1_single_gt_takes_global_nearest():
    rng = np.random.default_rng(1)
    template, _, _ = load_tpose(4)
    offsets = rng.uniform(-4000, 4000, size=(8, 3)) * np.array([1, 1, 0])
    anchors = template[None] + offsets[:, None, :]
    human = template + np.array([123.0, -77.0, 0.0])
    token_to_gt = tr.match_gt(anchors, human[None])
    dists = np.mean(np.linalg.norm(anchors - human[None], axis=-1), axis=-1)
    assert token_to_gt[int(np.argmin(dists))] == 0
    assert (token_to_gt >= 0).sum() == 1


def test_match_insufficient_tokens():
    template, _, _ = load_tpose(2)
    anchors = template[None]
    humans = np.stack([template, template + 100.0])
    with pytest.raises(ValueError, match="1 tokens cannot host 2 humans"):
        tr.match_gt(anchors, humans)


def test_match_stable_under_index_permutation():
    rng = np.random.default_rng(2)
    template, _, _ = load_tpose(3)
    offsets = rng.uniform(-4000, 4000, size=(10, 3)) * np.array([1, 1, 0])
    anchors = template[None] + offsets[:, None, :]
    humans = np.stack([template + np.array([500.0, 0, 0]),
                       template + np.array([-2000.0, 900.0, 0])])
    a = tr.match_gt(anchors, humans)
    perm = rng.permutation(10)
    b = tr.match_gt(anchors[perm], humans)
    # relabeled positive sets coincide: token i of the permuted match is
    # token perm[i] of the first one
    for z in range(2):
        orig = {int(i) for i in np.nonzero(a == z)[0]}
        permuted = {int(perm[i]) for i in np.nonzero(b == z)[0]}
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


def _loss_fixture(J=3, T=2, N=4, token_to_gt=(-1, 0, -1, -1)):
    """(rng, (humans, gt_uv, gt_valid), token_to_gt, J, T, N): the ground
    truth in the layout scene_loss hands pose_loss, (Z, J, 3), (T, Z, J, 2)
    and (T, Z, J), with Z one more than the largest matched index."""
    rng = np.random.default_rng(3)
    token_to_gt = np.array(token_to_gt)
    Z = int(token_to_gt.max()) + 1
    humans = rng.normal(scale=500.0, size=(Z, J, 3))
    gt_uv = rng.normal(scale=30.0, size=(T, Z, J, 2))
    gt_valid = np.ones((T, Z, J), dtype=bool)
    return rng, (humans, gt_uv, gt_valid), token_to_gt, J, T, N


def test_pose_loss_perfect_predictions_zero():
    rng, gt, token_to_gt, J, T, N = _loss_fixture()
    humans, gt_uv, _ = gt
    geometry = np.zeros((N, J, 3))
    geometry[1] = humans[0]
    est = np.zeros((T, N, J, 2))
    est[:, 1] = gt_uv[:, 0]
    out = _layer_stub(geometry, est, np.ones((T, N, J), dtype=bool))
    assert float(tr.pose_loss(token_to_gt, [out], *gt).data) == 0.0


def test_pose_loss_single_joint_l1_is_six():
    rng, gt, token_to_gt, J, T, N = _loss_fixture()
    humans, gt_uv, _ = gt
    geometry = np.zeros((N, J, 3))
    geometry[1] = humans[0]
    geometry[1, 0] += np.array([1.0, 2.0, 3.0])
    est = np.zeros((T, N, J, 2))
    est[:, 1] = gt_uv[:, 0]
    out = _layer_stub(geometry, est, np.ones((T, N, J), dtype=bool))
    assert float(tr.pose_loss(token_to_gt, [out], *gt).data) == pytest.approx(6.0)


def test_pose_loss_matches_recomputation_and_sums_layers():
    """One actor seen by two views, and two actors seen by three views with
    positives at two other tokens, matched out of index order and with some
    ground-truth joints invalid: a (Z, T) and (T, Z) mix-up cannot pass."""
    for kw in ({}, dict(T=3, token_to_gt=(1, -1, -1, 0))):
        rng, gt, token_to_gt, J, T, N = _loss_fixture(**kw)
        humans, gt_uv, gt_valid = gt
        if kw:
            gt_valid[:] = rng.uniform(size=gt_valid.shape) > 0.2
        outs = []
        expect = 0.0
        for _ in range(2):
            geometry = rng.normal(scale=400.0, size=(N, J, 3))
            est = rng.normal(scale=25.0, size=(T, N, J, 2))
            valid = rng.uniform(size=(T, N, J)) > 0.3
            outs.append(_layer_stub(geometry, est, valid))
            for n, z in enumerate(token_to_gt):
                if z < 0:
                    continue
                expect += np.abs(geometry[n] - humans[z]).sum()
                mask = valid[:, n] & gt_valid[:, z]
                expect += (np.abs(est[:, n] - gt_uv[:, z]) * mask[..., None]).sum()
        got = float(tr.pose_loss(token_to_gt, outs, *gt).data)
        assert got == pytest.approx(expect, rel=1e-12)


def test_pose_loss_invariant_to_negative_reordering():
    rng, gt, token_to_gt, J, T, N = _loss_fixture()
    geometry = rng.normal(scale=400.0, size=(N, J, 3))
    est = rng.normal(scale=25.0, size=(T, N, J, 2))
    valid = np.ones((T, N, J), dtype=bool)
    base = float(tr.pose_loss(token_to_gt, [_layer_stub(geometry, est, valid)],
                              *gt).data)
    perm = [2, 1, 3, 0]  # permutes negatives, keeps the positive at index 1
    geometry2 = geometry[perm]
    est2 = est[:, perm]
    got = float(tr.pose_loss(token_to_gt, [_layer_stub(geometry2, est2, valid)],
                             *gt).data)
    assert got == pytest.approx(base, rel=1e-12)


def test_pose_loss_zero_gradient_for_negative_geometry():
    rng, gt, token_to_gt, J, T, N = _loss_fixture()
    geometry = ad.parameter(rng.normal(scale=400.0, size=(N, J, 3)))
    est = ad.parameter(rng.normal(scale=25.0, size=(T, N, J, 2)))
    valid = np.ones((T, N, J), dtype=bool)
    out = _layer_stub(geometry, est, valid)
    tr.pose_loss(token_to_gt, [out], *gt).backward()
    negatives = [0, 2, 3]
    assert np.all(geometry.grad[negatives] == 0.0)
    assert np.any(geometry.grad[1] != 0.0)
    assert np.all(est.grad[:, negatives] == 0.0)


def test_classification_loss_perfect_is_zero():
    scores = ad.Tensor(np.array([1.0, 0.0, 0.0]))
    assert float(tr.classification_loss(np.array([0, -1, -1]), scores).data) < 1e-9


def test_classification_loss_half_is_ln2():
    scores = ad.Tensor(np.full(4, 0.5))
    got = float(tr.classification_loss(np.array([0, -1, -1, -1]), scores).data)
    assert got == pytest.approx(np.log(2.0), rel=1e-12)


def test_classification_loss_matches_scalar_recomputation():
    rng = np.random.default_rng(4)
    labels = np.array([1, 0, 0, 1, 0])
    s = rng.uniform(0.05, 0.95, size=5)
    got = float(tr.classification_loss(np.where(labels > 0, 0, -1), ad.Tensor(s)).data)
    expect = np.mean([-(y * np.log(p) + (1 - y) * np.log(1 - p))
                      for y, p in zip(labels, s)])
    assert got == pytest.approx(expect, rel=1e-12)


def test_classification_loss_clamp_stops_gradient_but_not_nan():
    """Scores outside [floor, 1 - floor] are clamped and get no gradient; a
    NaN score is not clamped, so it reaches the loss and its gradient."""
    scores = ad.parameter(np.array([0.0, 1.0, 0.3, 1.0 - 1e-13, np.nan]))
    loss = tr.classification_loss(np.array([0, -1, 0, -1, -1]), scores)
    loss.backward()
    assert np.isnan(loss.data)
    assert np.all(scores.grad[[0, 1, 3]] == 0.0)
    assert np.isfinite(scores.grad[2]) and scores.grad[2] != 0.0
    assert np.isnan(scores.grad[4])


# ---------------------------------------------------------------------------
# ground truth projections
# ---------------------------------------------------------------------------

def test_gts_projections_recomputed_from_rig(monkeypatch):
    """The 2D targets scene_loss hands pose_loss are the ground truth
    reprojected through the scene's rig, in the (T, Z, J) layout."""
    scene = small_scene()
    config = small_config(scene)
    seen = []
    pose_loss = tr.pose_loss

    def spy(token_to_gt, layer_outputs, humans, gt_uv, gt_valid):
        seen.append((humans, gt_uv, gt_valid))
        return pose_loss(token_to_gt, layer_outputs, humans, gt_uv, gt_valid)

    monkeypatch.setattr(tr, "pose_loss", spy)
    tr.scene_loss(pl.params_to_tensors(pl.init_params(config, rng_seed=2)),
                  scene, config, tr.TrainConfig())
    [(humans, gt_uv, gt_valid)] = seen
    assert np.array_equal(humans, scene.gt_poses)
    assert gt_uv.shape == (len(scene.rig),) + scene.gt_poses.shape[:2] + (2,)
    assert gt_valid.any()
    for t, projection in enumerate(scene.rig.projections):
        for z in range(scene.gt_poses.shape[0]):
            for j in range(scene.config.num_joints):
                if gt_valid[t, z, j]:
                    assert np.allclose(gt_uv[t, z, j],
                                       project_ld(projection, scene.gt_poses[z, j]))


# ---------------------------------------------------------------------------
# optimizer and loop
# ---------------------------------------------------------------------------

def test_adam_step_needs_every_gradient():
    """A parameter without a gradient is an error, not a silent no-op."""
    params = {"a": np.ones(2), "b": np.ones(3)}
    with pytest.raises(KeyError, match="b"):
        tr.adam_step(params, {"a": np.ones(2)}, tr.adam_init(params), lr=0.1)


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
    with pytest.raises(FloatingPointError, match="non-finite parameters at step 0"):
        tr.train(config, [scene], rng_seed=8,
                 train_cfg=tr.TrainConfig(steps=1), initial_params=bad)


def test_divergence_detected_after_the_last_update(monkeypatch):
    """A non-finite parameter that the last update writes raises; train does
    not return it."""
    scene = small_scene()
    config = small_config(scene)
    adam_step = tr.adam_step

    def nan_on_step_3(params, grads, state, lr):
        out = adam_step(params, grads, state, lr)
        if state["t"] == 3:
            out["joint_embeds"][0, 0] = np.nan
        return out

    monkeypatch.setattr(tr, "adam_step", nan_on_step_3)
    with pytest.raises(FloatingPointError, match="non-finite parameters at step 3"):
        tr.train(config, [scene], rng_seed=8, train_cfg=tr.TrainConfig(steps=3))


@pytest.mark.parametrize("variant", pl.BLOCK_VARIANTS)
def test_every_parameter_gets_a_gradient(variant):
    """init_params makes exactly what the variant's forward reads: after one
    scene_loss and backward every parameter tensor has a gradient."""
    scene = small_scene()
    config = small_config(scene, num_layers=2, block_variant=variant)
    tensors = pl.params_to_tensors(pl.init_params(config, rng_seed=4))
    total, _, _ = tr.scene_loss(tensors, scene, config, tr.TrainConfig())
    total.backward()
    unread = sorted(k for k, t in tensors.items() if t.grad is None)
    assert not unread, f"{variant} never reads {unread}"


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


def smoke_forward():
    """The smoke config's first training scene and seed-initialised parameter
    tensors, as the first step of `scanpose train --seed 1` sees them."""
    cfg = cli.load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "configs", "smoke.json"), seed_override=1)
    scene = ev.generate_scene(cfg.scene, seed=cfg.seed)  # the first training scene
    return cfg, scene, pl.params_to_tensors(pl.init_params(cfg.pipeline, cfg.seed))


def smoke_forward_live_mb():
    """(loss, parameter tensors, MB the forward leaves live) of one smoke step."""
    cfg, scene, tensors = smoke_forward()
    tracemalloc.start()
    try:
        total, _, _ = tr.scene_loss(tensors, scene, cfg.pipeline, cfg.train)
        live_mb = tracemalloc.get_traced_memory()[0] / 2 ** 20
    finally:
        tracemalloc.stop()
    return total, tensors, live_mb


# the forward of one smoke step leaves 20.4 MB live (31.8 MB when this bound
# was set); it left 63.3 MB when every intermediate stayed alive, before the
# tape kept only what the backward reads
SMOKE_TAPE_BOUND_MB = 45.0
# it left 36.0 MB live, against 31.8 MB, while the tape held the
# (T, n, J, S, P, L) sample stencil twice: once in the weighted product and
# once in the offset head's concatenation with x2
SMOKE_TAPE_STENCIL_ONCE_BOUND_MB = 34.0
# today's forward leaves 20.4 MB live, and 24.2 MB when weighted_sum_op's
# closure keeps its own copy of the stencil. The companion bound sits 1.9 MB
# (9%) above the first and 1.9 MB below the second
SMOKE_TAPE_STENCIL_ONCE_TIGHT_BOUND_MB = 22.3
# with the loss still held after backward(), one smoke step leaves 1.2 MB
# live in a fresh process (0.2 MB once warm); it left 20.6-21.5 MB while
# backward() left every closure on the tape. The bound sits 3.8 MB above the
# first and 15.6 MB below the second
SMOKE_KEPT_LOSS_BOUND_MB = 5.0


def test_smoke_forward_tape_stays_small():
    total, tensors, live_mb = smoke_forward_live_mb()
    assert live_mb <= SMOKE_TAPE_BOUND_MB, f"{live_mb:.1f} MB live after the forward"
    total.backward()
    assert tensors["layer0.off_w"].grad is not None


def test_smoke_kept_loss_holds_no_tape():
    """A caller that keeps the loss after backward() keeps only its value
    and the parameters' gradients, not the forward's caches."""
    cfg, scene, tensors = smoke_forward()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        total, _, _ = tr.scene_loss(tensors, scene, cfg.pipeline, cfg.train)
        total.backward()
        kept_mb = (tracemalloc.get_traced_memory()[0] - before) / 2 ** 20
    finally:
        tracemalloc.stop()
    assert np.isfinite(total.data)
    assert kept_mb <= SMOKE_KEPT_LOSS_BOUND_MB, f"{kept_mb:.1f} MB live after backward()"


def test_smoke_forward_tape_holds_the_stencil_once():
    _, _, live_mb = smoke_forward_live_mb()
    assert live_mb <= SMOKE_TAPE_STENCIL_ONCE_BOUND_MB, \
        f"{live_mb:.1f} MB live after the forward"
    assert live_mb <= SMOKE_TAPE_STENCIL_ONCE_TIGHT_BOUND_MB, \
        f"{live_mb:.1f} MB live after the forward"


def _holds_tensor(value):
    if isinstance(value, ad.Tensor):
        return True
    if isinstance(value, dict):
        value = list(value.keys()) + list(value.values())
    return isinstance(value, (list, tuple)) and any(_holds_tensor(v) for v in value)


def test_backward_closures_capture_no_tensor():
    """autodiff's retention rule on a whole smoke tape: no backward closure
    captures a Tensor, alone or in a list, tuple or dict. A captured Tensor
    keeps its data, and a captured list of them keeps every item's data,
    alive until the tape is freed."""
    cfg, scene, tensors = smoke_forward()
    total, _, _ = tr.scene_loss(tensors, scene, cfg.pipeline, cfg.train)
    nodes = ad._toposort(total._node)
    closures = [node.backward for node in nodes if node.backward is not None]
    # the tape has 164 closures (182 before LayerNorm was one primitive, 242
    # before bilinear_op wrote the stencil)
    assert len(closures) > 150
    primitives = {"bilinear_op", "weighted_sum_op", "head_op", "selective_scan_op",
                  "triangulate_op", "layer_norm"}
    reached = {fn.__qualname__.split(".")[0] for fn in closures}
    assert primitives <= reached, f"the walk missed {sorted(primitives - reached)}"
    capturing = sorted({fn.__qualname__ for fn in closures
                        for cell in fn.__closure__ or ()
                        if _holds_tensor(cell.cell_contents)})
    assert not capturing, f"backward closures that capture a Tensor: {capturing}"


# three smoke steps of training.train peak at 44.9 MB when each step's tape
# is freed before the next forward, and at 73.6 MB when the previous tape
# stays alive through it
SMOKE_TRAIN_PEAK_BOUND_MB = 55.0


def test_train_frees_each_step_tape_before_the_next_forward():
    cfg = cli.load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "configs", "smoke.json"),
                          overrides=["num_scenes=2"], seed_override=1)
    scenes = cli.build_scenes(cfg)
    tcfg = tr.TrainConfig(steps=3, learning_rate=cfg.train.learning_rate,
                          val_fraction=0.0)
    tracemalloc.start()
    try:
        tr.train(cfg.pipeline, scenes, rng_seed=cfg.seed, train_cfg=tcfg)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak_mb <= SMOKE_TRAIN_PEAK_BOUND_MB, f"{peak_mb:.1f} MB peak"


# the same smoke forward records 173 autodiff.from_op nodes with one sampling,
# one weighted sum, one offset-head and one LayerNorm primitive per layer and
# one clamp in the classification loss; it recorded 191 when LayerNorm was
# built from generic ops, 269 when the sampling took one
# position Tensor and one bilinear block per (view, level), put together by
# a stencil primitive, 293 when generic ops built the stencil and the head,
# and 405 when the attention block built its weighted sums one (view, scale)
# at a time
SMOKE_TAPE_NODES = 173


def test_smoke_forward_records_no_more_tape_nodes(monkeypatch):
    cfg, scene, tensors = smoke_forward()
    nodes = []
    from_op = ad.from_op

    def counting(data, parents, backward):
        nodes.append(None)
        return from_op(data, parents, backward)

    monkeypatch.setattr(ad, "from_op", counting)
    tr.scene_loss(tensors, scene, cfg.pipeline, cfg.train)
    assert len(nodes) <= SMOKE_TAPE_NODES, f"{len(nodes)} tape nodes"


def test_scan_output_layout_does_not_move_scene_loss(monkeypatch):
    """The same scan values in a step-major and a state-major layout give
    byte-identical losses and gradients at seeded heads: no sum downstream
    of the scan follows its caller's memory layout."""
    cfg, scene, _ = smoke_forward()
    params = seeded_head_params(cfg.pipeline, cfg.seed)
    scan = ssm.selective_scan_batch
    layouts = {"step-major": (1, 0, 2), "state-major": (2, 1, 0)}  # (B, T, L) axes
    results = {}
    for name, axes in layouts.items():
        def relaid(sel, x, axes=axes):
            y, cache = scan(sel, x)
            return np.transpose(np.ascontiguousarray(np.transpose(y, axes)), np.argsort(axes)), cache

        monkeypatch.setattr(ssm, "selective_scan_batch", relaid)
        tensors = pl.params_to_tensors(params)
        total, _, _ = tr.scene_loss(tensors, scene, cfg.pipeline, cfg.train)
        total.backward()
        assert all(t.grad is not None for t in tensors.values())
        results[name] = [total.data.tobytes()] + [
            np.ascontiguousarray(tensors[k].grad).tobytes() for k in sorted(tensors)]
    assert results["step-major"][0] == results["state-major"][0]
    assert results["step-major"] == results["state-major"]


def test_metrics_csv_roundtrip(tmp_path):
    """Metric rows kept in a model's meta load back exactly, -0.0, nan, inf
    and every float repr included, so metrics.csv written from the loaded
    rows has the bytes of metrics.csv written from the rows themselves."""
    rows = [{"epoch": 0, "pose_loss": 0.1 + 0.2, "cls_loss": float("nan"),
             "val_mpjpe_mm": float("inf"), "ap25": -0.0},
            {"epoch": 1, "pose_loss": 12.5, "cls_loss": 0.7,
             "val_mpjpe_mm": 1234.5678, "ap25": 1 / 3}]
    config = pl.PipelineConfig(num_layers=1, num_tokens=2, num_joints=2, feature_dim=4,
                               num_points=1, num_scales=1, d_state=1, head_hidden=1)
    model = str(tmp_path / "model.bin")
    pl.save_model(model, pl.init_params(config, 0), config, extra_meta={"metrics": rows})
    back = tr.metric_rows(pl.load_model(model)[2], model)
    assert [type(r["epoch"]) for r in back] == [int, int]
    tr.write_metrics_csv(str(tmp_path / "written.csv"), rows)
    tr.write_metrics_csv(str(tmp_path / "loaded.csv"), back)
    text = (tmp_path / "loaded.csv").read_bytes()
    assert text == (tmp_path / "written.csv").read_bytes()
    assert text.splitlines()[1] == b"0,0.30000000000000004,nan,inf,-0.0"
