import dataclasses

import numpy as np
import pytest

from scanpose import autodiff as ad
from scanpose import pipeline as pl
from scanpose import tokens as tok
from oracles import greedy_pose_nms, grid_centers_loop
from test_pipeline import tiny_config, tiny_scene


BOUNDS = (-4000.0, -4000.0, 4000.0, 4000.0)
TEMPLATE = tok.load_tpose()[0]


def test_tpose_template_shape_and_limbs():
    joints, names, limbs = tok.load_tpose()
    assert joints.shape == (15, 3)
    assert len(names) == 15
    assert len(limbs) == 14
    for a, b in limbs:
        assert np.linalg.norm(joints[a] - joints[b]) > 0.0


def test_tpose_truncation_for_tiny_configs():
    joints, names, limbs = tok.load_tpose(num_joints=3)
    assert joints.shape == (3, 3)
    assert all(a < 3 and b < 3 for a, b in limbs)


# ---------------------------------------------------------------------------
# initial geometry (pipeline.init_token_state)
# ---------------------------------------------------------------------------

def token_config(n, bounds=BOUNDS, init_seed=0):
    return pl.PipelineConfig(num_tokens=n, ground_bounds=bounds, init_seed=init_seed)


def test_init_single_token_at_degenerate_bounds():
    point = (730.0, -520.0)
    config = token_config(1, (point[0], point[1], point[0], point[1]), init_seed=3)
    geometry = pl.init_token_state(config, 0)
    assert geometry.shape == (1, 15, 3)
    assert np.allclose(geometry[0], TEMPLATE + np.array([point[0], point[1], 0.0]))


def test_init_fixed_seed_is_bitwise_reproducible():
    a = pl.init_token_state(token_config(16), 7)
    b = pl.init_token_state(token_config(16), 7)
    assert np.array_equal(a, b)


def test_init_jitter_is_first_child_of_seed_sequence():
    # the stream fixes every token grid for a given model and scene seed;
    # moving it would change all fixed-seed outputs
    init_seed, scene_seed = 2, 1
    mix = (init_seed * 1000003 + scene_seed) % (2 ** 31 - 1)
    rng = np.random.default_rng(np.random.SeedSequence(mix).spawn(1)[0])
    centers = tok.grid_centers(9, BOUNDS, rng)
    expect = TEMPLATE[None] + np.concatenate([centers, np.zeros((9, 1))], axis=1)[:, None]
    config = token_config(9, init_seed=init_seed)
    assert np.array_equal(pl.init_token_state(config, scene_seed), expect)
    assert not np.allclose(pl.init_token_state(config, scene_seed + 1), expect)
    assert not np.allclose(pl.init_token_state(token_config(9, init_seed=3), scene_seed),
                           expect)


def test_grid_centers_match_per_token_loop_byte_for_byte():
    for n in (1, 9, 24, 96, 1000, 1024):
        got = tok.grid_centers(n, BOUNDS, np.random.default_rng(n))
        want = grid_centers_loop(n, BOUNDS, np.random.default_rng(n))
        assert got.shape == (n, 2) and got.tobytes() == want.tobytes()


def test_init_grid_covers_bounds_with_expected_pitch():
    n = 1024
    geometry = pl.init_token_state(token_config(n), 11)
    centers = geometry[:, 2, :2]  # mid-hip = center
    assert np.all(centers[:, 0] >= BOUNDS[0]) and np.all(centers[:, 0] <= BOUNDS[2])
    assert np.all(centers[:, 1] >= BOUNDS[1]) and np.all(centers[:, 1] <= BOUNDS[3])
    pitch = 8000.0 / 32  # 32 x 32 grid
    for i, c in enumerate(centers):
        col, row = i % 32, i // 32
        nominal = np.array([BOUNDS[0] + (col + 0.5) * pitch,
                            BOUNDS[1] + (row + 0.5) * pitch])
        assert np.max(np.abs(c - nominal)) <= 0.45 * pitch + 1e-9


# ---------------------------------------------------------------------------
# scoring (pipeline.score_op)
# ---------------------------------------------------------------------------

def scores_of(visual, W, b):
    classifier = {"cls_w": ad.Tensor(W), "cls_b": ad.Tensor(b)}
    return pl.score_op(ad.Tensor(visual), classifier).data


def test_score_zero_classifier_gives_half():
    visual = np.random.default_rng(4).normal(size=(5, 15, 6))
    assert np.allclose(scores_of(visual, np.zeros((6, 2)), np.zeros(2)), 0.5)


def test_score_saturated_positive_logit():
    visual = np.random.default_rng(5).normal(size=(3, 15, 6))
    scores = scores_of(visual, np.zeros((6, 2)), np.array([10.0, 0.0]))
    assert np.all(scores > 0.9999)


def test_score_matches_hand_computed_mean_of_sigmoids():
    rng = np.random.default_rng(6)
    visual = rng.normal(size=(4, 15, 5))
    W = rng.normal(size=(5, 2))
    b = rng.normal(size=2)
    scores = scores_of(visual, W, b)
    for v, s in zip(visual, scores):
        per_joint = [1.0 / (1.0 + np.exp(-(row @ W[:, 0] + b[0]))) for row in v]
        assert abs(s - np.mean(per_joint)) < 1e-12


def test_score_invariant_to_consistent_joint_permutation():
    rng = np.random.default_rng(7)
    visual = rng.normal(size=(3, 15, 5))
    W = rng.normal(size=(5, 2))
    b = rng.normal(size=2)
    perm = rng.permutation(15)
    assert np.allclose(scores_of(visual[:, perm], W, b), scores_of(visual, W, b))


# ---------------------------------------------------------------------------
# score filter (eval-mode run_pipeline)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scored():
    """A tiny scene and two-layer model with a live classifier, plus the
    first-layer score of every token (train mode keeps all tokens)."""
    scene = tiny_scene()
    config = tiny_config(scene, num_tokens=12)
    rng = np.random.default_rng(8)
    params = pl.init_params(config, rng_seed=8)
    params["cls_w"] = rng.normal(scale=0.8, size=params["cls_w"].shape)
    params["cls_b"] = rng.normal(scale=0.5, size=2)
    outputs, _ = pl.run_pipeline(scene.pyramids, scene.rig,
                                 pl.params_to_tensors(params), config, mode="train",
                                 scene_seed=scene.seed)
    return scene, config, params, outputs[0].scores.data


def first_layer_kept(scored, epsilon):
    """Token indices the eval-mode filter keeps after the first layer (only
    the last layer applies NMS)."""
    scene, config, params, _ = scored
    config = dataclasses.replace(config, epsilon=epsilon)
    outputs, _ = pl.run_pipeline(scene.pyramids, scene.rig,
                                 pl.params_to_tensors(params), config, mode="eval",
                                 scene_seed=scene.seed)
    return list(outputs[0].kept)


def test_filter_boundary_kept_by_geq_rule(scored):
    scores = scored[3]
    k = int(np.argsort(scores)[len(scores) // 2])
    eps = float(scores[k])
    assert k in first_layer_kept(scored, eps)
    assert k not in first_layer_kept(scored, float(np.nextafter(eps, 1.0)))


def test_filter_zero_epsilon_keeps_all(scored):
    assert first_layer_kept(scored, 0.0) == list(range(len(scored[3])))


def test_filter_matches_bruteforce(scored):
    scores = scored[3]
    eps = float(np.mean(scores))
    expect = [i for i, s in enumerate(scores) if s >= eps]
    assert 0 < len(expect) < len(scores)
    assert first_layer_kept(scored, eps) == expect


# ---------------------------------------------------------------------------
# pose NMS
# ---------------------------------------------------------------------------

def _pose_row(offset_mm, count):
    template, _, _ = tok.load_tpose()
    return np.stack([template + np.array([i * offset_mm, 0.0, 0.0])
                     for i in range(count)])


def test_nms_identical_poses_keeps_best():
    keep = tok.nms_keep_mask(_pose_row(0.0, 2), np.array([0.8, 0.9]), radius_mm=500.0)
    assert list(keep) == [False, True]


def test_nms_distant_poses_both_kept():
    keep = tok.nms_keep_mask(_pose_row(10000.0, 2), np.array([0.9, 0.8]),
                             radius_mm=500.0)
    assert keep.all()


def test_nms_chain_keeps_ends():
    # A-B-C spaced 400 mm
    keep = tok.nms_keep_mask(_pose_row(400.0, 3), np.array([0.9, 0.8, 0.7]),
                             radius_mm=500.0)
    assert list(keep) == [True, False, True]


def test_nms_matches_bruteforce_oracle():
    # integer joints and lattice shifts of radius / 2 along one axis put many
    # pairs at exactly the radius; four score values give many ties
    radius = 500.0
    at_radius = tied = 0
    for seed in range(240):
        rng = np.random.default_rng(seed)
        n, J = int(rng.integers(1, 25)), int(rng.integers(1, 16))
        base = rng.integers(-300, 301, size=(J, 3)).astype(float)
        geometry = np.empty((n, J, 3))
        for i in range(n):
            if rng.uniform() < 0.6:
                geometry[i] = base
                geometry[i, :, rng.integers(0, 3)] += 250.0 * rng.integers(-4, 5)
            else:
                geometry[i] = base + rng.integers(-1000, 1001, size=(J, 3))
        scores = rng.choice([0.2, 0.5, 0.7, 0.9], size=n)
        keep = tok.nms_keep_mask(geometry, scores, radius_mm=radius)
        assert keep.dtype == bool
        assert list(keep) == greedy_pose_nms(geometry, scores, radius)
        dist = np.linalg.norm(geometry[:, None] - geometry[None], axis=-1).mean(-1)
        at_radius += bool(np.any(dist == radius))
        tied += len(np.unique(scores)) < n
    assert at_radius > 100 and tied > 150


def test_pose_distances_match_per_pair_row_and_column_expressions():
    """Bit for bit: the per-pair mean joint distance, the per-row one (the
    NMS, and evalsim.greedy_match, which training.match_gt calls with the
    ground truths as rows) and the per-column one."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n, m, J = (int(v) for v in rng.integers(1, [30, 6, 20]))
        a = rng.normal(scale=rng.uniform(1.0, 3000.0), size=(n, J, 3))
        b = rng.normal(scale=rng.uniform(1.0, 3000.0), size=(m, J, 3))
        dist = tok.pose_distances(a, b)
        assert dist.shape == (n, m)
        for i in range(n):
            row = np.mean(np.linalg.norm(a[i] - b, axis=-1), axis=-1)
            assert dist[i].tobytes() == row.tobytes()
            for z in range(m):
                assert dist[i, z] == np.mean(np.linalg.norm(a[i] - b[z], axis=-1))
        for z in range(m):
            col = np.mean(np.linalg.norm(a - b[z][None], axis=-1), axis=-1)
            assert dist[:, z].tobytes() == col.tobytes()
    with pytest.raises(ValueError):
        tok.pose_distances(np.zeros((2, 15, 3)), np.zeros((1, 14, 3)))


def test_filter_then_nms_idempotent():
    rng = np.random.default_rng(12)
    template, _, _ = tok.load_tpose()
    centers = rng.uniform(-2000, 2000, size=(12, 2))
    geometry = template[None] + np.concatenate([centers, np.zeros((12, 1))],
                                               axis=1)[:, None]
    scores = rng.uniform(size=12)

    def stage(g, s):
        idx = np.nonzero(s >= 0.3)[0]
        idx = idx[tok.nms_keep_mask(g[idx], s[idx], radius_mm=800.0)]
        return g[idx], s[idx]

    once = stage(geometry, scores)
    twice = stage(*once)
    assert 0 < len(once[1]) < 12
    assert np.array_equal(once[0], twice[0])
    assert np.array_equal(once[1], twice[1])
