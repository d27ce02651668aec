import os

import numpy as np
import pytest

from scanpose import autodiff as ad
from scanpose import cli
from scanpose import evalsim as ev
from scanpose import geometry as geo
from scanpose import pipeline as pl
from scanpose import ssm, tokens, training
from oracles import (attention_samples_loop, central_difference, head_composition,
                     project_ld, project_op_loop, rel_error, stencil_blocks,
                     triangulate_ld)
from test_geometry import mixed_size_rig
from test_ssm import naive_selective_scan


def tiny_scene(num_cameras=3, num_actors=1, joints=15, feature_dim=17, seed=7,
               **kw):
    cfg = ev.SceneConfig(num_actors=num_actors, num_cameras=num_cameras,
                         num_joints=joints, feature_dim=feature_dim,
                         joint_noise_mm=0.0, **kw)
    return ev.generate_scene(cfg, seed)


def tiny_config(scene, **kw):
    defaults = dict(num_layers=2, num_tokens=8, num_joints=scene.config.num_joints,
                    feature_dim=scene.config.feature_dim, num_points=2,
                    num_scales=scene.config.num_scales, d_state=2, head_hidden=8,
                    ground_bounds=scene.config.ground_bounds, init_seed=3)
    defaults.update(kw)
    return pl.PipelineConfig(**defaults)


# ---------------------------------------------------------------------------
# bilinear sampling
# ---------------------------------------------------------------------------

def as_joints(pos):
    """Positions (..., 2) as bilinear_op's (T, n, J, S, P, 2): one view, one
    token, one level and one point per joint."""
    return pos.reshape((1, 1, -1, 1, 1, 2))


def bilinear(grid, positions):
    """bilinear_op over a one-view, one-level pyramid holding grid (H, W, C),
    every view valid: positions (1, 1, M, 1, 1, 2) give (1, 1, M, C)."""
    pyramid = pl.FeaturePyramid(levels=(grid,))
    return pl.bilinear_op([pyramid], positions, np.ones(positions.shape[:3], bool))


def sample(grid, pos):
    """bilinear_op values at constant positions (..., 2): no derivative caches."""
    out = bilinear(grid, ad.Tensor(as_joints(pos))).data
    return out.reshape(pos.shape[:-1] + grid.shape[-1:])


def test_bilinear_grid_node_value():
    rng = np.random.default_rng(0)
    grid = rng.normal(size=(5, 7, 3))
    assert np.allclose(sample(grid, np.array([4.0, 2.0])), grid[2, 4])


def test_bilinear_constant_grid():
    grid = np.full((4, 4, 2), 3.25)
    for pos in ([0.3, 1.7], [2.5, 2.5], [-3.0, 9.0]):
        assert np.allclose(sample(grid, np.array(pos)), 3.25)


def test_bilinear_midpoint_is_four_node_mean():
    rng = np.random.default_rng(1)
    grid = rng.normal(size=(3, 3, 4))
    got = sample(grid, np.array([0.5, 1.5]))
    expect = (grid[1, 0] + grid[1, 1] + grid[2, 0] + grid[2, 1]) / 4.0
    assert np.allclose(got, expect)


def test_bilinear_border_clamp():
    rng = np.random.default_rng(2)
    grid = rng.normal(size=(4, 5, 2))
    assert np.allclose(sample(grid, np.array([-2.0, -2.0])), grid[0, 0])
    assert np.allclose(sample(grid, np.array([99.0, 99.0])), grid[-1, -1])


def test_bilinear_without_gradient_records_no_closure(monkeypatch):
    rng = np.random.default_rng(4)
    grid = rng.normal(size=(6, 8, 3)).astype(np.float32)  # pyramids are float32
    pos = rng.uniform(-1.0, 9.0, size=(4, 5, 2))
    made = []
    from_op = ad.from_op
    monkeypatch.setattr(ad, "from_op", lambda *args: made.append(args) or from_op(*args))
    out = bilinear(grid, ad.Tensor(as_joints(pos)))
    assert made == [] and out._node is None
    assert np.array_equal(out.data.reshape((4, 5, 3)), _lerp_bilinear(grid, pos)[0])
    taped = bilinear(grid, ad.parameter(as_joints(pos)))
    assert len(made) == 1 and taped._node.backward is not None
    assert np.array_equal(taped.data, out.data)


def test_bilinear_gradients_match_fd():
    rng = np.random.default_rng(3)
    grid = rng.normal(size=(6, 8, 3))
    pos = rng.uniform(0.6, 4.4, size=(5, 2)) + 0.017  # keep clear of lattice
    up = rng.normal(size=(5, 3))
    p_t = ad.parameter(as_joints(pos))
    (bilinear(grid, p_t) * up.reshape((1, 1, 5, 3))).sum().backward()
    step = 1e-6

    def loss(po):
        return float(np.sum(sample(grid, po) * up))

    fd_pos = np.zeros_like(pos)
    for i in range(pos.size):
        dp = np.zeros_like(pos)
        dp.flat[i] = step
        fd_pos.flat[i] = (loss(pos + dp) - loss(pos - dp)) / (2 * step)
    assert rel_error(p_t.grad.reshape(pos.shape), fd_pos) < 1e-6


def _corners(grid, pos):
    """The float64 fractions (fx, fy) and corners g00, g01, g10, g11 of the
    cell each clamped position falls in, and where each clamp is inactive."""
    g = np.asarray(grid, dtype=np.float64)
    H, W = g.shape[:2]
    x = np.clip(pos[..., 0], 0.0, W - 1.0)
    y = np.clip(pos[..., 1], 0.0, H - 1.0)
    x0 = np.clip(np.floor(x), 0, W - 2).astype(int)
    y0 = np.clip(np.floor(y), 0, H - 2).astype(int)
    fx, fy = (x - x0)[..., None], (y - y0)[..., None]
    in_x = ((pos[..., 0] > 0.0) & (pos[..., 0] < W - 1.0))[..., None]
    in_y = ((pos[..., 1] > 0.0) & (pos[..., 1] < H - 1.0))[..., None]
    return (fx, fy, g[y0, x0], g[y0, x0 + 1], g[y0 + 1, x0], g[y0 + 1, x0 + 1],
            in_x, in_y)


def _textbook_bilinear(grid, pos):
    """Bilinear value and its position derivatives, written out in float64
    from the product form; a derivative is zero where its clamp is active."""
    fx, fy, g00, g01, g10, g11, in_x, in_y = _corners(grid, pos)
    value = (1 - fy) * ((1 - fx) * g00 + fx * g01) + fy * ((1 - fx) * g10 + fx * g11)
    dvdx = np.where(in_x, (1 - fy) * (g01 - g00) + fy * (g11 - g10), 0.0)
    dvdy = np.where(in_y, (1 - fx) * (g10 - g00) + fx * (g11 - g01), 0.0)
    return value, dvdx, dvdy


def _lerp_bilinear(grid, pos):
    """The same value and derivatives as a lerp of lerps over the float64
    edge differences d0 = g01 - g00 and d1 = g11 - g10: top = g00 + fx d0,
    dvdy = (g10 + fx d1) - top, value = top + fy dvdy and
    dvdx = d0 + fy (d1 - d0); a derivative is zero where its clamp is active."""
    fx, fy, g00, g01, g10, g11, in_x, in_y = _corners(grid, pos)
    d0, d1 = g01 - g00, g11 - g10
    top = g00 + fx * d0
    dvdy = (g10 + fx * d1) - top
    value = top + fy * dvdy
    dvdx = d0 + fy * (d1 - d0)
    return value, np.where(in_x, dvdx, 0.0), np.where(in_y, dvdy, 0.0)


def _bilinear_case(dtype):
    """A grid (9, 12, 17) of the dtype and positions (6, 18, 2) on grid lines,
    inside, clamped at the borders and outside the image."""
    rng = np.random.default_rng(11)
    H, W = 9, 12
    grid = rng.normal(scale=3.0, size=(H, W, 17)).astype(dtype)
    xs = np.array([-4.0, 0.0, 1.0, 2.5, W - 2.0, W - 1.0, W + 3.0])
    ys = np.array([-2.0, 0.0, 3.0, 4.75, H - 1.0, H + 0.5])
    lattice = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    inside = rng.uniform([0.0, 0.0], [W - 1.0, H - 1.0], size=(60, 2))
    return grid, np.concatenate([lattice, inside]).reshape(6, -1, 2), rng


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bilinear_matches_textbook_expression_bit_for_bit(dtype):
    """Value and position gradient equal the float64 lerp-of-lerps expression
    exactly: on grid lines, inside, clamped at the borders and outside the
    image, where the position gradient is +0.0. A constant grid is not on
    the tape."""
    grid, pos, rng = _bilinear_case(dtype)
    H, W = grid.shape[:2]
    value, dvdx, dvdy = _lerp_bilinear(grid, pos)
    assert np.array_equal(sample(grid, pos), value)

    p_t = ad.parameter(as_joints(pos))
    node = bilinear(grid, p_t)
    assert np.array_equal(node.data.reshape(value.shape), value)
    assert node._node.parents == (p_t._node,)  # no grid copy
    up = rng.normal(size=value.shape)
    (gpos,) = node._node.backward(up.reshape(node.shape))
    want = np.stack([np.sum(up * dvdx, axis=-1), np.sum(up * dvdy, axis=-1)], axis=-1)
    assert np.array_equal(gpos.reshape(pos.shape), want)
    (gpos,) = node._node.backward(np.ones(node.shape))
    gpos = gpos.reshape(pos.shape)
    clamped = np.stack([(pos[..., 0] <= 0.0) | (pos[..., 0] >= W - 1.0),
                        (pos[..., 1] <= 0.0) | (pos[..., 1] >= H - 1.0)], axis=-1)
    assert clamped.any() and not clamped.all()
    assert np.all(gpos[clamped] == 0.0) and not np.signbit(gpos[clamped]).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lerp_of_lerps_is_within_rounding_of_product_form(dtype):
    """The lerp-of-lerps value and slopes that bilinear_op computes differ
    from the product form (1-fy)((1-fx) g00 + fx g01) + fy(...) only by
    reassociation: by at most 1e-15 of the largest corner, at the same
    points as the bit-for-bit test."""
    grid, pos, _ = _bilinear_case(dtype)
    scale = np.max(np.abs(grid.astype(np.float64)))
    got = pl._bilinear_forward(grid, pos, True)
    for name, a, b in zip(("value", "dvdx", "dvdy"), (got[0], *got[1]),
                          _textbook_bilinear(grid, pos)):
        assert np.max(np.abs(a - b)) <= 1e-15 * scale, name


# ---------------------------------------------------------------------------
# projection primitive
# ---------------------------------------------------------------------------

def test_project_op_matches_scalar_and_fd():
    scene = tiny_scene()
    rng = np.random.default_rng(4)
    pts = rng.uniform(-900.0, 900.0, size=(4, 3)) + np.array([0, 0, 1000.0])
    g_t = ad.parameter(pts)
    anchors, valid = pl.project_op(g_t, scene.rig)
    for t, projection in enumerate(scene.rig.projections):
        for b in range(4):
            if valid[t, b]:
                assert np.allclose(anchors.data[t, b], project_ld(projection, pts[b]))
    up = rng.normal(size=anchors.shape)
    (anchors * up).sum().backward()
    step = 1e-4
    fd = np.zeros_like(pts)
    projections = scene.rig.projections
    for i in range(pts.size):
        dp = np.zeros_like(pts)
        dp.flat[i] = step
        hi, _, vh = geo.project_batch(projections, pts + dp)
        lo, _, vl = geo.project_batch(projections, pts - dp)
        fd.flat[i] = float(np.sum((hi - lo) * up * valid[..., None]) / (2 * step))
    assert rel_error(g_t.grad, fd) < 1e-6


def oracle_cases():
    """(scene, token geometry, smoke pipeline config) for the smoke config's
    ten training scenes (seed 7, five cameras) and the benchmark's first
    three scene seeds at 3, 5 and 7 cameras. Token 0 is lifted 3 m, so it has
    masked and valid views; token 1 is sunk 50 m, so every view of it is
    masked."""
    cfg = cli.load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "configs", "smoke.json"))
    cases = [(cfg.seed + i, None) for i in range(cfg.num_scenes)]
    cases += [(seed, K) for seed in (1, 2, 3) for K in (3, 5, 7)]
    for seed, K in cases:
        scene = ev.generate_scene(cfg.scene, seed, num_cameras=K)
        geom = pl.init_token_state(cfg.pipeline, seed)
        geom[0] += [0.0, 0.0, 3000.0]
        geom[1] += [0.0, 0.0, -50000.0]
        yield scene, geom, cfg.pipeline


def attention_params(config, rng):
    """init_params with spread-out sampling offsets and sample weights."""
    params = pl.init_params(config, rng_seed=int(rng.integers(1 << 16)))
    for name in ("layer0.off_w", "layer0.alog_w", "layer0.alog_b"):
        params[name] = rng.normal(scale=0.5, size=params[name].shape)
    return params


def test_project_op_matches_loop_oracle_byte_for_byte():
    rng = np.random.default_rng(21)
    for scene, geom, _ in oracle_cases():
        got_g, want_g = ad.parameter(geom), ad.parameter(geom)
        got, got_valid = pl.project_op(got_g, scene.rig)
        want, want_valid = project_op_loop(want_g, scene.rig)
        assert got.data.tobytes() == want.data.tobytes()
        assert np.array_equal(got_valid, want_valid)
        assert not got_valid[:, 1].any()
        assert got_valid[:, 0].any() and not got_valid[:, 0].all()
        up = rng.normal(size=got.shape)
        (got * up).sum().backward()
        (want * up).sum().backward()
        assert got_g.grad.tobytes() == want_g.grad.tobytes()


def test_project_op_matches_loop_oracle_on_mixed_image_sizes():
    """Each view's bounds test uses that view's own image size."""
    rig = mixed_size_rig()
    _, geom, _ = next(oracle_cases())
    got_g, want_g = ad.parameter(geom), ad.parameter(geom)
    got, got_valid = pl.project_op(got_g, rig)
    want, want_valid = project_op_loop(want_g, rig)
    assert got.data.tobytes() == want.data.tobytes()
    assert np.array_equal(got_valid, want_valid)
    same_size = geo.CameraRig(projections=rig.projections,
                              sizes=np.tile(rig.sizes[0], (len(rig), 1)))
    assert not np.array_equal(got_valid, pl.project_op(ad.Tensor(geom), same_size)[1])
    up = np.random.default_rng(23).normal(size=got.shape)
    (got * up).sum().backward()
    (want * up).sum().backward()
    assert got_g.grad.tobytes() == want_g.grad.tobytes()


def test_attention_samples_match_loop_oracle_byte_for_byte():
    """Eval (plain weights) and train (parameters) forwards."""
    rng = np.random.default_rng(22)
    for scene, geom, config in oracle_cases():
        params = attention_params(config, rng)
        visual = params["person_embeds"][:, None] + params["joint_embeds"][None]
        anchors, valid = pl.project_op(ad.Tensor(geom), scene.rig)
        for tensors in ({k: ad.Tensor(v) for k, v in params.items()},
                        pl.params_to_tensors(params)):
            got = pl._attention_samples(ad.Tensor(visual), anchors, valid,
                                        scene.pyramids, tensors, "layer0.", config)
            want = attention_samples_loop(ad.Tensor(visual), anchors, valid,
                                          scene.pyramids, tensors, "layer0.", config)
            for a, b in zip(got, want):
                assert a.data.tobytes() == b.data.tobytes()
            assert not got[1].data[1].any()  # token 1 has no valid view


def test_attention_samples_gradients_match_loop_oracle():
    """Gradients of all three outputs under a random cotangent, with respect
    to the features, the anchors and the offset and weight projections.
    Only the weights' sum over views is reassociated."""
    rng = np.random.default_rng(23)
    names = ("layer0.off_w", "layer0.off_b", "layer0.alog_w", "layer0.alog_b")
    for scene, geom, config in oracle_cases():
        params = attention_params(config, rng)
        visual = params["person_embeds"][:, None] + params["joint_embeds"][None]
        anchors, valid = pl.project_op(ad.Tensor(geom), scene.rig)
        cotangents = None
        grads = []
        for attend_fn in (pl._attention_samples, attention_samples_loop):
            leaves = {"visual": ad.parameter(visual), "anchors": ad.parameter(anchors.data)}
            tensors = pl.params_to_tensors({k: params[k] for k in names})
            outs = attend_fn(leaves["visual"], leaves["anchors"], valid,
                             scene.pyramids, tensors, "layer0.", config)
            if cotangents is None:
                cotangents = [rng.normal(size=o.shape) for o in outs]
            sum((o * c).sum() for o, c in zip(outs, cotangents)).backward()
            leaves.update(tensors)
            grads.append({k: t.grad for k, t in leaves.items()})
        for name, got in grads[0].items():
            assert rel_error(got, grads[1][name]) < 1e-12, name


@pytest.mark.parametrize("tokens_, cameras", [(24, 5), (96, 7)], ids=["smoke", "wide"])
def test_bilinear_op_matches_per_block_composition_byte_for_byte(tokens_, cameras):
    """The stencil that bilinear_op writes from the positions
    _attention_samples forms, and its gradients to the offsets and the
    anchors, equal the per-(view, level) blocks that stencil_op assembled,
    byte for byte: at smoke and wide shape, with masked views (token 1 has
    none valid) and positions clamped at the grid border in valid views."""
    cfg = cli.load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "configs", "smoke.json"),
                          [f"pipeline.num_tokens={tokens_}", f"scene.num_cameras={cameras}"])
    scene = ev.generate_scene(cfg.scene, 1)
    geom = pl.init_token_state(cfg.pipeline, 1)
    geom[0] += [0.0, 0.0, 3000.0]
    geom[1] += [0.0, 0.0, -50000.0]
    anchors, valid = pl.project_op(ad.Tensor(geom), scene.rig)
    T, n, J, _ = anchors.shape
    S, P = cfg.pipeline.num_scales, cfg.pipeline.num_points
    rng = np.random.default_rng(tokens_)
    off = rng.normal(scale=20.0, size=(n, J, S, P, 2))
    upstream = rng.normal(size=(T, n, J, S * P * cfg.pipeline.feature_dim))
    results = []
    for build in ("op", "blocks"):
        leaves = {"anchors": ad.parameter(anchors.data), "off": ad.parameter(off)}
        if build == "op":
            positions = (leaves["anchors"].reshape((T, n, J, 1, 1, 2))
                         * pl.level_scales(S).reshape((S, 1, 1)) + leaves["off"])
            stencil = pl.bilinear_op(scene.pyramids, positions, valid)
        else:
            stencil = stencil_blocks(scene.pyramids, leaves["anchors"], leaves["off"], valid)
        (stencil * upstream).sum().backward()
        results.append((stencil.data, {k: t.grad for k, t in leaves.items()}))
    (got, got_grads), (want, want_grads) = results
    assert got.tobytes() == want.tobytes()
    for name in ("anchors", "off"):
        assert got_grads[name].tobytes() == want_grads[name].tobytes(), name
    assert not valid[:, 1].any() and valid.any()
    pos = positions.data
    sizes = np.array([[g.shape[1::-1] for g in pyr.levels[:S]] for pyr in scene.pyramids])
    clamped = ((pos <= 0.0) | (pos >= sizes.reshape((T, 1, 1, S, 1, 2)) - 1.0)).any(axis=-1)
    assert (clamped & valid[..., None, None]).any() and (~clamped & valid[..., None, None]).any()


@pytest.mark.parametrize("tokens_, cameras", [(24, 5), (96, 7)], ids=["smoke", "wide"])
def test_weighted_sum_op_matches_reduction_byte_for_byte(tokens_, cameras):
    """weighted_sum_op's slot-by-slot sum equals (x * w).sum(axis=4).sum(axis=3)
    byte for byte at smoke and wide shape (two scales, four points, L = 17,
    token 1 masked in every view, signed zeros included), and its gradients equal the broadcast
    products and sums written out."""
    T, n, J, S, P, L = cameras, tokens_, 15, 2, 4, 17
    rng = np.random.default_rng(tokens_)
    x = rng.normal(size=(T, n, J, S, P, L))
    x[:, 1] *= 0.0  # a masked token: -0.0 where the sample is negative
    w = rng.dirichlet(np.ones(S * P), size=(n, J))
    leaves = {"stencil": ad.parameter(x.reshape((T, n, J, -1))), "w": ad.parameter(w)}
    out = pl.weighted_sum_op(leaves["stencil"], leaves["w"], S)
    w6 = w.reshape((n, J, S, P, 1))
    assert out.data.tobytes() == (x * w6).sum(axis=4).sum(axis=3).tobytes()
    g = rng.normal(size=out.shape)
    (out * g).sum().backward()
    g6 = g[:, :, :, None, None]
    assert leaves["stencil"].grad.tobytes() == (g6 * w6).reshape((T, n, J, -1)).tobytes()
    assert leaves["w"].grad.tobytes() == (
        (g6 * x).sum(axis=0).sum(axis=-1).reshape((n, J, -1)).tobytes())


def test_bilinear_op_masked_views_get_zero_gradient_under_non_finite_cotangent():
    """A masked view's stencil entries are +0.0 whatever their cotangent: NaN
    and inf there give exactly +0.0 position gradients, and the valid views'
    gradients are the ones a finite cotangent gives."""
    rng = np.random.default_rng(31)
    grid = rng.normal(size=(6, 8, 5)).astype(np.float32)
    pyramids = [pl.FeaturePyramid(levels=(grid, grid[::2, ::2])) for _ in range(3)]
    pos = rng.uniform(-1.0, 7.0, size=(3, 2, 4, 2, 3, 2))
    valid = rng.uniform(size=(3, 2, 4)) < 0.5
    assert valid.any() and not valid.all()
    g = rng.normal(size=(3, 2, 4, 2 * 3 * 5))
    grads = []
    for bad in (None, np.nan, np.inf):
        cot = g.copy()
        if bad is not None:
            cot[~valid] = bad
        node = pl.bilinear_op(pyramids, ad.parameter(pos), valid)
        assert np.all(node.data[~valid] == 0.0)
        with np.errstate(invalid="ignore"):  # inf * 0 inside the masked blocks
            grads.append(node._node.backward(cot)[0])
    for grad in grads:
        assert np.all(grad[~valid] == 0.0) and not np.signbit(grad[~valid]).any()
        assert grad.tobytes() == grads[0].tobytes()


def test_head_op_matches_generic_composition():
    """head_op against the stack/concat/matmul/tanh composition it replaces,
    on a masked stencil: values within 1e-14 relative, since the split GEMM
    sums the stencil and x2 parts of each dot product separately, and
    gradients with respect to all four inputs at 1e-12."""
    rng = np.random.default_rng(24)
    for scene, geom, config in oracle_cases():
        params = attention_params(config, rng)
        visual = params["person_embeds"][:, None] + params["joint_embeds"][None]
        anchors, valid = pl.project_op(ad.Tensor(geom), scene.rig)
        _, _, stencil = pl._attention_samples(ad.Tensor(visual), anchors, valid,
                                              scene.pyramids, pl.params_to_tensors(params),
                                              "layer0.", config)
        inputs = {"stencil": stencil.data, "x2": visual + rng.normal(size=visual.shape),
                  "w1": params["layer0.head_w1"],
                  "b1": rng.normal(size=params["layer0.head_b1"].shape)}
        upstream = None
        results = []
        for head in (pl.head_op, head_composition):
            leaves = {k: ad.parameter(v) for k, v in inputs.items()}
            out = head(*leaves.values())
            if upstream is None:
                upstream = rng.normal(size=out.shape)
            (out * upstream).sum().backward()
            results.append((out.data, {k: t.grad for k, t in leaves.items()}))
        (got, got_grads), (want, want_grads) = results
        assert got.shape == want.shape
        assert rel_error(got, want) < 1e-14
        for name, grad in got_grads.items():
            assert rel_error(grad, want_grads[name]) < 1e-12, name


# ---------------------------------------------------------------------------
# projective attention
# ---------------------------------------------------------------------------

def token_from(config, params, idx=0):
    """(visual (J, L), geometry (J, 3)) of initial token idx."""
    visual = params["person_embeds"][idx][None, :] + params["joint_embeds"]
    return visual, pl.init_token_state(config)[idx]


def attend(token, pyramids, rig, params, config):
    """_attention_samples on one token (n = 1): returns (fused (J, L),
    anchors (T, J, 2), valid (T, J))."""
    visual, geometry = token
    anchors, valid = pl.project_op(ad.Tensor(geometry[None]), rig)
    _, fused, _ = pl._attention_samples(ad.Tensor(visual[None]), anchors, valid,
                                        pyramids, pl.params_to_tensors(params),
                                        "layer0.", config)
    return fused.data[0], anchors.data[:, 0], valid[:, 0]


def block(token, pyramids, rig, params, config):
    """_block_update on one token (n = 1): returns the new (J, L) features."""
    visual, geometry = token
    anchors, valid = pl.project_op(ad.Tensor(geometry[None]), rig)
    x2, _ = pl._block_update(ad.Tensor(visual[None]), anchors, valid, pyramids,
                             pl.params_to_tensors(params), "layer0.", config)
    return x2.data[0]


def test_attention_constant_pyramids_give_constant():
    scene = tiny_scene()
    config = tiny_config(scene)
    params = pl.init_params(config, rng_seed=1)
    const_pyramids = []
    value = np.arange(scene.config.feature_dim, dtype=float)
    for pyr in scene.pyramids:
        levels = tuple(np.broadcast_to(value, g.shape).copy() for g in pyr.levels)
        const_pyramids.append(pl.FeaturePyramid(levels=levels))
    token = token_from(config, params)
    feats, _, valid = attend(token, const_pyramids, scene.rig, params, config)
    assert valid.any(axis=0).all()
    assert np.max(np.abs(feats - value[None, :])) < 1e-12


def test_attention_single_view_zero_offsets_equals_anchor_sample():
    scene = tiny_scene(num_cameras=2)
    # aim the second camera away so every joint is valid only in view 0
    away = geo.look_at_camera((8000.0, 8000.0, 1500.0), (16000.0, 16000.0, 1500.0),
                              72.0, scene.config.image_width,
                              scene.config.image_height)
    rig = geo.CameraRig(projections=np.stack([scene.rig.projections[0], away]),
                        sizes=scene.rig.sizes)
    config = tiny_config(scene, num_points=1, num_scales=1)
    params = pl.init_params(config, rng_seed=2)
    params["layer0.off_w"][:] = 0.0
    params["layer0.off_b"][:] = 0.0
    template, _, _ = tokens.load_tpose(config.num_joints)
    token = (params["person_embeds"][0][None, :] + params["joint_embeds"],
             template)  # centered, surely in view 0
    pyramids = [scene.pyramids[0], scene.pyramids[0]]
    feats, anchors, valid = attend(token, pyramids, rig, params, config)
    assert valid[0].all() and not valid[1].any()
    for j in range(config.num_joints):
        expect, _, _ = _textbook_bilinear(scene.pyramids[0].levels[0], anchors[0, j])
        assert np.max(np.abs(feats[j] - expect)) < 1e-12


def test_attention_anchors_match_projection():
    scene = tiny_scene()
    config = tiny_config(scene)
    params = pl.init_params(config, rng_seed=3)
    _, geometry = token = token_from(config, params)
    _, anchors, valid = attend(token, scene.pyramids, scene.rig, params, config)
    for t, projection in enumerate(scene.rig.projections):
        for j in range(config.num_joints):
            if valid[t, j]:
                assert np.allclose(anchors[t, j], project_ld(projection, geometry[j]))


def test_refine_layer_token_outside_every_view_keeps_geometry():
    scene = tiny_scene()
    config = tiny_config(scene)
    rng = np.random.default_rng(4)
    params = pl.init_params(config, rng_seed=4)
    for k in params:  # live heads, so refined joints do move
        params[k] = params[k] + rng.normal(scale=0.05, size=params[k].shape)
    geom0 = pl.init_token_state(config)
    geom0[2] += np.array([0.0, 0.0, 9e7])  # lifted out of every view
    visual = ad.Tensor(params["person_embeds"][:, None, :]
                       + params["joint_embeds"][None, :, :])
    _, new_geom, _, conf, valid, flagged = pl.refine_layer(
        visual, ad.Tensor(geom0), scene.pyramids, scene.rig,
        pl.params_to_tensors(params), "layer0.", config)
    assert not valid[:, 2].any()
    assert np.all(conf.data[:, 2] == 0.0)
    assert flagged[2].all()
    assert np.array_equal(new_geom.data[2], geom0[2])
    others = np.arange(config.num_tokens) != 2
    assert not flagged[others].all()
    assert not np.array_equal(new_geom.data[others], geom0[others])


# ---------------------------------------------------------------------------
# block variants
# ---------------------------------------------------------------------------

def test_block_zero_output_weights_is_identity():
    scene = tiny_scene()
    config = tiny_config(scene)
    params = pl.init_params(config, rng_seed=5)  # output weights start at zero
    token = token_from(config, params)
    x2 = block(token, scene.pyramids, scene.rig, params, config)
    assert np.max(np.abs(x2 - token[0])) < 1e-12


def test_block_proj_attention_only_topology():
    scene = tiny_scene()
    config = tiny_config(scene, block_variant="proj_attention_only")
    rng = np.random.default_rng(6)
    params = pl.init_params(config, rng_seed=6)
    params["layer0.aout_w"] = rng.normal(scale=0.1, size=params["layer0.aout_w"].shape)
    token = token_from(config, params)
    x2 = block(token, scene.pyramids, scene.rig, params, config)
    # straight-line recomputation: the variant is exactly V + out_proj(fused)
    feats, _, _ = attend(token, scene.pyramids, scene.rig, params, config)
    expect = token[0] + feats @ params["layer0.aout_w"] + params["layer0.aout_b"]
    assert np.max(np.abs(x2 - expect)) < 1e-12


def test_block_full_pss_matches_straight_line_oracle():
    scene = tiny_scene()
    config = tiny_config(scene)
    rng = np.random.default_rng(7)
    params = pl.init_params(config, rng_seed=7)
    for k in params:  # make every path live
        params[k] = params[k] + rng.normal(scale=0.05, size=params[k].shape)
    visual, geometry = token = token_from(config, params)
    got = block(token, scene.pyramids, scene.rig, params, config)

    J, L = config.num_joints, config.feature_dim
    T = len(scene.rig)
    S, P = config.num_scales, config.num_points
    anchors = np.zeros((T, J, 2))
    valid = np.zeros((T, J), dtype=bool)
    for t, (projection, (w, hgt)) in enumerate(zip(scene.rig.projections, scene.rig.sizes)):
        for j in range(J):
            h = projection @ np.append(geometry[j], 1.0)
            if h[2] > geo.DEPTH_EPSILON:
                uv = h[:2] / h[2]
                if (-0.25 * w <= uv[0] <= 1.25 * w
                        and -0.25 * hgt <= uv[1] <= 1.25 * hgt):
                    anchors[t, j] = uv
                    valid[t, j] = True
    off = (visual @ params["layer0.off_w"]
           + params["layer0.off_b"]).reshape(J, S, P, 2)
    alog = (visual @ params["layer0.alog_w"]
            + params["layer0.alog_b"]).reshape(J, S * P)
    wsp = np.exp(alog - alog.max(axis=-1, keepdims=True))
    wsp = (wsp / wsp.sum(axis=-1, keepdims=True)).reshape(J, S, P)
    per_view = np.zeros((T, J, L))
    for t in range(T):
        for j in range(J):
            if not valid[t, j]:
                continue
            acc = np.zeros(L)
            for s in range(S):
                f = 0.5 ** s
                for q in range(P):
                    pos = anchors[t, j] * f + off[j, s, q]
                    acc += wsp[j, s, q] * _textbook_bilinear(
                        scene.pyramids[t].levels[s], pos)[0]
            per_view[t, j] = acc
    fused = per_view.sum(axis=0) / np.maximum(valid.sum(axis=0), 1)[:, None]
    x1 = visual + fused @ params["layer0.aout_w"] + params["layer0.aout_b"]
    items = per_view + x1[None, :, :]
    seq = items.reshape(T * J, L)
    order = np.arange(T * J)  # joints 1..J within view 1..T

    def sel(direction):
        return ssm.SelectiveParams(
            w_delta=params[f"layer0.{direction}_wdelta"],
            b_delta=params[f"layer0.{direction}_bdelta"],
            w_b=params[f"layer0.{direction}_wb"],
            w_c=params[f"layer0.{direction}_wc"],
            A=params["layer0.A"], D=params["layer0.Dss"])

    merged = np.zeros_like(seq)
    merged[order] = naive_selective_scan(sel("f"), seq[order])
    merged[order[::-1]] += naive_selective_scan(sel("b"), seq[order[::-1]])
    per_joint = merged.reshape(T, J, L).mean(axis=0)
    mu = per_joint.mean(-1, keepdims=True)
    var = ((per_joint - mu) ** 2).mean(-1, keepdims=True)
    normed = (per_joint - mu) / np.sqrt(var + 1e-6) * params["layer0.ln_g"] \
        + params["layer0.ln_b"]
    ffn = np.tanh(normed @ params["layer0.ffn_w1"] + params["layer0.ffn_b1"]) \
        @ params["layer0.ffn_w2"] + params["layer0.ffn_b2"]
    expect = x1 + ffn
    assert np.max(np.abs(got - expect)) < 1e-10


def test_mean_variant_invariant_to_view_permutation():
    scene = tiny_scene(num_cameras=4)
    config = tiny_config(scene, block_variant="mean")
    params = pl.init_params(config, rng_seed=8)
    token = token_from(config, params)
    base = block(token, scene.pyramids, scene.rig, params, config)
    perm = [2, 0, 3, 1]
    rig_p = geo.CameraRig(projections=scene.rig.projections[perm],
                          sizes=scene.rig.sizes[perm])
    pyr_p = [scene.pyramids[i] for i in perm]
    permuted = block(token, pyr_p, rig_p, params, config)
    assert np.max(np.abs(base - permuted)) < 1e-12


def test_all_variants_run_under_same_interface():
    scene = tiny_scene()
    outs = {}
    for variant in pl.BLOCK_VARIANTS:
        config = tiny_config(scene, block_variant=variant)
        params = pl.init_params(config, rng_seed=9)
        token = token_from(config, params)
        outs[variant] = block(token, scene.pyramids, scene.rig, params, config)
        assert outs[variant].shape == token[0].shape
        assert np.all(np.isfinite(outs[variant]))


# ---------------------------------------------------------------------------
# refine layer and pipeline
# ---------------------------------------------------------------------------

def test_refine_layer_zero_offsets_keeps_geometry():
    scene = tiny_scene()
    config = tiny_config(scene)
    params = pl.init_params(config, rng_seed=10)  # heads are zero at init
    tensors = pl.params_to_tensors(params)
    geom0 = pl.init_token_state(config)
    visual = ad.Tensor(params["person_embeds"][:, None, :]
                       + params["joint_embeds"][None, :, :])
    x2, new_geom, _, conf, valid, flagged = pl.refine_layer(
        visual, ad.Tensor(geom0), scene.pyramids, scene.rig, tensors,
        "layer0.", config)
    assert np.allclose(conf.data[valid], 0.5)
    moved = np.linalg.norm(new_geom.data - geom0, axis=-1)
    assert np.max(moved[~flagged]) < 1e-6
    assert np.all(new_geom.data[flagged] == geom0[flagged])


def test_refined_offsets_match_triangulation_oracle():
    scene = tiny_scene(num_cameras=3)
    X = np.array([250.0, -400.0, 1100.0])
    anchors = np.stack([project_ld(P, X) for P in scene.rig.projections])
    delta = np.zeros((3, 2))
    delta[1] = [5.0, 0.0]
    conf = np.full(3, 0.7)
    refined = anchors + delta
    pts, ok, _ = geo.triangulate_batch(refined[None], conf[None], scene.rig)
    assert ok[0]
    expect = triangulate_ld(refined, conf, scene.rig.projections, scene.rig.sizes)
    assert rel_error(pts[0], expect) < 1e-9


def test_zero_confidence_view_reproduces_two_view_solution():
    scene = tiny_scene(num_cameras=3)
    X = np.array([-150.0, 300.0, 1400.0])
    anchors = np.stack([project_ld(P, X) for P in scene.rig.projections])
    anchors[2] += [40.0, -25.0]  # corrupted outlier
    conf = np.array([1.0, 1.0, 0.0])
    u = ad.Tensor(anchors[None])
    c = ad.Tensor(conf[None])
    pts, ok = pl.triangulate_op(u, c, scene.rig)
    assert ok[0]
    assert np.max(np.abs(pts.data[0] - X)) < 1e-6


def test_triangulate_op_backward_matches_contracted_fd():
    """The backward of the pipeline's triangulation primitive, given a random
    cotangent, equals the central-difference Jacobian contracted with it;
    a masked view gets zero gradients and a not-ok row gets none at all."""
    scene = tiny_scene(num_cameras=4)
    rig = scene.rig
    rng = np.random.default_rng(61)
    B = 5
    pts = rng.uniform(-900.0, 900.0, size=(B, 3)) + np.array([0.0, 0.0, 1000.0])
    positions = np.stack([[project_ld(P, X) for P in rig.projections]
                          for X in pts]) + rng.normal(0.0, 1.5, size=(B, 4, 2))
    confs = rng.uniform(0.3, 1.0, size=(B, 4))
    confs[1, 2] = 0.0  # a masked view
    confs[3, 1:] = 0.0  # a single positive view: not ok
    cot = rng.normal(size=(B, 3))
    u, c = ad.parameter(positions), ad.parameter(confs)
    out, ok = pl.triangulate_op(u, c, rig)
    (out * cot).sum().backward()
    assert list(ok) == [True, True, True, False, True]
    assert np.all(u.grad[1, 2] == 0.0) and c.grad[1, 2] == 0.0
    assert np.all(out.data[3] == 0.0)
    assert np.all(u.grad[3] == 0.0) and np.all(c.grad[3] == 0.0)
    for b in np.nonzero(ok)[0]:
        def contracted(flat, b=b):
            x = flat.reshape(4, 3)
            return cot[b] @ geo.triangulate_batch(x[None, :, :2], x[None, :, 2], rig)[0][0]

        packed = np.concatenate([positions[b], confs[b][:, None]], axis=1)
        fd = central_difference(contracted, packed.ravel(), step=1e-4).reshape(4, 3)
        analytic = np.concatenate([u.grad[b], c.grad[b][:, None]], axis=1)
        assert rel_error(analytic, fd) < 1e-5


def test_pipeline_single_layer_composition():
    scene = tiny_scene()
    config = tiny_config(scene, num_layers=1)
    params = pl.init_params(config, rng_seed=11)
    tensors = pl.params_to_tensors(params)
    outputs, geom0 = pl.run_pipeline(scene.pyramids, scene.rig, tensors, config,
                                     mode="train")
    assert len(outputs) == 1
    visual = ad.Tensor(params["person_embeds"][:, None, :]
                       + params["joint_embeds"][None, :, :])
    x2, new_geom, refined, conf, valid, _ = pl.refine_layer(
        visual, ad.Tensor(geom0), scene.pyramids, scene.rig,
        pl.params_to_tensors(params), "layer0.", config)
    assert np.allclose(outputs[0].geometry.data, new_geom.data)
    assert np.allclose(outputs[0].scores.data, pl.score_op(x2, tensors).data)
    assert np.allclose(outputs[0].positions_2d.data, refined.data)


def test_pipeline_rejects_pyramids_that_do_not_fit_the_model():
    scene = tiny_scene()  # 2 levels of 17 channels
    params = pl.params_to_tensors(pl.init_params(tiny_config(scene), rng_seed=12))
    one_level = [pl.FeaturePyramid(levels=p.levels[:1]) for p in scene.pyramids]
    with pytest.raises(ValueError, match="needs 2 pyramid levels of 17 channels, "
                                         "got 1 levels of 17 channels"):
        pl.run_pipeline(one_level, scene.rig, params, tiny_config(scene))
    narrow = [pl.FeaturePyramid(levels=tuple(g[..., :9] for g in p.levels))
              for p in scene.pyramids]
    with pytest.raises(ValueError, match="got 2 levels of 9 channels"):
        pl.run_pipeline(narrow, scene.rig, params, tiny_config(scene))
    # more levels than the model reads are fine
    config = tiny_config(scene, num_scales=1)
    params = pl.params_to_tensors(pl.init_params(config, rng_seed=12))
    outputs, _ = pl.run_pipeline(scene.pyramids, scene.rig, params, config)
    assert np.all(np.isfinite(outputs[-1].geometry.data))


def test_pipeline_deterministic():
    scene = tiny_scene()
    config = tiny_config(scene)
    params = pl.init_params(config, rng_seed=12)
    runs = []
    for _ in range(2):
        outputs, _ = pl.run_pipeline(scene.pyramids, scene.rig,
                                     pl.params_to_tensors(params), config,
                                     mode="eval")
        runs.append(outputs[-1])
    assert np.array_equal(runs[0].geometry.data, runs[1].geometry.data)
    assert np.array_equal(runs[0].scores.data, runs[1].scores.data)


def test_pipeline_token_count_non_increasing_in_eval():
    scene = tiny_scene(num_actors=2)
    config = tiny_config(scene, num_layers=3, num_tokens=12, epsilon=0.25)
    rng = np.random.default_rng(13)
    params = pl.init_params(config, rng_seed=13)
    params["cls_w"] = rng.normal(scale=0.8, size=params["cls_w"].shape)
    params["cls_b"] = rng.normal(scale=0.5, size=2)
    outputs, _ = pl.run_pipeline(scene.pyramids, scene.rig,
                                 pl.params_to_tensors(params), config,
                                 mode="eval")
    counts = [o.geometry.data.shape[0] for o in outputs]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] <= config.num_tokens


def test_eval_keeps_no_token_when_every_score_is_below_epsilon():
    """Untrained scores are 0.5, so epsilon = 1 filters out every token of
    the last layer before its NMS: the layer keeps none, and the report
    counts no prediction."""
    scene = tiny_scene()
    config = tiny_config(scene, num_layers=1, epsilon=1.0)
    params = pl.init_params(config, rng_seed=12)
    outputs, _ = pl.run_pipeline(scene.pyramids, scene.rig,
                                 {k: ad.Tensor(v) for k, v in params.items()}, config,
                                 mode="eval")
    last, J = outputs[-1], config.num_joints
    assert last.kept.shape == (0,) and last.scores.data.shape == (0,)
    assert last.geometry.data.shape == (0, J, 3)
    assert last.positions_2d.data.shape == (3, 0, J, 2)
    report = ev.evaluate(last.geometry.data, last.scores.data, scene.gt_poses)
    assert report.num_predictions == 0 and not report.mpjpe_defined


@pytest.mark.parametrize("variant", pl.BLOCK_VARIANTS)
def test_eval_refines_no_token_after_an_earlier_layer_keeps_none(variant):
    """With two layers and epsilon = 1 the first layer keeps no token, so the
    second refines an empty token set: every sized reshape of zero tokens
    holds, and the report counts no prediction."""
    scene = tiny_scene()
    config = tiny_config(scene, num_layers=2, epsilon=1.0, block_variant=variant)
    params = pl.init_params(config, rng_seed=12)
    outputs, _ = pl.run_pipeline(scene.pyramids, scene.rig,
                                 {k: ad.Tensor(v) for k, v in params.items()}, config,
                                 mode="eval")
    J = config.num_joints
    for out in outputs:
        assert out.kept.shape == (0,) and out.geometry.data.shape == (0, J, 3)
        assert out.positions_2d.data.shape == (3, 0, J, 2)
    reports, mean_mpjpe, mean_ap25 = training.evaluate_model(params, config, [scene])
    assert reports[0].num_predictions == 0 and not reports[0].mpjpe_defined
    assert np.isnan(mean_mpjpe) and mean_ap25 == 0.0


def seeded_head_params(config, seed):
    """init_params with non-zero output heads, so every layer refines."""
    params = pl.init_params(config, rng_seed=seed)
    rng = np.random.default_rng(seed)
    for name in sorted(params):
        if name.split(".")[-1] in ("head_w2", "head_b2", "cls_w", "aout_w", "ffn_w2"):
            params[name] = rng.normal(scale=0.5, size=params[name].shape)
    return params


@pytest.mark.parametrize("cameras", [3, 5, 7])
def test_eval_on_plain_tensors_matches_taped_eval(cameras, monkeypatch):
    scene = tiny_scene(num_cameras=cameras, num_actors=2)
    config = tiny_config(scene, num_tokens=12, epsilon=0.4, nms_radius_mm=1500.0)
    params = seeded_head_params(config, 40 + cameras)
    features = []  # each layer's updated features, as score_op reads them
    score_op = pl.score_op

    def spy(visual, p):
        features.append(visual)
        return score_op(visual, p)

    monkeypatch.setattr(pl, "score_op", spy)
    plain, _ = pl.run_pipeline(scene.pyramids, scene.rig,
                               {k: ad.Tensor(v) for k, v in params.items()},
                               config, mode="eval", init_seed=5)
    taped, _ = pl.run_pipeline(scene.pyramids, scene.rig,
                               pl.params_to_tensors(params), config,
                               mode="eval", init_seed=5)
    fields = ("positions_2d", "confidences", "geometry", "scores")
    plain_features = features[:len(plain)]
    taped_features = features[len(plain):]
    for a, b, x_a, x_b in zip(plain, taped, plain_features, taped_features):
        for name in fields:
            assert np.array_equal(getattr(a, name).data, getattr(b, name).data)
            assert getattr(a, name)._node is None
        assert np.array_equal(x_a.data, x_b.data) and x_a._node is None
        assert np.array_equal(a.kept, b.kept)
        assert b.geometry._node.backward is not None  # the taped run records
    # the seeded heads move the joints and spread the scores
    init = pl.init_token_state(config, 5)[plain[-1].kept]
    moved = np.linalg.norm(plain[-1].geometry.data - init, axis=-1)
    assert np.mean(moved > 1.0) > 0.5
    assert 0 < len(plain[-1].kept) < config.num_tokens
    assert np.ptp(plain[0].scores.data) > 0.05


def test_model_container_roundtrip(tmp_path):
    scene = tiny_scene()
    config = tiny_config(scene)
    params = pl.init_params(config, rng_seed=14)
    path = str(tmp_path / "model.bin")
    pl.save_model(path, params, config, extra_meta={"epoch": 3})
    loaded, cfg2, meta = pl.load_model(path)
    assert cfg2 == config
    assert meta["epoch"] == 3
    assert set(loaded) == set(params)
    for k in params:
        assert np.array_equal(loaded[k], params[k])


# ---------------------------------------------------------------------------
# end-to-end gradients (subset; the full sweep runs in acceptance)
# ---------------------------------------------------------------------------

def e2e_probe(scene, config, params):
    """Smooth scalar probe over every pipeline output; mixers scale raw
    millimeter/pixel magnitudes near unity to keep finite differences well
    conditioned."""
    mixers = {}
    scales = {"g": 1e-3, "u": 1e-2, "c": 1.0, "s": 1.0}
    rng = np.random.default_rng(99)

    def loss_of(tensors):
        outputs, _ = pl.run_pipeline(scene.pyramids, scene.rig, tensors, config,
                                     mode="train")
        total = None
        for i, out in enumerate(outputs):
            for name, tens in (("g", out.geometry), ("u", out.positions_2d),
                               ("c", out.confidences), ("s", out.scores)):
                key = f"{name}{i}"
                if key not in mixers:
                    mixers[key] = rng.normal(size=tens.shape) * scales[name]
                term = (tens * mixers[key]).sum()
                total = term if total is None else total + term
        return total

    return loss_of


def test_end_to_end_gradients_sampled():
    scene = tiny_scene(num_cameras=2, joints=3, feature_dim=8,
                       image_width=64, image_height=48)
    config = tiny_config(scene, num_layers=2, num_tokens=4, num_points=2,
                         d_state=2, head_hidden=8, ffn_hidden=8,
                         max_offset_px=24.0)
    rng = np.random.default_rng(15)
    params = pl.init_params(config, rng_seed=15)
    for k in params:
        params[k] = params[k] + rng.normal(scale=0.05, size=params[k].shape)
    loss_of = e2e_probe(scene, config, params)
    tensors = pl.params_to_tensors(params)
    loss_of(tensors).backward()

    checked = 0
    worst = 0.0
    for name in sorted(params):
        arr = params[name]
        nidx = min(4, arr.size)
        flat_idx = rng.choice(arr.size, size=nidx, replace=False)
        for i in flat_idx:
            step = 1e-6 * max(1.0, abs(arr.flat[i]))
            for sgn in (+1, -1):
                pert = {k: v.copy() for k, v in params.items()}
                pert[name].flat[i] += sgn * step
                val = loss_of(pl.params_to_tensors(pert)).data
                if sgn > 0:
                    hi = float(val)
                else:
                    lo = float(val)
            fd = (hi - lo) / (2 * step)
            an = tensors[name].grad.flat[i] if tensors[name].grad is not None else 0.0
            denom = max(abs(fd), abs(an), 1e-4)
            worst = max(worst, abs(fd - an) / denom)
            checked += 1
    assert checked > 60
    assert worst < 1e-3, f"worst relative error {worst}"
