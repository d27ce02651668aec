import os

import numpy as np
import pytest

from scanpose import cli, evalsim
from scanpose import geometry as geo
from oracles import (central_difference, normalized_camera_loop, project_ld,
                     rel_error, triangulate_ld)

IDENTITY = np.hstack([np.eye(3), np.zeros((3, 1))])


def rig_of(projections, width, height):
    """A rig of the stacked projections, every view width x height pixels."""
    return geo.CameraRig(projections=np.asarray(projections, dtype=float),
                         sizes=np.tile([width, height], (len(projections), 1)))


def ring_rig(num_views, rng, width=256, height=192, radius=(4500.0, 6000.0),
             cam_height=(1500.0, 2800.0), target=(0.0, 0.0, 1000.0)):
    projections = []
    for t in range(num_views):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        r = rng.uniform(*radius)
        pos = np.array([r * np.cos(ang), r * np.sin(ang), rng.uniform(*cam_height)])
        f = width * rng.uniform(0.8, 1.1)
        projections.append(geo.look_at_camera(pos, target, f, width, height))
    return rig_of(projections, width, height)


def mixed_size_rig():
    """Three views of different image sizes and one focal length, aimed at
    the middle of the smoke config's space."""
    sizes = np.array([[128, 96], [64, 48], [200, 150]])
    centers = [(-5200.0, 1200.0, 2500.0), (3000.0, -4800.0, 1900.0),
               (4100.0, 4400.0, 3100.0)]
    projections = [geo.look_at_camera(c, (0.0, 0.0, 1000.0), 100.0, w, h)
                   for c, (w, h) in zip(centers, sizes)]
    return geo.CameraRig(projections=np.stack(projections), sizes=sizes)


def observe(rig, point, confidences=None, noise=None, rng=None):
    """Pixel observations (T, 2) of a world point in every view, optionally
    noisy, and their confidences (T,)."""
    positions = np.stack([project_ld(P, point) for P in rig.projections])
    if noise is not None:
        positions = positions + rng.normal(0.0, noise, size=positions.shape)
    confs = np.ones(len(rig)) if confidences is None else np.asarray(confidences, float)
    return positions, confs


def triangulate(positions, confidences, rig):
    """One point through the batched solver: (point (3,), ok)."""
    pts, ok, _ = geo.triangulate_batch(positions[None], confidences[None], rig)
    return pts[0], bool(ok[0])


def oracle(positions, confidences, rig):
    return triangulate_ld(positions, confidences, rig.projections, rig.sizes)


def pack_jacobian(d_pos, d_conf):
    """Jacobians (T, 3, 2) and (T, 3) of one point as (3T, 3), with row
    3t + k holding dX / d(u, v, c)_tk."""
    per_view = np.concatenate([d_pos, d_conf[:, :, None]], axis=2)  # (T, i, k)
    return per_view.transpose(0, 2, 1).reshape(-1, 3)


def fd_jacobian(positions, confidences, rig, step=1e-4):
    """Central difference of triangulate_batch for one point, packed as
    pack_jacobian packs the analytic one."""
    def f(flat):
        x = flat.reshape(-1, 3)
        return geo.triangulate_batch(x[None, :, :2], x[None, :, 2], rig)[0][0]

    packed = np.concatenate([positions, confidences[:, None]], axis=1)
    return central_difference(f, packed.ravel(), step=step)


def jacobian_and_fd(positions, confidences, rig):
    """(analytic, finite-difference) Jacobians of one point, packed."""
    _, d_pos, d_conf, _ = geo.triangulation_jacobian_batch(
        positions[None], confidences[None], rig)
    return pack_jacobian(d_pos[0], d_conf[0]), fd_jacobian(positions, confidences, rig)


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def project_one(projection, point):
    """(uv (2,), valid) of one point through one camera (3, 4) by project_batch."""
    uv, _, valid = geo.project_batch(projection[None], point)
    return uv[0], bool(valid[0])


def test_project_optical_axis_maps_to_principal_point():
    uv, valid = project_one(IDENTITY, np.array([0.0, 0.0, 2000.0]))
    assert valid and np.allclose(uv, [0.0, 0.0])


def test_project_pinhole_division():
    uv, valid = project_one(IDENTITY, np.array([1000.0, 1000.0, 2000.0]))
    assert valid and np.allclose(uv, [0.5, 0.5])


def test_project_matches_extended_precision_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        P = rng.normal(size=(3, 4))
        p = rng.normal(size=3) * 1000.0
        h = P.astype(np.longdouble) @ np.append(p, 1.0).astype(np.longdouble)
        if h[2] <= 1e-3:  # keep clear of the depth cutoff
            continue
        uv, valid = project_one(P, p)
        assert valid and rel_error(uv, project_ld(P, p)) < 1e-12


def test_project_batch_matches_scalar_and_masks():
    rng = np.random.default_rng(12)
    rig = ring_rig(4, rng)
    pts = rng.uniform(-1500.0, 1500.0, size=(6, 3)) + np.array([0, 0, 1000.0])
    uv, depth, valid = geo.project_batch(rig.projections, pts)
    assert valid.all()
    for t, P in enumerate(rig.projections):
        for b in range(len(pts)):
            assert np.allclose(uv[t, b], project_ld(P, pts[b]))
    # a point behind the camera plane is masked with uv = 0, not raised
    ident = np.hstack([np.eye(3), np.zeros((3, 1))])[None]
    uv2, _, valid2 = geo.project_batch(ident, np.array([[0.0, 0.0, -500.0]]))
    assert not valid2.any() and np.all(uv2 == 0.0)


def test_project_degenerate_depth_raises():
    """A point on the camera plane or behind it has no image. The projector
    no longer raises for it: it reports the point invalid, with uv = 0 and
    its true depth, so no division by a depth at or below the cutoff leaks
    a non-finite anchor to the callers that mask on valid."""
    degenerate = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, -500.0]])
    uv, depth, valid = geo.project_batch(IDENTITY[None], degenerate)
    assert not valid.any()
    assert np.all(uv == 0.0)
    assert np.array_equal(depth, [[0.0, -500.0]])
    # just past the cutoff the same ray projects again
    uv, _, valid = geo.project_batch(IDENTITY[None],
                                     np.array([[0.0, 0.0, 2.0 * geo.DEPTH_EPSILON]]))
    assert valid.all() and np.all(np.isfinite(uv))


# ---------------------------------------------------------------------------
# triangulate_batch
# ---------------------------------------------------------------------------

def test_triangulate_exact_recovery():
    rng = np.random.default_rng(21)
    X = np.array([100.0, -200.0, 1500.0])
    rig = ring_rig(3, rng)
    out, ok = triangulate(*observe(rig, X), rig)
    assert ok
    assert np.max(np.abs(out - X)) < 1e-6


def test_triangulate_zero_confidence_removes_view():
    rng = np.random.default_rng(22)
    X = np.array([100.0, -200.0, 1500.0])
    rig = ring_rig(3, rng)
    positions, confs = observe(rig, X, confidences=[1.0, 1.0, 0.0])
    positions[2] += np.array([50.0, 0.0])  # corrupted, but masked
    out, ok = triangulate(positions, confs, rig)
    assert ok
    assert np.max(np.abs(out - X)) < 1e-6


def test_triangulate_noisy_matches_longdouble_oracle():
    rng = np.random.default_rng(23)
    for trial in range(20):
        T = int(rng.integers(2, 6))
        rig = ring_rig(T, rng)
        X = rng.uniform(-1500.0, 1500.0, size=3) + np.array([0, 0, 1000.0])
        confs = rng.uniform(0.2, 1.0, size=T)
        positions, _ = observe(rig, X, noise=2.0, rng=rng)
        out, ok = triangulate(positions, confs, rig)
        assert ok
        assert rel_error(out, oracle(positions, confs, rig)) < 1e-9


def test_triangulate_confidence_scale_invariance():
    rng = np.random.default_rng(24)
    rig = ring_rig(4, rng)
    X = np.array([-300.0, 640.0, 900.0])
    confs = rng.uniform(0.3, 0.9, size=4)
    positions, _ = observe(rig, X, noise=3.0, rng=rng)
    base, _ = triangulate(positions, confs, rig)
    scaled, _ = triangulate(positions, confs * 0.317, rig)
    assert rel_error(scaled, base) < 1e-12


def test_triangulate_insufficient_views():
    rng = np.random.default_rng(25)
    rig = ring_rig(3, rng)
    X = np.array([0.0, 0.0, 1000.0])
    out, ok = triangulate(*observe(rig, X, confidences=[1.0, 0.0, 0.0]), rig)
    assert not ok
    assert np.all(out == 0.0)


def test_triangulate_coincident_centers_singular():
    # two identical cameras: the stacked system has no unique null direction
    rng = np.random.default_rng(26)
    P = ring_rig(1, rng).projections[0]
    rig = rig_of([P, P.copy()], 256, 192)
    X = np.array([200.0, 100.0, 1200.0])
    out, ok = triangulate(*observe(rig, X), rig)
    assert not ok
    assert np.all(out == 0.0)


def test_exact_recovery_over_many_random_rigs():
    rng = np.random.default_rng(27)
    worst = 0.0
    for _ in range(1000):
        T = int(rng.integers(2, 7))
        rig = ring_rig(T, rng)
        X = rng.uniform(-2000.0, 2000.0, size=3) + np.array([0, 0, 1000.0])
        out, ok = triangulate(*observe(rig, X), rig)
        assert ok
        worst = max(worst, float(np.max(np.abs(out - X))))
    assert worst < 1e-6


def test_batched_triangulation_matches_longdouble_oracle():
    rng = np.random.default_rng(51)
    rig = ring_rig(4, rng)
    B = 16
    pts = rng.uniform(-1500.0, 1500.0, size=(B, 3)) + np.array([0, 0, 1000.0])
    positions = np.stack([observe(rig, X, noise=2.0, rng=rng)[0] for X in pts])
    confs = rng.uniform(0.2, 1.0, size=(B, 4))
    out, ok, _ = geo.triangulate_batch(positions, confs, rig)
    assert ok.all()
    for b in range(B):
        assert rel_error(out[b], oracle(positions[b], confs[b], rig)) < 1e-9


# ---------------------------------------------------------------------------
# triangulation_jacobian_batch
# ---------------------------------------------------------------------------

def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(2, 5))
        rig = ring_rig(T, rng)
        X = rng.uniform(-1200.0, 1200.0, size=3) + np.array([0, 0, 1000.0])
        confs = rng.uniform(0.25, 0.85, size=T)
        positions, _ = observe(rig, X, noise=1.5, rng=rng)
        worst = max(worst, rel_error(*jacobian_and_fd(positions, confs, rig)))
    assert worst < 1e-5


def test_batched_jacobian_matches_finite_differences_per_row():
    rng = np.random.default_rng(52)
    rig = ring_rig(3, rng)
    B = 6
    pts = rng.uniform(-1000.0, 1000.0, size=(B, 3)) + np.array([0, 0, 1000.0])
    positions = np.stack([observe(rig, X, noise=1.0, rng=rng)[0] for X in pts])
    confs = rng.uniform(0.3, 1.0, size=(B, 3))
    confs[1, 2] = 0.0  # a masked view
    confs[4, 1:] = 0.0  # a single positive view: not ok
    out, d_pos, d_conf, ok = geo.triangulation_jacobian_batch(positions, confs, rig)
    assert list(ok) == [True, True, True, True, False, True]
    assert np.all(d_pos[1, 2] == 0.0) and np.all(d_conf[1, 2] == 0.0)
    # the point is not differentiable where a weight crosses zero and ok flips,
    # so the not-ok row is checked for zeros instead of central differences
    assert np.all(out[4] == 0.0)
    assert np.all(d_pos[4] == 0.0) and np.all(d_conf[4] == 0.0)
    for b in np.nonzero(ok)[0]:
        fd = fd_jacobian(positions[b], confs[b], rig)
        assert rel_error(pack_jacobian(d_pos[b], d_conf[b]), fd) < 1e-5


def test_jacobian_zero_confidence_view_gets_zero_gradient():
    rng = np.random.default_rng(32)
    rig = ring_rig(3, rng)
    X = np.array([150.0, -400.0, 1100.0])
    positions, confs = observe(rig, X, confidences=[1.0, 1.0, 0.0])
    _, d_pos, d_conf, ok = geo.triangulation_jacobian_batch(
        positions[None], confs[None], rig)
    assert ok[0]
    assert np.all(d_pos[0, 2] == 0.0)
    assert np.all(d_conf[0, 2] == 0.0)
    assert np.any(d_pos[0, 0] != 0.0)


def test_jacobian_mirror_symmetry():
    # view 1 is the exact mirror conjugate of view 0 across the x=0 plane;
    # for a point on that plane the per-view gradients are mirror images.
    w, h = 256, 192
    P0 = geo.look_at_camera((-2400.0, -3600.0, 1700.0), (0.0, 0.0, 900.0),
                            230.0, w, h)
    S = np.diag([-1.0, 1.0, 1.0, 1.0])
    F = np.array([[-1.0, 0.0, float(w)], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    rig = rig_of([P0, F @ P0 @ S], w, h)
    X = np.array([0.0, 350.0, 800.0])
    positions, confs = observe(rig, X)
    assert np.allclose(positions[1], [w - positions[0, 0], positions[0, 1]])
    _, d_pos, _, ok = geo.triangulation_jacobian_batch(positions[None], confs[None], rig)
    assert ok[0]
    D3 = np.diag([-1.0, 1.0, 1.0])
    D2 = np.diag([-1.0, 1.0])
    assert rel_error(d_pos[0, 1], D3 @ d_pos[0, 0] @ D2) < 1e-9


def test_jacobian_near_degenerate_gap_not_ok():
    # two near-coincident cameras leave the null direction nearly ambiguous
    rng = np.random.default_rng(33)
    P = ring_rig(1, rng).projections[0]
    P2 = P.copy()
    P2[:, 3] += 1e-9
    rig = rig_of([P, P2], 256, 192)
    X = np.array([200.0, 100.0, 1200.0])
    positions, confs = observe(rig, X)
    out, d_pos, d_conf, ok = geo.triangulation_jacobian_batch(
        positions[None], confs[None], rig)
    assert not ok[0]
    assert np.all(out == 0.0) and np.all(d_pos == 0.0) and np.all(d_conf == 0.0)


def test_masked_view_rows_equal_removed_view():
    rng = np.random.default_rng(53)
    rig = ring_rig(3, rng)
    X = np.array([420.0, -80.0, 1500.0])
    positions = np.stack([project_ld(P, X) for P in rig.projections])[None]
    confs = np.array([[1.0, 1.0, 0.0]])
    full, ok, _ = geo.triangulate_batch(positions, confs, rig)
    assert ok.all()
    two_rig = geo.CameraRig(projections=rig.projections[:2], sizes=rig.sizes[:2])
    two, ok2, _ = geo.triangulate_batch(positions[:, :2], confs[:, :2], two_rig)
    assert rel_error(full, two) < 1e-12


# ---------------------------------------------------------------------------
# normalized cameras
# ---------------------------------------------------------------------------

def test_normalized_cameras_match_per_view_oracle():
    """Bit for bit, on the smoke config's ten scene rigs and on a rig whose
    views have different image sizes."""
    cfg = cli.load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "configs", "smoke.json"))
    rigs = [evalsim.generate_scene(cfg.scene, cfg.seed + i).rig
            for i in range(cfg.num_scenes)]
    for rig in rigs + [mixed_size_rig()]:
        Pt, s, centers = geo._normalized_cameras(rig)
        for t, (P, (w, h)) in enumerate(zip(rig.projections, rig.sizes)):
            want_Pt, want_s, want_center = normalized_camera_loop(P, w, h)
            assert Pt[t].tobytes() == want_Pt.tobytes()
            assert s[t] == want_s
            assert centers[t].tobytes() == want_center.tobytes()


# ---------------------------------------------------------------------------
# rig
# ---------------------------------------------------------------------------

def test_rig_compares_by_identity_and_cannot_change_past_its_checks():
    projections = np.stack([IDENTITY, IDENTITY + [[0, 0, 0, 1], [0] * 4, [0] * 4]])
    sizes = np.array([[2, 2], [2, 2]])
    rig = geo.CameraRig(projections=projections, sizes=sizes)
    twin = geo.CameraRig(projections=projections, sizes=sizes)
    # identity semantics: no elementwise array comparison, and hashable
    assert rig == rig and rig != twin
    assert len({rig, twin, rig}) == 2
    # the rig holds copies, so the caller's arrays can change freely
    projections[1] = 0.0
    sizes[0] = 0
    assert np.linalg.matrix_rank(rig.projections[1]) == 3
    assert rig.sizes.tolist() == [[2, 2], [2, 2]]
    # and its own arrays are read-only, so a rank-deficient view cannot slip in
    for array in (rig.projections, rig.sizes):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_rig_rejects_bad_rank_and_shapes():
    with pytest.raises(ValueError, match="projection of view 1 is rank deficient"):
        rig_of([IDENTITY, np.zeros((3, 4))], 2, 2)
    with pytest.raises(ValueError, match=r"2 views need sizes \(T, 2\), got \(1, 2\)"):
        geo.CameraRig(projections=np.stack([IDENTITY, IDENTITY]), sizes=[[2, 2]])
    with pytest.raises(ValueError, match=r"projections must be \(T, 3, 4\)"):
        geo.CameraRig(projections=IDENTITY, sizes=[[2, 2]])
