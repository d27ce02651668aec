"""Projective state-space refinement over joint tokens.

Each layer projects every token's 3D joints into all views as anchors,
aggregates deformable bilinear samples around them (projective attention),
updates features with a bidirectional selective scan over the sampled
(view, joint) token sequence followed by LayerNorm + FFN on a residual path,
then predicts per-view 2D residual offsets and confidences and re-triangulates
each joint. Per-layer 2D estimates are kept for the losses.

The whole forward runs on autodiff Tensors. Six primitives have analytic
backwards: projection (project_op), the sampling of every view and level
into the masked sample stencil (bilinear_op), its weighted sum
(weighted_sum_op), the offset head's hidden layer (head_op), the selective
scan (selective_scan_op) and triangulation (triangulate_op). The stencil is
held once, by the two closures that read it.
Model parameters serialize through the versioned container, whose array
table records each shape, with the config echo in its meta; loading checks
every name and shape against init_params for the echoed config, and that
every value is finite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import container, geometry, ssm, tokens

BLOCK_VARIANTS = ("pss", "proj_attention_only", "cross_attention", "mean")

# anchors are considered usable up to this multiple of the image bounds
MASK_MARGIN = 1.5


def level_scales(num_scales: int) -> np.ndarray:
    """Pixels to grid units of each pyramid level: level s halves the
    resolution s times, so it is sampled at 0.5 ** s."""
    return 0.5 ** np.arange(num_scales)


def level_shapes(width: int, height: int, num_scales: int) -> list:
    """(H, W) of each level of a width x height image, each side rounded, >= 1."""
    return [(max(int(round(height * f)), 1), max(int(round(width * f)), 1))
            for f in level_scales(num_scales)]


@dataclass(frozen=True)
class FeaturePyramid:
    """Per-view multi-scale feature grids: levels[s] is (H_s, W_s, L), the
    view's image at level_scales(S)[s] of its pixel resolution."""
    levels: tuple

    def __post_init__(self):
        levels = tuple(np.asarray(g) for g in self.levels)
        if len(levels) < 1:
            raise ValueError("need at least one level")
        dims = {g.shape[-1] for g in levels}
        if len(dims) != 1:
            raise ValueError(f"inconsistent channel counts {dims}")
        if not all(np.all(np.isfinite(g)) for g in levels):
            raise ValueError("feature grids must be finite")
        object.__setattr__(self, "levels", levels)

    @property
    def feature_dim(self) -> int:
        return self.levels[0].shape[-1]


@dataclass(frozen=True)
class PipelineConfig:
    num_layers: int = 4
    num_tokens: int = 1024
    num_joints: int = 15
    feature_dim: int = 256
    epsilon: float = 0.1
    block_variant: str = "pss"
    num_points: int = 4
    num_scales: int = 2
    d_state: int = 4
    head_hidden: int = 32
    ffn_hidden: int = 0  # 0 means 2 * feature_dim
    nms_radius_mm: float = 500.0
    max_offset_px: float = 64.0
    ground_bounds: tuple = (-4000.0, -4000.0, 4000.0, 4000.0)
    init_seed: int = 0

    def __post_init__(self):
        if self.num_layers < 1 or self.num_tokens < 1 or self.num_joints < 1:
            raise ValueError("layer/token/joint counts must be positive")
        if self.feature_dim < 1 or self.num_points < 1 or self.num_scales < 1:
            raise ValueError("feature_dim, num_points, num_scales must be positive")
        if self.block_variant not in BLOCK_VARIANTS:
            raise ValueError(f"block_variant must be one of {BLOCK_VARIANTS}")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must be in [0, 1]")
        if self.d_state < 1 or self.head_hidden < 1 or self.ffn_hidden < 0:
            raise ValueError("d_state, head_hidden must be positive; ffn_hidden >= 0")
        if not (self.max_offset_px > 0 and self.nms_radius_mm >= 0):
            raise ValueError("max_offset_px must be positive; nms_radius_mm >= 0")

    @property
    def ffn_dim(self) -> int:
        return self.ffn_hidden if self.ffn_hidden > 0 else 2 * self.feature_dim


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def init_params(config: PipelineConfig, rng_seed: int) -> dict:
    """Model parameters keyed by name: exactly those the forward of
    config.block_variant reads. Output-side weights start at zero so an
    untrained pipeline is the identity refinement (offsets 0, confidence 0.5,
    score 0.5); input-side projections break symmetry."""
    rng = np.random.default_rng(rng_seed)
    L, J, N = config.feature_dim, config.num_joints, config.num_tokens
    S, P, ds, F, H = (config.num_scales, config.num_points, config.d_state,
                      config.ffn_dim, config.head_hidden)
    params = {
        "person_embeds": rng.standard_normal((N, L)) * 0.5,
        "joint_embeds": rng.standard_normal((J, L)) * 0.5,
        "cls_w": np.zeros((L, 2)),
        "cls_b": np.zeros(2),
    }
    # deformable points start on a small ring so the stencil sees a
    # neighborhood even before the offset head trains
    ring = np.stack([np.cos(2 * np.pi * np.arange(P) / P),
                     np.sin(2 * np.pi * np.arange(P) / P)], axis=1)
    off_bias = np.tile(2.0 * ring, (S, 1)).reshape(-1)
    for i in range(config.num_layers):
        pre = f"layer{i}."
        params[pre + "off_w"] = rng.normal(scale=0.02, size=(L, S * P * 2))
        params[pre + "off_b"] = off_bias.copy()
        params[pre + "alog_w"] = rng.normal(scale=0.02, size=(L, S * P))
        params[pre + "alog_b"] = np.zeros(S * P)
        if config.block_variant != "mean":
            params[pre + "aout_w"] = np.zeros((L, L))
            params[pre + "aout_b"] = np.zeros(L)
        if config.block_variant == "pss":
            params[pre + "A"] = -np.tile(np.arange(1, ds + 1, dtype=float), (L, 1))
            params[pre + "Dss"] = np.ones(L)
            for d in ("f", "b"):
                params[pre + d + "_wdelta"] = rng.normal(scale=1.0 / np.sqrt(L), size=(L, L))
                params[pre + d + "_bdelta"] = np.full(L, float(np.log(np.expm1(0.5))))
                params[pre + d + "_wb"] = rng.normal(scale=1.0 / np.sqrt(L), size=(L, ds))
                params[pre + d + "_wc"] = rng.normal(scale=1.0 / np.sqrt(L), size=(L, ds))
        if config.block_variant == "cross_attention":
            for w in ("wq", "wk", "wv"):
                params[pre + w] = rng.normal(scale=1.0 / np.sqrt(L), size=(L, L))
            params[pre + "wo"] = np.zeros((L, L))
        if config.block_variant in ("pss", "cross_attention"):
            params[pre + "ln_g"] = np.ones(L)
            params[pre + "ln_b"] = np.zeros(L)
            params[pre + "ffn_w1"] = rng.normal(scale=1.0 / np.sqrt(L), size=(L, F))
            params[pre + "ffn_b1"] = np.zeros(F)
            params[pre + "ffn_w2"] = np.zeros((F, L))
            params[pre + "ffn_b2"] = np.zeros(L)
        head_in = (S * P + 1) * L
        params[pre + "head_w1"] = rng.normal(scale=1.0 / np.sqrt(head_in),
                                             size=(head_in, H))
        params[pre + "head_b1"] = np.zeros(H)
        params[pre + "head_w2"] = np.zeros((H, 3))
        params[pre + "head_b2"] = np.zeros(3)
    return params


def params_to_tensors(params: dict) -> dict:
    return {k: ad.parameter(v) for k, v in params.items()}


# ---------------------------------------------------------------------------
# differentiable primitives
# ---------------------------------------------------------------------------

def _bilinear_forward(grid: np.ndarray, pos: np.ndarray, slopes: bool):
    """Bilinear interpolation of grid (H, W, C) at positions (..., 2) given as
    (x, y) in grid units; out-of-range positions clamp to the border.
    Returns the sampled values and, if `slopes`, their derivatives along x
    and y, +0.0 where the clamp is active (else None)."""
    H, W = grid.shape[:2]
    x = np.clip(pos[..., 0], 0.0, W - 1.0)
    y = np.clip(pos[..., 1], 0.0, H - 1.0)
    x0 = np.clip(np.floor(x), 0, max(W - 2, 0)).astype(int)
    y0 = np.clip(np.floor(y), 0, max(H - 2, 0)).astype(int)
    x1, y1 = np.minimum(x0 + 1, W - 1), np.minimum(y0 + 1, H - 1)
    fx, fy = (x - x0)[..., None], (y - y0)[..., None]
    rows = grid.reshape(H * W, -1)  # each corner is one take of flat-grid rows
    g00, g01, g10, g11 = (rows.take(r * W + c, axis=0)
                          for r, c in ((y0, x0), (y0, x1), (y1, x0), (y1, x1)))
    # a lerp of lerps on float64 edge differences (float32 corners would round
    # them): top = g00 + fx d0, dy = (g10 + fx d1) - top, value = top + fy dy
    d0 = np.subtract(g01, g00, dtype=float)
    d1 = np.subtract(g11, g10, dtype=float)
    top = np.multiply(fx, d0)
    top += g00
    dy = np.multiply(fx, d1)
    dy += g10
    dy -= top
    value = np.multiply(fy, dy)
    value += top
    if not slopes:
        return value, None
    d1 -= d0  # dx = d0 + fy (d1 - d0), in d1's buffer
    dx = np.add(np.multiply(fy, d1, out=d1), d0, out=d1)
    np.copyto(dx, 0.0, where=~((pos[..., 0:1] > 0.0) & (pos[..., 0:1] < W - 1.0)))
    np.copyto(dy, 0.0, where=~((pos[..., 1:2] > 0.0) & (pos[..., 1:2] < H - 1.0)))
    return value, (dx, dy)


def bilinear_op(pyramids, positions: ad.Tensor, valid: np.ndarray) -> ad.Tensor:
    """The layer's sampling: the masked stencil (T, n, J, S*P*L) at positions
    (T, n, J, S, P, 2) in grid units of view t's level s, zero in the views
    `valid` (T, n, J) drops. One bilinear pass per (view, level) reads the grid
    in place; the backward keeps each pass's slopes and the mask. Without a
    position gradient (eval) it returns the values alone."""
    pos = positions.data
    T, n, J, S, P, _ = pos_shape = pos.shape
    shape = (T, n, J, S, P, pyramids[0].feature_dim)
    mask = valid.reshape((T, n, J, 1, 1)).astype(float)
    out = np.empty(shape)
    slopes = []
    for t in range(T):
        for s in range(S):
            value, slope = _bilinear_forward(pyramids[t].levels[s], pos[t, :, :, s],
                                             positions.requires_grad)
            np.multiply(value, mask[t], out=out[t, :, :, s])
            slopes.append(slope)
    stencil = out.reshape((T, n, J, S * P * shape[-1]))
    if not positions.requires_grad:
        return ad.Tensor(stencil)

    def backward(g):
        g, grad = g.reshape(shape), np.empty(pos_shape)
        for k, (dvdx, dvdy) in enumerate(slopes):
            t, s = divmod(k, S)
            grad[t, :, :, s, :, 0] = np.sum(g[t, :, :, s] * dvdx, axis=-1)
            grad[t, :, :, s, :, 1] = np.sum(g[t, :, :, s] * dvdy, axis=-1)
        grad[~valid] = 0.0  # the mask, applied once: it is 0 or 1
        return (grad,)

    return ad.from_op(stencil, (positions,), backward)


def project_op(geometry_t: ad.Tensor, rig: geometry.CameraRig):
    """Project token geometry (..., 3) through every view.

    Returns (anchors Tensor (T, ..., 2), valid (T, ...) bool). Invalid anchors
    (degenerate depth or outside MASK_MARGIN * image bounds) carry zero
    gradient.
    """
    uv, depth, valid = geometry.project_batch(rig.projections, geometry_t.data)
    view_shape = (len(rig),) + (1,) * (uv.ndim - 2)  # broadcasts over (...)
    size = rig.sizes.astype(float).reshape(view_shape + (2,))
    pad = (MASK_MARGIN - 1.0) / 2.0  # beyond each border, in image sizes
    valid &= np.all((uv >= -pad * size) & (uv <= size + pad * size), axis=-1)
    safe_depth = np.where(valid, depth, 1.0)[..., None]
    rows = rig.projections[:, :, :3].reshape(view_shape + (3, 3))

    def backward(g):
        # u = (P[0] X~) / w, v = (P[1] X~) / w with w = P[2] X~
        du = (rows[..., 0, :] - uv[..., 0:1] * rows[..., 2, :]) / safe_depth
        dv = (rows[..., 1, :] - uv[..., 1:2] * rows[..., 2, :]) / safe_depth
        gx = np.where(valid[..., None], g[..., 0:1] * du + g[..., 1:2] * dv, 0.0)
        return (gx.sum(axis=0),)

    return ad.from_op(uv, (geometry_t,), backward), valid


def triangulate_op(positions: ad.Tensor, confidences: ad.Tensor,
                   rig: geometry.CameraRig):
    """Batched confidence-weighted triangulation as a graph primitive.

    positions (B, T, 2), confidences (B, T) (zero = masked). Returns
    (points Tensor (B, 3), ok (B,) bool). Non-ok rows give zero points and
    zero gradients; callers keep previous geometry there.
    """
    pts, ok, vjp = geometry.triangulate_batch(positions.data, confidences.data, rig)
    # vjp gives zero gradients where the point is not ok
    return ad.from_op(pts, (positions, confidences), lambda g: vjp(g)[:2]), ok


def selective_scan_op(x: ad.Tensor, p: dict, prefix: str, direction: str) -> ad.Tensor:
    """Batched selective scan (B, steps, L) wired to the hand-derived
    backward pass; direction is 'f' or 'b' selecting the projection set."""
    # in the order of ssm.SelectiveParams' fields
    tensors = [p[prefix + name] for name in (direction + "_wdelta", direction + "_bdelta",
                                             direction + "_wb", direction + "_wc", "A", "Dss")]
    sel = ssm.SelectiveParams(*(t.data for t in tensors))
    y, cache = ssm.selective_scan_batch(sel, x.data)

    def backward(g):
        grads = ssm.selective_scan_backward(sel, cache, g)
        return tuple(grads[k] for k in ("x", "w_delta", "b_delta", "w_b", "w_c", "A", "D"))

    return ad.from_op(y, (x, *tensors), backward)


def weighted_sum_op(stencil: ad.Tensor, w_sp: ad.Tensor, S: int) -> ad.Tensor:
    """per_view (T, n, J, L): the stencil weighted by w_sp (n, J, S*P), summed over
    the points one slot at a time into one (T, n, J, S, L) buffer, then over
    the scales: the bytes of (x * w).sum(axis=4).sum(axis=3), whose last sum
    also turns -0.0 into +0.0. The backward reads the stencil's buffer."""
    T, n, J, K = stencil.shape
    P = w_sp.shape[-1] // S
    w = w_sp.data.reshape((n, J, S, P, 1))
    x = stencil.data.reshape((T, n, J, S, P, K // (S * P)))
    acc = x[:, :, :, :, 0] * w[:, :, :, 0]
    for p in range(1, P):
        acc += x[:, :, :, :, p] * w[:, :, :, p]
    return ad.from_op(acc.sum(axis=3), (stencil, w_sp), lambda g: (
        (g[:, :, :, None, None] * w).reshape((T, n, J, K)),
        (g[:, :, :, None, None] * x).sum(axis=0).sum(axis=-1).reshape((n, J, S * P))))


def head_op(stencil: ad.Tensor, x2: ad.Tensor, w1: ad.Tensor, b1: ad.Tensor) -> ad.Tensor:
    """The offset head's hidden layer tanh([stencil, x2] @ w1 + b1), (T, n, J, H),
    without the concatenation: one GEMM per part of w1, the x2 (n, J, L) part
    once for all views. The backward reads the stencil's buffer, not a copy."""
    T, n, J, K = stencil.shape
    L, H = x2.shape[-1], w1.shape[1]
    rows, joints = stencil.data.reshape(T * n * J, K), x2.data.reshape(n * J, L)
    top, bottom = w1.data[:K], w1.data[K:]
    out = np.tanh((rows @ top).reshape((T, n * J, H)) + joints @ bottom + b1.data)

    def backward(g):
        gz = g.reshape(out.shape) * (1.0 - out * out)
        gj, gz_rows = gz.sum(axis=0), gz.reshape(len(rows), H)
        return ((gz_rows @ top.T).reshape((T, n, J, K)), (gj @ bottom.T).reshape((n, J, L)),
                np.concatenate([rows.T @ gz_rows, joints.T @ gj]), gz.sum(axis=(0, 1)))

    return ad.from_op(out.reshape((T, n, J, H)), (stencil, x2, w1, b1), backward)


# ---------------------------------------------------------------------------
# layer forward
# ---------------------------------------------------------------------------

def _attention_samples(visual: ad.Tensor, anchors: ad.Tensor, valid: np.ndarray,
                       pyramids, p: dict, prefix: str, config: PipelineConfig):
    """Deformable sampling around projected anchors.

    Returns (per_view (T, n, J, L) weighted samples, fused (n, J, L) their
    mean over valid views, stencil (T, n, J, S*P*L) raw samples); masked
    views are zero in both per-view outputs. Sample weights are a softmax
    over (scale, point) slots predicted from each joint's feature; every
    valid view shares them, so fusion over views is a masked mean and the
    whole block is agnostic to the number of cameras. The unweighted stencil
    keeps the local spatial structure the offset head needs.
    """
    n, J, _ = visual.shape
    T, S, P = len(pyramids), config.num_scales, config.num_points
    off = (visual @ p[prefix + "off_w"] + p[prefix + "off_b"]).reshape((n, J, S, P, 2))
    w_sp = ad.softmax(visual @ p[prefix + "alog_w"] + p[prefix + "alog_b"], axis=-1)
    # each view's anchors in each level's grid units, plus the offsets
    positions = (anchors.reshape((T, n, J, 1, 1, 2)) * level_scales(S).reshape((S, 1, 1))
                 + off)  # (T, n, J, S, P, 2)
    stencil = bilinear_op(pyramids, positions, valid)
    per_view = weighted_sum_op(stencil, w_sp, S)
    denom = np.maximum(valid.sum(axis=0), 1)[None, ..., None]
    fused = ad.sum_(ad.div(per_view, denom), axis=0)  # (n, J, L) masked mean
    return per_view, fused, stencil


def _scan_branch(x1: ad.Tensor, per_view: ad.Tensor, p: dict, prefix: str):
    """GTBS bidirectional selective scan over per-view sampled tokens
    conditioned on the current features.

    The sequence lists joints 1..J within view 1..T (flat index t * J + j).
    The forward and the reversed pass have their own input projections ('f'
    and 'b') and share A and D; their outputs are summed in sequence order,
    then averaged over views per joint."""
    n, J, L = x1.shape
    T = per_view.shape[0]
    items = per_view + x1.reshape((1, n, J, L))  # (T, n, J, L)
    seq = items.transpose((1, 0, 2, 3)).reshape((n, T * J, L))
    fwd = selective_scan_op(seq, p, prefix, "f")
    bwd = selective_scan_op(seq[:, ::-1], p, prefix, "b")
    merged = fwd + bwd[:, ::-1]
    return merged.reshape((n, T, J, L)).mean(axis=1)  # (n, J, L)


def _cross_attention_branch(x1: ad.Tensor, per_view: ad.Tensor, p: dict,
                            prefix: str):
    n, J, L = x1.shape
    T = per_view.shape[0]
    kv = per_view.transpose((1, 0, 2, 3)).reshape((n, T * J, L))
    q = x1 @ p[prefix + "wq"]  # (n, J, L)
    k = kv @ p[prefix + "wk"]
    v = kv @ p[prefix + "wv"]
    logits = ad.mul(q @ k.transpose((0, 2, 1)), 1.0 / np.sqrt(L))  # (n, J, TJ)
    att = ad.softmax(logits, axis=-1)
    ctx = att @ v  # (n, J, L)
    return ctx @ p[prefix + "wo"]


def _ffn_ln(z: ad.Tensor, p: dict, prefix: str) -> ad.Tensor:
    normed = ad.layer_norm(z, p[prefix + "ln_g"], p[prefix + "ln_b"])
    hidden = ad.tanh(normed @ p[prefix + "ffn_w1"] + p[prefix + "ffn_b1"])
    return hidden @ p[prefix + "ffn_w2"] + p[prefix + "ffn_b2"]


def _block_update(visual: ad.Tensor, anchors: ad.Tensor, valid: np.ndarray,
                  pyramids, p: dict, prefix: str, config: PipelineConfig):
    """One feature update: projective attention plus the variant branch.

    The attention residual comes first and feeds the scan (or cross-attention)
    branch. Returns (x2, stencil)."""
    per_view, fused, stencil = _attention_samples(
        visual, anchors, valid, pyramids, p, prefix, config)
    variant = config.block_variant
    if variant == "mean":
        # token update degenerates to the plain average of per-view samples
        return fused, stencil
    x1 = visual + (fused @ p[prefix + "aout_w"] + p[prefix + "aout_b"])
    if variant == "proj_attention_only":
        x2 = x1
    elif variant == "cross_attention":
        ctx = _cross_attention_branch(x1, per_view, p, prefix)
        x2 = x1 + _ffn_ln(ctx, p, prefix)
    else:  # pss
        scanned = _scan_branch(x1, per_view, p, prefix)
        x2 = x1 + _ffn_ln(scanned, p, prefix)
    return x2, stencil


@dataclass
class LayerOutput:
    positions_2d: ad.Tensor   # (T, n, J, 2) refined pixel estimates
    confidences: ad.Tensor    # (T, n, J)
    valid: np.ndarray         # (T, n, J) anchor validity
    geometry: ad.Tensor       # (n, J, 3) updated joints
    scores: ad.Tensor         # (n,) token scores
    kept: np.ndarray          # indices into the initial token set
    flagged: np.ndarray       # (n, J) joints that kept previous geometry


def refine_layer(visual: ad.Tensor, geom: ad.Tensor, pyramids, rig,
                 p: dict, prefix: str, config: PipelineConfig):
    """One projective state-space refinement layer.

    A joint with no valid anchor in any view gets zero confidences, fails
    triangulation and keeps its previous geometry; it is returned flagged.
    """
    n, J, L = visual.shape
    T = len(rig)
    anchors, valid = project_op(geom, rig)  # (T, n, J, 2), (T, n, J)

    x2, stencil = _block_update(visual, anchors, valid, pyramids, p, prefix, config)

    # offset / confidence head: shared across views, fed by the raw sample
    # stencil (direction-bearing) and the updated joint feature
    hidden = head_op(stencil, x2, p[prefix + "head_w1"], p[prefix + "head_b1"])
    head_out = hidden @ p[prefix + "head_w2"] + p[prefix + "head_b2"]
    delta_uv = ad.mul(ad.tanh(head_out[..., 0:2]), config.max_offset_px)
    conf = ad.sigmoid(head_out[..., 2])
    refined = anchors + delta_uv  # (T, n, J, 2)
    conf_masked = ad.mul(conf, valid.astype(float))  # masked views weigh zero

    flat_pos = refined.transpose((1, 2, 0, 3)).reshape((n * J, T, 2))
    flat_conf = conf_masked.transpose((1, 2, 0)).reshape((n * J, T))
    points, ok = triangulate_op(flat_pos, flat_conf, rig)
    ok_mask = ok.reshape(n, J)
    new_geom = ad.where(ok_mask[..., None], points.reshape((n, J, 3)), geom)
    return x2, new_geom, refined, conf_masked, valid, ~ok_mask


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def init_token_state(config: PipelineConfig, scene_seed: int) -> np.ndarray:
    """Initial token geometry (n, J, 3): the T-pose translated to jittered
    grid centers on the ground plane. The jitter comes from the first child of
    SeedSequence(mix), where mix combines the model's init_seed with the scene
    seed, so each scene gets its own grid and token identity carries no
    placement information across scenes."""
    mix = (config.init_seed * 1000003 + scene_seed) % (2 ** 31 - 1)
    rng = np.random.default_rng(np.random.SeedSequence(mix).spawn(1)[0])
    centers = tokens.grid_centers(config.num_tokens, config.ground_bounds, rng)
    offsets = np.concatenate([centers, np.zeros((config.num_tokens, 1))], axis=1)
    template, _, _ = tokens.load_tpose(config.num_joints)
    return template[None] + offsets[:, None]


def score_op(visual: ad.Tensor, p: dict) -> ad.Tensor:
    logits = visual @ p["cls_w"] + p["cls_b"]  # (n, J, 2)
    return ad.sigmoid(logits[..., 0]).mean(axis=1)  # (n,)


def check_inputs(config: PipelineConfig, pyramids, gt_poses=None) -> None:
    """Raise ValueError unless every view's pyramid has the model's levels and
    channels and the ground truth poses (Z, J, 3), if given, its joints."""
    for pyr in pyramids:
        if len(pyr.levels) < config.num_scales or pyr.feature_dim != config.feature_dim:
            raise ValueError(
                f"the model needs {config.num_scales} pyramid levels of "
                f"{config.feature_dim} channels, got {len(pyr.levels)} levels of "
                f"{pyr.feature_dim} channels")
    if gt_poses is not None and gt_poses.shape[1] != config.num_joints:
        raise ValueError(f"the model needs {config.num_joints} joints, got "
                         f"ground truth poses of {gt_poses.shape[1]}")


def run_pipeline(pyramids, rig, param_tensors: dict, config: PipelineConfig,
                 mode: str, scene_seed: int):
    """Initialize tokens and run M refinement layers.

    mode 'train' keeps every token through all layers (losses need stable
    indices); mode 'eval' filters by score >= epsilon per layer and applies
    pose NMS after the final layer. scene_seed places the token grid
    (init_token_state). Returns (layer_outputs, initial_geometry).
    """
    if mode not in ("train", "eval"):
        raise ValueError("mode must be 'train' or 'eval'")
    check_inputs(config, pyramids)
    p = param_tensors
    geom0 = init_token_state(config, scene_seed)
    n = config.num_tokens
    visual = p["person_embeds"].reshape((n, 1, config.feature_dim)) \
        + p["joint_embeds"].reshape((1, config.num_joints, config.feature_dim))
    geom = ad.Tensor(geom0)
    alive = np.arange(n)
    outputs: list[LayerOutput] = []
    for i in range(config.num_layers):
        prefix = f"layer{i}."
        x2, geom, refined, conf, valid, flagged = refine_layer(
            visual, geom, pyramids, rig, p, prefix, config)
        scores = score_op(x2, p)
        kept = alive
        if mode == "eval":
            sel = np.nonzero(scores.data >= config.epsilon)[0]
            if i == config.num_layers - 1:
                sel = sel[tokens.nms_keep_mask(geom.data[sel], scores.data[sel],
                                               config.nms_radius_mm)]
            x2, geom, scores, flagged = x2[sel], geom[sel], scores[sel], flagged[sel]
            refined, conf, valid = refined[:, sel], conf[:, sel], valid[:, sel]
            kept = alive = alive[sel]
        outputs.append(LayerOutput(
            positions_2d=refined, confidences=conf, valid=valid, geometry=geom,
            scores=scores, kept=kept, flagged=flagged))
        visual = x2
    return outputs, geom0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_model(path: str, params: dict, config: PipelineConfig,
               extra_meta: dict) -> None:
    meta = {"kind": "scanpose-model", "config": asdict(config), **extra_meta}
    container.save_container(path, {f"param/{k}": np.asarray(v)
                                    for k, v in params.items()}, meta)


def load_model(path: str):
    arrays, meta = container.load_container(path)
    meta = container.require_keys(meta, path, "scanpose-model", "config")
    config = container.build_dataclass(PipelineConfig, meta["config"], path)
    params = {k[len("param/"):]: v for k, v in arrays.items()
              if k.startswith("param/")}
    expected = init_params(config, 0)
    for name in sorted(expected.keys() | params.keys()):
        if name not in params:
            raise ValueError(f"{path}: parameter {name} is missing")
        if name not in expected:
            raise ValueError(f"{path}: unexpected parameter {name}")
        if params[name].shape != expected[name].shape:
            raise ValueError(f"{path}: parameter {name} has shape "
                             f"{params[name].shape}, expected {expected[name].shape}")
        if not np.all(np.isfinite(params[name])):
            raise ValueError(f"{path}: parameter {name} is not finite")
    return params, config, meta
