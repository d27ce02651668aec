import numpy as np

from scanpose import autodiff as ad
from scanpose import pipeline as pl
from scanpose import ssm
from test_ssm import naive_selective_scan, random_selective


# ---------------------------------------------------------------------------
# the bidirectional scan (pipeline._scan_branch)
# ---------------------------------------------------------------------------

def scan_params(sel_f, sel_b):
    """One layer's scan parameters as pipeline tensors (empty prefix): the
    forward and backward projections, sharing sel_f's A and D."""
    p = {"A": sel_f.A, "Dss": sel_f.D}
    for d, sel in (("f", sel_f), ("b", sel_b)):
        p.update({d + "_wdelta": sel.w_delta, d + "_bdelta": sel.b_delta,
                  d + "_wb": sel.w_b, d + "_wc": sel.w_c})
    return {k: ad.Tensor(v) for k, v in p.items()}


def branch(p, per_view):
    """_scan_branch on one token with zero features: per_view (T, J, L)
    samples in, per-joint (J, L) view means of the merged scan out."""
    _, J, L = per_view.shape
    out = pl._scan_branch(ad.Tensor(np.zeros((1, J, L))), ad.Tensor(per_view[:, None]),
                          p, "")
    return out.data[0]


def test_single_token_doubles_the_one_step_scan():
    rng = np.random.default_rng(31)
    sel = random_selective(rng, L=4, S=3)
    token = rng.normal(size=(1, 4))
    out = branch(scan_params(sel, sel), token[None])
    single = naive_selective_scan(sel, token)
    assert np.allclose(out, 2.0 * single)


def test_matches_two_pass_oracle():
    rng = np.random.default_rng(32)
    sel_f = random_selective(rng, L=3, S=2)
    sel_b = ssm.SelectiveParams(
        w_delta=rng.normal(scale=0.5, size=(3, 3)),
        b_delta=rng.normal(scale=0.5, size=3),
        w_b=rng.normal(scale=0.5, size=(3, 2)),
        w_c=rng.normal(scale=0.5, size=(3, 2)),
        A=sel_f.A, D=sel_f.D)
    order = np.arange(12)  # joints 1..J within view 1..T: flat index t * J + j
    tokens = rng.normal(size=(12, 3))
    out = branch(scan_params(sel_f, sel_b), tokens.reshape(3, 4, 3))

    merged = np.zeros_like(tokens)
    yf = naive_selective_scan(sel_f, tokens[order])
    yb = naive_selective_scan(sel_b, tokens[order[::-1]])
    for pos, idx in enumerate(order):
        merged[idx] += yf[pos]
    for pos, idx in enumerate(order[::-1]):
        merged[idx] += yb[pos]
    expect = merged.reshape(3, 4, 3).mean(axis=0)
    assert np.max(np.abs(out - expect)) < 1e-12


def test_reversal_equivariance_with_shared_params():
    rng = np.random.default_rng(33)
    sel = random_selective(rng, L=3, S=3)
    p = scan_params(sel, sel)
    x = rng.normal(size=(1, 9, 3))  # one view: the joint chain is the sequence
    lhs = branch(p, x[:, ::-1])
    rhs = branch(p, x)[::-1]
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_every_position_influences_every_output():
    rng = np.random.default_rng(34)
    sel = random_selective(rng, L=2, S=2)
    p = scan_params(sel, sel)
    x = rng.normal(size=(2, 3, 2))
    base = branch(p, x)
    for t in range(2):
        for j in range(3):
            xp = x.copy()
            xp[t, j] += 0.37
            out = branch(p, xp)
            assert np.all(np.any(out != base, axis=1)), f"position {t, j} has no reach"
