"""Scan orders over sampled (view, joint) token grids.

Tokens are stored flat with index t * num_joints + j, so the joint-major
order keeps each view's joint chain contiguous; the view-major order visits
one joint across all views before moving to the next joint. The bidirectional
scan that runs a forward and a reversed pass along an order and merges them
by elementwise sum is pipeline._scan_branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GROUPINGS = ("joint-major", "view-major")


@dataclass(frozen=True)
class ScanOrder:
    forward: np.ndarray  # permutation of token indices
    backward: np.ndarray  # exact reversal of forward
    grouping: str

    def __post_init__(self):
        fwd = np.asarray(self.forward, dtype=int)
        bwd = np.asarray(self.backward, dtype=int)
        n = fwd.size
        if not np.array_equal(np.sort(fwd), np.arange(n)):
            raise ValueError("forward order is not a permutation")
        if not np.array_equal(bwd, fwd[::-1]):
            raise ValueError("backward order must reverse the forward order")
        if self.grouping not in GROUPINGS:
            raise ValueError(f"grouping must be one of {GROUPINGS}")
        object.__setattr__(self, "forward", fwd)
        object.__setattr__(self, "backward", bwd)


def build_gtbs_orders(num_views: int, num_joints: int,
                      grouping: str = "joint-major") -> ScanOrder:
    """Enumerate the (view, joint) grid into a scan order.

    joint-major lists joints 1..J within view 1..T; view-major transposes.
    """
    if num_views < 1 or num_joints < 1:
        raise ValueError("need at least one view and one joint")
    grid = np.arange(num_views * num_joints).reshape(num_views, num_joints)
    if grouping == "joint-major":
        forward = grid.reshape(-1)
    elif grouping == "view-major":
        forward = grid.T.reshape(-1)
    else:
        raise ValueError(f"grouping must be one of {GROUPINGS}")
    return ScanOrder(forward=forward, backward=forward[::-1], grouping=grouping)


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return inv

