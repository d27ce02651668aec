"""Scan orders over sampled (view, joint) token grids.

Tokens are stored flat with index t * num_joints + j, so the joint-major
order keeps each view's joint chain contiguous; the view-major order visits
one joint across all views before moving to the next joint. An order is a
permutation of the flat token indices. The bidirectional scan that runs a
forward pass along the order and a second pass along its reversal, then
merges them by elementwise sum, is pipeline._scan_branch.
"""

from __future__ import annotations

import numpy as np

GROUPINGS = ("joint-major", "view-major")


def build_gtbs_orders(num_views: int, num_joints: int,
                      grouping: str = "joint-major") -> np.ndarray:
    """Enumerate the (view, joint) grid into a scan order, the forward
    permutation of the flat token indices.

    joint-major lists joints 1..J within view 1..T; view-major transposes.
    """
    if num_views < 1 or num_joints < 1:
        raise ValueError("need at least one view and one joint")
    grid = np.arange(num_views * num_joints).reshape(num_views, num_joints)
    if grouping == "joint-major":
        return grid.reshape(-1)
    if grouping == "view-major":
        return grid.T.reshape(-1)
    raise ValueError(f"grouping must be one of {GROUPINGS}")
