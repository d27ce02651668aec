"""Multi-view 3D pose estimation on synthetic camera rigs.

Joint-token hypotheses are refined layer by layer: project current 3D
keypoints into every view, aggregate deformable bilinear samples around the
anchors, run bidirectional selective state-space scans over the sampled
token sequence, and re-triangulate from offset-corrected 2D positions with
predicted confidences. Training, metrics, and a synthetic multi-camera scene
generator are included; see the cli module for the batch front-end.

Importing the package runs numpy's bundled OpenBLAS on one thread: a GEMM
split across threads sums in another order, so trained outputs would depend
on the core count.
"""

import ctypes
import glob
import os
import warnings

import numpy

__version__ = "0.1.0"


def _one_blas_thread():
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    try:
        setter = ctypes.CDLL(libs[0]).scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        warnings.warn("numpy's OpenBLAS thread setter was not found; BLAS keeps "
                      "its thread count, and results may depend on it")
        return
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(1)


_one_blas_thread()
