"""Multi-view 3D pose estimation on synthetic camera rigs.

Joint-token hypotheses are refined layer by layer: project current 3D
keypoints into every view, aggregate deformable bilinear samples around the
anchors, run bidirectional selective state-space scans over the sampled
token sequence, and re-triangulate from offset-corrected 2D positions with
predicted confidences. Training, metrics, and a synthetic multi-camera scene
generator are included; see the cli module for the batch front-end.

Importing the package runs numpy's bundled OpenBLAS on one thread: a GEMM
split across threads sums in another order, so trained outputs would depend
on the core count. It also tells glibc's allocator to keep freed memory in
the process: every op frees its tape, scan cache and sampling stencil when it
ends, and glibc would hand that memory back to the kernel only for the next
op to fault it in again, page by page. Outputs do not depend on the
allocator, so where this cannot be set (not glibc) the package carries on.
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


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap():
    # A freed block above the mmap threshold goes back to the kernel at once,
    # and a free heap top above the trim threshold is trimmed. glibc raises
    # both as it sees large blocks freed, the trim threshold to twice the
    # largest, but an op frees more than that at once, so each op trims what
    # the next one faults back in. Fixed values turn that adjustment off; set
    # both, since either alone leaves the other at its 128 KiB default and
    # faults more than glibc's adjustment does.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # 32 MiB is glibc's own ceiling for the dynamic mmap threshold
    if mallopt(_M_MMAP_THRESHOLD, 32 * 2 ** 20):
        mallopt(_M_TRIM_THRESHOLD, 2 ** 31 - 1)


_one_blas_thread()
_keep_freed_heap()
