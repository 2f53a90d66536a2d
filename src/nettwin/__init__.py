"""nettwin: a desk-scale learnable digital twin for packet-network KPIs.

Modules:
    nettopo    wired and wireless topology builders, flow sampling
    routing    seeded shortest-path routing and an exhaustive oracle
    simulator  event-driven on/off traffic simulator producing per-flow KPIs
    autodiff   reverse-mode tape over dense float64 tensors, Adam
    twin       graph-learning KPI predictors (glance, routenet, gnn)
    pipeline   dataset generation, preprocessing, training, evaluation
    manage     gradient and hill-climbing network management on a frozen twin
    cli        command-line entry points
"""

import os
import sys

__version__ = "0.1.0"


def _pin_blas_to_one_thread() -> None:
    """One BLAS thread here and in workers: OpenBLAS's threaded kernels round
    large products differently, so trained bytes would follow the core count."""
    # numpy's BLAS reads these as it loads: enough when nettwin loads first
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    if "numpy" in sys.modules:  # too late for those: ask its OpenBLAS itself
        import ctypes

        from numpy.linalg import _umath_linalg

        blas = ctypes.CDLL(_umath_linalg.__file__)
        # numpy 2.x wheels, numpy 1.x wheels, a system OpenBLAS
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads"):
            setter = getattr(blas, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


_pin_blas_to_one_thread()
