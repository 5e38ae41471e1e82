"""The gradient and run entry points that take a worker count.

A gradient runs serially, as one residual_gradient call; the only
parallelism is the BLAS library's own threads (OPENBLAS_NUM_THREADS).
Splitting the monomials over Python workers made each worker form its own
d x d products, the dominant cost of a gradient, so it never beat the
serial call.  Both functions keep the worker count p in their signatures,
accepted and unused: acceptance criterion 07 and perfbench/workloads.py
call them with p, and perfbench/tracing.py patches parallel_run by name.
"""

import numpy as np

from . import optimizer


def parallel_gradient(sensing_map, y, z: np.ndarray, p: int) -> np.ndarray:
    """The residual gradient A^dagger(A(zz*) - y) z; p is accepted and unused."""
    return sensing_map.residual_gradient(y, z)


def parallel_run(sensing_map, y, config, p: int, target=None):
    """optimizer.run(sensing_map, y, config, target); p is accepted and unused."""
    return optimizer.run(sensing_map, y, config, target=target)
