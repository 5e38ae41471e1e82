"""Data-parallel gradient evaluation over measurement labels.

Work is split into contiguous, near-equal index ranges.  Each worker
computes the residual-gradient contribution of its own monomials against
a read-only Z; partial matrices are then summed in ascending worker
order, so the reduction is deterministic and agrees with the serial
gradient to floating-point reassociation (p = 1 is bit-identical, since
it runs the serial code path on the full range).  A SensingMap's ranges
index its flip order, so they cover disjoint runs of flip groups and each
worker pays for about G/p of its G Walsh-Hadamard transforms.

Workers are threads in one shared-memory pool; the per-iteration barrier
is the join on the submitted futures.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import optimizer


def partition(m: int, p: int) -> tuple:
    """Split m labels over p workers: contiguous (lo, hi) ranges covering
    [0, m) in order, the first m mod p of them one longer than the rest."""
    if p < 1 or p > m:
        raise ValueError(f"need 1 <= workers <= labels, got p={p}, m={m}")
    base, extra = divmod(m, p)
    bounds = [w * base + min(w, extra) for w in range(p + 1)]
    return tuple(zip(bounds[:-1], bounds[1:]))


def _reduce_partials(pool, sensing_map, y, z, ranges) -> np.ndarray:
    """Submit one residual-gradient range per worker; sum in worker order."""
    futures = [
        pool.submit(sensing_map.residual_gradient_range, y, z, lo, hi) for lo, hi in ranges
    ]
    partials = [f.result() for f in futures]
    total = partials[0]
    for partial in partials[1:]:
        total = total + partial
    return total


def parallel_gradient(sensing_map, y, z: np.ndarray, p: int) -> np.ndarray:
    """Residual gradient computed by p workers and a fixed-order reduction."""
    y = optimizer.observation_values(y)
    ranges = partition(sensing_map.m, p)
    with ThreadPoolExecutor(max_workers=p) as pool:
        return _reduce_partials(pool, sensing_map, y, z, ranges)


def parallel_run(sensing_map, y, config, p: int, target=None):
    """optimizer.run with the gradient delegated to a persistent worker pool.

    The trace carries per-iteration gradient wall time; the iterate
    sequence matches the serial run up to reduction reassociation.
    """
    if p == 1:
        return optimizer.run(sensing_map, y, config, target=target)
    y = optimizer.observation_values(y)
    ranges = partition(sensing_map.m, p)
    with ThreadPoolExecutor(max_workers=p) as pool:

        def gradient_fn(z):
            return _reduce_partials(pool, sensing_map, y, z, ranges)

        return optimizer.run(sensing_map, y, config, target=target, gradient_fn=gradient_fn)
