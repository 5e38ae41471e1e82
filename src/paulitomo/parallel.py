"""Data-parallel gradient evaluation over measurement labels.

Work is split into contiguous, near-equal index ranges.  Each worker
computes the residual-gradient contribution of its own monomials against
a read-only Z; partial matrices are then summed in ascending worker
order, so the reduction is deterministic and agrees with the serial
gradient to floating-point reassociation (p = 1 is bit-identical, since
it runs the serial code path on the full range).

Workers are threads in one shared-memory pool; the per-iteration barrier
is the join on the submitted futures.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import optimizer


@dataclass(frozen=True)
class WorkPartition:
    """Contiguous ranges covering [0, m), sizes differing by at most one."""

    worker_count: int
    ranges: tuple

    def __post_init__(self):
        stop = 0
        for lo, hi in self.ranges:
            if lo != stop or hi < lo:
                raise ValueError(f"ranges must be contiguous and ordered, got {self.ranges}")
            stop = hi
        sizes = [hi - lo for lo, hi in self.ranges]
        if max(sizes) - min(sizes) > 1:
            raise ValueError(f"range sizes must differ by at most 1, got {sizes}")


def partition(m: int, p: int) -> WorkPartition:
    """Split m labels over p workers; the first m mod p ranges get one extra."""
    if p < 1 or p > m:
        raise ValueError(f"need 1 <= workers <= labels, got p={p}, m={m}")
    base, extra = divmod(m, p)
    ranges = []
    lo = 0
    for w in range(p):
        hi = lo + base + (1 if w < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return WorkPartition(worker_count=p, ranges=tuple(ranges))


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
    part = partition(sensing_map.m, p)
    if p == 1:
        return sensing_map.residual_gradient_range(y, z, 0, sensing_map.m)
    with ThreadPoolExecutor(max_workers=p) as pool:
        return _reduce_partials(pool, sensing_map, y, z, part.ranges)


def parallel_run(sensing_map, y, config, p: int, target=None):
    """optimizer.run with the gradient delegated to a persistent worker pool.

    The trace carries per-iteration gradient wall time; the iterate
    sequence matches the serial run up to reduction reassociation.
    """
    if p == 1:
        return optimizer.run(sensing_map, y, config, target=target)
    y = optimizer.observation_values(y)
    part = partition(sensing_map.m, p)
    with ThreadPoolExecutor(max_workers=p) as pool:

        def gradient_fn(z):
            return _reduce_partials(pool, sensing_map, y, z, part.ranges)

        return optimizer.run(sensing_map, y, config, target=target, gradient_fn=gradient_fn)
