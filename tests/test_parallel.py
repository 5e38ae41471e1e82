import sys
import threading

import numpy as np
import pytest

from paulitomo import (
    OptimizerConfig,
    SensingMap,
    ghz,
    hadamard_all,
    observe,
    parallel_gradient,
    parallel_run,
    run,
    sample_monomials,
)
from paulitomo.cli import monomial_count
from paulitomo.measurements import monomial_from_code

from conftest import random_factor


def full_map(n):
    return SensingMap(n, [monomial_from_code(c, n) for c in range(4**n)], normalized=True)


def test_parallel_gradient_p1_bitwise(rng):
    smap = SensingMap(3, sample_monomials(3, 40, rng), normalized=True)
    z = random_factor(rng, 8, 1)
    y = rng.standard_normal(40)
    serial = smap.residual_gradient(y, z)
    assert np.array_equal(parallel_gradient(smap, y, z, 1), serial)


def test_parallel_gradient_matches_serial(rng):
    smap = full_map(3)
    state = ghz(3)
    y = observe(state, smap)
    z = random_factor(rng, 8, 1)
    serial = smap.residual_gradient(y, z)
    for p in (1, 2, 4, 8):
        assert np.array_equal(parallel_gradient(smap, y, z, p), serial)


def test_parallel_gradient_cross_p_consistency(rng):
    smap = full_map(3)
    z = random_factor(rng, 8, 2)
    y = rng.standard_normal(smap.m)
    serial = smap.residual_gradient(y, z)
    for p in (1, 2, 4, 8):
        assert np.array_equal(parallel_gradient(smap, y, z, p), serial)


def test_parallel_run_p1_identical(rng):
    state = hadamard_all(4)
    smap = SensingMap(4, sample_monomials(4, 60, rng), normalized=True)
    y = observe(state, smap, shots=512, seed=2)
    config = OptimizerConfig(rank=1, eta=1e-3, mu=0.5, maxiters=40, reltol=1e-300, init="random", seed=2)
    f_serial, t_serial = run(smap, y, config, target=state)
    f_par, t_par = parallel_run(smap, y, config, 1, target=state)
    assert np.array_equal(f_serial, f_par)
    assert [r.fidelity for r in t_serial] == [r.fidelity for r in t_par]


def test_parallel_run_matches_serial_fidelity():
    state = hadamard_all(4)
    smap = full_map(4)
    y = observe(state, smap)
    config = OptimizerConfig(rank=1, eta=1e-3, mu=0.75, maxiters=200, reltol=1e-5, init="random", seed=1)
    f_serial, t_serial = run(smap, y, config, target=state)
    f_par, t_par = parallel_run(smap, y, config, 4, target=state)
    assert np.array_equal(f_par, f_serial)
    assert [r.fidelity for r in t_par] == [r.fidelity for r in t_serial]
    assert all(rec.grad_time_s is not None for rec in t_par)


def test_worker_failure_propagates(rng):
    smap = SensingMap(2, sample_monomials(2, 8, rng), normalized=True)
    z = random_factor(rng, 4, 1)
    with pytest.raises(ValueError):
        parallel_gradient(smap, np.zeros(7), z, 2)  # wrong-length data surfaces


def test_threads_on_one_fresh_map_keep_their_own_buffers(rng):
    # The map's range calls write into per-thread buffers: two threads that
    # call one new n=8 map at once, 50 times each on their own range, get
    # the serial result of that range every time.
    n, d = 8, 256
    mono = sample_monomials(n, monomial_count(20, n), rng)
    z = random_factor(rng, d, 1)
    y = rng.standard_normal(len(mono))
    half = len(mono) // 2
    ranges = ((0, half), (half, len(mono)))
    reference = SensingMap(n, mono, normalized=True)
    expected = [reference.residual_gradient_range(y, z, lo, hi) for lo, hi in ranges]
    smap = SensingMap(n, mono, normalized=True)
    results = ([], [])
    start = threading.Barrier(2)

    def work(k):
        start.wait(timeout=60)
        for _ in range(50):
            results[k].append(smap.residual_gradient_range(y, z, *ranges[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    for k in range(2):
        assert len(results[k]) == 50
        assert all(np.array_equal(result, expected[k]) for result in results[k])
