"""The element-product sampler behind every Monte Carlo path.

The digests below pin the random streams: each is the sha256 of the
float64 bytes a path returns for a fixed seed. Every count spans more
than one substream chunk, so a short final chunk drawn into reused
buffers is covered as well, and the substreams run on the pool at any
CPU count above one.
"""

import hashlib
import multiprocessing
import tracemalloc

import numpy as np
import pytest

from lisnoma import (build_event, default_config, empirical_moments,
                     sample_cascade, simulate_ber, simulate_pep)
from lisnoma import _util
from lisnoma._util import CHUNK, SMALL_CHUNK, sample_sums
from lisnoma.channel import _TILT_CHUNK

SMALL = 1 << 18     # rows per substream of the moment and density checks

GOLDEN = {
    "sample_cascade.s":
        "68e5017c258b9cfd1b347a401cc28129aaf6b32c012bd845182178f7fae55e54",
    "sample_cascade.q":
        "264c06c97a39da71fe7a6f7db62b0902839a1fe57dc6d68e03f477a520276944",
    "simulate_pep":
        "a11a274ad878476bc25824faad16a987e6bfca0d7856ff76fb7ecfe1f4c2df6e",
    "simulate_ber":
        "5ef317f090f9135a9af20f7f6edf5a2f7d1e03ddc53f7726fb14c0c9276a0d97",
    "empirical_moments.mu":
        "4584ef3ee64a00d2e5897e415e36dc58e439f6ccc30c027dc205b9cf1b9105e6",
    "empirical_moments.se":
        "47e8020240c96a5ef815eabb62d337be335a94298d0eda81f0adc1f2966a34d5",
    "check3_draw":
        "190618e0edf84ed8ca508fc6f00f0cd1e80d0c940cb94a153d7ca5b7bf1f133f",
    "simulate_pep.tilted.M3":
        "ac942d01e3545b67d9a241ed91ed43cfa809d9bc4995d1442ac720dacb85a1d4",
    "simulate_pep.tilted.M15":
        "aacb38a8e1268055a7aaea9ca77e12a51adf8621b253a9bd2e20f8f15a09bd3b",
    "simulate_ber.grid":
        "e149ed4f7487723ecdc67ee99fd8e012c585c874ab7a27e6e942aaac4a155c99",
    "sample_sums.M15":
        "cd3da5afead21dfba6a7ca2d608b6839c1dacb32907916b2d736a8df91ec98f3",
}


def _digest(values) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def _digests() -> dict:
    cfg = default_config(M=3)
    batch = sample_cascade(cfg, 2, CHUNK + 4097, seed=7)
    cfg15 = default_config(M=15)
    ev = build_event(cfg15, 1, (1.0, 1.0), -1.0)
    est = simulate_pep(cfg15, 1, interference=ev, snr_db=5.0,
                       trials=CHUNK + 1001, seed=5, importance=False)
    ber = simulate_ber(default_config(M=2), (6.0,), frames=CHUNK + 333,
                       seed=9)
    emp = empirical_moments(4, 0.5, samples=2 * SMALL + 777, seed=3)
    tilted = {}
    for M in (3, 15):
        cfg_m = default_config(M=M)
        ev_m = build_event(cfg_m, 1, (1.0, 1.0), -1.0)
        e = simulate_pep(cfg_m, 1, interference=ev_m, snr_db=30.0,
                         trials=3 * _TILT_CHUNK + 1234, seed=13,
                         importance=True)
        assert e.kappa < 1.0
        tilted[M] = [e.value, e.se, e.ess, e.kappa]
    grid = simulate_ber(default_config(M=2), (0.0, 6.0, 12.0),
                        frames=CHUNK + 333, seed=11)
    return {
        "sample_cascade.s": _digest(batch.s),
        "sample_cascade.q": _digest(batch.q),
        "simulate_pep": _digest([est.value, est.se]),
        "simulate_ber": _digest([c.errors for c in ber.values()]),
        "empirical_moments.mu": _digest(emp.mu),
        "empirical_moments.se": _digest(emp.se),
        "check3_draw": _digest(sample_sums(6, 0.5, SMALL + 999, 309,
                                           SMALL_CHUNK)),
        "simulate_pep.tilted.M3": _digest(tilted[3]),
        "simulate_pep.tilted.M15": _digest(tilted[15]),
        "simulate_ber.grid": _digest([c.errors for c in grid.values()]),
        "sample_sums.M15": _digest(sample_sums(15, 0.5, 3 * SMALL + 999,
                                               311, SMALL_CHUNK)),
    }


def test_streams_match_their_recorded_digests():
    assert _digests() == GOLDEN


@pytest.mark.parametrize("cpus", [1, 3])
def test_streams_do_not_depend_on_the_cpu_count(monkeypatch, cpus):
    # one CPU runs every substream in the calling thread; three start a
    # pool that may be wider than the CPUs present
    monkeypatch.setattr(_util, "_cpu_count", lambda: cpus)
    assert _digests() == GOLDEN


def test_forked_child_starts_its_own_pool(monkeypatch):
    # a child forked after the parent's pool ran inherits its state but
    # not its threads; reusing that pool would wait forever
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    want = sample_sums(3, 0.5, 3000, 1, 1000)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply_async(sample_sums, (3, 0.5, 3000, 1, 1000))
        assert np.array_equal(got.get(timeout=60), want)


@pytest.mark.parametrize("M", [1, 3, 15, 64])
@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_element_sums_equal_two_whole_rayleigh_draws(M, n):
    # the replayed first hop must take the stream positions of a whole
    # first draw, and leave the generator where two whole draws leave it
    want_rng = np.random.default_rng(17)
    want = (want_rng.rayleigh(0.7, (n, M))
            * want_rng.rayleigh(0.7, (n, M))).sum(axis=1)
    rng = np.random.default_rng(17)
    got = _util.element_sums(rng, n, M, 0.7,
                             np.empty(_util.element_scratch(n, M)))
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_draw_peak_does_not_grow_with_the_element_count():
    # the sums s and gains q take 2 n floats and the sampler's two blocks
    # the rest, at any M; one whole (n x M) hop alone is 8 n floats at M = 8
    n = CHUNK
    for M in (8, 64):
        tracemalloc.start()
        try:
            sample_cascade(default_config(M=M), 1, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * 8, M
