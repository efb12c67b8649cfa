"""The element-product sampler behind every Monte Carlo path.

The digests below pin the random streams: each is the sha256 of the
float64 bytes a path returns for a fixed seed. Every count spans more
than one substream chunk, so a short final chunk drawn into reused
buffers is covered as well.
"""

import hashlib
import tracemalloc

import numpy as np

from lisnoma import (build_event, default_config, empirical_moments,
                     sample_cascade, simulate_ber, simulate_pep)
from lisnoma import checks
from lisnoma._util import CHUNK

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
    return {
        "sample_cascade.s": _digest(batch.s),
        "sample_cascade.q": _digest(batch.q),
        "simulate_pep": _digest([est.value, est.se]),
        "simulate_ber": _digest([c.errors for c in ber.values()]),
        "empirical_moments.mu": _digest(emp.mu),
        "empirical_moments.se": _digest(emp.se),
        "check3_draw": _digest(checks._draw_s(6, 0.5, SMALL + 999, seed=309)),
    }


def test_streams_match_their_recorded_digests():
    assert _digests() == GOLDEN


def test_draw_peaks_near_two_buffers():
    # two reused (n x M) buffers are the floor for these streams; three
    # would mean an element-product temporary per chunk
    n, M = CHUNK, 8
    tracemalloc.start()
    try:
        sample_cascade(default_config(M=M), 1, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * M * 8
