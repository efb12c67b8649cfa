"""The element-product sampler behind every Monte Carlo path.

The digests below pin the random streams: each is the sha256 of the
float64 bytes a path returns for a fixed seed. Every count spans more
than one substream chunk, so a short final chunk is covered as well,
and the substreams run on the pool at any CPU count above one. The
sampler is checked against two whole `rng.rayleigh` draws per block,
and each consumer against a whole-chunk reference drawn that way, at
two CPUs.
"""

import hashlib
import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from lisnoma import (SystemConfig, build_event, default_config,
                     empirical_moments, sample_cascade, simulate_ber,
                     simulate_pep)
from lisnoma import _util, channel
from lisnoma._util import CHUNK, chunk_counts, chunk_rng, sample_sums
from lisnoma.channel import (_TILT_CHUNK, _TILT_DRAW, _slice_symbols,
                             _tilt_uniforms)
from lisnoma.pep import _resolve_n0, pep_conditional

SMALL = 1 << 18     # four chunks
BIG = 1 << 20       # sixteen chunks
# counts around one sampler block, and sixteen chunks with a short last one
COUNTS = [1, 4095, 4096, 4097, BIG + 333]

_R5 = math.sqrt(5.0)
# three users, the middle one on a unit-energy 4-PAM alphabet: the slicer
# takes its argmin path, and user 3 cancels two users before deciding
L3 = SystemConfig(M=4, d_R=(4.0, 2.5, 1.5), P=(0.8, 0.18, 0.02),
                  constellation=((-1.0, 1.0),
                                 (-3 / _R5, -1 / _R5, 1 / _R5, 3 / _R5),
                                 (-1.0, 1.0)))

GOLDEN = {
    "sample_cascade.s":
        "33c15cc2b9442bf87071fa40c7d94e0de105886f4d235e3ab1c415b9a6df27f5",
    "sample_cascade.q":
        "832d35087fa34f0c2baffe9e58db401c8d0299467cffa81804f989e27eb70509",
    "simulate_pep":
        "089383a42dcb3b65a17d0b841d2c909f611746d1bcc03aec9b120561798fa428",
    "simulate_ber":
        "1fd7066b55779346e0055949dc10613f7cbec1aaec9c1239b20eb542c2d45e45",
    "empirical_moments.mu":
        "cfd706fbeed63c515ce338e3cb4c1b0c4d59a1ffb4f03929724c85fcfe66de6a",
    "empirical_moments.se":
        "cda04d11ad0a86c046cb1aca9d3db7f2cc9ad22e1db9981ae68f1953838c8226",
    "check3_draw":
        "b0fbddcd2df09bcabde5a9e0fd6300e2ba9c645bc56a35f9eed90bdaab92af88",
    "simulate_pep.tilted.M3":
        "91230f0f156e68f406a51d6d8595145dbedd5f1415a62e640af9e834d90773ef",
    "simulate_pep.tilted.M15":
        "7f8eb25c077b8738e61b40016b295849a3d11037e8d6f251eba463e9ceed3f6d",
    "simulate_ber.grid":
        "037b0a5958fab10fbe186de3805e58c3aebc03af79d48e1916d5888d38470b7d",
    "sample_sums.M15":
        "5020dfb5796985e9be47750d9971c3e93da9405464c3205b6947569e5267468e",
    "simulate_ber.L3":
        "c5b503e4c400bed845f8eebe24a3dc3672939f53e2092ecb589693c93d6cb6aa",
}


def _digest(values) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def _digests() -> dict:
    cfg = default_config(M=3)
    batch = sample_cascade(cfg, 2, BIG + 4097, seed=7)
    cfg15 = default_config(M=15)
    ev = build_event(cfg15, 1, (1.0, 1.0), -1.0)
    est = simulate_pep(cfg15, 1, interference=ev, snr_db=5.0,
                       trials=BIG + 1001, seed=5, importance=False)
    ber = simulate_ber(default_config(M=2), (6.0,), frames=BIG + 333,
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
                        frames=BIG + 333, seed=11)
    ber3 = simulate_ber(L3, (20.0,), frames=BIG + 333, seed=19)
    return {
        "sample_cascade.s": _digest(batch.s),
        "sample_cascade.q": _digest(batch.q),
        "simulate_pep": _digest([est.value, est.se]),
        "simulate_ber": _digest([c.errors for c in ber.values()]),
        "empirical_moments.mu": _digest(emp.mu),
        "empirical_moments.se": _digest(emp.se),
        "check3_draw": _digest(sample_sums(6, 0.5, SMALL + 999, 309)),
        "simulate_pep.tilted.M3": _digest(tilted[3]),
        "simulate_pep.tilted.M15": _digest(tilted[15]),
        "simulate_ber.grid": _digest([c.errors for c in grid.values()]),
        "sample_sums.M15": _digest(sample_sums(15, 0.5, 3 * SMALL + 999,
                                               311)),
        "simulate_ber.L3": _digest([c.errors for c in ber3.values()]),
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
    # not its threads; reusing that pool would wait forever, whether for
    # three substreams or for a lone one
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    args = [(3, 0.5, 2 * CHUNK + 5, 1), (3, 0.5, 3 * 4096 + 5, 1)]
    want = [sample_sums(*a) for a in args]
    with multiprocessing.get_context("fork").Pool(1) as pool:
        for a, w in zip(args, want):
            got = pool.apply_async(sample_sums, a)
            assert np.array_equal(got.get(timeout=60), w)


def _block_sums(rng, n, M, scale):
    """The cascade sums as the sampler lays out its stream: each block of
    rows takes a whole (rows x M) Rayleigh draw of h, then one of g."""
    sums = []
    for a in range(0, n, _util._BLOCK):
        rows = min(n, a + _util._BLOCK) - a
        h = rng.rayleigh(scale, (rows, M))
        sums.append((h * rng.rayleigh(scale, (rows, M))).sum(axis=1))
    return np.concatenate(sums)


def _call_rows(M):
    """Rows of the B whole blocks that one sampler draw call takes at M."""
    return max(1, _util._DRAW // (_util._BLOCK * M)) * _util._BLOCK


def _draw_boundaries(M):
    """Counts around the ends of the first two draw calls at M."""
    rows = _call_rows(M)
    return [rows - 1, rows + 1, 2 * rows + 1]


@pytest.mark.parametrize("n, M", sorted(
    {(n, M) for M in (1, 3, 15, 64)
     for n in (1, 4095, 4096, 4097, 3 * 4096 + 5)}
    | {(n, M) for M in (1, 2, 3, 15, 16, 17)
       for n in [1, 4095, 4096, 4097, CHUNK] + _draw_boundaries(M)},
    key=lambda nm: (nm[1], nm[0])))
def test_element_sums_equal_two_whole_rayleigh_draws(n, M):
    # each block's sums are those of two whole Rayleigh draws of its rows,
    # h then g, and the generator ends where those draws leave it; a g
    # that repeated h, or a block drawn out of turn, fails here. One call
    # draws several whole blocks at small M: the counts run across the
    # boundaries of those calls and end in whole or short blocks
    want_rng = np.random.default_rng(17)
    want = _block_sums(want_rng, n, M, 0.7)
    rng = np.random.default_rng(17)
    got = _util.element_sums(rng, n, M, 0.7)
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_draw_peak_does_not_grow_with_the_element_count(monkeypatch):
    # the sums s and gains q take 2 n floats; while they are drawn, each
    # of the two running substreams holds two blocks of M floats, 0.5 n
    # at M = 64; one whole (n x M) hop alone is 8 n floats at M = 8
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    n = BIG
    for M in (8, 64):
        tracemalloc.start()
        try:
            sample_cascade(default_config(M=M), 1, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * 8, M


@pytest.mark.parametrize("n", COUNTS)
def test_block_normal_draws_equal_one_whole_draw(n):
    # the link simulator draws its noise one block at a time
    want_rng = np.random.default_rng(23)
    want = want_rng.normal(0.0, 0.3, n)
    rng = np.random.default_rng(23)
    got = np.concatenate([rng.normal(0.0, 0.3, min(n, a + _util._BLOCK) - a)
                          for a in range(0, n, _util._BLOCK)])
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


def _block_loop(rng, n, M):
    """``element_sums`` called once per block of rows, in order."""
    return np.concatenate([
        _util.element_sums(rng, min(n, a + _util._BLOCK) - a, M, 0.7)
        for a in range(0, n, _util._BLOCK)])


@pytest.mark.parametrize("n", COUNTS)
def test_block_loop_yields_the_element_sums_in_order(n):
    # a block's draws follow the last block's in the stream, so one call
    # over n rows equals one call per block, into ``out`` or not
    want_rng = np.random.default_rng(29)
    want = _block_loop(want_rng, n, 3)
    rng = np.random.default_rng(29)
    out = np.full(n, np.nan)
    assert _util.element_sums(rng, n, 3, 0.7, out) is out
    assert np.array_equal(out, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


# Substreams with two CPUs, where every key, a lone one too, runs on the
# pool: the full count runs at M <= 3 only, where the reference's draws
# stay small.

def _lone(fn):
    """``fn()`` run as the only key of ``substreams``, from a thread of
    its own that must end within a minute."""
    ended = []

    def run():
        try:
            ended.append((True, next(_util.substreams(lambda key: fn(),
                                                      [0]))))
        except BaseException as exc:    # handed to the test's thread
            ended.append((False, exc))

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "a lone substream did not end"
    ok, value = ended[0]
    if not ok:
        raise value
    return value


def _assert_pool_idle(workers=2):
    # every worker of the pool must take one of these at once; a worker
    # still held by a substream breaks the barrier
    barrier = threading.Barrier(workers)
    pool = _util._pool(workers, os.getpid())
    for task in [pool.submit(barrier.wait, 30) for _ in range(workers)]:
        task.result(timeout=60)


@pytest.mark.parametrize("M, n", [(M, n) for M in (1, 3, 15, 64)
                                  for n in COUNTS[:-1] + [9 * 4096 + 5]]
                         + [(1, COUNTS[-1]), (3, COUNTS[-1])])
def test_lone_substream_sums_equal_two_whole_rayleigh_draws(monkeypatch, M,
                                                            n):
    # a lone key runs on a pool worker, which draws the same bits
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    want_rng = np.random.default_rng(17)
    want = _block_sums(want_rng, n, M, 0.7)
    rng = np.random.default_rng(17)
    got, thread = _lone(lambda: (_util.element_sums(rng, n, M, 0.7),
                                 threading.current_thread().name))
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state
    assert thread.startswith("lisnoma")


@pytest.mark.parametrize("n", COUNTS)
def test_lone_block_loop_yields_the_sums_in_order(monkeypatch, n):
    # the block loop, run as a lone substream on the pool, equals one
    # call over n rows in this thread
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    want_rng = np.random.default_rng(29)
    want = _util.element_sums(want_rng, n, 3, 0.7)
    rng = np.random.default_rng(29)
    got = _lone(lambda: _block_loop(rng, n, 3))
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n", COUNTS[:-1] + [9 * 4096 + 5])
def test_block_loop_without_out_keeps_each_slot_until_the_next(monkeypatch,
                                                                cpus, n):
    # without ``out`` each substream's sums are a new array: the consumer
    # waits before it reads each one, so substreams that ran ahead into
    # shared scratch would show
    monkeypatch.setattr(_util, "_cpu_count", lambda: cpus)
    want = [_util.element_sums(np.random.default_rng(s), n, 3, 0.7)
            for s in range(6)]
    got = []
    for sums in _util.substreams(lambda s: _util.element_sums(
            np.random.default_rng(s), n, 3, 0.7), range(6)):
        assert sums.size == n
        time.sleep(0.002)
        got.append(sums)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert len({id(g) for g in got}) == 6


@pytest.mark.parametrize("cpus", [2, 3])
def test_results_come_in_key_order_whatever_order_calls_end(monkeypatch,
                                                            cpus):
    # each call sleeps longer the smaller its key, so the pool's calls end
    # in about the reverse of key order; the consumer still gets them in
    # key order, and each key runs once
    monkeypatch.setattr(_util, "_cpu_count", lambda: cpus)
    keys = list(range(7))
    ran = []

    def call(key):
        time.sleep(0.01 * (len(keys) - key))
        ran.append(key)
        return key, threading.current_thread().name

    got = list(_util.substreams(call, keys))
    assert [key for key, _ in got] == keys
    assert sorted(ran) == keys
    assert ran != keys          # the calls did end out of key order
    assert all(name.startswith("lisnoma") for _, name in got)


@pytest.mark.parametrize("stop", ["after one block", "by raising"])
def test_lone_consumer_that_stops_leaves_the_pool_usable(monkeypatch, stop):
    # the consumer stops after its first result, while slow substreams
    # it no longer waits for are running or queued: the queued ones are
    # cancelled, the running ones end on their own, and the pool then
    # runs the next call
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    n = 9 * 4096
    started = []

    def slow(s):
        # the first key returns at once, so both workers are still busy
        # with the next two keys when the consumer stops
        started.append(s)
        time.sleep(0.05 if s else 0.0)
        return _util.element_sums(np.random.default_rng(s), n, 3, 0.7)

    def consume():
        for _ in _util.substreams(slow, range(8)):
            if stop == "by raising":
                raise KeyError("consumer")
            break

    if stop == "by raising":
        with pytest.raises(KeyError, match="consumer"):
            consume()
    else:
        consume()
    _assert_pool_idle()
    # the first key, and one running call per worker; every key is
    # submitted at once, so all eight run when nothing cancels the queued
    # ones
    assert len(started) <= 3, started

    want = _util.element_sums(np.random.default_rng(5), n, 3, 0.7)
    assert np.array_equal(_lone(lambda: _util.element_sums(
        np.random.default_rng(5), n, 3, 0.7)), want)


def test_lone_substreams_of_more_threads_than_workers(monkeypatch):
    # four calling threads share two pool workers and switch every
    # microsecond: each waits its turn for a worker and gets its own sums
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    n = 9 * 4096 + 5
    want = [_util.element_sums(np.random.default_rng(s), n, 3, 0.7)
            for s in range(4)]
    got = [None] * 4

    def call(s):
        got[s] = next(_util.substreams(lambda key: _util.element_sums(
            np.random.default_rng(s), n, 3, 0.7), [0]))

    callers = [threading.Thread(target=call, args=(s,), daemon=True)
               for s in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_lone_worker_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    calls = []

    def fail():
        calls.append(threading.current_thread().name)
        raise FloatingPointError("worker")

    with pytest.raises(FloatingPointError, match="worker"):
        _lone(fail)
    assert calls == [calls[0]] and calls[0].startswith("lisnoma")
    _assert_pool_idle()


def test_plain_point_bits_do_not_depend_on_the_cpu_count(monkeypatch):
    # a 2^20-trial point spans sixteen substreams, which one, two or
    # three workers share out differently; the chunks' sums are added in
    # key order either way
    cfg = default_config(M=15)
    ev = build_event(cfg, 1, (1.0, 1.0), -1.0)
    got = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_util, "_cpu_count", lambda: cpus)
        est = simulate_pep(cfg, 1, interference=ev, snr_db=10.0,
                           trials=BIG, seed=53)
        got.append((est.value.hex(), est.se.hex()))
    assert est.kappa == 1.0
    assert got[0] == got[1] == got[2]


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("importance", [False, True],
                         ids=["plain", "tilted"])
def test_kernel_calls_come_one_at_a_time(monkeypatch, importance, cpus):
    # every substream runs the conditional kernel on its own chunk, one
    # at a time under a lock: a caller that wraps the kernel, as the
    # benchmark's tracer does with a span stack and a counter that are
    # not locked, never sees two calls overlap. Each call here sleeps, so
    # two threads inside at once would show
    monkeypatch.setattr(_util, "_cpu_count", lambda: cpus)
    kernel = channel.pep_conditional
    inside, depths, threads = [], [], set()

    def detector(*args, **kwargs):
        inside.append(None)
        depths.append(len(inside))
        threads.add(threading.current_thread().name)
        try:
            time.sleep(0.005)
            return kernel(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(channel, "pep_conditional", detector)
    cfg = default_config(M=3)
    ev = build_event(cfg, 1, (1.0, 1.0), -1.0)
    chunk = _TILT_CHUNK if importance else CHUNK
    est = simulate_pep(cfg, 1, interference=ev,
                       snr_db=30.0 if importance else 5.0,
                       trials=6 * chunk + 5, seed=47, importance=importance)
    assert (est.kappa < 1.0) == importance
    assert len(depths) == 7 and max(depths) == 1
    assert all(t.startswith("lisnoma") for t in threads), threads


# Whole-chunk references: the consumers as they were written before they
# streamed, each holding its chunk's arrays whole, on the sampler's
# stream layout.

def _pep_reference(config, user, event, snr_db, trials, seed):
    rd = math.sqrt(config.distance_factor(user))
    N0 = _resolve_n0(snr_db)
    scale = math.sqrt(config.sigma2)
    total = total2 = 0.0
    for idx, n in chunk_counts(trials):
        s_sum = _block_sums(chunk_rng(seed, idx), n, config.M, scale)
        s_sum /= rd
        vals = np.asarray(pep_conditional(s_sum, event, N0=N0))
        total += float(vals.sum())
        total2 += float((vals * vals).sum())
    mean = total / trials
    return mean, math.sqrt(max(0.0, total2 / trials - mean * mean) / trials)


def _ber_reference(config, snr_db, frames, seed):
    scale = math.sqrt(config.sigma2)
    roots = [math.sqrt(p) for p in config.P]
    errors = np.zeros((len(snr_db), config.L), dtype=np.int64)
    for pi, snr in enumerate(snr_db):
        nstd = math.sqrt(_resolve_n0(snr) / 2.0)
        for idx, n in chunk_counts(frames):
            sym_rng = chunk_rng(seed, pi, 0, idx)
            xs = [c[sym_rng.integers(0, len(c), n)]
                  for c in map(np.asarray, config.constellation)]
            tx = sum(r * x for r, x in zip(roots, xs))
            for user in range(1, config.L + 1):
                rng = chunk_rng(seed, pi, user, idx)
                q = _block_sums(rng, n, config.M, scale)
                q /= math.sqrt(config.distance_factor(user))
                residual = q * tx + rng.normal(0.0, nstd, n)
                for i in range(user - 1):
                    xhat = _slice_symbols(residual, q * roots[i],
                                          config.constellation[i])
                    residual = residual - q * roots[i] * xhat
                own = _slice_symbols(residual, q * roots[user - 1],
                                     config.constellation[user - 1])
                errors[pi, user - 1] += int(np.sum(own != xs[user - 1]))
    return errors.T.tolist()


def _moments_reference(M, sigma2, samples, seed):
    block = max(2500, -(-samples // 64))
    sums, counts = [], []
    for idx, n in chunk_counts(samples):
        s = _block_sums(chunk_rng(seed, idx), n, M, math.sqrt(sigma2))
        p = np.empty((4, n))
        p[0] = s
        for k in range(1, 4):
            p[k] = p[k - 1] * s
        for a in range(0, n, block):
            sums.append(p[:, a:a + block].sum(axis=1))
            counts.append(min(n, a + block) - a)
    sums = np.array(sums)
    counts = np.array(counts, dtype=float)
    total = counts.sum()
    C = len(counts)
    se = []
    for k in range(4):
        loo = (sums[:, k].sum() - sums[:, k]) / (total - counts)
        se.append(math.sqrt((C - 1) / C * np.sum((loo - loo.mean()) ** 2)))
    return tuple(sums.sum(axis=0) / total), tuple(se)


@pytest.mark.parametrize("n", COUNTS)
def test_plain_pep_equals_its_whole_chunk_reference(monkeypatch, n):
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    cfg = default_config(M=3)
    ev = build_event(cfg, 1, (1.0, 1.0), -1.0)
    est = simulate_pep(cfg, 1, interference=ev, snr_db=5.0, trials=n,
                       seed=31)
    assert est.kappa == 1.0
    assert (est.value, est.se) == _pep_reference(cfg, 1, ev, 5.0, n, 31)


@pytest.mark.parametrize("n", COUNTS)
def test_link_simulation_equals_its_whole_chunk_reference(monkeypatch, n):
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    got = simulate_ber(L3, (10.0, 20.0), frames=n, seed=37)
    assert [list(c.errors) for c in got.values()] == _ber_reference(
        L3, (10.0, 20.0), n, 37)


# empirical_moments takes at least MIN_SAMPLES; the counts give one short
# jackknife block, a chunk ending in a short block, and blocks wider than
# numpy's 8,192-element reduction buffer
@pytest.mark.parametrize("n", [10_000, SMALL + 333, BIG + 333])
def test_sampled_moments_equal_their_whole_chunk_reference(monkeypatch, n):
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    got = empirical_moments(2, 0.5, samples=n, seed=41)
    assert (got.mu, got.se) == _moments_reference(2, 0.5, n, 41)


def _traced_peak(fn):
    # a first, untraced call makes what the process allocates once, on
    # first use, which would otherwise fall inside the traced window when
    # a test runs alone
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _plain_pep(trials):
    cfg = default_config(M=15)
    ev = build_event(cfg, 1, (1.0, 1.0), -1.0)
    return simulate_pep(cfg, 1, interference=ev, snr_db=5.0, trials=trials)


@pytest.mark.parametrize("run, M, bound", [
    (lambda M: simulate_ber(default_config(M=M), (6.0,), frames=SMALL), 6,
     2.0),
    (lambda M: empirical_moments(M, 0.5, samples=SMALL), 15, 2.0),
], ids=["ber", "moments"])
def test_consumers_hold_one_chunk_array(monkeypatch, run, M, bound):
    # at one CPU a consumer keeps one chunk-length float array beside the
    # sampler's draw, h and g of its whole blocks: the gains q (and one
    # index draw) for the link simulator, the sums for the moments, over
    # four chunks; whole-chunk folds peaked at about 11 and 6 such arrays.
    # The draw takes two blocks at M = 6, one at M = 15
    monkeypatch.setattr(_util, "_cpu_count", lambda: 1)
    assert _traced_peak(lambda: run(M)) <= (bound * CHUNK
                                            + 2 * _call_rows(M) * M) * 8


@pytest.mark.parametrize("cpus", [1, 2])
def test_plain_pep_holds_one_chunk_per_worker(monkeypatch, cpus):
    # each running substream holds its chunk's gains beside either the
    # sampler's draw, one block of h and g at M = 15, or the kernel's
    # values; what it returns is four floats, so nothing waits for the
    # calling thread. Eight block-length floats are left for the small
    # temporaries. Returning each chunk's gains to the calling thread
    # took 4.9 MB at two CPUs, and keeping all 2^20 values 8 MB
    monkeypatch.setattr(_util, "_cpu_count", lambda: cpus)
    draw = 2 * 15 * _util._BLOCK
    bound = (cpus * (CHUNK + max(draw, CHUNK)) + 8 * _util._BLOCK) * 8
    assert _traced_peak(lambda: _plain_pep(BIG)) <= bound


def test_tilted_pep_holds_one_chunk_of_draws(monkeypatch):
    # a tilted substream draws its chunk's three uniforms per element and
    # row one group of element rows at a time, 3 _TILT_DRAW floats, and
    # folds each group into three chunk-length sums before it returns two
    # chunk-length arrays; at one CPU each chunk is folded before the next
    # is drawn, so the peak is one group beside eleven chunk-length
    # arrays, whatever M and the trial count. The whole (M, 3, chunk)
    # draw took 5.9 MB at M = 15
    monkeypatch.setattr(_util, "_cpu_count", lambda: 1)
    cfg = default_config(M=15)
    ev = build_event(cfg, 1, (1.0, 1.0), -1.0)
    est = []
    peak = _traced_peak(lambda: est.append(simulate_pep(
        cfg, 1, interference=ev, snr_db=30.0, trials=1 << 18, seed=5,
        importance=True)))
    assert est[0].kappa < 1.0
    assert peak <= (3 * _TILT_DRAW + 11 * _TILT_CHUNK) * 8


@pytest.mark.parametrize("M", [1, 3, 4, 5, 15, 64])
@pytest.mark.parametrize("n", [1, 5, _TILT_CHUNK])
def test_grouped_tilted_draw_equals_one_whole_draw(M, n):
    # each group of element rows is the next draw in the stream, so the
    # groups are the rows of one whole (M, 3, n) draw, and the generator
    # ends where that draw leaves it; M = 5 and 15 end in a short group
    # of rows at a full chunk
    want_rng = np.random.default_rng(43)
    want = want_rng.random((M, 3, n))
    rng = np.random.default_rng(43)
    got = []
    for u in _tilt_uniforms(rng, M, n):
        assert u.shape[0] == 3 and u.shape[2] == n
        got.append(u.transpose(1, 0, 2).copy())
    assert len(got) == -(-M // max(1, _TILT_DRAW // n))
    assert np.array_equal(np.concatenate(got), want)
    assert rng.bit_generator.state == want_rng.bit_generator.state
