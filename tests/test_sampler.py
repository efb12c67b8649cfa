"""The element-product sampler behind every Monte Carlo path.

The digests below pin the random streams: each is the sha256 of the
float64 bytes a path returns for a fixed seed. Every count spans more
than one substream chunk, so a short final chunk is covered as well,
and the substreams run on the pool at any CPU count above one. The
plain consumers fold the sampler's output one block at a time; each is
checked against a whole-chunk reference, at two CPUs, where a count of
up to one chunk runs as a lone substream whose sampler borrows a pool
worker.
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
from lisnoma import _util
from lisnoma._util import (CHUNK, SMALL_CHUNK, chunk_counts, chunk_rng,
                           sample_sums)
from lisnoma.channel import (_TILT_CHUNK, _TILT_DRAW, _add_rows,
                             _slice_symbols, _tilt_uniforms)
from lisnoma.pep import _resolve_n0, pep_conditional

SMALL = 1 << 18     # rows per substream of the moment and density checks
# counts around one sampler block and one chunk, with a short last chunk
COUNTS = [1, 4095, 4096, 4097, CHUNK + 333]

_R5 = math.sqrt(5.0)
# three users, the middle one on a unit-energy 4-PAM alphabet: the slicer
# takes its argmin path, and user 3 cancels two users before deciding
L3 = SystemConfig(M=4, d_R=(4.0, 2.5, 1.5), P=(0.8, 0.18, 0.02),
                  constellation=((-1.0, 1.0),
                                 (-3 / _R5, -1 / _R5, 1 / _R5, 3 / _R5),
                                 (-1.0, 1.0)))

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
    "simulate_ber.L3":
        "9303e8e92acb080735e1b15300defaab1a149b54f21e1f32f1574df1c6893724",
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
    ber3 = simulate_ber(L3, (20.0,), frames=CHUNK + 333, seed=19)
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
    # three substreams or for the worker that a lone one borrows
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    args = [(3, 0.5, 3000, 1, 1000), (3, 0.5, 3 * 4096 + 5, 1)]
    want = [sample_sums(*a) for a in args]
    with multiprocessing.get_context("fork").Pool(1) as pool:
        for a, w in zip(args, want):
            got = pool.apply_async(sample_sums, a)
            assert np.array_equal(got.get(timeout=60), w)


@pytest.mark.parametrize("M", [1, 3, 15, 64])
@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_element_sums_equal_two_whole_rayleigh_draws(M, n):
    # the replayed first hop must take the stream positions of a whole
    # first draw, and leave the generator where two whole draws leave it
    want_rng = np.random.default_rng(17)
    want = (want_rng.rayleigh(0.7, (n, M))
            * want_rng.rayleigh(0.7, (n, M))).sum(axis=1)
    rng = np.random.default_rng(17)
    got = _util.element_sums(rng, n, M, 0.7)
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


@pytest.mark.parametrize("n", COUNTS)
def test_block_loop_yields_the_element_sums_in_order(n):
    want_rng = np.random.default_rng(29)
    want = _util.element_sums(want_rng, n, 3, 0.7)
    rng = np.random.default_rng(29)
    out = np.empty(n)
    got, end = [], 0
    for a, b, sums in _util.element_blocks(rng, n, 3, 0.7, out):
        assert a == end and sums.base is out
        got.append(sums.copy())
        sums[:] = -1.0          # a caller may overwrite its block
        end = b
    assert end == n
    assert np.array_equal(np.concatenate(got), want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


# A lone substream with two CPUs: the calling thread walks the generator
# and one borrowed pool worker finishes each block. The full chunk runs
# at M <= 3 only, where the reference's two whole draws stay small; nine
# blocks and a short one cycle the four ring slots at every M.

def _lone(fn):
    """``fn()`` run as the only key of ``substreams``, in a thread of its
    own that must end within a minute; a worker the sampler never let go
    would otherwise hang the next lone call."""
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
    # still held by a sampler breaks the barrier
    barrier = threading.Barrier(workers)
    pool = _util._pool(workers, os.getpid())
    for task in [pool.submit(barrier.wait, 30) for _ in range(workers)]:
        task.result(timeout=60)


@pytest.mark.parametrize("M, n", [(M, n) for M in (1, 3, 15, 64)
                                  for n in COUNTS[:-1] + [9 * 4096 + 5]]
                         + [(1, COUNTS[-1]), (3, COUNTS[-1])])
def test_lone_substream_sums_equal_two_whole_rayleigh_draws(monkeypatch, M,
                                                            n):
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    finish, threads = _util._finish, set()

    def spy(*args):
        threads.add(threading.current_thread().name)
        finish(*args)

    monkeypatch.setattr(_util, "_finish", spy)
    want_rng = np.random.default_rng(17)
    want = (want_rng.rayleigh(0.7, (n, M))
            * want_rng.rayleigh(0.7, (n, M))).sum(axis=1)
    rng = np.random.default_rng(17)
    got = _lone(lambda: _util.element_sums(rng, n, M, 0.7))
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state
    assert len(threads) == 1 and threads.pop().startswith("lisnoma")


@pytest.mark.parametrize("n", COUNTS)
def test_lone_block_loop_yields_the_sums_in_order(monkeypatch, n):
    # each block is handed back finished, in order, while the worker may
    # be writing later rows of the same array
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    want_rng = np.random.default_rng(29)
    want = _util.element_sums(want_rng, n, 3, 0.7)
    rng = np.random.default_rng(29)
    out = np.empty(n)

    def consume():
        got, end = [], 0
        for a, b, sums in _util.element_blocks(rng, n, 3, 0.7, out):
            assert a == end and sums.base is out
            got.append(sums.copy())
            sums[:] = -1.0
            end = b
        return end, got

    end, got = _lone(consume)
    assert end == n
    assert np.array_equal(np.concatenate(got), want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n", COUNTS[:-1] + [9 * 4096 + 5])
def test_block_loop_without_out_keeps_each_slot_until_the_next(monkeypatch,
                                                                cpus, n):
    # without ``out`` each block's sums sit in the output slot paired with
    # its ring slot; the consumer waits before it reads each block, so a
    # worker that ran ahead into a slot still in use would show
    monkeypatch.setattr(_util, "_cpu_count", lambda: cpus)
    want_rng = np.random.default_rng(29)
    want = _util.element_sums(want_rng, n, 3, 0.7)
    rng = np.random.default_rng(29)

    def consume():
        got, end = [], 0
        for a, b, sums in _util.element_blocks(rng, n, 3, 0.7):
            assert a == end and sums.size == b - a
            time.sleep(0.002)
            got.append(sums.copy())
            end = b
        return end, got

    end, got = _lone(consume)
    assert end == n
    assert np.array_equal(np.concatenate(got), want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("stop", ["after one block", "by raising"])
def test_lone_consumer_that_stops_leaves_the_pool_usable(monkeypatch, stop):
    # a slow worker still has blocks in hand when the consumer stops, so
    # a loop that did not join it would see rows written after it ended
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    finish = _util._finish

    def slow(*args):
        time.sleep(0.01)
        finish(*args)

    monkeypatch.setattr(_util, "_finish", slow)
    n = 9 * 4096
    out = np.full(n, np.nan)

    def consume():
        for _ in _util.element_blocks(np.random.default_rng(3), n, 3, 0.7,
                                      out):
            if stop == "by raising":
                raise KeyError("consumer")
            break

    if stop == "by raising":
        with pytest.raises(KeyError, match="consumer"):
            _lone(consume)
    else:
        _lone(consume)
    ended = out.copy()
    time.sleep(0.1)
    assert np.array_equal(out, ended, equal_nan=True)
    _assert_pool_idle()

    monkeypatch.setattr(_util, "_finish", finish)
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
    finish, calls = _util._finish, []

    def fail_third(*args):
        calls.append(threading.current_thread().name)
        if len(calls) == 3:
            raise FloatingPointError("worker")
        finish(*args)

    monkeypatch.setattr(_util, "_finish", fail_third)
    with pytest.raises(FloatingPointError, match="worker"):
        _lone(lambda: _util.element_sums(np.random.default_rng(7),
                                         9 * 4096, 3, 0.7))
    assert calls[-1].startswith("lisnoma")
    _assert_pool_idle()


# Whole-chunk references: the consumers as they were written before they
# streamed, each holding its chunk's arrays whole.

def _whole_sums(rng, n, M, scale):
    return (rng.rayleigh(scale, (n, M))
            * rng.rayleigh(scale, (n, M))).sum(axis=1)


def _pep_reference(config, user, event, snr_db, trials, seed):
    rd = math.sqrt(config.distance_factor(user))
    N0 = _resolve_n0(snr_db)
    scale = math.sqrt(config.sigma2)
    total = total2 = 0.0
    for idx, n in chunk_counts(trials):
        s_sum = _whole_sums(chunk_rng(seed, idx), n, config.M, scale)
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
                q = _whole_sums(rng, n, config.M, scale)
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
    for idx, n in chunk_counts(samples, SMALL_CHUNK):
        s = _whole_sums(chunk_rng(seed, idx), n, M, math.sqrt(sigma2))
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
@pytest.mark.parametrize("n", [10_000, SMALL_CHUNK + 333, CHUNK + 333])
def test_sampled_moments_equal_their_whole_chunk_reference(monkeypatch, n):
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    got = empirical_moments(2, 0.5, samples=n, seed=41)
    assert (got.mu, got.se) == _moments_reference(2, 0.5, n, 41)


def _traced_peak(fn):
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


@pytest.mark.parametrize("run, n, bound", [
    (lambda n: simulate_ber(default_config(M=6), (6.0,), frames=n), SMALL,
     2.0),
    (lambda n: empirical_moments(15, 0.5, samples=n), SMALL, 2.0),
], ids=["ber", "moments"])
def test_consumers_hold_one_chunk_array(monkeypatch, run, n, bound):
    # at one CPU a consumer keeps one n-float array beside the sampler's
    # blocks: the gains q (and one index draw) for the link simulator,
    # the sums for the moments; whole-chunk folds peaked at about 11 and
    # 6 such arrays
    monkeypatch.setattr(_util, "_cpu_count", lambda: 1)
    assert _traced_peak(lambda: run(n)) <= bound * n * 8


@pytest.mark.parametrize("cpus", [1, 2])
def test_plain_pep_holds_no_chunk_array(monkeypatch, cpus):
    # a plain substream folds each block's conditional values as it draws
    # them, so at CHUNK trials it holds the sampler's blocks of M floats
    # (the ring and the replay block: two at one CPU, five when the lone
    # substream borrows a worker), an output slot per ring slot, and at
    # most eight block-length temporaries of the kernel and the two
    # folds; keeping the n conditional values took 8 MB more
    monkeypatch.setattr(_util, "_cpu_count", lambda: cpus)
    blocks, slots = (2, 1) if cpus == 1 else (5, 4)
    bound = (blocks * 15 + slots + 8) * _util._BLOCK * 8
    assert _traced_peak(lambda: _plain_pep(CHUNK)) <= bound


def test_tilted_pep_holds_one_chunk_of_draws(monkeypatch):
    # a tilted substream draws its chunk's three uniforms per element and
    # row one group of element rows at a time, 3 _TILT_DRAW floats, and
    # folds each group into three chunk-length sums before it returns two
    # chunk-length arrays; at one CPU each chunk is folded before the next
    # is drawn, so the peak is one group beside eleven chunk-length
    # arrays, whatever M and the trial count. The whole (3, M, chunk)
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
    # the tilted sampler sums each plane's element rows as a whole draw's
    # sum over elements does: pairwise over M at n = 1, where one group
    # holds every row, else row by row in element order; M = 5 and 15
    # end in a short group of rows at a full chunk, and the generator,
    # which jumps between the planes, ends where the whole draw leaves it
    want_rng = np.random.default_rng(43)
    want = want_rng.random((3, M, n)).sum(axis=1)
    rng = np.random.default_rng(43)
    got = np.empty((3, n))
    rows = 0
    for k, u in enumerate(_tilt_uniforms(rng, M, n)):
        for acc, plane in zip(got, u):
            _add_rows(acc, plane, k == 0)
        rows += u.shape[1]
    assert rows == M
    assert k + 1 == -(-M // max(1, _TILT_DRAW // n))
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state
