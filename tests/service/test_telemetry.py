"""Service metrics are counted from each chunk's verdict.

Both executors count every decode metric in the service process, in
``ShardWorker._complete``, from the pool's verdict and the
``EpochResult`` it carries: the ``stage_timings`` buckets feed
``lf_stage_latency_seconds``, every fault in ``degraded_streams``
ticks ``lf_stream_faults_total``, and ``DecodeService.cache_stats()``
sums each decoded chunk's ``cache_stats``.

The fake decoder factories live at module level so a process shard's
spawned child can unpickle them; every test pins its executor.
"""

from __future__ import annotations

import asyncio
import os
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.service import BLOCK, DecodeService, ServiceConfig
from repro.types import EpochResult, IQTrace, StreamFault

EXECUTORS = ["thread", "process"]


def _trace(lead: complex = 1 + 1j) -> IQTrace:
    samples = np.ones(64, dtype=np.complex128)
    samples[0] = lead
    return IQTrace(samples=samples, sample_rate_hz=1e6)


def _run(config: ServiceConfig, chunks):
    """Submit ``(reader, trace)`` pairs in order and drain; returns
    (results in completion order, cache_stats, metrics page)."""
    service = DecodeService(config)
    results: list = []
    service.add_result_handler(results.append)

    async def run():
        async with service:
            for reader, trace in chunks:
                await service.submit(reader, 0, trace)
            await service.drain()

    asyncio.run(run())
    return results, service.cache_stats(), service.render_metrics()


class _FaultyDecoder:
    """Returns one result carrying faults of three stages."""

    def decode_epoch(self, trace, sample_offset=0.0):
        return EpochResult(
            duration_s=trace.duration_s,
            stage_timings={"edge": 0.002, "detect": 0.004,
                           "total": 0.007},
            degraded_streams=[
                StreamFault(0.0, 0.0, "guard", "SignalQualityError",
                            "capture rejected", expected=False),
                StreamFault(10.0, 250.0, "separate",
                            "CollisionUnresolvableError",
                            "3 colliders", n_colliders=3,
                            expected=False),
                StreamFault(20.0, 250.0, "decode", "DecodeError",
                            "header gate", expected=True)])


def _faulty_factory(key, seed):
    return _FaultyDecoder()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_result_faults_and_stage_timings_are_exported(executor):
    results, _, page = _run(
        ServiceConfig(n_shards=1, executor=executor,
                      decoder_factory=_faulty_factory),
        [(0, _trace())])
    assert [r.status for r in results] == ["degraded"]
    for stage, expected in (("guard", "false"), ("separate", "false"),
                            ("decode", "true")):
        assert (f'lf_stream_faults_total{{expected="{expected}",'
                f'shard="0",stage="{stage}"}} 1') in page
    for stage in ("edge", "detect"):
        assert (f'lf_stage_latency_seconds_count{{shard="0",'
                f'stage="{stage}"}} 1') in page
    assert 'stage="total"' not in page


class _CountingDecoder:
    """Per-epoch cache counters that differ call to call, plus
    session-lifetime totals the way ``SessionDecoder`` keeps them."""

    def __init__(self):
        self.calls = 0
        self.cache_stats = {"fold_hits": 0, "fold_misses": 0}

    def decode_epoch(self, trace, sample_offset=0.0):
        self.calls += 1
        epoch = {"fold_hits": self.calls, "fold_misses": 1}
        for key, value in epoch.items():
            self.cache_stats[key] += value
        return EpochResult(duration_s=trace.duration_s,
                           cache_stats=epoch)


def _counting_factory(key, seed):
    return _CountingDecoder()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_cache_stats_sum_every_decoded_chunk(executor):
    """Two streams through a one-session cap: each chunk evicts the
    other stream's session, and the sum still counts every chunk."""
    chunks = [(reader, _trace()) for _ in range(2) for reader in (0, 1)]
    results, cache, page = _run(
        ServiceConfig(n_shards=1, executor=executor, overflow=BLOCK,
                      max_sessions=1,
                      decoder_factory=_counting_factory),
        chunks)
    expected: dict = {}
    for result in results:
        for key, value in result.result.cache_stats.items():
            expected[key] = expected.get(key, 0) + value
    assert cache == expected == {"fold_hits": 4, "fold_misses": 4}
    assert 'lf_session_evictions_total{shard="0"} 3' in page
    assert 'lf_live_sessions{shard="0"} 1' in page


class _FlakyDecoder:
    """Fails the first attempt of every chunk; the retry decodes."""

    def __init__(self):
        self.calls = 0

    def decode_epoch(self, trace, sample_offset=0.0):
        self.calls += 1
        if self.calls % 2:
            raise RuntimeError("flaky decode")
        return EpochResult(duration_s=trace.duration_s)


def _flaky_factory(key, seed):
    return _FlakyDecoder()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_retries_count_the_pools_attempts(executor):
    results, _, page = _run(
        ServiceConfig(n_shards=1, executor=executor, overflow=BLOCK,
                      max_attempts=2, decoder_factory=_flaky_factory),
        [(0, _trace()) for _ in range(3)])
    assert [r.attempts for r in results] == [2, 2, 2]
    assert 'lf_chunk_retries_total{shard="0"} 3' in page


_CRASH_MARKER = 987 - 654j


class _CrashOnceDecoder:
    """Kills its process without a word the first time it sees the
    crash marker; the sentinel file remembers it across children."""

    def __init__(self, sentinel: Path):
        self.sentinel = sentinel

    def decode_epoch(self, trace, sample_offset=0.0):
        if complex(trace.samples[0]) == _CRASH_MARKER \
                and not self.sentinel.exists():
            self.sentinel.touch()
            os._exit(3)
        return EpochResult(duration_s=trace.duration_s)


def _crash_once_factory(sentinel, key, seed):
    return _CrashOnceDecoder(sentinel)


def test_strike_resubmission_is_not_a_retry(tmp_path):
    """A frame whose child died is resubmitted to a fresh child; that
    second strike is supervision, not a pool retry."""
    results, _, page = _run(
        ServiceConfig(n_shards=1, executor="process",
                      decoder_factory=partial(_crash_once_factory,
                                              tmp_path / "crashed")),
        [(0, _trace()), (0, _trace(_CRASH_MARKER)), (0, _trace())])
    assert [r.status for r in results] == ["ok", "ok", "ok"]
    assert 'kind="worker_process"' in page
    assert "lf_chunk_retries_total{" not in page
