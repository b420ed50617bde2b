"""``stream``: continuous captures through :class:`DecodeService`.

Three readers per shard, each with tag churn (a fresh tag population
every few epochs), send 10 ms epochs cut into two chunks through the
service at its defaults -- the benchmark overrides no executor or
kernel backend.  Warm sessions make the cold-path stages cheap, so
session caches, framing, queueing and the executor's use of the cores
dominate.

* Phase A, closed loop (``overflow="block"``): blocks of chunks are
  submitted under backpressure and drained; samples decoded per
  reference second is ``throughput_sps``.
* Phase B, open loop at the default shedding: each block offers chunks
  at ``phase_b_rate_sps`` (``spec.json``, reference samples/s) x the
  host factor measured just before it.  A chunk's latency runs from its
  *due* time to its result, so a stall is charged to every chunk that
  fell due during it.

Each phase runs whole passes over the traffic, as many as fit its share
of ``--seconds`` at nominal rates (:func:`phase_cycles`): cold and warm
blocks cost very differently, so a phase cut by the clock would decode
a different mix on a fast host than on a slow one.

Between blocks the service is drained and the memory and reference
kernels are timed with one copy per shard running together; the
geometric mean of their medians sets the host factor
(``hostspeed.KernelCopies.measure_mixed``).
"""

from __future__ import annotations

import asyncio
import copy
import statistics
import threading
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

import hostspeed
from common import (NEVER, Metric, Report, decode_ledger, mean, percentile,
                    result_digest)

from repro.analysis.throughput import score_epoch
from repro.core.pipeline import LFDecoderConfig
from repro.core.session_decoder import SessionDecoder
from repro.experiments.scenario import ScenarioSpec, ScenarioSynth
from repro.reader.batch import chunk_trace, merge_chunk_results
from repro.service.config import BLOCK, ServiceConfig
from repro.service.router import shard_index, stream_seed
from repro.service.service import DecodeService
from repro.types import SimulationProfile

READERS_PER_SHARD = 3
TAGS_PER_READER = 6
EPOCH_S = 0.01
CHUNKS_PER_EPOCH = 2
#: Tag populations per reader (churn) and epochs each one transmits.
#: Decode cost is mostly a property of the population, so many short
#: generations keep the traffic's cost from moving with the seed.
GENERATIONS = 9
EPOCHS_PER_GENERATION = 2
#: Epochs per reader in one pass over its traffic.
CYCLE_EPOCHS = GENERATIONS * EPOCHS_PER_GENERATION
#: Epochs per reader in one block between drains; both divide a pass.
A_BLOCK_EPOCHS = 3
B_BLOCK_EPOCHS = 2
#: Share of ``--seconds`` planned for phase A (the rest is phase B).
PHASE_A_SHARE = 0.3
#: Phase B offers at least this many chunks, so p95 has ten beyond it.
MIN_LATENCY_SAMPLES = 200
#: Kernel timings per copy at each block boundary.
KERNEL_REPS = 10


@dataclass
class Epoch:
    capture: object
    chunks: List[Tuple[object, float]]


def decoder_config() -> LFDecoderConfig:
    return LFDecoderConfig(candidate_bitrates_bps=[10e3],
                           profile=SimulationProfile.fast())


def pick_readers(n_shards: int, per_shard: int, skip=()) -> List[int]:
    """Reader ids (antenna 0) routing ``per_shard`` streams to each shard."""
    chosen: Dict[int, List[int]] = {s: [] for s in range(n_shards)}
    reader = 0
    while any(len(v) < per_shard for v in chosen.values()):
        shard = shard_index(reader, 0, n_shards)
        if reader not in skip and len(chosen[shard]) < per_shard:
            chosen[shard].append(reader)
        reader += 1
    return sorted(r for v in chosen.values() for r in v)


def phase_cycles(seconds: float, readers: int, samples_per_epoch: int,
                 spec: dict) -> Tuple[int, int]:
    """Passes over the traffic in phases A and B: each phase's share of
    ``seconds`` at the nominal reference rates of ``spec.json``, at
    least one pass, and phase B at least ``MIN_LATENCY_SAMPLES`` chunks.
    Planned from nominal rates, not measured ones, so a run decodes the
    same work however fast the host is."""
    pass_samples = readers * CYCLE_EPOCHS * samples_per_epoch
    pass_chunks = readers * CYCLE_EPOCHS * CHUNKS_PER_EPOCH
    a = round(seconds * PHASE_A_SHARE * spec["phase_a_nominal_sps"]
              / pass_samples)
    b = round(seconds * (1 - PHASE_A_SHARE) * spec["phase_b_rate_sps"]
              / pass_samples)
    return max(1, a), max(1, b, -(-MIN_LATENCY_SAMPLES // pass_chunks))


def render_traffic(seed: int, readers: List[int], tracer) -> Dict[int, List]:
    """Per reader: GENERATIONS x EPOCHS_PER_GENERATION continuous epochs,
    each cut into CHUNKS_PER_EPOCH chunks; fresh tag ids per generation."""
    profile = SimulationProfile.fast()
    traffic = {}
    for reader in readers:
        epochs = []
        for gen in range(GENERATIONS):
            spec = ScenarioSpec(
                name=f"r{reader}g{gen}", n_tags=TAGS_PER_READER,
                bitrate_bps=10e3, epoch_s=EPOCH_S,
                tag_id_base=gen * TAGS_PER_READER,
                seed=int(np.random.SeedSequence([seed, 3, reader, gen])
                         .generate_state(1, dtype=np.uint32)[0]))
            synth = ScenarioSynth(spec, profile=profile)
            for k in range(EPOCHS_PER_GENERATION):
                with tracer.span("experiments.scenario.capture",
                                 op=(reader, gen, k)):
                    capture = synth.capture(epoch_index=k)
                trace = capture.trace
                fs = trace.sample_rate_hz
                chunks = [(c, (c.start_time_s - trace.start_time_s) * fs)
                          for c in chunk_trace(
                              trace, len(trace) // CHUNKS_PER_EPOCH)]
                epochs.append(Epoch(capture, chunks))
        traffic[reader] = epochs
    return traffic


@dataclass
class Done:
    """What the benchmark keeps of one chunk's verdict."""

    at: float
    status: str
    latency_s: float
    decode_s: float
    n_samples: int
    sample_offset: float
    #: ``stage_timings`` / ``fidelity_stats`` / ``cache_stats`` of the
    #: decode (``None`` when shed or failed).
    stats: Optional[SimpleNamespace]
    #: The full result, kept only for chunks the checks replay.
    result: object = None

    @property
    def decoded(self) -> bool:
        return self.stats is not None


class ChunkLog:
    """Every chunk's verdict by (reader, seq), as a result handler.

    Full results are kept only where ``keep(key)`` says so, so memory
    does not grow with the length of the run.
    """

    def __init__(self, keep=lambda key: False, clock=time.perf_counter):
        self.keep, self.clock = keep, clock
        self.done: Dict[Tuple[int, int], Done] = {}
        self._lock = threading.Lock()

    def __call__(self, outcome) -> None:
        now = self.clock()
        frame, result = outcome.frame, outcome.result
        key = (frame.reader_id, frame.seq)
        stats = None if result is None else SimpleNamespace(
            stage_timings=result.stage_timings,
            fidelity_stats=result.fidelity_stats,
            cache_stats=result.cache_stats)
        done = Done(now, outcome.status, outcome.latency_s,
                    outcome.decode_s, frame.n_samples, frame.sample_offset,
                    stats, result if self.keep(key) else None)
        with self._lock:
            self.done[key] = done


async def paced_block(submit, items, rate_wall: float,
                      clock=time.perf_counter):
    """Offer ``(key, n_samples, args)`` items at ``rate_wall`` samples/s.

    Item *j* is due ``sum(n_samples before j) / rate_wall`` after the
    block starts, whether or not earlier submits ran late.  Returns
    ``(key, due, sent)`` per item.
    """
    start = clock()
    offered = 0
    out = []
    for key, n_samples, args in items:
        due = start + offered / rate_wall
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = clock()
        await submit(*args)
        out.append((key, due, sent))
        offered += n_samples
    return out


def due_latencies(sent, log: ChunkLog, factor: float) -> List[float]:
    """Reference seconds from each chunk's due time to its result;
    shed or failed chunks never completed (``NEVER``)."""
    out = []
    for key, due, _ in sent:
        done = log.done[key]
        out.append((done.at - due) * factor if done.decoded else NEVER)
    return out


class _Feed:
    """Cycles every reader's epochs, one epoch per reader per round."""

    def __init__(self, traffic, readers):
        self.traffic, self.readers = traffic, readers
        self.cursor = 0
        self.seq = {r: 0 for r in readers}

    def items(self, epochs_per_reader: int):
        for _ in range(epochs_per_reader):
            for reader in self.readers:
                pool = self.traffic[reader]
                epoch = pool[self.cursor % len(pool)]
                for chunk, offset in epoch.chunks:
                    key = (reader, self.seq[reader])
                    self.seq[reader] += 1
                    yield key, len(chunk), (reader, 0, chunk, offset)
            self.cursor += 1


def run(ctx) -> Report:
    report = Report("stream")
    n_shards = ServiceConfig().n_shards
    copies = hostspeed.KernelCopies(n_shards)
    ctx.rss.exclude.update(copies.pids)
    try:
        copies.measure_mixed(KERNEL_REPS)
        asyncio.run(_main(ctx, report, copies, n_shards, hostspeed.HostFactor(
            ctx.spec["t_nom_ms"]["mixed"] / 1e3)))
    finally:
        copies.close()
    return report


async def _main(ctx, report, copies, n_shards, factor) -> None:
    tracer = ctx.tracer
    readers = pick_readers(n_shards, READERS_PER_SHARD)
    warm_readers = pick_readers(n_shards, 1, skip=readers)
    root_seed = int(np.random.SeedSequence([ctx.seed, 4])
                    .generate_state(1, dtype=np.uint32)[0])

    # -- setup, repeated; the last rep's service runs phase A ---------------
    f_imports = factor.factor(copies.measure_mixed(KERNEL_REPS))
    setup_ref, synth_ref, start_ref, fingerprints = [], [], [], set()
    service = None
    for rep in range(ctx.setup_reps):
        before = copies.measure_mixed(KERNEL_REPS)
        t0 = time.perf_counter()
        tracer.enabled = ctx.trace
        traffic = render_traffic(ctx.seed, readers, tracer)
        tracer.enabled = False
        t_synth = time.perf_counter() - t0
        service = DecodeService(ServiceConfig(
            decoder=decoder_config(), seed=root_seed, overflow=BLOCK))
        t_start = time.perf_counter()
        await service.start()
        t_started = time.perf_counter()
        warm_chunk = traffic[readers[0]][0].chunks[0]
        for reader in warm_readers:
            await service.submit(reader, 0, warm_chunk[0], warm_chunk[1])
        await service.drain()
        wall = time.perf_counter() - t0
        f = factor.factor(before + copies.measure_mixed(KERNEL_REPS))
        setup_ref.append(wall * f)
        synth_ref.append(t_synth * f)
        start_ref.append((t_started - t_start) * f)
        fingerprints.add(tuple(hash(c.samples.tobytes())
                               for r in readers for e in traffic[r]
                               for c, _ in e.chunks))
        if rep < ctx.setup_reps - 1:
            await service.stop()
    report.check("setup renders identical inputs every rep",
                 len(fingerprints) == 1)
    setup_s = ctx.import_s * f_imports + float(np.median(setup_ref))

    cycles_a, cycles_b = phase_cycles(
        ctx.seconds, len(readers), len(traffic[readers[0]][0].capture.trace),
        ctx.spec)

    # -- phase A: closed loop ------------------------------------------------
    pool_chunks = CYCLE_EPOCHS * CHUNKS_PER_EPOCH
    log_a = ChunkLog(keep=lambda key: key[1] < pool_chunks)
    service.add_result_handler(log_a)
    feed = _Feed(traffic, readers)
    blocks_a = []  # (wall_s, keys, traced)
    bounds_a = [copies.measure_mixed(KERNEL_REPS)]
    for b in range(cycles_a * CYCLE_EPOCHS // A_BLOCK_EPOCHS):
        traced = ctx.trace and b % 2 == 0
        tracer.enabled = traced
        keys = []
        t0 = time.perf_counter()
        for key, _, args in feed.items(A_BLOCK_EPOCHS):
            with tracer.span("service.framing.submit", op=("A", b)):
                await service.submit(*args)
            keys.append(key)
        with tracer.span("service.service.drain", op=("A", b)):
            await service.drain()
        wall = time.perf_counter() - t0
        tracer.enabled = False
        bounds_a.append(copies.measure_mixed(KERNEL_REPS))
        blocks_a.append((wall, keys, traced))
        ctx.rss.sample()
    blocks_a = [(wall, f, keys, traced) for (wall, keys, traced), f
                in zip(blocks_a, factor.blocks(bounds_a))]
    stats_a = service.snapshot()
    await service.stop()

    # -- phase B: open loop at a fixed reference rate ----------------------
    log_b = ChunkLog(keep=lambda key: key[1] < pool_chunks)
    service_b = DecodeService(ServiceConfig(decoder=decoder_config(),
                                            seed=root_seed))
    service_b.add_result_handler(log_b)
    t_start = time.perf_counter()
    await service_b.start()
    start_b_ref = (time.perf_counter() - t_start) * factor.factor(
        bounds_a[-1])
    rate_ref = float(ctx.spec["phase_b_rate_sps"])
    feed_b = _Feed(traffic, readers)
    blocks_b = []  # (sent, max_queue_depth)
    bounds_b = [bounds_a[-1]]
    start = time.perf_counter()
    for b in range(cycles_b * CYCLE_EPOCHS // B_BLOCK_EPOCHS):
        f_pace = factor.t_nom_s / statistics.median(bounds_b[-1])
        depth = [0]

        async def submit(*args):
            with tracer.span("service.framing.submit", op=("B", b)):
                await service_b.submit(*args)
            depth[0] = max(depth[0], max(
                service_b.snapshot().queue_depths.values()))

        tracer.enabled = ctx.trace and b % 2 == 0
        sent = await paced_block(submit, list(feed_b.items(B_BLOCK_EPOCHS)),
                                 rate_ref * f_pace)
        await service_b.drain()
        tracer.enabled = False
        bounds_b.append(copies.measure_mixed(KERNEL_REPS))
        blocks_b.append((sent, depth[0]))
        ctx.rss.sample()
    blocks_b = [(f, sent, depth) for (sent, depth), f
                in zip(blocks_b, factor.blocks(bounds_b))]
    wall_b = time.perf_counter() - start
    stats_b = service_b.snapshot()
    await service_b.stop()

    # -- end-to-end metrics ----------------------------------------------------
    lat = []
    for f, sent, _ in blocks_b:
        lat.extend(due_latencies(sent, log_b, f))
    # A chunk that never completed is charged the whole phase.
    lat_ms = [min(x, wall_b * max(f for f, _, _ in blocks_b)) * 1e3
              for x in lat]
    chunks_a = [log_a.done[k] for _, _, keys, _ in blocks_a for k in keys]
    samples_a = sum(d.n_samples for d in chunks_a if d.decoded)
    ref_a = sum(wall * f for wall, f, _, _ in blocks_a)
    attempted = stats_a.submitted + stats_b.submitted - len(warm_readers)
    decoded = stats_a.decoded + stats_b.decoded - len(warm_readers)
    report.attempted = attempted
    report.failed = attempted - decoded

    goodput, merges = _first_pass(traffic, readers, log_a)
    report.check("phase A decoded its first pass", goodput is not None)
    goodput = goodput or (0, 1)
    report.e2e = {
        "throughput_sps": Metric(samples_a / ref_a, "samples/s",
                                 len(chunks_a)),
        "latency_p50_ms": Metric(percentile(lat_ms, 50), "ms", len(lat)),
        "latency_p95_ms": Metric(percentile(lat_ms, 95), "ms", len(lat)),
        "goodput_fraction": Metric(goodput[0] / goodput[1], "fraction",
                                   len(readers) * len(traffic[readers[0]])),
        "ok_fraction": Metric(decoded / attempted, "fraction", attempted),
        "setup_s": Metric(setup_s, "s", ctx.setup_reps),
        "peak_rss_mb": Metric(ctx.rss.peak_mb(), "MB", 1),
    }
    report.info["wall_throughput_sps"] = samples_a / sum(
        wall for wall, _, _, _ in blocks_a)
    lags = [(s - d) * f * 1e3 for f, sent, _ in blocks_b
            for _, d, s in sent]
    report.info["generator_lag_p95_ms"] = percentile(lags, 95)
    report.info["generator_lag_n"] = len(lags)
    report.info["phase_b_offered_ref_sps"] = rate_ref
    report.info["phase_a_blocks"] = [
        (round(wall, 4), round(f, 4), sum(log_a.done[k].n_samples
                                          for k in keys))
        for wall, f, keys, _ in blocks_a]

    # -- correctness -------------------------------------------------------------
    for name, stats in (("A", stats_a), ("B", stats_b)):
        report.check(f"phase {name} accounting: submitted == decoded + "
                     "failed + shed",
                     stats.submitted == stats.decoded + stats.failed
                     + stats.shed, str(stats))
    # Phase B replays the same first pass through fresh sessions; unless
    # it shed some of it, the scored bits must repeat exactly.
    goodput_b, _ = _first_pass(traffic, readers, log_b)
    report.check("goodput repeats exactly",
                 goodput_b is None or goodput_b == goodput,
                 f"{goodput} vs {goodput_b}")
    report.check("service bits equal an offline SessionDecoder replay, "
                 "one stream per shard",
                 _replay_matches(traffic, readers, n_shards, root_seed,
                                 log_a))

    if ctx.trace:
        report.layers = _ledger(blocks_a, blocks_b, log_a, log_b, merges,
                                synth_ref, start_ref, start_b_ref,
                                stats_a, stats_b, n_shards, tracer, factor)
    report.info["host_factor"] = factor.summary()


def _first_pass(traffic, readers, log):
    """Goodput of the first pass over every reader's epochs, scored
    against truth: deterministic, as each stream starts a fresh session.
    Returns ``((correct, sent), merge wall seconds)``, or ``(None, [])``
    when a chunk of the pass was not decoded."""
    correct = sent = 0
    merges = []
    for reader in readers:
        for e, epoch in enumerate(traffic[reader]):
            keys = [(reader, e * CHUNKS_PER_EPOCH + i)
                    for i in range(CHUNKS_PER_EPOCH)]
            if any(k not in log.done or log.done[k].result is None
                   for k in keys):
                return None, []
            # merge_chunk_results shifts stream offsets in place, so
            # merge copies of the chunk results.
            pairs = [(log.done[k].sample_offset,
                      copy.deepcopy(log.done[k].result)) for k in keys]
            t0 = time.perf_counter()
            merged = merge_chunk_results(pairs, epoch.capture.duration_s)
            merges.append(time.perf_counter() - t0)
            scored = score_epoch(epoch.capture, merged)
            correct += scored.bits_correct
            sent += scored.bits_sent
    return (correct, sent), merges


def _replay_matches(traffic, readers, n_shards, root_seed, log) -> bool:
    """Offline, untimed: the first reader of each shard, replayed through
    a SessionDecoder seeded like the service's, gives the same bits."""
    first = {}
    for reader in readers:
        first.setdefault(shard_index(reader, 0, n_shards), reader)
    for reader in first.values():
        session = SessionDecoder(decoder_config(),
                                 rng=stream_seed(root_seed, reader, 0))
        seq = 0
        for epoch in traffic[reader]:
            for chunk, offset in epoch.chunks:
                served = log.done[(reader, seq)].result
                offline = session.decode_epoch(chunk, sample_offset=offset)
                if served is None or \
                        result_digest(offline) != result_digest(served):
                    return False
                seq += 1
    return True


def _ledger(blocks_a, blocks_b, log_a, log_b, merges, synth_ref, start_ref,
            start_b_ref, stats_a, stats_b, n_shards, tracer, factor) -> dict:
    chunks_a = [(log_a.done[k], f) for _, f, keys, _ in blocks_a
                for k in keys]
    decodes = [(d.stats, f) for d, f in chunks_a if d.decoded]
    layers = decode_ledger(decodes)
    busy = sum(o.decode_s for o, _ in chunks_a)
    wall_a = sum(wall for wall, _, _, _ in blocks_a)
    waits = [(log_b.done[k].latency_s - log_b.done[k].decode_s) * f * 1e3
             for f, sent, _ in blocks_b for k, _, _ in sent
             if log_b.done[k].decoded]
    median_f = statistics.median(factor.factors)
    # Phase B only: under phase A's backpressure a submit also waits for
    # queue room.
    submits = [d * median_f * 1e6
               for d, op in tracer.durations("service.framing.submit")
               if op[0] == "B"]
    layers.update({
        "service.worker.decode_ms": Metric(
            mean(o.decode_s * f * 1e3 for o, f in chunks_a), "ms",
            len(chunks_a)),
        "service.worker.busy_fraction": Metric(
            busy / (wall_a * n_shards), "fraction", len(chunks_a)),
        "service.worker.wait_p50_ms": Metric(percentile(waits, 50), "ms",
                                             len(waits)),
        "service.worker.wait_p95_ms": Metric(percentile(waits, 95), "ms",
                                             len(waits)),
        "service.worker.max_queue_depth": Metric(
            float(max(d for _, _, d in blocks_b)), "count", len(blocks_b)),
        "service.framing.submit_us": Metric(mean(submits), "us",
                                            len(submits)),
        "service.framing.inline_fallbacks": Metric(
            float(stats_a.inline_fallbacks + stats_b.inline_fallbacks),
            "count", stats_a.submitted + stats_b.submitted),
        "reader.batch.merge_ms": Metric(mean(merges) * median_f * 1e3,
                                        "ms", len(merges)),
        "service.service.start_ms": Metric(
            float(np.median(start_ref + [start_b_ref])) * 1e3, "ms",
            len(start_ref) + 1),
        "experiments.scenario.synth_s": Metric(
            float(np.median(synth_ref)), "s", len(synth_ref)),
    })
    rates = {True: [0.0, 0.0], False: [0.0, 0.0]}
    for wall, f, keys, traced in blocks_a:
        samples = sum(log_a.done[k].n_samples for k in keys)
        rates[traced][0] += samples
        rates[traced][1] += wall * f
    traced_rate = rates[True][0] / rates[True][1] if rates[True][1] else 0
    plain_rate = rates[False][0] / rates[False][1] if rates[False][1] else 0
    layers["bench.trace_overhead_fraction"] = Metric(
        plain_rate / traced_rate - 1 if traced_rate else 0.0, "fraction",
        len(blocks_a))
    return layers
