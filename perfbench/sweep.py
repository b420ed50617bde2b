"""``sweep``: repeated passes of a robustness grid through BatchDecoder.

The grid is channel preset {flat, room, hallway} x SNR {6, 10, 14, 20}
dB x tags {4, 8, 12}, four seeded replicates per cell, 10 ms epochs,
decoded with ``enable_equalizer=True`` by a :class:`BatchDecoder` at its
default worker count, one ``iter_outcomes`` call per pass.  Only here
does the engine work (a new pool per call, shm transport, pickled
results, an in-order wait over cells of very different cost), only here
does the equalizer run, low-SNR cells exercise the analog fallback and
multipath cells the frequency-selective regime.

Every cell of a pass is due when the pass starts, so a cell's latency
runs from the pass start to its in-order outcome.  Between passes the
pool is gone and the memory kernel is timed with one copy per worker
running together (``hostspeed.KernelCopies``).
"""

from __future__ import annotations

import time
from types import SimpleNamespace
from typing import List, NamedTuple

import numpy as np

import hostspeed
from common import (Metric, Report, decode_ledger, mean, percentile,
                    result_digest)

from repro.analysis.throughput import score_epoch
from repro.core.engine import BatchDecoder
from repro.core.pipeline import LFDecoderConfig
from repro.experiments.scenario import ScenarioSpec, ScenarioSynth
from repro.types import SimulationProfile

PRESETS = (None, "room", "hallway")
SNRS_DB = (6.0, 10.0, 14.0, 20.0)
TAG_COUNTS = (4, 8, 12)
#: How long a pass takes through the pool depends on the seed's cells
#: beyond their serial cost; four replicates average that out better
#: than two.
REPLICATES = 4
EPOCH_S = 0.01
#: Sample resident memory at every this-many outcomes (workers alive).
RSS_EVERY = 8
#: Kernel timings per copy at each pass boundary.
KERNEL_REPS = 8


def decoder_config() -> LFDecoderConfig:
    return LFDecoderConfig(candidate_bitrates_bps=[10e3],
                           profile=SimulationProfile.fast(),
                           enable_equalizer=True)


def render_grid(seed: int, tracer) -> List:
    cells = [(preset, snr, n_tags) for preset in PRESETS for snr in SNRS_DB
             for n_tags in TAG_COUNTS for _ in range(REPLICATES)]
    seeds = np.random.SeedSequence([seed, 5]).generate_state(
        len(cells), dtype=np.uint32)
    captures = []
    for i, ((preset, snr, n_tags), s) in enumerate(zip(cells, seeds)):
        spec = ScenarioSpec(name=f"{preset or 'flat'}_{snr:g}dB_{n_tags}",
                            n_tags=n_tags, bitrate_bps=10e3, snr_db=snr,
                            channel_preset=preset, epoch_s=EPOCH_S,
                            seed=int(s))
        with tracer.span("experiments.scenario.capture", op=i):
            captures.append(ScenarioSynth(
                spec, profile=SimulationProfile.fast()).capture())
    return captures


def run(ctx) -> Report:
    report = Report("sweep")
    copies = hostspeed.KernelCopies(BatchDecoder().max_workers)
    ctx.rss.exclude.update(copies.pids)
    try:
        copies.measure(KERNEL_REPS)
        _run(ctx, report, copies)
    finally:
        copies.close()
    return report


def _run(ctx, report, copies) -> None:
    tracer = ctx.tracer
    factor = hostspeed.HostFactor(ctx.spec["t_nom_ms"]["memory"] / 1e3)
    root_seed = int(np.random.SeedSequence([ctx.seed, 6])
                    .generate_state(1, dtype=np.uint32)[0])

    # -- setup, repeated; the median rep is reported ------------------------
    f_imports = factor.factor(copies.measure(KERNEL_REPS))
    setup_ref, synth_ref, fingerprints = [], [], set()
    for rep in range(ctx.setup_reps):
        before = copies.measure(KERNEL_REPS)
        t0 = time.perf_counter()
        tracer.enabled = ctx.trace
        captures = render_grid(ctx.seed, tracer)
        tracer.enabled = False
        t_synth = time.perf_counter() - t0
        engine = BatchDecoder(decoder_config(), seed=root_seed)
        # Warm-up: spins a pool up and down on two cells.
        for _ in engine.iter_outcomes([c.trace for c in captures[:2]]):
            pass
        wall = time.perf_counter() - t0
        f = factor.factor(before + copies.measure(KERNEL_REPS))
        setup_ref.append(wall * f)
        synth_ref.append(t_synth * f)
        fingerprints.add(tuple(hash(c.trace.samples.tobytes())
                               for c in captures))
    report.check("setup renders identical inputs every rep",
                 len(fingerprints) == 1)
    setup_s = ctx.import_s * f_imports + float(np.median(setup_ref))

    # -- measured passes ---------------------------------------------------------
    traces = [c.trace for c in captures]
    passes = []  # (wall, per-cell seconds, summaries, traced)
    bounds = [copies.measure(KERNEL_REPS)]
    start = time.perf_counter()
    p = 0
    while p == 0 or time.perf_counter() - start < ctx.seconds:
        traced = ctx.trace and p % 2 == 0
        tracer.enabled = traced
        times, outcomes = [], []
        t0 = time.perf_counter()
        with tracer.span("core.engine.iter_outcomes", op=p):
            for outcome in engine.iter_outcomes(traces):
                t = time.perf_counter()
                times.append(t - t0)
                outcomes.append(outcome)
                tracer.record("core.engine.outcome", t0, t,
                              op=(p, outcome.epoch_index))
                if len(outcomes) % RSS_EVERY == 1:
                    ctx.rss.sample()
        wall = time.perf_counter() - t0
        tracer.enabled = False
        bounds.append(copies.measure(KERNEL_REPS))
        passes.append((wall, times, [_summarize(c, o) for c, o
                                     in zip(captures, outcomes)], traced))
        p += 1
    # (wall, factor, per-cell seconds, summaries, traced) per pass
    passes = [(wall, f, *rest) for (wall, *rest), f
              in zip(passes, factor.blocks(bounds))]

    # -- correctness -------------------------------------------------------------
    n_cells = len(captures)
    seen = [{outs[i][2:5] for *_, outs, _ in passes} for i in range(n_cells)]
    report.check("repeated decodes of a cell give one digest",
                 all(len({d for d, _, _ in v}) == 1 for v in seen))
    report.check("goodput repeats exactly", all(len(v) == 1 for v in seen))
    first = (sum(s.bits_correct for s in passes[0][3]),
             sum(s.bits_sent for s in passes[0][3]))

    # -- end-to-end metrics ----------------------------------------------------
    attempted = n_cells * len(passes)
    ok = sum(1 for *_, outs, _ in passes for o in outs
             if o.stats is not None)
    report.attempted, report.failed = attempted, attempted - ok
    samples = sum(len(t) for t in traces)
    lat_ms = [t * f * 1e3 for _, f, times, _, _ in passes for t in times]
    report.e2e = {
        "throughput_sps": Metric(
            samples / float(np.median([w * f for w, f, *_ in passes])),
            "samples/s", len(passes)),
        "latency_p50_ms": Metric(percentile(lat_ms, 50), "ms", len(lat_ms)),
        "latency_p95_ms": Metric(percentile(lat_ms, 95), "ms", len(lat_ms)),
        "goodput_fraction": Metric(first[0] / first[1], "fraction", n_cells),
        "ok_fraction": Metric(ok / attempted, "fraction", attempted),
        "setup_s": Metric(setup_s, "s", ctx.setup_reps),
        "peak_rss_mb": Metric(ctx.rss.peak_mb(), "MB", 1),
    }
    report.info["wall_throughput_sps"] = samples * len(passes) / sum(
        w for w, *_ in passes)
    report.info["passes"] = [(round(w, 4), round(f, 4))
                             for w, f, *_ in passes]
    report.info["host_factor"] = factor.summary()
    if ctx.trace:
        report.layers = _ledger(passes, samples, engine.max_workers,
                                synth_ref)


class Summary(NamedTuple):
    """What is kept of one cell's outcome once its pass is over."""

    status: str
    attempts: int
    digest: str
    bits_correct: int
    bits_sent: int
    #: ``stage_timings`` / ``fidelity_stats`` / ``cache_stats``, or
    #: ``None`` when the task failed.
    stats: object


def _summarize(capture, outcome) -> Summary:
    result = outcome.result
    if result is None:
        return Summary(outcome.status, outcome.attempts, "", 0,
                       capture.total_bits_sent(), None)
    scored = score_epoch(capture, result)
    return Summary(outcome.status, outcome.attempts, result_digest(result),
                   scored.bits_correct, scored.bits_sent, SimpleNamespace(
                       stage_timings=result.stage_timings,
                       fidelity_stats=result.fidelity_stats,
                       cache_stats=result.cache_stats))


def _ledger(passes, samples, workers, synth_ref) -> dict:
    decodes = [(o.stats, f) for _, f, _, outs, _ in passes for o in outs
               if o.stats is not None]
    layers = decode_ledger(decodes)
    busy = sum(o.stats.stage_timings.get("total", 0.0)
               for _, _, _, outs, _ in passes for o in outs
               if o.stats is not None)
    capacity = sum(w * workers for w, *_ in passes)
    n_tasks = sum(len(outs) for _, _, _, outs, _ in passes)
    idle_ref = sum(
        (w * workers - sum(o.stats.stage_timings.get("total", 0.0)
                           for o in outs if o.stats is not None)) * f
        for w, f, _, outs, _ in passes)
    layers.update({
        "core.engine.worker_busy_fraction": Metric(busy / capacity,
                                                   "fraction", n_tasks),
        "core.engine.overhead_ms_per_task": Metric(idle_ref / n_tasks * 1e3,
                                                   "ms", n_tasks),
        "core.engine.first_outcome_ms": Metric(
            float(np.median([times[0] * f for _, f, times, _, _ in passes]))
            * 1e3, "ms", len(passes)),
        "core.engine.attempts_per_task": Metric(
            mean(o.attempts for _, _, _, outs, _ in passes for o in outs),
            "count", n_tasks),
        "experiments.scenario.synth_s": Metric(
            float(np.median(synth_ref)), "s", len(synth_ref)),
    })
    rate = {}
    for traced in (True, False):
        ref = sum(w * f for w, f, _, _, t in passes if t == traced)
        count = sum(1 for *_, t in passes if t == traced)
        rate[traced] = samples * count / ref if ref else 0.0
    layers["bench.trace_overhead_fraction"] = Metric(
        rate[False] / rate[True] - 1 if rate[True] and rate[False] else 0.0,
        "fraction", len(passes))
    return layers
