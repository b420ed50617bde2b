"""``epoch``: cold decodes of single epochs, closed loop, one client.

A fixed set of distinct flat-channel 10 ms epochs spanning 4-20 tags is
rendered from the seed and cycled.  Each op times the reference kernel
once and then decodes one epoch with a fresh, seeded
:class:`~repro.core.pipeline.LFDecoder` at its default configuration,
so the stage graph does all the work with no session, engine or
service in the way.  The dense end of the set sets p95.
"""

from __future__ import annotations

import time
from types import SimpleNamespace
from typing import Callable, List, NamedTuple, Tuple

import numpy as np

import hostspeed
from common import (Metric, Report, decode_ledger, mean, percentile,
                    result_digest)
from spans import Tracer

from repro.analysis.throughput import score_epoch
from repro.core.pipeline import LFDecoder, LFDecoderConfig
from repro.experiments.scenario import ScenarioSpec, ScenarioSynth
from repro.types import SimulationProfile

#: Eight distinct epochs per tag count: decode cost varies by ~35%
#: between epochs of one tag count, and the set's mean cost must not
#: move much from seed to seed.
TAG_COUNTS: Tuple[int, ...] = tuple(range(4, 21)) * 8
EPOCH_S = 0.01


class Summary(NamedTuple):
    """What is kept of one decode: its digest, its score, its counters."""

    digest: str
    bits_correct: int
    bits_sent: int
    stats: SimpleNamespace


def decoder_config() -> LFDecoderConfig:
    return LFDecoderConfig(candidate_bitrates_bps=[10e3],
                           profile=SimulationProfile.fast())


def render_inputs(seed: int, tracer: Tracer) -> List:
    """The cycled epoch set; everything random derives from ``seed``."""
    seeds = np.random.SeedSequence([seed, 1]).generate_state(
        len(TAG_COUNTS), dtype=np.uint32)
    captures = []
    for i, (n_tags, s) in enumerate(zip(TAG_COUNTS, seeds)):
        spec = ScenarioSpec(name=f"epoch{i}", n_tags=n_tags,
                            bitrate_bps=10e3, epoch_s=EPOCH_S, seed=int(s))
        with tracer.span("experiments.scenario.capture", op=i):
            captures.append(ScenarioSynth(
                spec, profile=SimulationProfile.fast()).capture())
    return captures


def decoder_seeds(seed: int, n: int) -> List[int]:
    return [int(s) for s in np.random.SeedSequence([seed, 2])
            .generate_state(n, dtype=np.uint32)]


def closed_loop(n_inputs: int, decode: Callable[[int, int], object],
                kernel: Callable[[], float], seconds: float,
                clock=time.perf_counter, tracer: Tracer = None,
                traced: Callable[[int], bool] = lambda cycle: False,
                summarize: Callable[[int, object], object] = lambda i, r: r):
    """Cycle the inputs for ``seconds`` (finishing at least one cycle).

    Each op times the kernel once, then the decode.  Returns one
    ``(index, cycle, kernel_s, wall_s, summary)`` row per op, where the
    untimed ``summarize(index, result)`` keeps what the checks and the
    ledger need; ``summary`` is ``None`` when the decode raised.
    """
    rows = []
    start = clock()
    op = 0
    while op < n_inputs or clock() - start < seconds:
        cycle, index = divmod(op, n_inputs)
        if tracer is not None:
            tracer.enabled = traced(cycle)
        k = hostspeed.time_kernel(kernel, 1, clock)[0]
        t0 = clock()
        try:
            result = decode(index, cycle)
        except Exception:  # noqa: BLE001 - a raising decode is a failed op
            result = None
        wall = clock() - t0
        rows.append((index, cycle, k, wall,
                     None if result is None else summarize(index, result)))
        op += 1
    if tracer is not None:
        tracer.enabled = False
    return rows


def reference_latencies(rows, factor: hostspeed.HostFactor
                        ) -> Tuple[List[float], List[float]]:
    """Per-op reference seconds (wall x the centred host factor), and the
    factors."""
    factors = factor.centred([row[2] for row in rows])
    return [row[3] * f for row, f in zip(rows, factors)], factors


def run(ctx) -> Report:
    report = Report("epoch")
    tracer = ctx.tracer
    cfg = decoder_config()
    kernel = hostspeed.ReferenceKernel()
    hostspeed.time_kernel(kernel, 20)
    factor = hostspeed.HostFactor(ctx.spec["t_nom_ms"]["single"] / 1e3)

    # -- setup, repeated; the median rep is reported ------------------------
    setup_ref, synth_ref, fingerprints = [], [], set()
    f_imports = factor.factor(hostspeed.time_kernel(kernel, 5))
    for rep in range(ctx.setup_reps):
        before = hostspeed.time_kernel(kernel, 3)
        t0 = time.perf_counter()
        tracer.enabled = ctx.trace
        captures = render_inputs(ctx.seed, tracer)
        t_synth = time.perf_counter() - t0
        tracer.enabled = False
        seeds = decoder_seeds(ctx.seed, len(captures))
        LFDecoder(cfg, rng=seeds[0]).decode_epoch(captures[0].trace)
        wall = time.perf_counter() - t0
        f = factor.factor(before + hostspeed.time_kernel(kernel, 3))
        setup_ref.append(wall * f)
        synth_ref.append(t_synth * f)
        fingerprints.add(tuple(hash(c.trace.samples.tobytes())
                               for c in captures))
    report.check("setup renders identical inputs every rep",
                 len(fingerprints) == 1)
    setup_s = ctx.import_s * f_imports + float(np.median(setup_ref))

    # -- measured loop -------------------------------------------------------
    def decode(i: int, cycle: int):
        decoder = LFDecoder(cfg, rng=seeds[i])
        with tracer.span("core.pipeline.decode_epoch", op=(cycle, i)):
            return decoder.decode_epoch(captures[i].trace)

    def summarize(i: int, result) -> Summary:
        scored = score_epoch(captures[i], result)
        return Summary(result_digest(result), scored.bits_correct,
                       scored.bits_sent, SimpleNamespace(
                           stage_timings=result.stage_timings,
                           fidelity_stats=result.fidelity_stats,
                           cache_stats=result.cache_stats))

    rows = closed_loop(len(captures), decode, kernel, ctx.seconds,
                       tracer=tracer,
                       traced=(lambda c: c % 2 == 0) if ctx.trace
                       else (lambda c: False), summarize=summarize)
    ref, factors = reference_latencies(rows, factor)
    n = len(rows)
    # Throughput from each input's median cost: one host blip the
    # kernel missed cannot move it.
    per_input: dict = {}
    for row, value in zip(rows, ref):
        per_input.setdefault(row[0], []).append(value)
    samples = sum(len(captures[i].trace) for i in per_input)
    cost = sum(float(np.median(v)) for v in per_input.values())

    # -- correctness -----------------------------------------------------------
    failed = sum(1 for row in rows if row[4] is None)
    seen: dict = {}
    for index, _, _, _, summary in rows:
        if summary is not None:
            seen.setdefault(index, set()).add(summary[:3])
    report.check("repeated decodes of an input give one digest",
                 all(len({d for d, _, _ in v}) == 1 for v in seen.values()))
    report.check("goodput repeats exactly",
                 all(len(v) == 1 for v in seen.values()))
    first = _goodput(captures, rows)

    report.attempted, report.failed = n, failed
    lat_ms = [x * 1e3 for x in ref]
    report.e2e = {
        "throughput_sps": Metric(samples / cost, "samples/s", n),
        "latency_p50_ms": Metric(percentile(lat_ms, 50), "ms", n),
        "latency_p95_ms": Metric(percentile(lat_ms, 95), "ms", n),
        "goodput_fraction": Metric(first[0] / first[1], "fraction",
                                   len(captures)),
        "ok_fraction": Metric((n - failed) / n, "fraction", n),
        "setup_s": Metric(setup_s, "s", ctx.setup_reps),
        "peak_rss_mb": Metric(ctx.rss.peak_mb(), "MB", 1),
    }
    report.info["wall_throughput_sps"] = sum(
        len(captures[row[0]].trace) for row in rows) / sum(
        row[3] for row in rows)
    if ctx.trace:
        report.layers = _ledger(rows, factors, synth_ref)
        residual = report.layers["core.pipeline.residual_ms"].value
        report.check("decode stages fit in the decode total (residual >= 0)",
                     residual >= 0.0, f"residual {residual:.3f} ms")
    report.info["host_factor"] = factor.summary()
    return report


def _goodput(captures, rows):
    """Bits correct and sent over the first decode of every input."""
    correct = sent = 0
    for index, cycle, _, _, summary in rows:
        if cycle != 0:
            continue
        if summary is None:
            sent += captures[index].total_bits_sent()
        else:
            correct += summary.bits_correct
            sent += summary.bits_sent
    return correct, sent


def _ledger(rows, factors, synth_ref) -> dict:
    """Per-layer numbers from the traced (even) cycles; the untraced
    (odd) cycles decode the same inputs, which prices the tracing."""
    traced = [(row, f) for row, f in zip(rows, factors)
              if row[1] % 2 == 0 and row[4] is not None]
    layers = decode_ledger([(row[4].stats, f) for row, f in traced])
    layers["experiments.scenario.synth_s"] = Metric(
        float(np.median(synth_ref)), "s", len(synth_ref))
    untraced: dict = {}
    for row, f in zip(rows, factors):
        if row[1] % 2 == 1 and row[4] is not None:
            untraced.setdefault(row[0], []).append(row[3] * f)
    pairs = [(row[3] * f, mean(untraced[row[0]])) for row, f in traced
             if row[0] in untraced]
    overhead = (sum(a for a, _ in pairs) / sum(b for _, b in pairs) - 1
                if pairs else 0.0)
    layers["bench.trace_overhead_fraction"] = Metric(
        overhead, "fraction", len(pairs))
    return layers
