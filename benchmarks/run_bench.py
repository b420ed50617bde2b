#!/usr/bin/env python
"""Decoder-throughput benchmark harness.

Runs the pytest-benchmark speed tests (``test_decoder_speed.py`` and
``test_session_speed.py``) in a subprocess, pulls out the timing
statistics and the decoder's per-stage wall-clock split, and writes
them to ``benchmarks/BENCH_decoder.json`` so successive runs can be
diffed::

    PYTHONPATH=src python benchmarks/run_bench.py
    PYTHONPATH=src python benchmarks/run_bench.py --profile

The JSON payload records samples/second (the headline number), the
mean/min/stddev decode time for the 16-tag epoch, the
edge/fold/extract/detect/separate/viterbi stage breakdown, the
fidelity gate counters (fast-path hits versus escalations per gate),
and the session benchmark's steady-state warm/cold speedup.

``--profile`` additionally runs one 16-tag decode under cProfile and
prints the top 20 functions by cumulative time — the first place to
look when the stage split shifts and you need attribution below stage
granularity.

Stage fractions are normalized by the *sum of the stages*, not by the
pipeline's wall clock: the wall clock includes untimed glue (python
dispatch, result assembly) and dividing by it silently understated
every stage.  The glue shows up explicitly as ``overhead_s`` instead,
and the fractions are asserted to sum to 1.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUTPUT = BENCH_DIR / "BENCH_decoder.json"
SPEED_TESTS = [BENCH_DIR / "test_decoder_speed.py",
               BENCH_DIR / "test_session_speed.py"]

#: extra_info keys copied through to the summary when present.
EXTRA_KEYS = ("samples_per_second", "steady_state_speedup",
              "warm_separate_fraction", "steady_cold_epoch_s",
              "steady_warm_epoch_s", "cache_stats", "n_trackers",
              "fidelity_stats")


def run_speed_benchmark(json_path: Path) -> None:
    """Run the speed tests with pytest-benchmark's JSON export."""
    cmd = [sys.executable, "-m", "pytest",
           *[str(path) for path in SPEED_TESTS], "-q",
           f"--benchmark-json={json_path}"]
    completed = subprocess.run(cmd, cwd=REPO_ROOT)
    if completed.returncode != 0:
        raise SystemExit(
            f"benchmark run failed with exit code "
            f"{completed.returncode}")


def summarize(raw: dict) -> dict:
    """Reduce pytest-benchmark's export to the numbers we track."""
    benchmarks = []
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        extra = bench.get("extra_info", {})
        entry = {
            "name": bench["name"],
            "mean_s": stats["mean"],
            "min_s": stats["min"],
            "stddev_s": stats["stddev"],
            "rounds": stats["rounds"],
            "stage_timings_s": extra.get("stage_timings", {}),
        }
        for key in EXTRA_KEYS:
            if key in extra:
                entry[key] = extra[key]
        timings = entry["stage_timings_s"]
        stage_sum = sum(seconds for name, seconds in timings.items()
                        if name != "total")
        if stage_sum > 0:
            fractions = {name: seconds / stage_sum
                         for name, seconds in timings.items()
                         if name != "total"}
            assert math.isclose(sum(fractions.values()), 1.0,
                                rel_tol=1e-9), \
                "stage fractions must sum to 1"
            entry["stage_fractions"] = fractions
            # Wall clock the stage timers never saw (dispatch, result
            # assembly); kept explicit instead of being smeared across
            # the stage fractions.
            total = timings.get("total", 0.0)
            entry["overhead_s"] = max(total - stage_sum, 0.0)
        benchmarks.append(entry)
    return {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "machine": raw.get("machine_info", {}).get("node"),
        "python": raw.get("machine_info", {}).get("python_version"),
        "benchmarks": benchmarks,
    }


def profile_one_decode(top: int = 20) -> None:
    """cProfile a single 16-tag epoch decode; print top functions.

    Reuses the speed benchmark's fixture (same seed, same tag
    population) so the profile attributes exactly the workload the
    headline number measures.
    """
    import cProfile
    import pstats

    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from test_decoder_speed import sixteen_tag_capture
    from repro.core.pipeline import LFDecoder, LFDecoderConfig

    profile, capture = sixteen_tag_capture.__wrapped__()
    config = LFDecoderConfig(candidate_bitrates_bps=[10e3],
                             profile=profile)
    # One untimed decode first so numpy warm-up does not pollute the
    # profile; a fresh decoder for the measured pass keeps the
    # session-free cold path honest.
    LFDecoder(config, rng=1).decode_epoch(capture.trace)
    decoder = LFDecoder(config, rng=1)
    profiler = cProfile.Profile()
    profiler.enable()
    decoder.decode_epoch(capture.trace)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    # Secondary sort on the function name so equal-cumulative rows
    # print in a stable order — profile diffs stay line-comparable
    # across runs.
    stats.sort_stats("cumulative", "name").print_stats(top)


def main(argv: list | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Run the decoder speed benchmarks and record the "
                    "summary JSON.")
    parser.add_argument("--profile", action="store_true",
                        help="also cProfile one 16-tag decode and "
                             "print the top 20 cumulative functions")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "pytest_benchmark.json"
        run_speed_benchmark(json_path)
        raw = json.loads(json_path.read_text())
    summary = summarize(raw)
    OUTPUT.write_text(json.dumps(summary, indent=2) + "\n")
    for bench in summary["benchmarks"]:
        line = f"{bench['name']}: mean {bench['mean_s'] * 1e3:.1f} ms"
        if bench.get("samples_per_second"):
            line += f", {bench['samples_per_second']:,.0f} samples/s"
        if bench.get("steady_state_speedup"):
            line += (f", steady-state speedup "
                     f"{bench['steady_state_speedup']:.2f}x")
        print(line)
        for name, fraction in bench.get("stage_fractions", {}).items():
            print(f"  {name:>9s}: {fraction * 100:5.1f}%")
        if "overhead_s" in bench:
            print(f"  overhead: {bench['overhead_s'] * 1e3:.1f} ms "
                  f"(outside stage timers)")
        stats = bench.get("fidelity_stats")
        if stats and any(stats.values()):
            fired = {name: count for name, count in stats.items()
                     if count}
            print(f"  fidelity: {fired}")
    print(f"wrote {OUTPUT}")
    if args.profile:
        profile_one_decode()


if __name__ == "__main__":
    main()
