"""Benchmark harness helpers.

Every benchmark regenerates one of the paper's tables or figures.  The
timing numbers come from pytest-benchmark; the regenerated rows are
printed and also written to ``benchmarks/results/<id>.txt`` so they
survive output capturing.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: The benchmarks' standard load: 16 tags at 10 kbps, seed 77.
BENCH_SEED = 77
BENCH_N_TAGS = 16


def sixteen_tag_synth(drift_ppm=None, noise_std=0.01):
    """The shared 16-tag benchmark network, as a scenario synthesizer.

    Both speed benchmarks draw the same population (seed 77, default
    scenario seeding); they differ only in crystal quality and noise
    floor, which callers override here.  Consecutive
    ``capture(epoch_index=i)`` calls on the returned synthesizer render
    a multi-epoch session.
    """
    from repro.experiments.scenario import ScenarioSpec, ScenarioSynth
    spec = ScenarioSpec(
        name="bench_16_tag", n_tags=BENCH_N_TAGS, bitrate_bps=10e3,
        noise_std=noise_std, drift_ppm=drift_ppm, seed=BENCH_SEED)
    return ScenarioSynth(spec)


def record(result, benchmark=None) -> None:
    """Print an ExperimentResult and persist it under results/."""
    text = result.format_table()
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{result.experiment_id}.txt"
    out.write_text(text + "\n")
    if benchmark is not None:
        benchmark.extra_info["experiment"] = result.experiment_id
        benchmark.extra_info["rows"] = len(result.rows)
