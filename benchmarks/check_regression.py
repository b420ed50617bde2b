#!/usr/bin/env python
"""Throughput-regression gate against the committed baseline.

Re-runs the decoder speed benchmark and compares its headline
``samples_per_second`` to the value recorded in
``benchmarks/BENCH_decoder.json``.  A drop of more than 20% fails the
process with a non-zero exit code, so CI catches changes that slow the
decoder down without anyone staring at benchmark tables::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --tolerance 0.3
    PYTHONPATH=src python benchmarks/check_regression.py --candidate out.json

The gate also checks the candidate's fidelity escalation rate: on the
clean 16-tag benchmark most gate decisions should take the fast path,
so a rate above the sanity ceiling (or a dead fast path — zero gate
decisions, which reads as rate 1.0) means the adaptive ladder silently
stopped paying for itself and fails the run even when raw throughput
still clears the floor.

The 20% default is deliberately loose: shared CI runners jitter by
±10% run to run, and the gate exists to catch real regressions (2x
slowdowns from an accidental O(n^2) path), not 5% noise.  Ratcheting
the baseline downward is a deliberate act — regenerate the JSON with
``run_bench.py`` and commit it alongside the change that explains it.

Faster-than-baseline runs never fail; they just suggest refreshing the
baseline.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BASELINE = BENCH_DIR / "BENCH_decoder.json"
#: The benchmark whose samples_per_second is the headline number.
#: Matching ignores any pytest parameter suffix, so older exports whose
#: entry reads ``test_decode_speed_16_tags[reference]`` still match.
HEADLINE = "test_decode_speed_16_tags"
DEFAULT_TOLERANCE = 0.20
#: Highest acceptable fidelity escalation rate on the clean 16-tag
#: benchmark.  The fixture is low-noise and collision-light, so a
#: healthy adaptive ladder resolves well over half its gate decisions
#: on the fast path; a dead ladder reports rate 1.0 (no decisions at
#: all) and fails too.
DEFAULT_ESCALATION_CEILING = 0.5
#: Default location the survival sweep drops its matrix
#: (``python -m repro.robustness.survival --out ...``).
SURVIVAL_CANDIDATE = BENCH_DIR / "results" / "survival_matrix.json"
#: Committed quick-grid signoff baseline (run_signoff.py --quick).
SIGNOFF_BASELINE = BENCH_DIR / "SIGNOFF_quick.json"
#: Default location run_signoff.py drops its export.
SIGNOFF_CANDIDATE = BENCH_DIR / "results" / "signoff.json"
#: Absolute slack when requiring the BER waterfall to be monotone:
#: with a few hundred bits per cell, counting noise can tick a cell
#: up by a couple of errors without any real trend break.
WATERFALL_SLACK = 0.02
#: Absolute tolerance for per-cell fraction regressions (capacity
#: goodput, eye opening) against the committed signoff baseline.
DEFAULT_SIGNOFF_TOLERANCE = 0.10


def _is_headline(bench: dict) -> bool:
    return bench.get("name", "").split("[")[0] == HEADLINE


def _headline_rate(benchmarks: list) -> float:
    """samples_per_second of the first headline entry."""
    for bench in benchmarks:
        if _is_headline(bench) and bench.get("samples_per_second"):
            return float(bench["samples_per_second"])
    raise SystemExit(f"no samples_per_second recorded for {HEADLINE!r}")


def _headline_fidelity_stats(benchmarks: list) -> dict | None:
    """The headline benchmark's fidelity counters, if recorded.

    Accepts both the summary format (counters at the top level) and
    pytest-benchmark's raw export (nested under ``extra_info``).
    """
    for bench in benchmarks:
        if _is_headline(bench):
            stats = bench.get("fidelity_stats")
            if stats is None:
                stats = bench.get("extra_info", {}).get("fidelity_stats")
            return stats
    return None


def _normalize(benches: list) -> list:
    """Lift raw pytest-benchmark extra_info fields to the top level."""
    for bench in benches:
        extra = bench.get("extra_info")
        if extra and "samples_per_second" in extra:
            bench.setdefault("samples_per_second",
                             extra["samples_per_second"])
    return benches


def load_baseline(path: Path) -> float:
    if not path.exists():
        raise SystemExit(f"baseline {path} not found — run "
                         f"benchmarks/run_bench.py first")
    return _headline_rate(
        _normalize(json.loads(path.read_text())["benchmarks"]))


def measure_candidate(candidate: Path | None) -> tuple:
    """Headline (rate, fidelity_stats) of a saved export or fresh run."""
    if candidate is not None:
        payload = json.loads(candidate.read_text())
        # Accept either our summary format or pytest-benchmark's raw
        # export (whose entries keep extra_info nested).
        benches = _normalize(payload.get("benchmarks", []))
        return _headline_rate(benches), _headline_fidelity_stats(benches)
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "candidate.json"
        cmd = [sys.executable, "-m", "pytest",
               str(BENCH_DIR / "test_decoder_speed.py"), "-q",
               f"--benchmark-json={json_path}"]
        completed = subprocess.run(cmd, cwd=REPO_ROOT)
        if completed.returncode != 0:
            raise SystemExit("candidate benchmark run failed with "
                             f"exit code {completed.returncode}")
        payload = json.loads(json_path.read_text())
    return measure_candidate_from_raw(payload)


def measure_candidate_from_raw(payload: dict) -> tuple:
    benches = _normalize(payload.get("benchmarks", []))
    return _headline_rate(benches), _headline_fidelity_stats(benches)


def check_escalation_rate(stats: dict | None, ceiling: float) -> int:
    """0 when the escalation rate clears the ceiling, 1 otherwise.

    ``None`` (an export predating the fidelity counters) passes with a
    note — old saved candidates stay usable — but an all-zero counter
    dict fails: the decoder *has* the counters and none of its fast
    paths ever fired, which is exactly the dead-ladder regression the
    ceiling exists to catch.
    """
    if stats is None:
        print("escalation: no fidelity counters in export (skipped)")
        return 0
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.fidelity import escalation_rate

    rate = escalation_rate(stats)
    print(f"escalation: {rate:.1%} of gate decisions "
          f"(ceiling {ceiling:.0%})")
    if rate > ceiling:
        print("FAIL: fidelity escalation rate above the sanity ceiling"
              " — the adaptive fast paths are not paying for themselves")
        return 1
    return 0


def check_survival(path: Path) -> int:
    """Gate the robustness survival matrix, if one is present.

    Three informal invariants (0 when they hold or no matrix exists):

    * no cell is ``failed`` — fault confinement never broke;
    * the flat-channel baselines decode — impairment handling cost
      nothing on the paper's own regime;
    * at least one multipath scenario is confined/degraded without the
      equalizer pre-stage yet decoded with it — the stage still earns
      its place in the pipeline.
    """
    if not path.exists():
        print("survival: no matrix found (skipped) — run "
              "python -m repro.robustness.survival to produce one")
        return 0
    try:
        matrix = json.loads(path.read_text())
        scenarios = matrix["scenarios"]
    except (ValueError, KeyError) as exc:
        print(f"survival: FAIL: unreadable matrix {path}: {exc}")
        return 1

    failed = False
    for name, row in scenarios.items():
        for config, cell in row.items():
            if cell.get("classification") == "failed":
                print(f"survival: FAIL: {name}/{config} raised "
                      f"({cell.get('error', '?')}) — confinement "
                      f"broke")
                failed = True
    for name in ("flat_6", "flat_14"):
        row = scenarios.get(name)
        if row is None:
            continue
        cls = row.get("baseline", {}).get("classification")
        if cls != "decoded":
            print(f"survival: FAIL: flat baseline {name} is {cls!r}, "
                  f"expected 'decoded'")
            failed = True
    rescued = [
        name for name, row in scenarios.items()
        if row.get("baseline", {}).get("classification")
        in ("degraded", "confined")
        and row.get("equalizer", {}).get("classification") == "decoded"]
    if rescued:
        print(f"survival: equalizer rescues {sorted(rescued)}")
    else:
        print("survival: FAIL: no scenario is degraded/confined at "
              "baseline yet decoded with the equalizer — the "
              "pre-stage no longer earns its place")
        failed = True
    if not failed:
        print(f"survival: OK ({len(scenarios)} scenarios)")
    return 1 if failed else 0


def check_signoff(candidate_path: Path, baseline_path: Path,
                  tolerance: float) -> int:
    """Gate the link-margin signoff export, if one is present.

    Shape invariants hold unconditionally: the BER waterfall must fall
    (noise-tolerantly) with SNR for both schemes, LF must sit at or
    above ASK on (nearly) every row — the Figure 14 geometry — and
    every auto-tuned family must score at least its own baseline (the
    tuner only ever accepts improving moves, so worse-than-stock means
    the harness broke).

    Against the committed quick baseline the gate also requires that
    no capacity cell's goodput and no eye scenario's opening regresses
    past the tolerance.  With no baseline committed (or a candidate
    from a different grid), the comparison is informational only.
    """
    if not candidate_path.exists():
        print("signoff: no export found (skipped) — run "
              "benchmarks/run_signoff.py to produce one")
        return 0
    try:
        candidate = json.loads(candidate_path.read_text())
    except ValueError as exc:
        print(f"signoff: FAIL: unreadable export {candidate_path}: "
              f"{exc}")
        return 1

    failed = False
    rows = (candidate.get("waterfall") or {}).get("rows") or []
    by_snr = sorted(rows, key=lambda r: r["snr_db"])
    for scheme in ("lf_ber", "ask_ber"):
        for low, high in zip(by_snr, by_snr[1:]):
            if high[scheme] > low[scheme] + WATERFALL_SLACK:
                print(f"signoff: FAIL: {scheme} rises from "
                      f"{low[scheme]:.3f} @ {low['snr_db']:g} dB to "
                      f"{high[scheme]:.3f} @ {high['snr_db']:g} dB — "
                      f"waterfall is not monotone")
                failed = True
    if by_snr:
        inverted = sum(1 for r in by_snr
                       if r["lf_ber"] + WATERFALL_SLACK < r["ask_ber"])
        if inverted > 1:
            print(f"signoff: FAIL: LF beats ASK on {inverted} rows — "
                  f"the Figure 14 gap direction flipped")
            failed = True
        gap = (candidate.get("waterfall") or {}).get("snr_gap_db")
        gap_text = f"{gap:.2f} dB" if gap is not None else "unfitted"
        print(f"signoff: waterfall {len(by_snr)} rows, SNR gap "
              f"{gap_text}")

    for family, report in (candidate.get("autotune") or {}).items():
        if report["best_score"] < report["baseline_score"]:
            print(f"signoff: FAIL: autotune[{family}] scored below "
                  f"stock settings — the tuner harness is broken")
            failed = True
    improved = sorted(f for f, r in
                      (candidate.get("autotune") or {}).items()
                      if r.get("improved"))
    if candidate.get("autotune"):
        print(f"signoff: autotune improves {improved or 'nothing'}")

    if not baseline_path.exists():
        print(f"signoff: no committed baseline at "
              f"{baseline_path.name} — cell comparison skipped "
              f"(informational)")
        return 1 if failed else 0
    baseline = json.loads(baseline_path.read_text())

    def _cells(payload):
        return {(r["snr_db"], r["n_tags"], r["drift_ppm"]):
                r["goodput_fraction"]
                for r in (payload.get("capacity") or {})
                .get("rows", [])}

    base_cells = _cells(baseline)
    cand_cells = _cells(candidate)
    compared = 0
    for coords, base_value in base_cells.items():
        got = cand_cells.get(coords)
        if got is None:
            continue
        compared += 1
        if got < base_value - tolerance:
            print(f"signoff: FAIL: capacity cell {coords} goodput "
                  f"{got:.3f} regressed past baseline "
                  f"{base_value:.3f} - {tolerance}")
            failed = True
    for name, base_eye in (baseline.get("eye") or {}).items():
        cand_eye = (candidate.get("eye") or {}).get(name)
        if cand_eye is None:
            continue
        base_open = base_eye["summary"]["min_opening"]
        cand_open = cand_eye["summary"]["min_opening"]
        compared += 1
        if cand_open < base_open - tolerance:
            print(f"signoff: FAIL: eye[{name}] min opening "
                  f"{cand_open:.3f} regressed past baseline "
                  f"{base_open:.3f} - {tolerance}")
            failed = True
    if compared:
        print(f"signoff: {compared} cells compared against "
              f"{baseline_path.name}")
    else:
        print("signoff: no overlapping cells with the baseline "
              "(different grids?) — informational only")
    if not failed:
        print("signoff: OK")
    return 1 if failed else 0


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when decoder throughput regresses past the "
                    "tolerance.")
    parser.add_argument("--baseline", type=Path, default=BASELINE,
                        help="committed BENCH_decoder.json to compare "
                             "against")
    parser.add_argument("--candidate", type=Path, default=None,
                        help="pre-recorded benchmark JSON; omitted = "
                             "run the benchmark now")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed fractional drop (default 0.20)")
    parser.add_argument("--escalation-ceiling", type=float,
                        default=DEFAULT_ESCALATION_CEILING,
                        help="maximum fidelity escalation rate on the "
                             "clean benchmark (default 0.5)")
    parser.add_argument("--survival", type=Path,
                        default=SURVIVAL_CANDIDATE,
                        help="survival matrix JSON from "
                             "repro.robustness.survival (gated only "
                             "when the file exists)")
    parser.add_argument("--signoff-candidate", type=Path,
                        default=SIGNOFF_CANDIDATE,
                        help="signoff export from run_signoff.py "
                             "(gated only when the file exists)")
    parser.add_argument("--signoff-baseline", type=Path,
                        default=SIGNOFF_BASELINE,
                        help="committed SIGNOFF_quick.json baseline")
    parser.add_argument("--signoff-tolerance", type=float,
                        default=DEFAULT_SIGNOFF_TOLERANCE,
                        help="allowed absolute per-cell drop vs the "
                             "signoff baseline (default 0.10)")
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")
    if not 0.0 < args.escalation_ceiling <= 1.0:
        parser.error("--escalation-ceiling must be in (0, 1]")

    baseline = load_baseline(args.baseline)
    candidate, fidelity = measure_candidate(args.candidate)

    floor = baseline * (1.0 - args.tolerance)
    change = candidate / baseline - 1.0
    print(f"baseline : {baseline:,.0f} samples/s")
    print(f"candidate: {candidate:,.0f} samples/s ({change:+.1%})")
    print(f"floor    : {floor:,.0f} samples/s "
          f"(-{args.tolerance:.0%} tolerance)")
    failed = candidate < floor
    if failed:
        print("FAIL: throughput regressed past the tolerance")
    any_faster = candidate > baseline
    status = check_escalation_rate(fidelity, args.escalation_ceiling)
    survival_status = check_survival(args.survival)
    signoff_status = check_signoff(
        args.signoff_candidate, args.signoff_baseline,
        args.signoff_tolerance)
    if failed:
        return 1
    if status:
        return status
    if survival_status:
        return survival_status
    if signoff_status:
        return signoff_status
    if any_faster:
        print("OK (faster than baseline — consider refreshing it with "
              "benchmarks/run_bench.py)")
    else:
        print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
