#!/usr/bin/env python3
"""LF-Backscatter reader benchmark: ``epoch``, ``stream`` and ``sweep``.

Run from the repository root::

    python3 perfbench/run.py --workload epoch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Every time it reports is reference time (see ``hostspeed.py``).  With
``--trace 0`` the last stdout line is one JSON object carrying every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it carries
every per-layer metric instead, computed from spans recorded around the
calls into each layer plus the counters the program returns, and the
per-layer JSON and the spans are written to ``perfbench/out/``.  A
metric a workload does not exercise reads 0 with sample count 0.

Correctness checks run in the same command; any failure prints
``"correct": false`` and exits 1.  Without ``src/repro`` next to this
directory the command exits 2 and prints no result.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import atexit  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402


def _child_pids() -> list:
    pids = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except (OSError, ValueError):
            continue
    return pids


def _wait(pid: int, timeout_s: float) -> bool:
    """Reap child ``pid`` within ``timeout_s``; False if it still runs."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done or time.monotonic() > deadline:
            return bool(done)
        time.sleep(0.01)


def _stop(pid: int, grace_s: float) -> None:
    """Wait ``grace_s`` for child ``pid`` to end, then terminate it."""
    if _wait(pid, grace_s):
        return
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            pass
        if _wait(pid, 5.0):
            return


def _reap_children() -> None:
    """Stop every process the run started and wait for each to end.

    Registered before anything imports ``multiprocessing``, so it runs
    after multiprocessing has joined its own children at exit.  The
    multiprocessing resource tracker (started by shared memory and by
    spawned helpers) would otherwise see its pipe close only when this
    process is gone, and outlive the run as a zombie of init.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    tracker = tracker and tracker._resource_tracker
    tracker_pid = tracker._pid if tracker and tracker._fd is not None \
        else None
    # Other children first: a forked one holds the tracker's pipe open.
    for pid in _child_pids():
        if pid != tracker_pid:
            _stop(pid, grace_s=1.0)
    if tracker_pid is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
        _stop(tracker_pid, grace_s=5.0)


atexit.register(_reap_children)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("epoch", "stream", "sweep")
#: Environment knobs the benchmark never lets select the system's
#: behaviour: every run measures the defaults.
CLEARED_ENV = ("REPRO_SERVICE_EXECUTOR", "REPRO_KERNEL_BACKEND")
#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPS = 3


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    spec: dict
    import_s: float
    tracer: object
    rss: object
    setup_reps: int = SETUP_REPS


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process; a summary table at the end."""
    results, code = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[workload] = {"correct": False, "attempted": 0,
                                 "failed": 0, "metrics": {}}
            code = code or 1
    print(f"\n{'metric':<36}" + "".join(f"{w:>16}" for w in WORKLOADS))
    names = sorted({n for r in results.values() for n in r["metrics"]})
    for name in names:
        cells = [results[w]["metrics"].get(name, {}).get("value")
                 for w in WORKLOADS]
        print(f"{name:<36}" + "".join(
            f"{'-' if v is None else f'{v:.4g}':>16}" for v in cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{n}": m for w, r in results.items()
                    for n, m in r["metrics"].items()}}))
    return code


def _metric_set(declared, measured):
    """Every declared metric, in declared order; unmeasured ones read 0."""
    out = {}
    for entry in declared:
        metric = measured.get(entry["name"])
        if metric is None:
            out[entry["name"]] = (0.0, entry["unit"], 0)
            continue
        if metric.unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {metric.unit!r} "
                             f"!= declared {entry['unit']!r}")
        out[entry["name"]] = (metric.value, metric.unit, metric.n)
    return out


def _bench_layers(report, host) -> dict:
    from common import Metric

    info = report.info
    return {
        "bench.host_factor_min": Metric(host["min"], "factor", host["n"]),
        "bench.host_factor_median": Metric(host["median"], "factor",
                                           host["n"]),
        "bench.host_factor_max": Metric(host["max"], "factor", host["n"]),
        "bench.wall_throughput_sps": Metric(
            info.get("wall_throughput_sps", 0.0), "samples/s",
            report.attempted),
        "bench.generator_lag_p95_ms": Metric(
            info.get("generator_lag_p95_ms", 0.0), "ms",
            info.get("generator_lag_n", 0)),
    }


def main(argv=None) -> int:
    args = _args(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no src/repro under {ROOT}: run from a repository checkout")
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    workload = importlib.import_module(args.workload)
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        _fail(f"imported repro from {repro.__file__}, not this checkout")
    import_s = time.perf_counter() - T0

    from common import RssPeak, environment
    from spans import Tracer

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace), spec=spec,
                  import_s=import_s, tracer=Tracer(), rss=RssPeak())
    report = workload.run(ctx)
    host = report.info.pop("host_factor")
    report.layers.update(_bench_layers(report, host))
    env = environment()

    e2e = _metric_set(declared["end_to_end"], report.e2e)
    layers = _metric_set(declared["per_layer"], report.layers)
    shown = layers if args.trace else e2e
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("   env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"   host factor min/median/max: {host['min']:.3f} / "
          f"{host['median']:.3f} / {host['max']:.3f} (n={host['n']}); "
          f"raw wall throughput "
          f"{report.info.get('wall_throughput_sps', 0.0):,.0f} samples/s")
    for name, (value, unit, n) in shown.items():
        print(f"   {name:<36} {value:>14.6g} {unit:<10} n={n}")
    for name, ok, detail in report.checks:
        print(f"   check {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail and not ok else ""))

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "host_factor": host, "info": report.info,
              "checks": report.checks,
              "metrics": {n: {"value": v, "unit": u, "n": k}
                          for n, (v, u, k) in shown.items()}}
    suffix = "layers" if args.trace else "run"
    (out_dir / f"{args.workload}-{suffix}.json").write_text(
        json.dumps(record, indent=1, default=str))
    if args.trace:
        ctx.tracer.write(out_dir / f"{args.workload}-spans.json")

    values_ok = all(math.isfinite(v) for v, _, _ in shown.values())
    correct = report.correct and values_ok
    print(json.dumps({
        "correct": correct, "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u, _) in shown.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
