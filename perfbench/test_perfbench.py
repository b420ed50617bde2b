"""Self-tests of the benchmark itself (not part of the repo's test suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
import epoch  # noqa: E402
import hostspeed  # noqa: E402
import stream  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _outcome(reader, seq, status):
    """A stand-in for a service ChunkResult."""
    frame = SimpleNamespace(reader_id=reader, seq=seq, n_samples=1000,
                            sample_offset=0.0)
    result = None if status == "shed" else SimpleNamespace(
        stage_timings={}, fidelity_stats={}, cache_stats={})
    return SimpleNamespace(frame=frame, status=status, result=result,
                           latency_s=0.0, decode_s=0.0)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.mark.parametrize("slowdown", [1.0, 2.5])
def test_normalised_latency_unchanged_when_host_slows(slowdown):
    """Kernel and work slowed by one constant: reference time is the
    nominal cost, while wall time grows by the slowdown."""
    clock = FakeClock()
    t_nom = 0.0015
    costs = [0.040 + 0.003 * i for i in range(7)]

    def kernel():
        clock.t += t_nom * slowdown
        return 0.0

    def decode(index, cycle):
        clock.t += costs[index] * slowdown
        return index

    rows = epoch.closed_loop(len(costs), decode, kernel, seconds=1.0,
                             clock=clock)
    ref, factors = epoch.reference_latencies(
        rows, hostspeed.HostFactor(t_nom))
    assert len(rows) >= len(costs)
    for row, value, f in zip(rows, ref, factors):
        assert value == pytest.approx(costs[row[0]], rel=1e-12)
        assert row[3] == pytest.approx(costs[row[0]] * slowdown, rel=1e-12)
        assert f == pytest.approx(1.0 / slowdown, rel=1e-12)


def test_open_loop_charges_a_stall_from_due_time():
    """A service stall delays the generator too; the chunks that fell
    due during the stall are charged from their due time, not from the
    late moment they could be sent."""
    interval, stall, stalled_at = 0.02, 0.3, 5
    log = stream.ChunkLog()

    async def submit(reader, antenna, index, offset):
        if index == stalled_at:
            await asyncio.sleep(stall)
        log(_outcome(reader, index, "ok"))

    items = [((0, j), 1000, (0, 0, j, 0.0)) for j in range(20)]
    sent = asyncio.run(stream.paced_block(submit, items,
                                          rate_wall=1000 / interval))
    latencies = stream.due_latencies(sent, log, factor=1.0)
    stall_end = log.done[(0, stalled_at)].at
    due_in_stall = [j for j, (_, due, _) in enumerate(sent)
                    if sent[stalled_at][1] < due < stall_end]
    assert len(due_in_stall) >= 10
    for j in due_in_stall:
        key, due, sent_at = sent[j]
        assert latencies[j] >= stall_end - due - 1e-6
        # Timed from the send, the same chunk would look instant.
        assert log.done[key].at - sent_at < latencies[j] / 2


def test_due_latency_of_a_shed_chunk_is_never():
    log = stream.ChunkLog()
    log(_outcome(0, 0, "shed"))
    assert stream.due_latencies([((0, 0), 0.0, 0.0)], log, 1.0) == \
        [common.NEVER]
    assert common.percentile([1.0, 2.0, common.NEVER], 95) == common.NEVER
    assert common.percentile([1.0, 2.0, 3.0], 50) == 2.0


def test_no_knob_the_roadmap_deletes_is_passed():
    banned = re.compile(r"executor=|kernel_backend=|spawn_sim_rng|"
                        r"population_seeds|FidelityPolicy\(|"
                        r"robustness\.scenarios|import scenarios")
    for path in HERE.glob("*.py"):
        if path.name == Path(__file__).name:
            continue
        assert not banned.search(path.read_text()), path.name


def _session_processes(sid):
    """Processes, zombies included, still in session ``sid``."""
    left = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if os.getsid(int(entry.name)) == sid:
                    left.append(int(entry.name))
            except OSError:
                pass
    return left


def _run(*args, cwd=ROOT, timeout=180):
    """Run the benchmark in a session of its own; ``.left`` lists the
    processes of that session that outlived it."""
    with subprocess.Popen([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as popen:
        try:
            stdout, stderr = popen.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            popen.kill()
            raise
    proc = subprocess.CompletedProcess(popen.args, popen.returncode,
                                       stdout, stderr)
    proc.left = _session_processes(popen.pid)
    return proc


@pytest.mark.parametrize("workload", ["epoch", "stream", "sweep"])
def test_smoke_run(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"]
                                       for m in DECLARED["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert proc.left == [], "processes outlived the run"


def test_traced_run_writes_every_per_layer_metric():
    proc = _run("--workload", "epoch", "--seed", "3", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    names = [m["name"] for m in DECLARED["per_layer"]]
    assert list(result["metrics"]) == names
    layers = json.loads((HERE / "out" / "epoch-layers.json").read_text())
    assert list(layers["metrics"]) == names
    metrics = layers["metrics"]
    stages = sum(v["value"] for k, v in metrics.items()
                 if k.startswith("core.stages."))
    assert stages + metrics["core.pipeline.residual_ms"]["value"] == \
        pytest.approx(metrics["core.pipeline.total_ms"]["value"])
    assert (HERE / "out" / "epoch-spans.json").is_file()


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    start = time.monotonic()
    proc = _run("--workload", "epoch", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert time.monotonic() - start < 180
