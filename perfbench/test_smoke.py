"""Smoke tests of the benchmark itself: short runs of every workload.

Run from the repository root::

    python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import SELF_TIME_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: per workload, the layers it loads (read > 0 in a traced run) and the
#: layers it bypasses (read 0), as each workload's ``why`` states
LOADS = {
    "cold_sweep": ["lang.normalize_ms", "lang.digest_ms", "clocks.analysis_ms",
                   "properties.criterion_ms", "properties.check_ms", "mc.compile_ms",
                   "mc.explore_ms", "bdd.sift_ms", "store.put_ms"],
    "serve_mixed": ["service.transport_ms", "scheduler.self_ms", "store.get_ms",
                    "store.put_ms", "mc.compile_ms", "mc.explore_ms"],
    "deploy_fleet": ["codegen.compile_ms", "codegen.scalar_run_ms", "codegen.fleet_run_ms",
                     "clocks.analysis_ms", "lang.digest_ms"],
}
BYPASSES = {
    "cold_sweep": ["scheduler.self_ms", "service.transport_ms", "codegen.compile_ms",
                   "codegen.scalar_run_ms", "codegen.fleet_run_ms"],
    "serve_mixed": ["codegen.compile_ms", "codegen.scalar_run_ms", "codegen.fleet_run_ms"],
    "deploy_fleet": ["store.get_ms", "store.put_ms", "scheduler.self_ms",
                     "service.transport_ms", "mc.compile_ms", "mc.explore_ms", "bdd.sift_ms"],
}


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_every_layer_boundary_is_installed():
    """A boundary the program lost must fail loudly, not read 0."""
    sys.path.insert(0, str(ROOT / "src"))
    from layers import LayerTracer

    tracer = LayerTracer()
    try:
        tracer.install()
        assert tracer._patches
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_metric(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    wanted = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    assert set(result["metrics"]) == set(wanted)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == wanted[name]
        assert isinstance(metric["value"], float)
    assert any(line.startswith(f"{workload} error_rate = 0.0 ") for line in lines)
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if trace:
        # self times + transport + unattributed make up the traced wall (by
        # construction); the remainder must not be negative
        parts = sum(values[name] for name in SELF_TIME_METRICS.values())
        parts += values["service.transport_ms"] + values["unattributed_ms"]
        assert parts == pytest.approx(values["obs.traced_wall_ms"], rel=1e-9)
        assert 0 <= values["unattributed_ms"] <= values["obs.traced_wall_ms"]
        assert all(values[name] > 0 for name in LOADS[workload]), values
        assert all(values[name] == 0 for name in BYPASSES[workload]), values
    else:
        assert all(value > 0 for value in values.values())
    assert not list((ROOT / ".perfbench-out").glob(f"tmp-{workload}-*"))


def test_process_clock_reads_another_process_s_cpu_time():
    from harness import ProcessClock

    burn = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.3: pass\ninput()"
    child = subprocess.Popen([sys.executable, "-c", burn], stdin=subprocess.PIPE)
    try:
        clock = ProcessClock(child.pid)
        first = clock.read()
        while clock.read() < 0.3:
            assert child.poll() is None
        assert clock.read() >= first
        clock.close()
    finally:
        child.communicate(b"\n", timeout=30)


def test_speed_scales_cpu_time_by_the_samples_around_it():
    from harness import REFERENCE_CPU_S, Speed

    speed = Speed()
    # samples at CPU seconds 0, 10-11 and 20; the host then ran the
    # reference at reference speed, reference speed and half of it
    speed.starts, speed.ends = [0.0, 10.0, 20.0], [0.0, 11.0, 20.0]
    speed.values = [REFERENCE_CPU_S, REFERENCE_CPU_S, 2 * REFERENCE_CPU_S]
    assert speed.normalise(2.0, 4.0) == pytest.approx(2.0)
    assert speed.normalise(12.0, 13.0) == pytest.approx(2.0 / 3.0)
    # the sample from 10 to 11 is not the program's time
    assert speed.normalise(5.0, 15.0) == pytest.approx(5.0 + 4.0 * 2.0 / 3.0)
    # another process's CPU time is scaled like the stretch it served
    assert speed.normalise(12.0, 13.0, 1.0) == pytest.approx(4.0 / 3.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("cold_sweep", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
