"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One run sets its workload up several times (``harness.repeat_setup``;
``setup_s`` is the median normalised CPU time), runs one unrecorded warm-up
round, then repeats rounds for ``--seconds`` and checks every answer.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The lines before it name the machine and the workload's own
metrics.  A copy of the result, with the machine fingerprint, is written to
``.perfbench-out/``.

The end-to-end metrics are normalised CPU times (see :mod:`harness`): what
a round or an operation costs in this process and, on serve_mixed, the
server, scaled to a host of fixed speed.  They carry one meaning per
workload: ``op_norm_*`` is a ``Design.verify`` call on cold_sweep, a warm
query (client and server) on serve_mixed and a ``Design.compile`` call on
deploy_fleet; ``throughput_norm_per_s`` is verdicts, completed queries and
scalar reactions per normalised CPU second respectively; ``round_norm_s``
is a whole round.  The wall-clock figures (``verify_s``, ``warm_p50_ms``,
``cold_p50_ms``, ``queries_per_s``, ``compile_ms``, ``reactions_per_s``,
...) and the speed samples are printed on the lines before the result.

The traced run alternates untraced and traced rounds and reports, per
traced round, the self time of every layer (see :mod:`layers`).  The self
times, ``service.transport_ms`` and ``unattributed_ms`` sum to
``obs.traced_wall_ms``; ``obs.trace_overhead_ratio`` is traced over
untraced round time.  A layer a workload does not use reads 0.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import subprocess
import sys
from typing import Dict, List

from harness import (
    CORPUS,
    OUTPUT,
    SPEC,
    SRC,
    fingerprint,
    freeze_inputs,
    measure,
    median,
    percentile,
    peak_rss_mib,
    repeat_setup,
)

#: per-layer counters of the served workload, and of deploy_fleet's fleets;
#: they read 0 on the workloads that have no server or no fleet
SERVICE_COUNTS = (
    "scheduler.lru_hit_ratio",
    "scheduler.store_hit_ratio",
    "scheduler.computations",
    "service.transport_ms",
    "service.retries",
    "service.errors",
)
FLEET_COUNTS = ("codegen.vectorized_ratio", "codegen.fallback_lanes")


def load_spec() -> Dict[str, object]:
    """The workloads and metrics of ``BENCHMARK.json``, the one place they are kept."""
    return json.loads(SPEC.read_text())


def workload_names() -> List[str]:
    return [workload["name"] for workload in load_spec()["workloads"]]


def _workload(name: str, seed: int):
    if name == "cold_sweep":
        from cold_sweep import ColdSweep

        return ColdSweep(seed)
    if name == "serve_mixed":
        from serve_mixed import ServeMixed

        return ServeMixed(seed)
    from deploy_fleet import DeployFleet

    return DeployFleet(seed)


def _stage_counts(
    stages_per_session: List[Dict[str, Dict[str, int]]], rounds: int = 1
) -> Dict[str, float]:
    """Artifact-graph stage counters per round: computed, store hits, reuse."""
    computed = store_hits = hits = 0
    for stages in stages_per_session:
        for counters in stages.values():
            computed += counters.get("computed", 0)
            store_hits += counters.get("store_hits", 0)
            hits += counters.get("hits", 0)
    resolved = computed + store_hits + hits
    return {
        "api.stage_computed": computed / rounds,
        "api.stage_store_hits": store_hits / rounds,
        "api.reuse_ratio": (hits + store_hits) / resolved if resolved else 0.0,
    }


def _layer_metrics(tracer, rounds: int, traced_ms: float) -> Dict[str, float]:
    """Per-round layer numbers from a tracer that recorded ``rounds`` rounds."""
    metrics = {name: value / rounds for name, value in tracer.self_time_ms().items()}
    compile_ms: Dict[str, float] = {}
    for runtime, seconds in tracer.compiles:
        compile_ms[runtime] = compile_ms.get(runtime, 0.0) + seconds * 1000.0
    from deploy_fleet import default_runtime

    metrics.update(
        {
            "mc.states": tracer.states() / rounds,
            "mc.relation_nodes": tracer.relation_nodes() / rounds,
            "bdd.sift_calls": len(tracer.sifts) / rounds,
            "bdd.sift_shrink_ratio": tracer.sift_shrink_ratio(),
            "store.gets": tracer.calls["store.get"] / rounds,
            "store.puts": tracer.calls["store.put"] / rounds,
            "scheduler.query_ms": tracer.inclusive_seconds["scheduler"] * 1000.0 / rounds,
            "codegen.compile_default_ms": compile_ms.get(default_runtime(), 0.0) / rounds,
            "codegen.compile_batched_ms": compile_ms.get("batched", 0.0) / rounds,
        }
    )
    attributed = sum(tracer.self_time_ms().values()) / rounds
    metrics["unattributed_ms"] = traced_ms - attributed
    return metrics


def traced_in_process(workload, seconds: float) -> Dict[str, float]:
    """cold_sweep / deploy_fleet: alternate untraced and traced rounds."""
    from layers import LayerTracer

    tracer = LayerTracer()
    untraced: List[float] = []

    def traced_round(index: int) -> float:
        untraced.append(workload.round(index))
        gc.collect()
        tracer.install()
        try:
            return workload.round(index, tracer)
        finally:
            tracer.uninstall()

    traced = measure(seconds, traced_round)
    traced_ms = sum(traced) * 1000.0 / len(traced)
    metrics = _layer_metrics(tracer, len(traced), traced_ms)
    metrics.update(_stage_counts(workload.api_stages()))
    metrics.update(dict.fromkeys(SERVICE_COUNTS + FLEET_COUNTS, 0.0))
    if hasattr(workload, "codegen_counts"):
        metrics.update(workload.codegen_counts())
    metrics["obs.traced_wall_ms"] = traced_ms
    metrics["obs.trace_overhead_ratio"] = median(traced) / median(untraced)
    return metrics


def traced_serve(workload, seconds: float) -> Dict[str, float]:
    """serve_mixed: socket rounds, then in-process replays of the same rounds.

    Transport is the socket round trips minus the untraced in-process
    time of the same operations; the traced replay splits the rest."""
    from layers import LayerTracer

    measure(seconds / 3.0, workload.round)
    tracer = LayerTracer()
    tracer.install()
    try:
        replay = workload.replay(tracer)
    finally:
        tracer.uninstall()
    rounds = len(workload.history)
    transport_ms = (replay["socket_ops_s"] - replay["untraced_ops_s"]) * 1000.0
    traced_ms = transport_ms + replay["traced_ops_s"] * 1000.0
    counters = replay["counters"]
    queries = max(counters["queries"], 1)
    metrics = _layer_metrics(tracer, rounds, replay["traced_ops_s"] * 1000.0)
    metrics.update(_stage_counts([counters["stages"]], rounds))
    metrics.update(dict.fromkeys(FLEET_COUNTS, 0.0))
    metrics.update(
        {
            "scheduler.lru_hit_ratio": counters["cache_hits"] / queries,
            "scheduler.store_hit_ratio": counters["verdict_store_hits"] / queries,
            "scheduler.computations": counters["computations"] / rounds,
            "service.transport_ms": transport_ms,
            "service.retries": replay["retries"],
            "service.errors": replay["errors"],
            "obs.traced_wall_ms": traced_ms,
            "obs.trace_overhead_ratio": replay["traced_ops_s"] / replay["untraced_ops_s"],
        }
    )
    return metrics


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = _workload(name, seed)
    speed_report = {}
    try:
        product, setup_s, setup_wall_s = repeat_setup(
            workload.build, workload.discard, getattr(workload, "server_cpu", lambda _: 0.0)
        )
        workload.adopt(product)
        workload.warmup()
        freeze_inputs()
        if trace and name == "serve_mixed":
            metrics = traced_serve(workload, seconds)
        elif trace:
            metrics = traced_in_process(workload, seconds)
        else:
            measure(seconds, workload.round, workload.speed)
            metrics = workload.end_to_end()
            samples = workload.speed.values
            speed_report = {
                "speed_samples": (len(samples), "count"),
                "reference_p10_ms": (percentile(samples, 10) * 1000.0, "ms"),
                "reference_p50_ms": (median(samples) * 1000.0, "ms"),
                "reference_p90_ms": (percentile(samples, 90) * 1000.0, "ms"),
            }
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = getattr(workload, "peak_rss_mib", peak_rss_mib)()
        report = dict(workload.report(), **speed_report)
    finally:
        workload.close()
    tally = workload.tally
    report["error_rate"] = (tally.failed / max(tally.attempted, 1), "ratio")
    report["setup_s"] = (setup_s, "s")
    report["setup_wall_s"] = (setup_wall_s, "s")
    wanted = load_spec()["per_layer" if trace else "end_to_end"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric["name"]: {
                "value": float(metrics[metric["name"]]), "unit": metric["unit"]
            }
            for metric in wanted
        },
    }
    machine = fingerprint(seed)
    print(json.dumps({"workload": name, "fingerprint": machine}))
    for metric, (value, unit) in report.items():
        print(f"{name} {metric} = {value} {unit}")
    for problem in tally.problems:
        print(f"{name} WRONG: {problem}")
    OUTPUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=name, fingerprint=machine,
                  report={key: value for key, (value, _unit) in report.items()},
                  problems=tally.problems)
    (OUTPUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (so peak RSS stays per workload)."""
    status = 0
    for name in workload_names():
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        status = status or completed.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workload_names(), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not (SRC / "repro").is_dir() or not CORPUS.is_file():
        print(
            f"perfbench: no repro sources under {SRC} or no {CORPUS}; run it from "
            "a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an interrupt, so the finally blocks stop the server
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if arguments.workload == "all":
        return run_all(arguments.seed, arguments.seconds, bool(arguments.trace))
    return run_one(arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace))


if __name__ == "__main__":
    sys.exit(main())
