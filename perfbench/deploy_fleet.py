"""``deploy_fleet``: code generation and step execution, in process.

Designs: ``pipeline_8`` (eight relays, master clocks), the 32-stage
derivative chain (a deep single-clock dataflow whose values stay bounded)
and one ``design_space`` design per generator family: the first design
seed from 60 on that the sequential code generator accepts and that runs
on a feed drawn from a fixed seed (families it refuses within a few seeds
are left out), so the designs are the same for every workload seed.  The
workload seed draws every input feed that is measured.

Every round, on fresh sessions (each timed both in wall and CPU time; the
gated metrics are the normalised CPU times, see ``harness``):

* ``Design.compile`` of every (design, runtime) pair — one latency sample
  each (``compile_ms``);
* the default runtime of ``Design.compile`` runs every pipeline_8 and
  derivative-chain lane and every design_space feed one instance at a time
  (``reactions_per_s``);
* ``BatchedDeployment.run_many`` runs both fleets (``fleet_reactions_per_s``).

Checks, outside the timed operations: every fleet lane equals the scalar
run of the same lane; a rotating sample of fleet lanes replays through the
independent ``SignalInterpreter``; on design_space designs every runtime
gives the default runtime's output.  The store, service and model-checking
layers do no work here.
"""

from __future__ import annotations

import inspect
import random
import time
from typing import Dict, List, Tuple

from harness import Speed, Tally, cpu_now, median, normalised_metrics, percentile

LANES = 1024
CHAIN_STAGES = 32
CHAIN_STEPS = 256
PIPELINE_STAGES = 8
#: fleet lanes replayed through the interpreter per fleet and round
REPLAYED_LANES = 2
#: design seeds tried per generator family before the family is left out;
#: the acceptance feeds come from ``random.Random(FIRST_DESIGN_SEED)``, not
#: from the workload seed, so compile latencies compare across seeds
FIRST_DESIGN_SEED = 60
FAMILY_ATTEMPTS = 12
#: workload-seeded feeds drawn for an accepted design until one runs
FEED_ATTEMPTS = 20


def derivative_chain(stages: int):
    """``u1`` counts ticks of ``c``; each ``g_i`` differences the stage before."""
    from repro.lang.builder import ProcessBuilder, const, signal, tick, when_true
    from repro.lang.normalize import normalize

    builder = ProcessBuilder("deriv", inputs=["c"], outputs=[f"g{stages}"])
    builder.local("u1")
    builder.constrain(tick("u1"), when_true("c"))
    builder.define("u1", const(1) + signal("u1").pre(0))
    previous = "u1"
    for index in range(1, stages + 1):
        name = f"g{index}"
        if index < stages:
            builder.local(name)
        builder.define(name, signal(previous) - signal(previous).pre(0))
        previous = name
    return normalize(builder.build())


def default_runtime() -> str:
    """The runtime ``Design.compile`` uses when the caller names none."""
    from repro.api.session import Design

    return inspect.signature(Design.compile).parameters["runtime"].default


def _feed(deployment, types, rng: random.Random, steps: int):
    masters = set(deployment.master_clock_inputs)
    feed = {}
    for name in deployment.inputs:
        if name in masters or types.get(name) == "bool":
            feed[name] = [rng.random() < 0.7 for _ in range(steps)]
        else:
            feed[name] = [rng.randrange(0, 64) for _ in range(steps)]
    return feed


class Subject:
    """One design of the workload: components, compile options, inputs."""

    def __init__(self, name, components, master_clocks, lanes, reactions):
        self.name = name
        self.components = components
        self.master_clocks = master_clocks
        self.lanes = lanes  # list of input feeds
        self.reactions = reactions  # reactions per scalar pass over the lanes
        self.fleet = len(lanes) > 1

    def design(self):
        from repro.api.session import Design

        return Design(name=self.name, components=list(self.components))


class DeployFleet:
    name = "deploy_fleet"

    def __init__(self, seed: int):
        from repro.api.deploy import RUNTIMES

        self.seed = seed
        self.runtimes = tuple(RUNTIMES)
        self.default = default_runtime()
        self.tally = Tally()
        self.compile_latencies: List[float] = []
        self.rounds: List[float] = []
        #: reactions per second of each round's scalar and fleet runs
        self.scalar_rates: List[float] = []
        #: CPU stretches (``harness.Stretch``) of every compile and round,
        #: and each round's scalar reactions with the stretch that ran them
        self.cpu_compile_latencies: list = []
        self.cpu_rounds: list = []
        self.scalar_work: list = []
        self.fleet_rates: List[float] = []
        self.vectorized = 0
        self.fallback = 0
        self.fleet_lanes = 0
        self.stage_counters: List[Dict[str, Dict[str, int]]] = []
        self.speed = Speed()

    # -- set-up -----------------------------------------------------------------
    def build(self) -> List[Subject]:
        from repro.gen.topologies import pipeline_network

        rng = random.Random(self.seed)
        subjects = []
        components, _ = pipeline_network(PIPELINE_STAGES)
        pipeline_lanes = []
        for _ in range(LANES):
            steps = rng.randrange(128, 257)
            feed = {"x0": [rng.randrange(0, 1000) for _ in range(steps)]}
            for index in range(PIPELINE_STAGES):
                feed[f"c{index}"] = [True] * steps
            pipeline_lanes.append(feed)
        subjects.append(
            Subject(
                f"pipeline_{PIPELINE_STAGES}", components, True, pipeline_lanes,
                sum(len(feed["x0"]) for feed in pipeline_lanes),
            )
        )
        chain_lanes = [
            {"c": [rng.random() < 0.7 for _ in range(CHAIN_STEPS)]} for _ in range(LANES)
        ]
        subjects.append(
            Subject(
                f"deriv_{CHAIN_STAGES}", [derivative_chain(CHAIN_STAGES)], False,
                chain_lanes, LANES * CHAIN_STEPS,
            )
        )
        subjects.extend(self._design_space(rng))
        # the pipeline's master clock streams follow from its compiled inputs
        masters = subjects[0].design().compile(
            "sequential", runtime=self.default, master_clocks=True
        ).master_clock_inputs
        for feed in pipeline_lanes:
            for name in masters:
                feed[name] = [True] * len(feed["x0"])
        return subjects

    def _design_space(self, rng: random.Random) -> List[Subject]:
        """One accepted design per generator family, with a ``rng`` feed that runs."""
        from repro.gen.topologies import FAMILIES, sample_design

        choose = random.Random(FIRST_DESIGN_SEED)
        accepted = []
        for family in FAMILIES:
            for design_seed in range(FIRST_DESIGN_SEED, FIRST_DESIGN_SEED + FAMILY_ATTEMPTS):
                found = self._accept(sample_design(design_seed, families=(family,)), choose)
                if found is not None:
                    break
            else:
                continue
            subject, deployment, types = found
            for _ in range(FEED_ATTEMPTS):
                feed = _feed(deployment, types, rng, 128)
                reactions = self._reactions(deployment, feed)
                if reactions:
                    subject.lanes = [feed]
                    subject.reactions = reactions
                    accepted.append(subject)
                    break
            else:
                raise RuntimeError(
                    f"{subject.name}: no runnable feed in {FEED_ATTEMPTS} seeded draws"
                )
        return accepted

    def _accept(self, generated, choose: random.Random):
        """``(subject, deployment, types)`` if ``generated`` compiles and runs a
        ``choose`` feed, trying free then master clocks; ``None`` otherwise."""
        from repro.api.deploy import DeploymentError
        from repro.codegen.sequential import CodeGenerationError

        subject = Subject(generated.name, generated.components, False, [], 0)
        for master_clocks in (False, True):
            design = subject.design()
            try:
                deployment = design.compile(
                    "sequential", runtime=self.default, master_clocks=master_clocks
                )
            except (CodeGenerationError, DeploymentError):
                continue
            types = design.composition.types
            if not self._reactions(deployment, _feed(deployment, types, choose, 128)):
                return None
            subject.master_clocks = master_clocks
            return subject, deployment, types
        return None

    def _reactions(self, deployment, feed) -> int:
        """Reactions one scalar run of ``feed`` takes; 0 if it takes none or
        the feed violates the design's clocks."""
        from repro.obs import metrics

        counter = metrics.GLOBAL.counter(
            "repro_deploy_steps_total", {"strategy": "sequential", "runtime": self.default}
        )
        before = counter.value
        try:
            deployment.run(feed)
        except Exception:  # a feed that violates the design's clocks
            return 0
        return int(counter.value - before)

    def adopt(self, subjects: List[Subject]) -> None:
        self.subjects = subjects

    def discard(self, product) -> None:
        """Nothing to release: the inputs are plain objects."""

    def warmup(self) -> None:
        for subject in self.subjects:
            design = subject.design()
            deployment = design.compile(
                "sequential", runtime=self.default, master_clocks=subject.master_clocks
            )
            deployment.run(subject.lanes[0])

    # -- one round --------------------------------------------------------------
    def round(self, index: int, tracer=None) -> float:
        compiled: Dict[Tuple[str, str], object] = {}
        latencies: List[float] = []
        cpu_latencies: List[float] = []
        scalar: Dict[str, List[Dict[str, list]]] = {}
        fleets = {}
        designs = []
        speed = self.speed
        sampled = speed.wall_spent
        if tracer is not None:
            tracer.active = True
        started, cpu_started = time.perf_counter(), cpu_now()
        for subject in self.subjects:
            for runtime in self.runtimes:
                design = subject.design()
                designs.append(design)
                speed.tick()
                begun, cpu_begun = time.perf_counter(), cpu_now()
                compiled[subject.name, runtime] = design.compile(
                    "sequential", runtime=runtime, master_clocks=subject.master_clocks
                )
                cpu_latencies.append((cpu_begun, cpu_now(), 0.0))
                latencies.append(time.perf_counter() - begun)
        begun, cpu_begun, sampled_before = time.perf_counter(), cpu_now(), speed.wall_spent
        for subject in self.subjects:
            deployment = compiled[subject.name, self.default]
            runs = scalar[subject.name] = []
            for feed in subject.lanes:
                speed.tick()
                runs.append(deployment.run(feed))
        scalar_cpu = (cpu_begun, cpu_now(), 0.0)
        scalar_seconds = time.perf_counter() - begun - (speed.wall_spent - sampled_before)
        begun = time.perf_counter()
        for subject in self.subjects:
            if subject.fleet:
                fleets[subject.name] = compiled[subject.name, "batched"].run_many(
                    subject.lanes
                )
        fleet_seconds = time.perf_counter() - begun
        cpu = (cpu_started, cpu_now(), 0.0)
        wall = time.perf_counter() - started - (speed.wall_spent - sampled)
        if tracer is not None:
            tracer.active = False

        self.rounds.append(wall)
        self.cpu_rounds.append([cpu])
        self.compile_latencies.extend(latencies)
        self.cpu_compile_latencies.extend(cpu_latencies)
        reactions = sum(subject.reactions for subject in self.subjects)
        self.scalar_rates.append(reactions / scalar_seconds)
        self.scalar_work.append((reactions, [scalar_cpu]))
        self.fleet_rates.append(
            sum(sum(fleet.steps) for fleet in fleets.values()) / fleet_seconds
        )
        for fleet in fleets.values():
            self.vectorized += fleet.vectorized
            self.fallback += fleet.fallback
            self.fleet_lanes += fleet.instances
        self.stage_counters = [design.stats()["stages"] for design in designs]
        self._check(index, compiled, scalar, fleets)
        return wall

    # -- answers ----------------------------------------------------------------
    def _check(self, index, compiled, scalar, fleets) -> None:
        self.tally.attempted += len(compiled)  # every compile succeeded
        for subject in self.subjects:
            expected = scalar[subject.name]
            if subject.fleet:
                fleet = fleets[subject.name]
                for lane, (got, want) in enumerate(zip(fleet.outputs, expected)):
                    self.tally.check(
                        got == want, f"{subject.name} lane {lane}: batched != scalar"
                    )
                for offset in range(REPLAYED_LANES):
                    lane = (index * REPLAYED_LANES + offset) % len(subject.lanes)
                    self.tally.check(
                        self._replay(subject, subject.lanes[lane]) == expected[lane],
                        f"{subject.name} lane {lane}: scalar != SignalInterpreter",
                    )
            else:
                for runtime in self.runtimes:
                    if runtime == self.default:
                        continue
                    deployment = compiled[subject.name, runtime]
                    got = (
                        deployment.run_many(subject.lanes).outputs
                        if runtime == "batched"
                        else [deployment.run(feed) for feed in subject.lanes]
                    )
                    self.tally.check(
                        got == expected,
                        f"{subject.name}: runtime {runtime} != {self.default}",
                    )
            self.tally.attempted += len(subject.lanes)  # the scalar runs

    @staticmethod
    def _replay(subject: Subject, feed) -> Dict[str, list]:
        """One lane through the independent operational interpreter.

        Both fleets take every input on every reaction, so reaction ``k``
        reads element ``k`` of each signal stream."""
        from repro.semantics.interpreter import SignalInterpreter

        process = subject.design().composition
        interpreter = SignalInterpreter(process)
        outputs: Dict[str, list] = {name: [] for name in process.outputs}
        steps = len(next(iter(feed.values())))
        for step in range(steps):
            result = interpreter.step(
                {name: feed[name][step] for name in process.inputs}
            )
            for name in process.outputs:
                if result.present(name):
                    outputs[name].append(result.value(name))
        return outputs

    # -- results ----------------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        return normalised_metrics(
            self.speed, self.cpu_rounds, self.cpu_compile_latencies, self.scalar_work
        )

    def report(self) -> Dict[str, object]:
        return {
            "round_s": (median(self.rounds), "s"),
            "compile_ms": (median(self.compile_latencies) * 1000.0, "ms"),
            "compile_p90_ms": (percentile(self.compile_latencies, 90) * 1000.0, "ms"),
            "reactions_per_s": (median(self.scalar_rates), "1/s"),
            "fleet_reactions_per_s": (median(self.fleet_rates), "1/s"),
            "default_runtime": (self.default, "name"),
            "designs": ([subject.name for subject in self.subjects], "names"),
            "rounds": (len(self.rounds), "count"),
        }

    def codegen_counts(self) -> Dict[str, float]:
        lanes = max(self.fleet_lanes, 1)
        return {
            "codegen.vectorized_ratio": self.vectorized / lanes,
            "codegen.fallback_lanes": float(self.fallback),
        }

    def api_stages(self):
        return self.stage_counters

    def close(self) -> None:
        pass
