"""``cold_sweep``: the cold compositional verification path, in process.

Every round runs on a fresh session and an empty artifact store:

* the shift pipeline — four shift-register stages whose widths are the
  seed's permutation of 6, 7, 8 and 9 bits, chained ``s_i -> s_i+1``:
  compiled weak endochrony and non-blocking per component, explicit weak
  endochrony per component, then the static weakly-hierarchic criterion
  over the composition.  Every verdict must hold.  The symbolic method is
  left out of the composition: it does not finish on two 9-bit stages;
* the corpus — every ``corpus/corpus.json`` design, in seed-shuffled
  order, with its eight recorded (property, method) queries.  Every
  verdict must equal the recorded one.

The round's wall time is ``verify_s``; each ``Design.verify`` call is one
latency sample.  The gated metrics are the normalised CPU times of the same
round and calls (see ``harness``).  The store only takes writes (and
misses) here.
"""

from __future__ import annotations

import random
import shutil
import time
from typing import Dict, List

from harness import (
    CORPUS, Speed, Tally, cpu_now, median, normalised_metrics, percentile, run_dir,
)

WIDTHS = (6, 7, 8, 9)
#: exploration bound covering the 2^9 reachable states of the widest stage
MAX_STATES = 1024
PIPELINE_QUERIES = (
    ("weak-endochrony", "compiled"),
    ("non-blocking", "compiled"),
    ("weak-endochrony", "explicit"),
)


def shift_stage(index: int, bits: int):
    """A ``bits``-register boolean shift register from ``s_index`` to ``s_index+1``."""
    from repro.lang.builder import ProcessBuilder, signal
    from repro.lang.normalize import normalize

    source, target = f"s{index}", f"s{index + 1}"
    builder = ProcessBuilder(f"stage{index}", inputs=[source], outputs=[target])
    previous = source
    for bit in range(bits):
        register = f"r{index}_{bit}"
        builder.local(register)
        builder.define(register, signal(previous).pre(False))
        previous = register
    builder.define(target, signal(previous))
    return normalize(builder.build())


class ColdSweep:
    name = "cold_sweep"

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.widths = list(WIDTHS)
        rng.shuffle(self.widths)
        self.order_seed = rng.randrange(2 ** 32)
        self.tally = Tally()
        self.latencies: List[float] = []
        self.rounds: List[float] = []
        #: CPU stretches (``harness.Stretch``) of every verify call and round
        self.cpu_latencies: list = []
        self.cpu_rounds: list = []
        self.round_verdicts: List[int] = []
        self.speed = Speed()
        self.verdicts = 0
        self.stage_counters: List[Dict[str, int]] = []
        self.directory = run_dir(self.name)

    # -- set-up -----------------------------------------------------------------
    def build(self):
        """The stage processes, the corpus and its regenerated designs."""
        from repro.gen.corpus import Corpus

        stages = [shift_stage(index, bits) for index, bits in enumerate(self.widths)]
        corpus = Corpus.load(CORPUS)
        entries = list(corpus.entries)
        random.Random(self.order_seed).shuffle(entries)
        designs = [(entry, entry.regenerate()) for entry in entries]
        return stages, corpus, designs

    def adopt(self, product) -> None:
        self.stages, self.corpus, self.designs = product

    def discard(self, product) -> None:
        """Nothing to release: the inputs are plain objects."""

    def warmup(self) -> None:
        """Import and first-call costs, on a reduced round that is not recorded."""
        self._round(stages=self.stages[:1], designs=self.designs[:4], record=False)

    # -- one round --------------------------------------------------------------
    def round(self, index: int, tracer=None) -> float:
        return self._round(self.stages, self.designs, record=True, tracer=tracer)

    def _round(self, stages, designs, record: bool, tracer=None) -> float:
        from repro.api.session import Design
        from repro.service.store import ArtifactStore

        root = self.directory / "store"
        shutil.rmtree(root, ignore_errors=True)
        store = ArtifactStore(root)
        latencies: List[float] = []
        cpu_latencies = []
        answers = []  # (holds, expected, label)
        options = self.corpus.options()
        sessions = []
        speed = self.speed
        sampled = speed.wall_spent
        if tracer is not None:
            tracer.active = True
        started, cpu_started = time.perf_counter(), cpu_now()
        pipeline = Design(name=f"pipeline_{len(stages)}", components=stages)
        pipeline.context.artifact_cache = store
        sessions.append(pipeline)
        for prop, method in PIPELINE_QUERIES:
            for position in range(len(stages)):
                speed.tick()
                begun, cpu_begun = time.perf_counter(), cpu_now()
                verdict = pipeline.component_design(position).verify(
                    prop, method, max_states=MAX_STATES
                )
                cpu_latencies.append((cpu_begun, cpu_now(), 0.0))
                latencies.append(time.perf_counter() - begun)
                answers.append((verdict.holds, True, f"stage{position} {prop}/{method}"))
        speed.tick()
        begun, cpu_begun = time.perf_counter(), cpu_now()
        verdict = pipeline.verify("weakly-hierarchic")
        cpu_latencies.append((cpu_begun, cpu_now(), 0.0))
        latencies.append(time.perf_counter() - begun)
        answers.append((verdict.holds, True, "pipeline weakly-hierarchic"))
        for entry, generated in designs:
            design = Design.from_generated(generated)
            design.context.artifact_cache = store
            sessions.append(design)
            for key in entry.verdicts:
                prop, method = key.split("|", 1)
                speed.tick()
                begun, cpu_begun = time.perf_counter(), cpu_now()
                verdict = design.verify(prop, method, **options)
                cpu_latencies.append((cpu_begun, cpu_now(), 0.0))
                latencies.append(time.perf_counter() - begun)
                answers.append(
                    (verdict.holds, entry.holds(prop, method), f"{entry.name} {key}")
                )
        cpu = (cpu_started, cpu_now(), 0.0)
        wall = time.perf_counter() - started - (speed.wall_spent - sampled)
        if tracer is not None:
            tracer.active = False
        if record:
            for holds, expected, label in answers:
                self.tally.check(
                    bool(holds) == bool(expected),
                    f"{label}: holds={bool(holds)}, expected {bool(expected)}",
                )
            self.latencies.extend(latencies)
            self.cpu_latencies.extend(cpu_latencies)
            self.rounds.append(wall)
            self.cpu_rounds.append([cpu])
            self.round_verdicts.append(len(answers))
            self.verdicts += len(answers)
            self.stage_counters = [session.stats()["stages"] for session in sessions]
        shutil.rmtree(root, ignore_errors=True)
        return wall

    # -- results ----------------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        return normalised_metrics(
            self.speed, self.cpu_rounds, self.cpu_latencies,
            list(zip(self.round_verdicts, self.cpu_rounds)),
        )

    def report(self) -> Dict[str, object]:
        """The workload's own metrics, under the names the design notes use."""
        return {
            "verify_s": (median(self.rounds), "s"),
            "verify_p50_ms": (median(self.latencies) * 1000.0, "ms"),
            "verify_p90_ms": (percentile(self.latencies, 90) * 1000.0, "ms"),
            "verdicts_per_s": (self.verdicts / len(self.rounds) / median(self.rounds), "1/s"),
            "rounds": (len(self.rounds), "count"),
            "verdicts_per_round": (self.verdicts // max(len(self.rounds), 1), "count"),
            "widths": (self.widths, "bits"),
        }

    def api_stages(self) -> List[Dict[str, Dict[str, int]]]:
        """Per-stage artifact counters of the last round's sessions."""
        return self.stage_counters

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)
