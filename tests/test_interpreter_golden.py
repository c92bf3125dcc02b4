"""Golden answers of the operational interpreter, pinned byte for byte.

:class:`~repro.semantics.interpreter.SignalInterpreter` is the independent
oracle of the explicit engine and of the differential suites, so its
answers must not drift when its solver is optimized.  This module replays
seeded ``step``/``try_step`` sequences over every :mod:`repro.library`
process and the compositions of ``sample_design`` seeds 0-11.  The
sequences mix input values, ``ABSENT``, ``TICK`` and value assumptions,
contradictory inputs, unknown signals and ``default_absent=False``.  Each
step records the reaction items and the committed registers, or the
exception class and message.  The records are compared with the committed
fixture ``tests/data/interpreter_golden.json``.

Regenerate the fixture only when the interpreter's semantics change on
purpose: ``PYTHONPATH=src python tests/test_interpreter_golden.py --write``.
"""

from __future__ import annotations

import json
import random
import sys
import zlib
from pathlib import Path
from typing import Dict, List

from repro.gen import sample_design
from repro.lang.normalize import NormalizedProcess, normalize
from repro.library import basic, controllers, ltta, producer_consumer
from repro.semantics import interpreter as interpreter_module
from repro.semantics.interpreter import ABSENT, TICK, SignalInterpreter

FIXTURE = Path(__file__).parent / "data" / "interpreter_golden.json"

#: seeded steps replayed per process
STEPS = 40

NUMERIC_VALUES = (0, 1, 2, 3, -1)


def golden_processes() -> Dict[str, NormalizedProcess]:
    """Every library process and the seed 0-11 generated compositions."""
    processes: Dict[str, NormalizedProcess] = {
        "filter": normalize(basic.filter_process()),
        "merge": normalize(basic.merge_process()),
        "buffer": normalize(basic.buffer_process()),
        "buffer2": normalize(basic.buffer2_process()),
        "rendezvous_controller": normalize(controllers.rendezvous_controller_process()),
        "scheduler": normalize(controllers.scheduler_process()),
    }
    for role, process in basic.filter_merge_composition().items():
        processes[f"filter_merge.{role}"] = process
    for name, process in producer_consumer.normalized_suite().items():
        processes[f"producer_consumer.{name}"] = process
    for name, process in ltta.normalized_suite().items():
        processes[f"ltta.{name}"] = process
    for name, process in ltta.ltta_components().items():
        processes[f"ltta_components.{name}"] = process
    for seed in range(12):
        processes[f"sample_design.{seed}"] = sample_design(seed).composition
    return processes


def _value(process: NormalizedProcess, name: str, rng: random.Random) -> object:
    if process.types.get(name) == "bool":
        return rng.random() < 0.5
    return rng.choice(NUMERIC_VALUES)


def _random_step(process: NormalizedProcess, signals: List[str], rng: random.Random):
    inputs: Dict[str, object] = {}
    for name in process.inputs:
        draw = rng.random()
        if draw < 0.45:
            inputs[name] = _value(process, name, rng)
        elif draw < 0.8:
            inputs[name] = ABSENT
    assume: Dict[str, object] = {}
    if rng.random() < 0.35:
        name = rng.choice(signals)
        draw = rng.random()
        if draw < 0.5:
            assume[name] = TICK
        elif draw < 0.75:
            assume[name] = ABSENT
        else:
            assume[name] = _value(process, name, rng)
    if inputs and rng.random() < 0.1:
        # contradict one input: absent, or present with another value
        name = rng.choice(sorted(inputs))
        assume[name] = ABSENT if inputs[name] is not ABSENT else TICK
    if rng.random() < 0.03:
        inputs["no_such_signal"] = 1
    default_absent = rng.random() >= 0.15
    call = rng.choice(("step", "step", "try", "try_commit"))
    return inputs, assume, default_absent, call


def replay(name: str, process: NormalizedProcess) -> List[str]:
    """The seeded step sequence of ``process`` and one record per step."""
    rng = random.Random(zlib.crc32(name.encode()))
    signals = list(process.all_signals())
    interpreter = SignalInterpreter(process)
    records: List[str] = []
    for _ in range(STEPS):
        inputs, assume, default_absent, call = _random_step(process, signals, rng)
        request = f"{call} inputs={sorted(inputs.items())!r} assume={sorted(assume.items())!r}"
        if not default_absent:
            request += " default_absent=False"
        try:
            if call == "step":
                result = interpreter.step(inputs, assume, default_absent)
            else:
                result = interpreter.try_step(
                    inputs, assume, default_absent, commit=call == "try_commit"
                )
        except Exception as error:  # every failure is part of the pinned answer
            outcome = f"{type(error).__name__}: {error}"
        else:
            outcome = "None" if result is None else f"items={result.reaction.items()!r}"
        registers = sorted(interpreter.state.items())
        records.append(f"{request} -> {outcome} registers={registers!r}")
    return records


def golden_text() -> str:
    records = {name: replay(name, process) for name, process in golden_processes().items()}
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


def test_interpreter_answers_match_the_golden_fixture():
    expected_text = FIXTURE.read_text()
    actual_text = golden_text()
    expected, actual = json.loads(expected_text), json.loads(actual_text)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        for index, (want, got) in enumerate(zip(expected[name], actual[name])):
            assert got == want, f"{name} step {index}"
        assert len(actual[name]) == len(expected[name]), name
    assert actual_text == expected_text


class _FullSweepSolver(interpreter_module._InstantSolver):
    """Chaotic iteration without skipping: every equation in every sweep."""

    def propagate(self) -> None:
        changed = True
        while changed:
            changed = False
            for _index, rule, equation, members, _settles in self.plan.steps:
                changed |= rule(self, equation, members)


def test_skipping_clean_equations_matches_full_sweeps(monkeypatch):
    """Beyond the fixture: more designs, their components, and the unskipped sweep."""
    processes = dict(golden_processes())
    for seed in range(12, 36):
        generated = sample_design(seed)
        processes[f"sample_design.{seed}"] = generated.composition
        for component in generated.components:
            processes[f"sample_design.{seed}.{component.name}"] = component
    planned = {name: replay(name, process) for name, process in processes.items()}
    monkeypatch.setattr(interpreter_module, "_InstantSolver", _FullSweepSolver)
    for name, process in processes.items():
        assert replay(name, process) == planned[name], name


def test_fixture_exercises_every_outcome_kind():
    text = FIXTURE.read_text()
    for marker in ("items=", "ClockError:", "UnderdeterminedError:", "KeyError:", "-> None"):
        assert marker in text, marker


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_interpreter_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(golden_text())
