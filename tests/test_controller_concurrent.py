"""Tests for the compositional code generation scheme: controller (E14, E15) and threads (E16)."""

import pytest

from repro.codegen.concurrent import ConcurrentComposition, run_concurrent
from repro.codegen.controller import (
    ClockConstraintSpec,
    ClockLiteral,
    ControlledComposition,
    synthesize_controller,
)
from repro.codegen.runtime import StreamIO
from repro.codegen.specialized import compile_process
from repro.library.controllers import rendezvous_controller_process, scheduler_process
from repro.lang.normalize import normalize
from repro.properties.composition import check_weakly_hierarchic
from repro.semantics.interpreter import SignalInterpreter


@pytest.fixture()
def compiled_pair(producer_consumer):
    producer = compile_process(producer_consumer["producer"])
    consumer = compile_process(producer_consumer["consumer"])
    verdict = check_weakly_hierarchic(
        [producer_consumer["producer"], producer_consumer["consumer"]], composition_name="main"
    )
    return producer, consumer, verdict


class TestControllerSynthesis:
    def test_constraint_is_synthesized_from_the_report(self, compiled_pair):
        producer, consumer, verdict = compiled_pair
        controlled = synthesize_controller([producer, consumer], verdict)
        assert len(controlled.constraints) == 1
        constraint = controlled.constraints[0]
        assert {constraint.left.component, constraint.right.component} == {"producer", "consumer"}
        assert {constraint.left.signal, constraint.right.signal} == {"a", "b"}

    def test_interface_is_the_union_of_component_interfaces(self, compiled_pair):
        """Section 5.2: no master clock is added to the interface."""
        producer, consumer, verdict = compiled_pair
        controlled = synthesize_controller([producer, consumer], verdict)
        assert set(controlled.external_inputs) == {"a", "b"}
        assert set(controlled.external_outputs) == {"u", "v"}

    def test_controlled_execution_matches_the_paper_run(self, compiled_pair):
        producer, consumer, verdict = compiled_pair
        controlled = synthesize_controller([producer, consumer], verdict)
        io = StreamIO({"a": [True, False, True, False], "b": [False, True, False, True]})
        steps = controlled.run(io)
        assert steps == 4
        assert io.output("u") == [1, 2]
        assert io.output("v") == [1, 2, 3, 5]

    def test_controller_suspends_one_side_until_rendezvous(self, compiled_pair):
        """The producer arrives first (a = false) and must wait for b = true.

        While suspended it reads no further input (so ``a = true`` is never
        consumed) and the consumer keeps running freely; the shared ``x`` is
        transmitted only at the rendez-vous, in the third step.
        """
        producer, consumer, verdict = compiled_pair
        controlled = synthesize_controller([producer, consumer], verdict)
        io = StreamIO({"a": [False, True], "b": [False, False, True]})
        controlled.run(io)
        assert io.output("v") == [1, 2, 3]
        assert io.output("u") == []
        # while suspended (steps 2 and 3) the producer read no further input:
        # only the trailing, post-rendez-vous step consumes the second value of a
        assert len(io.reads["a"]) <= 2

    def test_controlled_execution_matches_oracle_interpreter(self, compiled_pair, producer_consumer):
        """The controlled composition and the synchronous interpreter produce the same flows."""
        producer, consumer, verdict = compiled_pair
        controlled = synthesize_controller([producer, consumer], verdict)
        a_stream = [True, False, False, True, False, True]
        b_stream = [False, True, True, False, True, False]
        io = StreamIO({"a": list(a_stream), "b": list(b_stream)})
        controlled.run(io)

        # Oracle: run the composed process synchronously, pairing the constrained
        # instants ([¬a] with [b]) exactly as the controller does.
        interpreter = SignalInterpreter(producer_consumer["main"])
        expected_u, expected_v = [], []
        a_queue, b_queue = list(a_stream), list(b_stream)
        while a_queue or b_queue:
            inputs = {}
            if a_queue:
                inputs["a"] = a_queue.pop(0)
            if b_queue:
                inputs["b"] = b_queue.pop(0)
            result = interpreter.step(inputs)
            if result.present("u"):
                expected_u.append(result.value("u"))
            if result.present("v"):
                expected_v.append(result.value("v"))
        assert io.output("u") == expected_u
        assert io.output("v") == expected_v

    def test_c_listing_mentions_rendezvous(self, compiled_pair):
        producer, consumer, verdict = compiled_pair
        controlled = synthesize_controller([producer, consumer], verdict)
        listing = controlled.c_listing()
        assert "rendez-vous" in listing
        assert "producer_iterate()" in listing and "consumer_iterate()" in listing

    def test_reset_clears_pending_state(self, compiled_pair):
        producer, consumer, verdict = compiled_pair
        controlled = synthesize_controller([producer, consumer], verdict)
        io = StreamIO({"a": [False], "b": [False]})
        controlled.run(io)
        controlled.reset()
        io2 = StreamIO({"a": [True], "b": [False]})
        controlled.run(io2)
        assert io2.output("u") == [1]


class TestMain2Compositionality:
    """E15: adding a third endochronous component only needs one more controller."""

    def test_main2_criterion_and_controller(self, producer_consumer):
        components = [
            producer_consumer["producer"],
            producer_consumer["consumer"],
        ]
        verdict = check_weakly_hierarchic(components, composition_name="main")
        assert verdict.weakly_hierarchic()
        # main2 = main | consumer(c, v): analysed as a whole it stays compilable
        from repro.properties.compilable import ProcessAnalysis

        analysis = ProcessAnalysis(producer_consumer["main2"])
        assert analysis.is_compilable()
        assert analysis.root_count() >= 2


class TestConcurrentScheme:
    """E16: the thread + barrier variant produces the same flows."""

    def test_concurrent_execution_matches_sequential_controller(self, compiled_pair):
        producer, consumer, verdict = compiled_pair
        controlled = synthesize_controller([producer, consumer], verdict)
        inputs = {"a": [True, False, True, False], "b": [False, True, False, True]}

        sequential_io = StreamIO({name: list(values) for name, values in inputs.items()})
        controlled.run(sequential_io)

        producer.reset()
        consumer.reset()
        concurrent_outputs = run_concurrent(
            [producer, consumer], controlled.constraints, inputs
        )
        assert concurrent_outputs.get("u") == sequential_io.output("u")
        assert concurrent_outputs.get("v") == sequential_io.output("v")

    def test_concurrent_composition_without_constraints_runs_freely(self, producer_consumer):
        producer = compile_process(producer_consumer["producer"])
        outputs = run_concurrent([producer], [], {"a": [True, True, False]})
        assert outputs.get("u") == [1, 2]


class TestSignalLevelControllers:
    def test_rendezvous_controller_fires_when_both_sides_arrived(self):
        process = normalize(rendezvous_controller_process())
        interpreter = SignalInterpreter(process)
        # a arrives first, b later: the grant fires at the second instant
        first = interpreter.step({"ta": True, "tb": False})
        assert first.value("ga") is False
        second = interpreter.step({"ta": False, "tb": True})
        assert second.value("ga") is True and second.value("gb") is True
        third = interpreter.step({"ta": False, "tb": False})
        assert third.value("ga") is False

    def test_rendezvous_controller_immediate_fire(self):
        process = normalize(rendezvous_controller_process())
        interpreter = SignalInterpreter(process)
        result = interpreter.step({"ta": True, "tb": True})
        assert result.value("ga") is True

    def test_scheduler_process_is_endochronous(self):
        from repro.properties.endochrony import is_endochronous

        assert is_endochronous(normalize(scheduler_process()))
        assert is_endochronous(normalize(rendezvous_controller_process()))
