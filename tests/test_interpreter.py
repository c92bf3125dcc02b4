"""Tests of the operational interpreter on the primitive constructs of Signal."""

import pytest

from repro.lang.ast import ClockBinary, ClockOf, Const
from repro.lang.builder import ProcessBuilder, const, signal, tick, when_false, when_true
from repro.lang.normalize import (
    ClockEquation,
    DelayEquation,
    FunctionEquation,
    NormalizedProcess,
    PrimitiveEquation,
    normalize,
)
from repro.semantics import interpreter as interpreter_module
from repro.semantics.interpreter import (
    ABSENT,
    TICK,
    ClockError,
    SignalInterpreter,
    UnderdeterminedError,
    apply_operator,
    evaluation_count,
    reset_evaluation_count,
)
from repro.semantics.environment import FlowEnvironment, ReactiveEnvironment
from repro.semantics.denotational import behavior_from_run, enumerate_behaviors, run_to_completion


def build(name, inputs, outputs, definitions, constraints=(), locals_=()):
    builder = ProcessBuilder(name, inputs=inputs, outputs=outputs)
    if locals_:
        builder.local(*locals_)
    for target, expression in definitions:
        builder.define(target, expression)
    for clocks in constraints:
        builder.constrain(*clocks)
    return normalize(builder.build())


class TestPrimitives:
    def test_functional_equation_is_synchronous(self):
        process = build("add", ["a", "b"], ["x"], [("x", signal("a") + signal("b"))])
        interpreter = SignalInterpreter(process)
        result = interpreter.step({"a": 2, "b": 3})
        assert result.present("x") and result.value("x") == 5
        silent = interpreter.step({"a": ABSENT, "b": ABSENT})
        assert not silent.present("x")

    def test_functional_equation_rejects_partial_presence(self):
        process = build("add", ["a", "b"], ["x"], [("x", signal("a") + signal("b"))])
        interpreter = SignalInterpreter(process)
        with pytest.raises(ClockError):
            interpreter.step({"a": 2, "b": ABSENT})

    def test_delay_holds_previous_value(self):
        process = build("delay", ["a"], ["x"], [("x", signal("a").pre(0))])
        interpreter = SignalInterpreter(process)
        assert interpreter.step({"a": 5}).value("x") == 0
        assert interpreter.step({"a": 7}).value("x") == 5
        assert interpreter.step({"a": ABSENT}).present("x") is False
        assert interpreter.step({"a": 9}).value("x") == 7

    def test_sampling_presence_rules(self):
        process = build("sample", ["y", "c"], ["x"], [("x", signal("y").when(signal("c")))])
        interpreter = SignalInterpreter(process)
        assert interpreter.step({"y": 4, "c": True}).value("x") == 4
        assert not interpreter.step({"y": 4, "c": False}).present("x")
        assert not interpreter.step({"y": 4, "c": ABSENT}).present("x")
        assert not interpreter.step({"y": ABSENT, "c": True}).present("x")

    def test_merge_prefers_first_operand(self):
        process = build(
            "merge", ["y", "z"], ["x"], [("x", signal("y").default(signal("z")))]
        )
        interpreter = SignalInterpreter(process)
        assert interpreter.step({"y": 1, "z": 2}).value("x") == 1
        assert interpreter.step({"y": ABSENT, "z": 2}).value("x") == 2
        assert not interpreter.step({"y": ABSENT, "z": ABSENT}).present("x")

    def test_clock_constraint_propagates_presence(self):
        process = build(
            "gate",
            ["c"],
            ["x"],
            [("x", const(1) + signal("x").pre(0))],
            constraints=[(tick("x"), when_true("c"))],
        )
        interpreter = SignalInterpreter(process)
        assert interpreter.step({"c": True}).value("x") == 1
        assert not interpreter.step({"c": False}).present("x")
        assert interpreter.step({"c": True}).value("x") == 2

    def test_clock_constraint_violation_is_detected(self):
        process = build(
            "sync2",
            ["a", "b"],
            ["x"],
            [("x", signal("a") + 0)],
            constraints=[(tick("a"), tick("b"))],
        )
        interpreter = SignalInterpreter(process)
        with pytest.raises(ClockError):
            interpreter.step({"a": 1, "b": ABSENT}, default_absent=True)

    def test_assume_tick_forces_presence_without_value(self):
        process = build(
            "counter",
            [],
            ["x"],
            [("x", const(1) + signal("x").pre(0))],
        )
        interpreter = SignalInterpreter(process)
        result = interpreter.step(assume={"x": TICK})
        assert result.value("x") == 1
        result = interpreter.step(assume={"x": TICK})
        assert result.value("x") == 2

    def test_unknown_signal_rejected(self):
        process = build("id", ["a"], ["x"], [("x", signal("a"))])
        interpreter = SignalInterpreter(process)
        with pytest.raises(KeyError):
            interpreter.step({"nope": 1})

    def test_try_step_returns_none_and_preserves_state(self):
        process = build("delay", ["a"], ["x"], [("x", signal("a").pre(0))])
        interpreter = SignalInterpreter(process)
        interpreter.step({"a": 3})
        snapshot = interpreter.snapshot_state()
        process_sync = build(
            "sync2",
            ["a", "b"],
            ["x"],
            [("x", signal("a") + 0)],
            constraints=[(tick("a"), tick("b"))],
        )
        bad = SignalInterpreter(process_sync)
        assert bad.try_step({"a": 1, "b": ABSENT}) is None
        assert interpreter.snapshot_state() == snapshot

    def test_operator_evaluation(self):
        assert apply_operator("+", (2, 3)) == 5
        assert apply_operator("/=", (2, 3)) is True
        assert apply_operator("and", (True, False)) is False
        assert apply_operator("not", (False,)) is True
        with pytest.raises(ValueError):
            apply_operator("??", (1, 2))


class TestPaperFilterTrace:
    def test_filter_emits_on_changes(self, filter_normalized):
        """Section 2's worked trace: y = 1 0 0 1 1 0 gives x at instants 2, 4, 6."""
        interpreter = SignalInterpreter(filter_normalized)
        stream = [True, False, False, True, True, False]
        emissions = []
        for index, value in enumerate(stream, start=1):
            result = interpreter.step({"y": value})
            if result.present("x"):
                emissions.append(index)
                assert result.value("x") is True
        assert emissions == [2, 4, 6]


class TestEnvironmentsAndRuns:
    def test_reactive_environment_completes_absences(self):
        environment = ReactiveEnvironment(["a", "b"], [{"a": 1}, {"b": 2}])
        first = environment.instant(0)
        assert first["a"] == 1 and first["b"] is ABSENT

    def test_reactive_environment_rejects_unknown_signals(self):
        with pytest.raises(ValueError):
            ReactiveEnvironment(["a"], [{"b": 1}])

    def test_flow_environment_pop_and_push_back(self):
        flows = FlowEnvironment({"a": [1, 2]})
        assert flows.peek("a") == 1
        assert flows.pop("a") == 1
        flows.push_back("a", 1)
        assert flows.pop("a") == 1
        assert flows.pop("a") == 2
        assert flows.exhausted()

    def test_run_to_completion_and_behavior(self, filter_normalized):
        environment = ReactiveEnvironment(
            ["y"], [{"y": True}, {"y": False}, {"y": False}, {"y": True}]
        )
        results = run_to_completion(filter_normalized, environment)
        behavior = behavior_from_run(results, ["x", "y"])
        assert behavior["y"].values == (True, False, False, True)
        assert behavior["x"].values == (True, True)

    def test_enumerate_behaviors_filter_is_deterministic(self, filter_normalized):
        process = enumerate_behaviors(
            filter_normalized, {"y": [True, False]}, signals=["x", "y"]
        )
        assert len(process.flow_classes()) == 1

    def test_enumerate_behaviors_respects_max_behaviors(self, filter_normalized):
        process = enumerate_behaviors(
            filter_normalized, {"y": [True, False, True]}, max_behaviors=1
        )
        assert len(process) <= 1


class TestPropagationPlan:
    """The per-process plan: same answers, no per-step rebuilding."""

    @staticmethod
    def chain(order):
        """``x1 = a + 1``, ``x2 = x1 + 1``, ``x3 = x2 pre 0``, ``x4 = x3 * 2`` in ``order``."""
        equations = [
            FunctionEquation("x1", "+", ("a", Const(1))),
            FunctionEquation("x2", "+", ("x1", Const(1))),
            DelayEquation("x3", "x2", 0),
            FunctionEquation("x4", "*", ("x3", Const(2))),
        ]
        return NormalizedProcess(
            name="chain",
            inputs=("a",),
            outputs=("x4",),
            locals=("x1", "x2", "x3"),
            equations=tuple(equations[index] for index in order),
            types={name: "num" for name in ("a", "x1", "x2", "x3", "x4")},
        )

    @staticmethod
    def record_evaluations(interpreter):
        """Log the index of every equation the interpreter's solver evaluates."""
        log = []

        def logged(index, rule):
            def evaluate(solver, equation, members):
                log.append(index)
                return rule(solver, equation, members)

            return evaluate

        plan = interpreter.plan
        plan.steps = tuple(
            (index, logged(index, rule), equation, members, settles)
            for index, rule, equation, members, settles in plan.steps
        )
        return log

    def test_equations_against_dataflow_order_reach_the_same_fixpoint(self):
        forward = SignalInterpreter(self.chain([0, 1, 2, 3]))
        backward = SignalInterpreter(self.chain([3, 2, 1, 0]))
        forward_log = self.record_evaluations(forward)
        backward_log = self.record_evaluations(backward)
        for inputs in ({"a": 1}, {"a": ABSENT}, {"a": 5}, {}, {"a": 2}):
            del forward_log[:], backward_log[:]
            expected = forward.step(inputs)
            actual = backward.step(inputs)
            assert actual.presence == expected.presence
            assert actual.values == expected.values
            assert actual.reaction == expected.reaction
            assert backward.state == forward.state
        assert backward.state == {"x3": 4}
        assert expected.value("x4") == 14

        def sweeps(log):
            return 1 + sum(1 for first, second in zip(log, log[1:]) if second <= first)

        # the last step: one sweep per link of the backward chain, while
        # the forward chain settles in one sweep per propagation phase
        assert sweeps(backward_log) >= 4 > sweeps(forward_log)
        assert len(forward_log) == 4

    def test_clock_constraint_that_needs_its_own_second_evaluation(self):
        # x^ = (a^ or b^) \ a^ with x present: the first evaluation makes a
        # absent, only the second can then force b present
        constraint = ClockEquation(
            ClockOf("x"),
            ClockBinary("diff", ClockBinary("or", ClockOf("a"), ClockOf("b")), ClockOf("a")),
        )
        process = NormalizedProcess(
            name="second_look",
            inputs=("x", "a"),
            outputs=("b",),
            locals=(),
            equations=(constraint, FunctionEquation("b", "id", (Const(5),))),
        )
        result = SignalInterpreter(process).step({"x": 1})
        assert result.reaction.items() == (("b", 5), ("x", 1))

    def test_contradiction_found_late_in_the_sweep_keeps_its_message(self):
        forward = SignalInterpreter(self.chain([0, 1, 2, 3]))
        backward = SignalInterpreter(self.chain([3, 2, 1, 0]))
        messages = []
        for interpreter in (forward, backward):
            with pytest.raises(ClockError) as error:
                interpreter.step({"a": 1}, assume={"x4": 7})
            messages.append(str(error.value))
        assert messages[0] == messages[1] == (
            "signal 'x4' takes two different values (7 and 0) in the same instant"
        )

    def test_unknown_equation_type_raises_type_error(self):
        class Mystery(PrimitiveEquation):
            def read_signals(self):
                return ("a",)

            def __repr__(self):
                return "Mystery()"

        process = NormalizedProcess(
            name="mystery", inputs=("a",), outputs=(), locals=(), equations=(Mystery(),)
        )
        with pytest.raises(TypeError, match="unsupported primitive equation: Mystery()"):
            SignalInterpreter(process)

    def test_subclass_of_a_primitive_equation_uses_its_base_rules(self):
        class Renamed(FunctionEquation):
            pass

        process = NormalizedProcess(
            name="renamed",
            inputs=("a",),
            outputs=("x",),
            locals=(),
            equations=(Renamed("x", "-", ("a",)),),
        )
        assert SignalInterpreter(process).step({"a": 4}).value("x") == -4

    def test_evaluation_count_rises_by_one_per_step(self):
        process = build("add", ["a", "b"], ["x"], [("x", signal("a") + signal("b"))])
        interpreter = SignalInterpreter(process)
        reset_evaluation_count()
        interpreter.step({"a": 1, "b": 2})
        assert evaluation_count() == 1
        interpreter.step({"a": ABSENT, "b": ABSENT})
        assert evaluation_count() == 2
        assert interpreter.try_step({"a": 1, "b": ABSENT}) is None
        assert evaluation_count() == 3
        with pytest.raises(UnderdeterminedError):
            interpreter.step({"a": 1}, default_absent=False)
        assert evaluation_count() == 4

    def test_step_does_not_recompute_the_signal_set(self, monkeypatch, filter_normalized):
        interpreter = SignalInterpreter(filter_normalized)
        calls = []
        original = NormalizedProcess.all_signals

        def counted(process):
            calls.append(process.name)
            return original(process)

        monkeypatch.setattr(NormalizedProcess, "all_signals", counted)
        for value in (True, False, False, True):
            interpreter.step({"y": value})
        interpreter.try_step({"y": ABSENT})
        assert calls == []
