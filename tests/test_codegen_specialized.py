"""The exec-compiled execution tier: differential coverage and hot-path IO.

The specialized tier (:func:`~repro.codegen.specialized.compile_process`)
binds IO callables and delay registers into one exec-compiled closure per
process; the per-op dispatch interpreter is the reference it is measured
against.  Every test here pins the tier contract: *identical flows* across
``specialized`` / ``interpreter`` (and ``batched`` where applicable) for the
same design and inputs.  Where every input is present at every reaction,
the flows are also checked against the independent operational
:class:`~repro.semantics.interpreter.SignalInterpreter`, which shares no
code with the step-program tiers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import Design
from repro.api.deploy import DeploymentError
from repro.codegen.runtime import EndOfStream, RecordingIO, StreamIO
from repro.codegen.sequential import build_step_program
from repro.codegen.specialized import (
    CompiledProcess,
    InterpretedProcess,
    compile_interpreted,
    compile_process,
    render_bind_source,
)
from repro.lang.builder import ProcessBuilder, signal
from repro.lang.normalize import normalize
from repro.library.basic import buffer_process, filter_process
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.semantics.interpreter import SignalInterpreter


@pytest.fixture
def clean_obs():
    obs_trace.reset()
    obs_metrics.reset_global()
    yield
    obs_trace.reset()
    obs_metrics.reset_global()


def run_io(engine, inputs):
    engine.reset()
    io = StreamIO({name: list(values) for name, values in inputs.items()})
    steps = engine.run(io)
    return steps, {name: io.output(name) for name in engine.outputs}


def replay(process, inputs):
    """The output flows of ``process`` under the operational semantics.

    Only for feeds where every input is present at every reaction: reaction
    ``k`` reads element ``k`` of each input stream."""
    interpreter = SignalInterpreter(process)
    outputs = {name: [] for name in process.outputs}
    steps = min((len(inputs[name]) for name in process.inputs), default=0)
    for step in range(steps):
        result = interpreter.step({name: inputs[name][step] for name in process.inputs})
        for name in process.outputs:
            if result.present(name):
                outputs[name].append(result.value(name))
    return outputs


def buffer_oracle(process, inputs):
    """The buffer is a one-place FIFO: one read and one emit step per value."""
    values = list(inputs["y"])
    return 2 * len(values), {"x": values}


def filter_oracle(process, inputs):
    """The filter reads ``y`` at every reaction, so the interpreter replays it."""
    return len(inputs["y"]), replay(process, inputs)


class TestStreamIOHotPath:
    def test_feed_extends_a_live_stream(self):
        io = StreamIO({"a": [1]})
        assert io.read("a") == 1
        io.feed("a", [2, 3])
        assert io.read("a") == 2
        assert io.read("a") == 3

    def test_reader_is_a_bound_cursor(self):
        io = StreamIO({"a": [10, 20]})
        read_a = io.reader("a")
        assert read_a() == 10
        assert read_a() == 20
        with pytest.raises(EndOfStream):
            read_a()

    def test_reader_sees_values_fed_after_binding(self):
        io = StreamIO({"a": [1]})
        read_a = io.reader("a")
        assert read_a() == 1
        io.feed("a", [2])
        assert read_a() == 2

    def test_writer_appends_to_outputs(self):
        io = StreamIO()
        write_x = io.writer("x")
        write_x(7)
        write_x(8)
        assert io.output("x") == [7, 8]

    def test_recording_io_reader_writer_log_steps(self):
        io = RecordingIO({"a": [5]})
        io.reader("a")()
        io.writer("x")(6)
        io.end_step()
        assert io.step_log == [{"a": 5, "-> x": 6}]


class TestSpecializedDifferential:
    """specialized == interpreter == an independent oracle on the paper's processes."""

    CASES = [
        (buffer_process, {"y": [3, 1, 4, 1, 5, 9]}),
        (filter_process, {"y": [True, False, True, True, False]}),
    ]
    ORACLES = {"buffer": buffer_oracle, "filter": filter_oracle}

    @pytest.mark.parametrize("factory,inputs", CASES)
    def test_three_tiers_agree(self, factory, inputs):
        process = normalize(factory())
        reference = run_io(compile_interpreted(process), inputs)
        assert run_io(compile_process(process), inputs) == reference
        assert reference == self.ORACLES[process.name](process, inputs)

    @pytest.mark.parametrize("factory,inputs", CASES)
    def test_specialized_is_repeatable(self, factory, inputs):
        engine = compile_process(normalize(factory()))
        assert run_io(engine, inputs) == run_io(engine, inputs)

    @settings(max_examples=40, deadline=None)
    @given(stream=st.lists(st.booleans(), max_size=24))
    def test_filter_differential_hypothesis(self, stream):
        process = normalize(filter_process())
        reference = run_io(compile_interpreted(process), {"y": stream})
        assert run_io(compile_process(process), {"y": stream}) == reference
        assert reference == filter_oracle(process, {"y": stream})

    @settings(max_examples=40, deadline=None)
    @given(stream=st.lists(st.integers(-2**31, 2**31), max_size=24))
    def test_buffer_differential_hypothesis(self, stream):
        process = normalize(buffer_process())
        reference = run_io(compile_interpreted(process), {"y": stream})
        assert run_io(compile_process(process), {"y": stream}) == reference
        assert reference == buffer_oracle(process, {"y": stream})


class TestBindSource:
    def test_bind_source_binds_io_once(self):
        program = build_step_program(normalize(buffer_process()))
        source = render_bind_source(program)
        assert f"def {program.process.name}_bind(io, state):" in source
        # readers/writers are bound in the closure prologue, not per step
        prologue = source.split("def buffer_iterate():")[0]
        assert "_reader(io, 'y')" in prologue
        assert "_writer(io, 'x')" in prologue

    def test_specialized_exposes_program_and_source(self):
        engine = compile_process(normalize(buffer_process()))
        assert isinstance(engine, CompiledProcess)
        assert engine.inputs == ("y",)
        assert "def buffer_bind(io, state):" in engine.python_source
        # the step closure keeps the paper's transition-function name
        assert "def buffer_iterate():" in engine.python_source

    def test_step_name_avoids_a_register_of_the_same_name(self):
        # process ``s`` holds its delay register ``iterate`` in ``s_iterate``
        builder = ProcessBuilder("s", inputs=["y"], outputs=["iterate"])
        builder.define("iterate", signal("y").pre(0))
        engine = compile_process(normalize(builder.build()))
        assert "s_iterate = state['iterate']" in engine.python_source
        assert "def _s_iterate():" in engine.python_source
        assert run_io(engine, {"y": [5, 6, 7]}) == (3, {"iterate": [0, 5, 6]})

    def test_interpreted_runs_same_program(self):
        engine = compile_interpreted(normalize(buffer_process()))
        assert isinstance(engine, InterpretedProcess)
        steps, outputs = run_io(engine, {"y": [1, 2]})
        assert outputs == {"x": [1, 2]}


class TestDesignRuntimes:
    def design(self, producer_consumer):
        return Design(
            name="main",
            components=[producer_consumer["producer"], producer_consumer["consumer"]],
        )

    INPUTS = {
        "a": [True, False, True, False],
        "b": [False, True, False, True],
    }

    def test_sequential_tiers_agree(self, producer_consumer):
        design = self.design(producer_consumer)
        flows = []
        for runtime in ("interpreter", "specialized", "batched"):
            deployment = design.compile(
                "sequential", runtime=runtime, master_clocks=True
            )
            feed = dict(self.INPUTS)
            for name in deployment.master_clock_inputs:
                feed[name] = [True] * 4
            flows.append(deployment.run(feed))
        assert flows[0] == flows[1] == flows[2]
        assert flows[0]["v"]  # the composition produced something
        # every master clock ticks, so a and b are read at every reaction
        assert flows[0] == replay(design.composition, self.INPUTS)

    @pytest.mark.parametrize("strategy", ["controlled", "concurrent"])
    def test_compositional_tiers_agree(self, producer_consumer, strategy):
        design = self.design(producer_consumer)
        reference = design.compile(strategy, runtime="interpreter").run(dict(self.INPUTS))
        assert reference["v"]
        assert (
            design.compile(strategy, runtime="specialized").run(dict(self.INPUTS))
            == reference
        )

    @pytest.mark.parametrize("runtime", ["warp", "compiled"])
    def test_unknown_runtime_is_rejected(self, producer_consumer, runtime):
        with pytest.raises(DeploymentError, match="unknown runtime") as error:
            self.design(producer_consumer).compile("sequential", runtime=runtime)
        message = str(error.value)
        for tier in ("specialized", "interpreter", "batched"):
            assert repr(tier) in message

    def test_batched_requires_sequential_strategy(self, producer_consumer):
        with pytest.raises(DeploymentError, match="sequential strategy only"):
            self.design(producer_consumer).compile("controlled", runtime="batched")


class TestObservability:
    def test_run_records_metrics_per_runtime(self, clean_obs, producer_consumer):
        design = Design(
            name="main",
            components=[producer_consumer["producer"], producer_consumer["consumer"]],
        )
        deployment = design.compile(
            "sequential", runtime="specialized", master_clocks=True
        )
        deployment.run({"a": [True, False], "b": [False, True]})
        snapshot = obs_metrics.GLOBAL.snapshot()
        families = {family["name"] for family in snapshot["families"]}
        assert "repro_deploy_runs_total" in families
        assert "repro_deploy_steps_total" in families

    def test_run_emits_deploy_span_when_tracing(self, clean_obs, producer_consumer):
        obs_trace.configure(enabled=True)
        design = Design(
            name="main",
            components=[producer_consumer["producer"], producer_consumer["consumer"]],
        )
        deployment = design.compile(
            "sequential", runtime="specialized", master_clocks=True
        )
        deployment.run({"a": [True], "b": [False]})
        names = [span["name"] for span in obs_trace.get_tracer().spans]
        assert "deploy.run" in names
