"""F-OTF — on-the-fly verification: lazy product + early termination vs eager.

The paper's cost argument (Section 4 / Theorem 1) is that deciding a
property of ``P1 | ... | Pn`` should not require materializing the
synchronous product.  The on-the-fly engine delivers that operationally:

* :class:`repro.mc.onthefly.ProductLTS` joins per-component reactions on
  demand (backtracking over components) instead of enumerating the composed
  process's exponentially many global activation choices per state;
* :class:`repro.mc.onthefly.OnTheFlyChecker` expands states only as a check
  visits them, so a check that stops at the first violating reaction leaves
  the rest of the product unexplored.

Scenarios pinned here:

1. *One size step beyond the eager budget* — on a buffer chain with a
   weak-endochrony violation seeded at its tail, the eager engine exhausts
   its state budget (truncated exploration, seconds) one chain-length before
   the lazy engine, which finds the violating reaction conclusively after
   expanding a fraction of the same budget (milliseconds).
2. *Exponential per-state gap* — verifying a holding property of an
   ``n``-relay pipeline costs the eager engine ``O(3^n)`` interpreter calls
   per state; the lazy product joins ``O(n)`` per-component reaction lists.
3. *Batched parallel queries* — ``Design.map_components`` /
   ``Design.verify_many`` shard independent queries over a process pool and
   beat the sequential loop whenever more than one core is available.

Run with:  pytest benchmarks/bench_onthefly.py --benchmark-only
(the timing assertions also run in the plain suite; CI uploads the JSON)
"""

from __future__ import annotations

import os
import time

import pytest

from _record import recorder

from repro import Design
from repro.lang.builder import ProcessBuilder, signal
from repro.lang.normalize import normalize
from repro.lang.printer import process_digest
from repro.library.basic import buffer_process
from repro.library.generators import chain_of_buffers, pipeline_network
from repro.mc import OnTheFlyChecker, ProductLTS, build_lts
from repro.properties.weak_endochrony import check_weak_endochrony

RECORD = recorder("onthefly")

#: the shared exploration budget of scenario 1 (states the engines may visit)
BUDGET = 256
#: chain length whose reachable space fits the budget (4·3**(n-1) states)
SIZE_WITHIN = 4
#: one size step beyond: the eager engine exceeds the budget here
SIZE_BEYOND = 5


def _chain_with_arbiter(length: int):
    """A buffer chain whose tail feeds a merge arbiter (not weakly endochronous).

    ``out := tail default w`` makes the choice between the chain's output and
    the fresh input ``w`` order-sensitive: axiom 2c of Definition 2 fails,
    and the violation is reachable within a few expansions.
    """
    components, composition = chain_of_buffers(length)
    builder = ProcessBuilder("arbiter", inputs=[f"y{length}", "w"], outputs=["out"])
    builder.define("out", signal(f"y{length}").default(signal("w")))
    arbiter = normalize(builder.build())
    return components + [arbiter], composition.compose(arbiter)


# ---------------------------------------------------------------------------
# 1. conclusive one size step beyond the eager state budget
# ---------------------------------------------------------------------------

def test_eager_concludes_within_budget_at_size_within():
    """At SIZE_WITHIN the eager engine still fits the budget (the baseline)."""
    _components, composition = _chain_with_arbiter(SIZE_WITHIN)
    lts = build_lts(composition, max_states=BUDGET)
    assert not lts.truncated
    report = check_weak_endochrony(composition, lts=lts)
    assert not report.holds()


def test_lazy_concludes_one_size_beyond_eager_budget():
    """At SIZE_BEYOND the eager engine exceeds its budget; the lazy one answers."""
    components, composition = _chain_with_arbiter(SIZE_BEYOND)

    start = time.perf_counter()
    engine = OnTheFlyChecker(ProductLTS(components), max_states=BUDGET)
    lazy_report = check_weak_endochrony(composition, checker=engine)
    lazy_seconds = time.perf_counter() - start
    assert not lazy_report.holds()
    assert lazy_report.failures()[0].counterexample  # a concrete violating reaction
    assert not engine.truncated  # conclusive: the budget was never exhausted
    assert engine.states_expanded < BUDGET // 2

    start = time.perf_counter()
    eager_lts = build_lts(composition, max_states=BUDGET)
    eager_report = check_weak_endochrony(composition, lts=eager_lts)
    eager_seconds = time.perf_counter() - start
    # the eager engine exceeded its state budget: its exploration is cut and
    # any 'holds' answer it gave at this size would be unreliable
    assert eager_lts.truncated
    assert eager_report.states_explored >= BUDGET

    RECORD.record(
        f"buffers_{SIZE_BEYOND}+arbiter lazy hunt",
        seconds=lazy_seconds,
        states=engine.states_expanded,
    )
    RECORD.record(
        f"buffers_{SIZE_BEYOND}+arbiter eager",
        seconds=eager_seconds,
        states=eager_lts.state_count(),
    )
    assert lazy_seconds < eager_seconds / 10, (
        f"lazy {lazy_seconds:.3f}s vs eager {eager_seconds:.3f}s"
    )


def test_onthefly_bench_violation_hunt(benchmark):
    """pytest-benchmark probe: the lazy violation hunt at SIZE_BEYOND."""
    components, composition = _chain_with_arbiter(SIZE_BEYOND)

    def hunt():
        engine = OnTheFlyChecker(ProductLTS(components), max_states=BUDGET)
        return check_weak_endochrony(composition, checker=engine)

    report = benchmark(hunt)
    assert not report.holds()


# ---------------------------------------------------------------------------
# 2. the exponential per-state gap on chained compositions
# ---------------------------------------------------------------------------

def test_lazy_product_beats_eager_choice_enumeration():
    """The lazy product at n=10 is faster than the eager engine at n=6.

    Each eager state expansion enumerates ``2·3^n`` candidate activations of
    the composed pipeline; the lazy product joins per-relay reaction lists.
    Verifying non-blocking (a holding property: full reachable set explored)
    four sizes further must still be cheaper than the eager engine's smaller
    instance.
    """
    eager_components, eager_composition = pipeline_network(6)
    start = time.perf_counter()
    eager_lts = build_lts(eager_composition, max_states=BUDGET)
    eager_seconds = time.perf_counter() - start
    assert not eager_lts.truncated

    lazy_components, _composition = pipeline_network(10)
    start = time.perf_counter()
    engine = OnTheFlyChecker(ProductLTS(lazy_components), max_states=BUDGET)
    result = engine.is_non_blocking()
    lazy_seconds = time.perf_counter() - start
    assert result.holds and not engine.truncated

    RECORD.record("pipeline_10 lazy non-blocking", seconds=lazy_seconds)
    RECORD.record("pipeline_6 eager build", seconds=eager_seconds)
    assert lazy_seconds < eager_seconds, (
        f"lazy n=10 {lazy_seconds:.3f}s vs eager n=6 {eager_seconds:.3f}s"
    )


def test_onthefly_bench_product_expansion(benchmark):
    """pytest-benchmark probe: full lazy exploration of a 10-relay pipeline."""
    components, _composition = pipeline_network(10)

    def explore():
        engine = OnTheFlyChecker(ProductLTS(components), max_states=BUDGET)
        engine.explore_all()
        return engine

    engine = benchmark(explore)
    assert not engine.truncated


# ---------------------------------------------------------------------------
# 3. batched parallel queries
# ---------------------------------------------------------------------------

def _batch_components(count: int = 6):
    """Independent, individually heavy components (composed buffer chains).

    Chain ``k`` starts buffer ``i`` at the boolean bit ``i`` of ``k``, so up
    to 16 chains have distinct content digests: no query of a batch can be
    answered from another's memo entry.
    """
    chains = []
    for variant in range(count):
        composition = None
        for index in range(4):
            stage = normalize(
                buffer_process(
                    name=f"buffer{index}",
                    input_name=f"y{index}",
                    output_name=f"y{index + 1}",
                    initial=bool(variant >> index & 1),
                )
            )
            composition = stage if composition is None else composition.compose(stage)
        composition.name = f"buffer_chain_{variant}"
        chains.append(composition)
    return chains


def test_verify_many_and_map_components_agree_with_sequential():
    """Parallel sharding must return the same verdicts as the in-process loop."""
    design = Design(name="batch", components=_batch_components(3))
    specs = [("weak-endochrony", "explicit"), ("non-blocking", "explicit")]
    sequential = design.verify_many(specs)
    parallel = Design(name="batch", components=_batch_components(3)).verify_many(
        specs, parallel=2
    )
    assert [bool(v) for v in sequential] == [bool(v) for v in parallel]
    assert [v.prop for v in sequential] == [v.prop for v in parallel]

    seq_map = design.map_components("weak-endochrony", method="explicit")
    par_map = Design(name="batch", components=_batch_components(3)).map_components(
        "weak-endochrony", method="explicit", parallel=2
    )
    assert [bool(v) for v in seq_map] == [bool(v) for v in par_map]


#: a bounded-model-checking style sweep: the same property at several
#: exploration bounds.  Every bound gets its own engine, so the queries are
#: genuinely independent — the shape of workload ``parallel=N`` is for.
_SWEEP_SPECS = [
    ("weak-endochrony", "explicit", {"max_states": bound})
    for bound in (192, 256, 384, 512, 768, 1024)
]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="parallel speedup needs more than one core"
)
def test_verify_many_parallel_beats_sequential_loop():
    """``verify_many(parallel=2)`` beats the sequential loop on ≥ 2 cores.

    Multi-property workload: a six-bound exploration sweep over one design
    (~0.5 s per query, no shared engine).  The sequential loop pays the sum;
    two workers pay roughly half plus the pool start-up.
    """
    _components, composition = chain_of_buffers(4)

    sequential_design = Design.from_process(composition)
    start = time.perf_counter()
    sequential = sequential_design.verify_many(_SWEEP_SPECS)
    sequential_seconds = time.perf_counter() - start

    parallel_design = Design.from_process(composition)
    start = time.perf_counter()
    parallel = parallel_design.verify_many(_SWEEP_SPECS, parallel=2)
    parallel_seconds = time.perf_counter() - start

    assert [bool(v) for v in sequential] == [bool(v) for v in parallel]
    assert parallel_seconds < sequential_seconds, (
        f"parallel {parallel_seconds:.2f}s vs sequential {sequential_seconds:.2f}s"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="parallel speedup needs more than one core"
)
def test_map_components_parallel_beats_sequential_loop():
    """``map_components(parallel=2)`` beats the sequential per-component loop.

    Six independent weak-endochrony queries of ~0.5 s each: the sequential
    loop pays their sum, two workers pay roughly half plus the pool start-up.
    """
    components = _batch_components(6)
    assert len({process_digest(component) for component in components}) == 6
    sequential_design = Design(name="batch", components=components)
    start = time.perf_counter()
    sequential = sequential_design.map_components("weak-endochrony", method="explicit")
    sequential_seconds = time.perf_counter() - start

    parallel_design = Design(name="batch", components=_batch_components(6))
    start = time.perf_counter()
    parallel = parallel_design.map_components(
        "weak-endochrony", method="explicit", parallel=2
    )
    parallel_seconds = time.perf_counter() - start

    assert [bool(v) for v in sequential] == [bool(v) for v in parallel]
    assert parallel_seconds < sequential_seconds, (
        f"parallel {parallel_seconds:.2f}s vs sequential {sequential_seconds:.2f}s"
    )
