"""The weak-endochrony invariants of Section 4.1 (Property 3).

Implements the model-checking formulation the paper targets at Sigali: weak
endochrony of a compilable process is expressed as three
invariants over pairs of *root* clocks ``x``, ``y`` (and, for the third, an
arbitrary third signal ``z``), checked by the Sigali model checker:

* ``StateIndependent(x, y)``: if ``x`` can occur without ``y`` now and ``y``
  without ``x`` at the next instant, then ``x`` and ``y`` can also occur
  together now — performing them in either order does not change the state;
* ``OrderIndependent(x, y)``: when ``x`` and ``y`` are each enabled alone,
  they are also enabled together (the diamond can be closed in one step);
* ``FlowIndependent(x, y, z)``: the choice of performing ``x`` or ``y`` first
  does not decide whether a third signal ``z`` can be produced.

Here the invariants are checked on the reaction LTS of the boolean
abstraction; each function returns an :class:`InvariantResult` with a
counterexample state when the invariant fails.  Every function quantifies
over ``checker.iter_states()``, so passing an
:class:`~repro.mc.onthefly.OnTheFlyChecker` makes the same check run
on-the-fly: a failing invariant stops the exploration at the violating
state instead of forcing the full product first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.mc.explicit import ExplicitStateChecker, InvariantResult
from repro.mc.transition import ReactionLTS, State
from repro.mocc.reactions import Reaction, independent, merge_reactions


def _reactions_with(checker: ExplicitStateChecker, state: State, present: str, absent: str):
    """Reactions from ``state`` in which ``present`` occurs and ``absent`` does not."""
    return [
        reaction
        for reaction in checker.reactions_from(state)
        if present in reaction.present_signals() and absent not in reaction.present_signals()
    ]


def _reactions_with_both(checker: ExplicitStateChecker, state: State, first: str, second: str):
    return [
        reaction
        for reaction in checker.reactions_from(state)
        if first in reaction.present_signals() and second in reaction.present_signals()
    ]


def check_state_independent(
    lts: Optional[ReactionLTS], x: str, y: str, checker=None
) -> InvariantResult:
    """Property (1) of Section 4.1 for the pair of signals ``(x, y)``."""
    name = f"StateIndependent({x}, {y})"
    checker = checker or ExplicitStateChecker(lts)
    for state in checker.iter_states():
        for first in _reactions_with(checker, state, x, y):
            successor = checker.successor(state, first)
            if successor is None:
                continue
            y_after = _reactions_with(checker, successor, y, x)
            if not y_after:
                continue
            if not _reactions_with_both(checker, state, x, y):
                return InvariantResult(
                    name,
                    False,
                    f"in state {dict(state)}, {x} then {y} is possible but not {x} and {y} together",
                )
    return InvariantResult(name, True)


def check_order_independent(
    lts: Optional[ReactionLTS], x: str, y: str, checker=None
) -> InvariantResult:
    """Property (2) of Section 4.1 for the pair of signals ``(x, y)``."""
    name = f"OrderIndependent({x}, {y})"
    checker = checker or ExplicitStateChecker(lts)
    for state in checker.iter_states():
        x_alone = _reactions_with(checker, state, x, y)
        y_alone = _reactions_with(checker, state, y, x)
        if x_alone and y_alone and not _reactions_with_both(checker, state, x, y):
            return InvariantResult(
                name,
                False,
                f"in state {dict(state)}, {x} and {y} are enabled separately but never together",
            )
    return InvariantResult(name, True)


def _producible(checker: ExplicitStateChecker, state: State, cache: Dict[State, FrozenSet[str]]):
    """The signals present in at least one reaction from ``state`` (memoized in ``cache``)."""
    signals = cache.get(state)
    if signals is None:
        signals = frozenset().union(
            *(reaction.present_signals() for reaction in checker.reactions_from(state))
        )
        cache[state] = signals
    return signals


def check_flow_independent(
    lts: Optional[ReactionLTS],
    x: str,
    y: str,
    z: str,
    checker=None,
    producible: Optional[Dict[State, FrozenSet[str]]] = None,
) -> InvariantResult:
    """Property (3) of Section 4.1 for the triple ``(x, y, z)``.

    ``producible`` memoizes, per state, the signals some reaction from it
    produces; :func:`check_weak_endochrony_invariants` shares one such dict
    across all its triples.  It is only filled for states whose reactions
    the check reads anyway, so an on-the-fly checker expands no extra state.
    """
    name = f"FlowIndependent({x}, {y}, {z})"
    checker = checker or ExplicitStateChecker(lts)
    producible = {} if producible is None else producible
    for state in checker.iter_states():
        x_alone = _reactions_with(checker, state, x, y)
        y_alone = _reactions_with(checker, state, y, x)
        if not (x_alone and y_alone):
            continue
        if z not in _producible(checker, state, producible):
            continue
        # z must remain producible whichever of x or y is performed first
        for first in x_alone + y_alone:
            successor = checker.successor(state, first)
            if successor is None:
                continue
            if z in first.present_signals():
                continue
            if z not in _producible(checker, successor, producible):
                return InvariantResult(
                    name,
                    False,
                    f"in state {dict(state)}, producing {sorted(first.present_signals())} first "
                    f"makes {z} unavailable",
                )
    return InvariantResult(name, True)


@dataclass
class WeakEndochronyInvariantReport:
    """The result of checking properties (1)-(3) over every pair of roots."""

    process_name: str
    pairs: List[Tuple[str, str]] = field(default_factory=list)
    results: List[InvariantResult] = field(default_factory=list)
    states_explored: int = 0
    transitions_explored: int = 0

    def holds(self) -> bool:
        return all(result.holds for result in self.results)

    def failures(self) -> List[InvariantResult]:
        return [result for result in self.results if not result.holds]

    def __str__(self) -> str:
        lines = [
            f"weak endochrony invariants for {self.process_name}: "
            f"{'hold' if self.holds() else 'FAIL'} "
            f"({self.states_explored} states, {self.transitions_explored} transitions)"
        ]
        lines.extend(f"  {result}" for result in self.results)
        return "\n".join(lines)


def check_weak_endochrony_invariants(
    lts: Optional[ReactionLTS],
    root_signals: Sequence[Sequence[str]],
    flow_signals: Iterable[str] = (),
    checker=None,
) -> WeakEndochronyInvariantReport:
    """Check properties (1)-(3) for every pair of root representatives.

    ``root_signals`` lists, for every root of the clock hierarchy, the signals
    whose clock belongs to that root class; the check uses one representative
    per root, as the paper does.  ``flow_signals`` are the extra signals ``z``
    used by ``FlowIndependent`` (typically the outputs of the process).

    ``checker`` may be any object with the explicit-checker interface — in
    particular an :class:`~repro.mc.onthefly.OnTheFlyChecker`, in which case
    the invariants drive a lazy product exploration instead of a
    pre-materialized LTS.
    """
    # on-the-fly runs return at the first failing invariant: continuing to
    # sweep the remaining pairs would force the full exploration the lazy
    # engine exists to avoid (the eager route keeps reporting all pairs)
    stop_at_first_failure = checker is not None
    checker = checker or ExplicitStateChecker(lts)
    report = WeakEndochronyInvariantReport(process_name=checker.process_name)

    def finalize() -> WeakEndochronyInvariantReport:
        if lts is not None:
            report.states_explored = lts.state_count()
            report.transitions_explored = lts.transition_count()
        else:
            report.states_explored = checker.states_expanded
            report.transitions_explored = checker.transitions_expanded
        return report

    def record(result: InvariantResult) -> bool:
        report.results.append(result)
        return stop_at_first_failure and not result.holds

    producible: Dict[State, FrozenSet[str]] = {}
    representatives = [signals[0] for signals in root_signals if signals]
    for index, x in enumerate(representatives):
        for y in representatives[index + 1 :]:
            report.pairs.append((x, y))
            if record(check_state_independent(lts, x, y, checker)):
                return finalize()
            if record(check_order_independent(lts, x, y, checker)):
                return finalize()
            for z in flow_signals:
                if z in (x, y):
                    continue
                if record(check_flow_independent(lts, x, y, z, checker, producible)):
                    return finalize()
    return finalize()
