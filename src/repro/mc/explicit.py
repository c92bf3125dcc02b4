"""Explicit-state queries and invariant checking over reaction LTSs.

Implements the explicit side of Section 4's model checking: determinism and
the non-blocking property of Definition 4 are decided by scanning an
(eagerly explored) :class:`~repro.mc.transition.ReactionLTS`.  The
Definition 2 axioms of :mod:`repro.properties.weak_endochrony` and the
Section 4.1 invariants of :mod:`repro.mc.invariants` are written against the
query interface of :class:`ExplicitStateChecker` (``transitions_from`` /
``successor`` / ``enables`` / ``iter_states``), which the on-the-fly engine
of :mod:`repro.mc.onthefly` implements as well — the same checks then run
lazily with early termination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.mc.transition import ReactionLTS, State, Transition
from repro.mocc.reactions import Reaction


@dataclass
class InvariantResult:
    """The outcome of checking one invariant: holds or a counterexample."""

    name: str
    holds: bool
    counterexample: Optional[str] = None

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:
        status = "holds" if self.holds else f"FAILS: {self.counterexample}"
        return f"{self.name}: {status}"


class ExplicitStateChecker:
    """Queries over an explored reaction LTS."""

    def __init__(self, lts: ReactionLTS):
        self.lts = lts
        self._transitions_by_state: Dict[State, List[Transition]] = {}
        # reaction -> target per state; the first transition with a reaction wins
        self._targets_by_state: Dict[State, Dict[Reaction, State]] = {}
        for transition in lts.transitions:
            self._transitions_by_state.setdefault(transition.source, []).append(transition)
            self._targets_by_state.setdefault(transition.source, {}).setdefault(
                transition.reaction, transition.target
            )

    @property
    def process_name(self) -> str:
        return self.lts.process_name

    # -- basic queries ----------------------------------------------------------
    def reachable_states(self) -> List[State]:
        return list(self.lts.states)

    def iter_states(self):
        """The explored states, in exploration order (the lazy-engine interface)."""
        return iter(self.lts.states)

    def transitions_from(self, state: State) -> List[Transition]:
        return self._transitions_by_state.get(state, [])

    def reactions_from(self, state: State) -> List[Reaction]:
        return [transition.reaction for transition in self.transitions_from(state)]

    def non_silent_reactions_from(self, state: State) -> List[Reaction]:
        return [reaction for reaction in self.reactions_from(state) if not reaction.is_silent()]

    def successor(self, state: State, reaction: Reaction) -> Optional[State]:
        return self._targets_by_state.get(state, {}).get(reaction)

    def enables(self, state: State, reaction: Reaction) -> bool:
        return reaction in self._targets_by_state.get(state, {})

    # -- generic invariant checking --------------------------------------------------
    def check_state_invariant(
        self, name: str, predicate: Callable[[State], bool]
    ) -> InvariantResult:
        """Check a predicate on every reachable state."""
        for state in self.lts.states:
            if not predicate(state):
                return InvariantResult(name, False, f"violated in state {dict(state)}")
        return InvariantResult(name, True)

    def check_transition_invariant(
        self, name: str, predicate: Callable[[Transition], bool]
    ) -> InvariantResult:
        """Check a predicate on every transition."""
        for transition in self.lts.transitions:
            if not predicate(transition):
                return InvariantResult(
                    name,
                    False,
                    f"violated by reaction {transition.reaction} from state {dict(transition.source)}",
                )
        return InvariantResult(name, True)

    # -- properties used by the paper -------------------------------------------------
    def is_deterministic(self) -> InvariantResult:
        """Two transitions with the same reaction from the same state agree on the target."""
        for state in self.lts.states:
            seen: Dict[Reaction, State] = {}
            for transition in self.transitions_from(state):
                previous = seen.get(transition.reaction)
                if previous is not None and previous != transition.target:
                    return InvariantResult(
                        "determinism",
                        False,
                        f"reaction {transition.reaction} from {dict(state)} has two successors",
                    )
                seen[transition.reaction] = transition.target
        return InvariantResult("determinism", True)

    def is_non_blocking(self) -> InvariantResult:
        """Definition 4: every reachable state admits some reaction (stuttering counts)."""
        for state in self.lts.states:
            if not self.transitions_from(state):
                return InvariantResult(
                    "non-blocking", False, f"state {dict(state)} has no reaction at all"
                )
        return InvariantResult("non-blocking", True)

    def statistics(self) -> Dict[str, int]:
        return {
            "states": self.lts.state_count(),
            "transitions": self.lts.transition_count(),
        }
