"""The clock hierarchy of Definition 5 and its well-formedness (Definition 6).

The hierarchy is a partial order ``≽`` ("determines") over clock equivalence
classes:

1. for every boolean signal ``x``, ``x^ ≽ [x]`` and ``x^ ≽ [¬x]``;
2. clocks provably equal under the timing relations belong to the same class;
3. when a clock ``b1`` is defined by ``c1 f c2`` and some class ``b2``
   dominates both ``c1`` and ``c2``, then ``b2 ≽ b1``.

A process whose hierarchy has a single root is *hierarchic*; a compilable
hierarchic process is endochronous (Property 2).  The roots of a
multi-rooted hierarchy identify the independent sources of concurrency used
by the compositional criterion of Section 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.clocks.algebra import ClockAlgebra, presence_variable, value_variable
from repro.clocks.expressions import clock_key, format_clock_expression
from repro.clocks.relations import TimingRelations
from repro.lang.ast import (
    ClockBinary,
    ClockEmpty,
    ClockExpressionSyntax,
    ClockFalse,
    ClockOf,
    ClockTrue,
)
from repro.lang.normalize import NormalizedProcess

ClockKey = Tuple


@dataclass
class ClockClass:
    """An equivalence class of clocks (clocks provably equal under R)."""

    index: int
    members: List[ClockExpressionSyntax] = field(default_factory=list)

    def representative(self) -> ClockExpressionSyntax:
        # Prefer a signal clock as representative, then a sampled clock.
        for member in self.members:
            if isinstance(member, ClockOf):
                return member
        return self.members[0]

    def member_keys(self) -> Set[ClockKey]:
        return {clock_key(member) for member in self.members}

    def signal_clocks(self) -> List[str]:
        return sorted(member.name for member in self.members if isinstance(member, ClockOf))

    def describe(self) -> str:
        return " ~ ".join(sorted(format_clock_expression(member) for member in self.members))


class ClockHierarchy:
    """The computed hierarchy: classes, dominance order, roots and trees."""

    def __init__(
        self,
        process: NormalizedProcess,
        algebra: ClockAlgebra,
        classes: List[ClockClass],
        dominance: Set[Tuple[int, int]],
    ):
        self.process = process
        self.algebra = algebra
        self.classes = classes
        #: pairs (above, below): class ``above`` determines class ``below``
        self.dominance = dominance
        self._class_of_key: Dict[ClockKey, int] = {}
        for clock_class in classes:
            for member in clock_class.members:
                self._class_of_key[clock_key(member)] = clock_class.index

    # -- basic queries -----------------------------------------------------------
    def class_of(self, expression: ClockExpressionSyntax) -> Optional[ClockClass]:
        index = self._class_of_key.get(clock_key(expression))
        return self.classes[index] if index is not None else None

    def class_of_signal(self, name: str) -> Optional[ClockClass]:
        return self.class_of(ClockOf(name))

    def same_class(self, left: ClockExpressionSyntax, right: ClockExpressionSyntax) -> bool:
        left_class = self.class_of(left)
        right_class = self.class_of(right)
        return left_class is not None and right_class is not None and left_class.index == right_class.index

    def dominates(self, above: int, below: int) -> bool:
        """Reflexive-transitive dominance between class indices."""
        return above == below or (above, below) in self.dominance

    def strict_dominators(self, index: int) -> Set[int]:
        return {
            above
            for (above, below) in self.dominance
            if below == index and above != index and (below, above) not in self.dominance
        }

    # -- roots and structure ---------------------------------------------------
    def roots(self) -> List[ClockClass]:
        """The minimal classes of the hierarchy (no strict dominator)."""
        return [
            clock_class
            for clock_class in self.classes
            if not self.strict_dominators(clock_class.index) and not self._is_empty_class(clock_class)
        ]

    def _is_empty_class(self, clock_class: ClockClass) -> bool:
        return self.algebra.is_empty_clock(clock_class.representative())

    def root_count(self) -> int:
        return len(self.roots())

    def is_hierarchic(self) -> bool:
        """Definition 11: the hierarchy has a unique root."""
        return self.root_count() == 1

    def root_signals(self) -> List[List[str]]:
        """For every root class, the signals whose clock belongs to it."""
        return [root.signal_clocks() for root in self.roots()]

    def subtree_signals(self, root: ClockClass) -> Set[str]:
        """The signals whose clock class is dominated by ``root`` (including it)."""
        signals: Set[str] = set()
        for clock_class in self.classes:
            if self.dominates(root.index, clock_class.index):
                signals.update(clock_class.signal_clocks())
        return signals

    def parent_map(self) -> Dict[int, Optional[int]]:
        """An immediate-dominator map used to display the hierarchy as a forest."""
        parents: Dict[int, Optional[int]] = {}
        for clock_class in self.classes:
            dominators = self.strict_dominators(clock_class.index)
            if not dominators:
                parents[clock_class.index] = None
                continue
            # choose the *lowest* strict dominator: one not above any other dominator
            best = None
            for candidate in sorted(dominators):
                if all(
                    other == candidate or not self.dominates(candidate, other)
                    for other in dominators
                ):
                    best = candidate
            parents[clock_class.index] = best if best is not None else sorted(dominators)[0]
        return parents

    # -- well-formedness (Definition 6) ---------------------------------------------
    def well_formed(self) -> bool:
        return not self.ill_formed_reasons()

    def ill_formed_reasons(self) -> List[str]:
        """The reasons (if any) the hierarchy is ill-formed.

        The check follows Definition 6, restricted to the free (interface)
        signals of the process: a process that constrains the *value* of one
        of its own inputs (``x^ ~ [x]`` or ``x^ ~ [¬x]`` for an input ``x``)
        may block its environment.  Locally defined boolean signals of
        constant value (such as the output of ``true when c``) legitimately
        satisfy ``x^ = [x]`` and are not flagged.
        """
        reasons: List[str] = []
        if not self.algebra.satisfiable():
            reasons.append("the timing relations are unsatisfiable (the only solution is silence)")
        boolean_inputs = [
            name for name in self.process.inputs if self.process.types.get(name) == "bool"
        ]
        for name in boolean_inputs:
            tick = ClockOf(name)
            if self.algebra.is_empty_clock(tick):
                reasons.append(f"input signal {name!r} can never be present")
                continue
            if self.algebra.entails_equal(tick, ClockTrue(name)):
                reasons.append(
                    f"input signal {name!r} is constrained to be true whenever present"
                )
            if self.algebra.entails_equal(tick, ClockFalse(name)):
                reasons.append(
                    f"input signal {name!r} is constrained to be false whenever present"
                )
        return reasons

    # -- display ------------------------------------------------------------------
    def describe(self) -> str:
        """A textual rendering of the forest, mirroring the paper's figures."""
        parents = self.parent_map()
        children: Dict[Optional[int], List[int]] = {}
        for index, parent in parents.items():
            children.setdefault(parent, []).append(index)
        lines: List[str] = []

        def render(index: int, depth: int) -> None:
            clock_class = self.classes[index]
            if self._is_empty_class(clock_class) and depth == 0:
                return
            lines.append("  " * depth + clock_class.describe())
            for child in sorted(children.get(index, [])):
                render(child, depth + 1)

        for root in sorted(children.get(None, [])):
            render(root, 0)
        return "\n".join(lines)


def _interesting_clocks(process: NormalizedProcess) -> List[ClockExpressionSyntax]:
    clocks: List[ClockExpressionSyntax] = []
    boolean = set(process.boolean_signals())
    for name in process.all_signals():
        clocks.append(ClockOf(name))
        if name in boolean:
            clocks.append(ClockTrue(name))
            clocks.append(ClockFalse(name))
    return clocks


def build_hierarchy(
    process: NormalizedProcess,
    relations: Optional[TimingRelations] = None,
    algebra: Optional[ClockAlgebra] = None,
) -> ClockHierarchy:
    """Build the clock hierarchy of a normalized process (Definition 5)."""
    from repro.clocks.inference import infer_timing_relations

    if relations is None:
        relations = infer_timing_relations(process)
    if algebra is None:
        algebra = ClockAlgebra(process, relations)

    clocks = _interesting_clocks(process)

    # rule 2: equivalence classes under provable equality.  The pairwise
    # entailment sweep is O(clocks × classes); before paying a BDD
    # entailment per pair, candidates are screened against a pool of
    # *R-satisfying witness samples* (one per discovered class).  Clocks
    # provably equal under R agree on every R-satisfying assignment, so a
    # spectrum mismatch soundly rules the pair out; only spectrum-identical
    # pairs reach the entailment check.  A clock's spectrum is a bit mask
    # over the samples, set as each sample arrives from the signals it makes
    # present, so screening a pair is one integer comparison.
    classes: List[ClockClass] = []
    encoded = [algebra.encode(clock) for clock in clocks]
    representatives: List[int] = []
    spectra = [0] * len(clocks)
    # per signal: its presence and value variables, and the clocks it makes
    # tick (``None``: whenever present, else when its value is the one given)
    ticks_with: Dict[str, List[Tuple[int, Optional[bool]]]] = {}
    for position, clock in enumerate(clocks):
        value = None if isinstance(clock, ClockOf) else isinstance(clock, ClockTrue)
        ticks_with.setdefault(clock.name, []).append((position, value))
    signal_ticks = [
        (presence_variable(name), value_variable(name), ticking)
        for name, ticking in ticks_with.items()
    ]
    samples = 0

    def add_sample(witness: Mapping[str, bool]) -> None:
        nonlocal samples
        bit = 1 << samples
        samples += 1
        for presence, value_name, ticking in signal_ticks:
            if witness.get(presence, False):
                value = witness.get(value_name, False)
                for position, wanted in ticking:
                    if wanted is None or wanted == value:
                        spectra[position] |= bit

    for position, clock in enumerate(clocks):
        for clock_class, representative in zip(classes, representatives):
            if spectra[position] != spectra[representative]:
                continue
            if not algebra.entails(encoded[position].iff(encoded[representative])):
                continue
            clock_class.members.append(clock)
            break
        else:
            classes.append(ClockClass(index=len(classes), members=[clock]))
            representatives.append(position)
            # a witness instant for the new class: the clock ticks, its own
            # relation factors hold, and every other signal is absent — the
            # all-absent completion satisfies the remaining factors, so the
            # sample satisfies R and the screening stays sound
            cube = {presence_variable(clock.name): True}
            if not isinstance(clock, ClockOf):
                cube[value_variable(clock.name)] = isinstance(clock, ClockTrue)
            witness = algebra.witness(cube)
            if witness is not None:
                add_sample(witness)

    key_to_class: Dict[ClockKey, int] = {}
    for clock_class in classes:
        for member in clock_class.members:
            key_to_class[clock_key(member)] = clock_class.index

    # Base (generating) dominance edges, closed by reachability below.
    base_edges: Set[Tuple[int, int]] = set()

    def add_base(above: int, below: int) -> bool:
        if above == below or (above, below) in base_edges:
            return False
        base_edges.add((above, below))
        return True

    # rule 1: x^ determines [x] and [¬x]
    boolean = set(process.boolean_signals())
    for name in process.all_signals():
        if name not in boolean:
            continue
        tick = key_to_class.get(clock_key(ClockOf(name)))
        true_class = key_to_class.get(clock_key(ClockTrue(name)))
        false_class = key_to_class.get(clock_key(ClockFalse(name)))
        if tick is not None and true_class is not None:
            add_base(tick, true_class)
        if tick is not None and false_class is not None:
            add_base(tick, false_class)

    # rule 3: a clock defined by an operation on two determined clocks is determined
    defining_relations: List[Tuple[int, int, int]] = []
    for relation in relations.clock_relations:
        right = relation.right
        if not isinstance(right, ClockBinary):
            continue
        left_class = key_to_class.get(clock_key(relation.left))
        operand_left = key_to_class.get(clock_key(right.left))
        operand_right = key_to_class.get(clock_key(right.right))
        if None in (left_class, operand_left, operand_right):
            continue
        defining_relations.append((left_class, operand_left, operand_right))

    def reachability(edges: Set[Tuple[int, int]]) -> Dict[int, Set[int]]:
        successors: Dict[int, Set[int]] = {clock_class.index: set() for clock_class in classes}
        for above, below in edges:
            successors[above].add(below)
        reachable: Dict[int, Set[int]] = {}
        for clock_class in classes:
            start = clock_class.index
            seen: Set[int] = set()
            stack = list(successors[start])
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(successors[node])
            reachable[start] = seen
        return reachable

    while True:
        reachable = reachability(base_edges)
        added = False
        for target, first, second in defining_relations:
            for clock_class in classes:
                candidate = clock_class.index
                dominates_first = candidate == first or first in reachable[candidate]
                dominates_second = candidate == second or second in reachable[candidate]
                if dominates_first and dominates_second and target not in reachable[candidate]:
                    added |= add_base(candidate, target)
        if not added:
            break

    reachable = reachability(base_edges)
    dominance: Set[Tuple[int, int]] = {
        (above, below) for above, belows in reachable.items() for below in belows
    }
    return ClockHierarchy(process, algebra, classes, dominance)
