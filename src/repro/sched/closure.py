"""Clock-labelled transitive closure and acyclicity (Definition 8).

The closure rules of Section 3.5 are:

* every edge ``a →c b`` starts a path ``a ⇒c b``;
* two paths ``a ⇒c b`` and ``a ⇒d b`` merge into ``a ⇒c∨d b``;
* two paths ``a ⇒c b`` and ``b ⇒d z`` chain into ``a ⇒c∧d z``.

A graph is acyclic iff every self-path ``a ⇒e a`` has an empty clock under
the timing relations (``R |= e = 0``).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.bdd.bdd import BDD
from repro.clocks.relations import Node
from repro.sched.graph import SchedulingGraph


def transitive_closure(graph: SchedulingGraph) -> Dict[Tuple[Node, Node], BDD]:
    """The labelled transitive closure of the scheduling graph.

    Returns a mapping from node pairs to the BDD of the clock at which a path
    exists between them.  The computation is a label-weighted Floyd–Warshall:
    labels combine by conjunction along a path and by disjunction across
    alternative paths.
    """
    manager = graph.algebra.manager
    closure: Dict[Tuple[Node, Node], BDD] = {}
    for edge in graph.edges():
        key = (edge.source, edge.target)
        closure[key] = closure.get(key, manager.false) | edge.label

    nodes = graph.nodes()
    for middle in nodes:
        for source in nodes:
            through = closure.get((source, middle))
            if through is None or through.is_false():
                continue
            for target in nodes:
                onward = closure.get((middle, target))
                if onward is None or onward.is_false():
                    continue
                combined = through & onward
                if combined.is_false():
                    continue
                key = (source, target)
                closure[key] = closure.get(key, manager.false) | combined
    return closure


def _strongly_connected_components(nodes, successors) -> List[List[Node]]:
    """Tarjan's algorithm (iterative) over the feasible-edge graph."""
    index_of: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Dict[Node, bool] = {}
    stack: List[Node] = []
    components: List[List[Node]] = []
    counter = [0]

    for root in nodes:
        if root in index_of:
            continue
        work = [(root, iter(successors.get(root, ())))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, iterator = work[-1]
            advanced = False
            for successor in iterator:
                if successor not in index_of:
                    index_of[successor] = lowlink[successor] = counter[0]
                    counter[0] += 1
                    stack.append(successor)
                    on_stack[successor] = True
                    work.append((successor, iter(successors.get(successor, ()))))
                    advanced = True
                    break
                if on_stack.get(successor):
                    lowlink[node] = min(lowlink[node], index_of[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: List[Node] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def cyclic_nodes(graph: SchedulingGraph) -> List[Tuple[Node, BDD]]:
    """Nodes that lie on a cycle whose clock is not provably empty.

    The labelled all-pairs closure is only computed inside non-trivial
    strongly connected components of the feasible-edge graph: acyclic graphs
    (the common case) are dismissed by the SCC decomposition alone, which
    keeps the check cheap on large compositions.
    """
    manager = graph.algebra.manager
    algebra = graph.algebra
    # feasibility is decided without building a conjunction; a label is
    # conjoined with the relation factors it touches
    # (:meth:`~repro.clocks.algebra.ClockAlgebra.constrained`) only where
    # the closure needs it: on self-loops and inside non-trivial SCCs
    feasible = graph.effective_edges()
    successors: Dict[Node, List[Node]] = {}
    for edge in feasible:
        successors.setdefault(edge.source, []).append(edge.target)
    nodes = graph.nodes()
    components = _strongly_connected_components(nodes, successors)

    offenders: List[Tuple[Node, BDD]] = []
    self_loops = {edge.source: edge.label for edge in feasible if edge.source == edge.target}
    for node, label in sorted(self_loops.items()):
        offenders.append((node, algebra.constrained(label)))

    for component in components:
        if len(component) < 2:
            continue
        members = set(component)
        closure: Dict[Tuple[Node, Node], BDD] = {}
        for edge in feasible:
            if edge.source in members and edge.target in members:
                key = (edge.source, edge.target)
                closure[key] = closure.get(key, manager.false) | algebra.constrained(edge.label)
        ordered = sorted(members)
        for middle in ordered:
            for source in ordered:
                through = closure.get((source, middle))
                if through is None or through.is_false():
                    continue
                for target in ordered:
                    onward = closure.get((middle, target))
                    if onward is None or onward.is_false():
                        continue
                    combined = through & onward
                    if combined.is_false():
                        continue
                    key = (source, target)
                    closure[key] = closure.get(key, manager.false) | combined
        for node in ordered:
            label = closure.get((node, node))
            # the closure entries already carry the relation factors of every
            # label on their path (constrained labels are closed under
            # conjunction), so satisfiability alone decides feasibility here
            if label is not None and label.is_satisfiable():
                if node not in self_loops:
                    offenders.append((node, algebra.constrained(label)))
    return offenders


def is_acyclic(graph: SchedulingGraph) -> bool:
    """Definition 8: every cycle of the closure has an empty clock under R."""
    return not cyclic_nodes(graph)
