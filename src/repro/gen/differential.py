"""Differential testing of the four verification engines against each other.

Every generated design is pushed through all four backends of
:meth:`repro.api.Design.verify` — ``static``, ``explicit``, ``compiled``,
``symbolic`` — for each checked property, and the verdict matrix is held to
the :data:`CONTRACTS` below.  The contract is *not* "all four agree": the
methods do not all decide the same predicate, and pretending they do would
either mask real engine bugs or reject correct engines.  What the codebase
actually promises, and what this harness enforces, is:

* **exact agreement classes** — methods that decide the same predicate on
  the same abstraction must return identical verdicts.  ``explicit`` and
  ``compiled`` both check Definition 2's diamond axioms on the product LTS
  (the compiled engine is a BDD-backed reimplementation of the same
  semantics, with a documented interpreter fallback outside the boolean
  fragment); for **non-blocking** the ``symbolic`` backend also decides the
  very same Definition 4, so all three must agree exactly.
* **soundness implications** — the static criterion (Theorem 1) is
  sufficient, not complete: ``static`` holding must imply the
  model-checking class holds; ``static`` failing implies nothing.
* **related formulations** — ``symbolic`` weak endochrony is the paper's
  Section 4.1 *invariant* formulation, quantified over clock-hierarchy
  root pairs.  On single-rooted designs it coincides with Definition 2,
  but on multi-rooted products the two genuinely diverge in both
  directions — e.g. an arbiter tree whose two leaf arbiters are mutually
  exclusive by construction fails ``StateIndependent`` while Definition
  2's axioms hold (the conflicting reactions share the selector signal and
  are therefore not independent), and normalization-introduced local
  signals can fail axiom 2b below the root pairs the invariants quantify
  over.  The harness still runs the method on every design and *records*
  the divergence as a :class:`FormulationGap` — tracked, counted, visible
  in reports — without calling it an engine disagreement.

Any violation of an exact class or an implication is a
:class:`Disagreement`; :func:`shrink` reduces the offending design to a
minimal counterexample (greedy component deletion, then per-component
equation deletion) that still exhibits the same disagreement, which is the
artifact a human wants to debug an engine with.
"""

from __future__ import annotations

import signal as _signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.gen.topologies import FAMILIES, GeneratedDesign, design_space
from repro.lang.normalize import NormalizedProcess

#: the four verification backends, in reporting order
METHODS: Tuple[str, ...] = ("static", "explicit", "compiled", "symbolic")

#: the properties every design is checked for
PROPERTIES: Tuple[str, ...] = ("weak-endochrony", "non-blocking")


@dataclass(frozen=True)
class AgreementContract:
    """What "the engines agree" means for one property.

    ``exact`` lists the methods that decide the same predicate and must
    return identical verdicts; ``implications`` lists ``(weaker, stronger)``
    pairs where the first method holding must imply the second holds
    (sufficient criteria); ``related`` lists methods that decide a
    *different but related* formulation — they are run and recorded, and a
    divergence from the exact class is reported as a formulation gap, not
    an engine disagreement.
    """

    exact: Tuple[str, ...]
    implications: Tuple[Tuple[str, str], ...] = ()
    related: Tuple[str, ...] = ()


#: the per-property agreement contract (see the module docstring for why
#: symbolic weak endochrony is `related` rather than `exact`)
CONTRACTS: Mapping[str, AgreementContract] = {
    "weak-endochrony": AgreementContract(
        exact=("explicit", "compiled"),
        implications=(("static", "explicit"), ("static", "compiled")),
        related=("symbolic",),
    ),
    "non-blocking": AgreementContract(
        exact=("explicit", "compiled", "symbolic"),
        implications=(("static", "explicit"),),
    ),
}


@dataclass(frozen=True)
class Disagreement:
    """One contract violation: the thing differential testing exists to find."""

    prop: str
    kind: str  # "exact" or "implication"
    methods: Tuple[str, ...]
    verdicts: Mapping[str, bool]
    design_name: str
    seed: Optional[int] = None
    family: Optional[str] = None

    def describe(self) -> str:
        votes = ", ".join(f"{m}={self.verdicts[m]}" for m in self.methods)
        return (
            f"{self.design_name}: {self.prop} {self.kind} violation "
            f"({votes})"
        )


@dataclass(frozen=True)
class FormulationGap:
    """A recorded divergence between an exact class and a related method."""

    prop: str
    method: str
    exact_verdict: bool
    related_verdict: bool
    design_name: str
    seed: Optional[int] = None
    family: Optional[str] = None


@dataclass
class DifferentialResult:
    """The full verdict matrix of one design, checked against the contracts."""

    design_name: str
    verdicts: Dict[str, Dict[str, bool]]  # prop -> method -> holds
    disagreements: List[Disagreement] = field(default_factory=list)
    gaps: List[FormulationGap] = field(default_factory=list)
    seed: Optional[int] = None
    family: Optional[str] = None

    @property
    def agreed(self) -> bool:
        return not self.disagreements


@dataclass
class DifferentialReport:
    """The aggregate of a differential run over a seeded design matrix."""

    results: List[DifferentialResult] = field(default_factory=list)
    shrunk: List["ShrunkCounterexample"] = field(default_factory=list)

    @property
    def designs(self) -> int:
        return len(self.results)

    @property
    def disagreements(self) -> List[Disagreement]:
        return [d for result in self.results for d in result.disagreements]

    @property
    def gaps(self) -> List[FormulationGap]:
        return [g for result in self.results for g in result.gaps]

    @property
    def agreed(self) -> bool:
        return not self.disagreements

    def summary(self) -> Dict[str, object]:
        return {
            "designs": self.designs,
            "disagreements": len(self.disagreements),
            "formulation_gaps": len(self.gaps),
            "agreed": self.agreed,
        }


def verdict_matrix(
    design,
    properties: Sequence[str] = PROPERTIES,
    methods: Sequence[str] = METHODS,
    max_states: int = 256,
) -> Dict[str, Dict[str, bool]]:
    """``prop -> method -> holds`` over a :class:`repro.api.Design`.

    Queries go through :meth:`Design.verify_many`, so verdicts are artifact
    nodes: a warm context (or attached store) answers repeats for free.
    """
    specs = [(prop, method) for prop in properties for method in methods]
    verdicts = design.verify_many(specs, max_states=max_states)
    matrix: Dict[str, Dict[str, bool]] = {prop: {} for prop in properties}
    for (prop, method), verdict in zip(specs, verdicts):
        matrix[prop][method] = bool(verdict.holds)
    return matrix


def check_contract(
    matrix: Mapping[str, Mapping[str, bool]],
    design_name: str,
    seed: Optional[int] = None,
    family: Optional[str] = None,
    contracts: Mapping[str, AgreementContract] = CONTRACTS,
) -> Tuple[List[Disagreement], List[FormulationGap]]:
    """Hold one verdict matrix to the per-property agreement contracts."""
    disagreements: List[Disagreement] = []
    gaps: List[FormulationGap] = []
    for prop, row in matrix.items():
        contract = contracts.get(prop)
        if contract is None:
            continue
        exact = {method: row[method] for method in contract.exact if method in row}
        if len(set(exact.values())) > 1:
            disagreements.append(
                Disagreement(
                    prop=prop,
                    kind="exact",
                    methods=tuple(exact),
                    verdicts=dict(exact),
                    design_name=design_name,
                    seed=seed,
                    family=family,
                )
            )
        for weaker, stronger in contract.implications:
            if weaker in row and stronger in row and row[weaker] and not row[stronger]:
                disagreements.append(
                    Disagreement(
                        prop=prop,
                        kind="implication",
                        methods=(weaker, stronger),
                        verdicts={weaker: row[weaker], stronger: row[stronger]},
                        design_name=design_name,
                        seed=seed,
                        family=family,
                    )
                )
        if exact:
            # the exact class is single-valued here (or already reported);
            # compare related formulations against its majority value
            reference = next(iter(exact.values()))
            for method in contract.related:
                if method in row and row[method] != reference:
                    gaps.append(
                        FormulationGap(
                            prop=prop,
                            method=method,
                            exact_verdict=reference,
                            related_verdict=row[method],
                            design_name=design_name,
                            seed=seed,
                            family=family,
                        )
                    )
    return disagreements, gaps


def run_design(
    generated: GeneratedDesign,
    context=None,
    properties: Sequence[str] = PROPERTIES,
    methods: Sequence[str] = METHODS,
    max_states: int = 256,
) -> DifferentialResult:
    """One design through the full matrix, checked against the contracts."""
    design = generated.design(context=context)
    matrix = verdict_matrix(
        design, properties=properties, methods=methods, max_states=max_states
    )
    disagreements, gaps = check_contract(
        matrix, generated.name, seed=generated.seed, family=generated.family
    )
    return DifferentialResult(
        design_name=generated.name,
        verdicts=matrix,
        disagreements=disagreements,
        gaps=gaps,
        seed=generated.seed,
        family=generated.family,
    )


def run_matrix(
    seeds: Iterable[int],
    families: Sequence[str] = FAMILIES,
    depth: int = 2,
    context=None,
    properties: Sequence[str] = PROPERTIES,
    methods: Sequence[str] = METHODS,
    max_states: int = 256,
    shrink_disagreements: bool = True,
) -> DifferentialReport:
    """The seeded differential run: every design of the matrix, contracted.

    This is what CI's differential job executes.  Each disagreement is
    shrunk to a minimal counterexample design (unless
    ``shrink_disagreements`` is off), because "seed 4711 disagrees" is not
    actionable and "these two equations disagree" is.
    """
    report = DifferentialReport()
    for generated in design_space(seeds, families=families, depth=depth):
        result = run_design(
            generated,
            context=context,
            properties=properties,
            methods=methods,
            max_states=max_states,
        )
        report.results.append(result)
        if shrink_disagreements:
            for disagreement in result.disagreements:
                report.shrunk.append(
                    shrink(generated, disagreement, max_states=max_states)
                )
    return report


# ---------------------------------------------------------------------------
# Shrinking: a disagreement is only useful once it is minimal
# ---------------------------------------------------------------------------

@dataclass
class ShrunkCounterexample:
    """A disagreement reduced to a minimal design still exhibiting it."""

    disagreement: Disagreement
    components: Tuple[NormalizedProcess, ...]
    removed_components: int
    removed_equations: int

    def sources(self) -> List[str]:
        """The minimal counterexample as re-parseable Signal source texts."""
        from repro.lang.printer import format_normalized_source

        return [format_normalized_source(component) for component in self.components]


class _ShrinkTimeout(Exception):
    """A candidate blew its verification budget during shrinking."""


#: interval of the repeated alarm once a candidate's budget is spent
_REARM_SECONDS = 0.05


@contextmanager
def _time_limit(seconds: Optional[float]) -> Iterator[None]:
    """Abort the block with :class:`_ShrinkTimeout` after ``seconds``.

    Dropping an equation can produce a degenerate process whose reaction
    enumeration explodes (an unconstrained signal multiplies every state's
    successor set), so candidate checks need a wall-clock budget, not just
    a state bound.  SIGALRM-based: active only on platforms that have it
    and in the main thread; elsewhere the block runs unbounded.  Once the
    budget is spent the alarm repeats every :data:`_REARM_SECONDS` until the
    block exits: Python drops an exception raised while a garbage-collector
    callback or a finalizer runs ("Exception ignored in ..."), and a
    one-shot alarm landing there would leave the candidate unbounded.
    """
    usable = (
        seconds is not None
        and hasattr(_signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    armed = True

    def _raise(signum, frame):  # pragma: no cover - timing dependent
        if armed:
            raise _ShrinkTimeout()

    previous = _signal.signal(_signal.SIGALRM, _raise)
    _signal.setitimer(_signal.ITIMER_REAL, float(seconds), _REARM_SECONDS)
    try:
        yield
    finally:
        # first, so a repeat landing during this clean-up cannot escape it
        armed = False
        _signal.setitimer(_signal.ITIMER_REAL, 0.0)
        _signal.signal(_signal.SIGALRM, previous)


def _still_disagrees(
    components: Sequence[NormalizedProcess],
    disagreement: Disagreement,
    max_states: int,
    candidate_timeout: Optional[float] = 5.0,
) -> bool:
    """Does the reduced component list still violate the same contract item?

    A reduced candidate that crashes an engine (dangling signal, empty
    process) or blows the verification budget does not *reproduce* the
    disagreement — treat it as a failed shrink step, never as a success.
    """
    if not components:
        return False
    from repro.api.session import Design

    try:
        with _time_limit(candidate_timeout):
            design = Design(name="shrink", components=list(components))
            row = {
                method: bool(
                    design.verify(
                        disagreement.prop, method=method, max_states=max_states
                    ).holds
                )
                for method in disagreement.methods
            }
    except Exception:
        return False
    if disagreement.kind == "implication":
        weaker, stronger = disagreement.methods
        return row[weaker] and not row[stronger]
    return len(set(row.values())) > 1


def _drop_equation(
    component: NormalizedProcess, index: int
) -> Optional[NormalizedProcess]:
    """``component`` without equation ``index`` (interface preserved)."""
    equations = list(component.equations)
    if not (0 <= index < len(equations)) or len(equations) <= 1:
        return None
    del equations[index]
    return NormalizedProcess(
        name=component.name,
        inputs=component.inputs,
        outputs=component.outputs,
        locals=component.locals,
        equations=tuple(equations),
        types=dict(component.types),
    )


def shrink(
    generated: GeneratedDesign,
    disagreement: Disagreement,
    max_states: int = 256,
    candidate_timeout: Optional[float] = 5.0,
) -> ShrunkCounterexample:
    """Greedily minimize a disagreeing design.

    Two passes to fixpoint: delete whole components (the coarse axis — a
    disagreement rarely needs every component of a crossbar), then delete
    individual equations inside the surviving components (the fine axis).
    Every candidate is re-checked with :func:`_still_disagrees`; a step
    that loses the disagreement — or times out (see :func:`_time_limit`) —
    is rolled back.  Greedy one-at-a-time deletion is quadratic in the
    worst case but the generated designs are small (≤ ~10 components) and
    each candidate check is budgeted.
    """
    components: List[NormalizedProcess] = list(generated.components)
    removed_components = 0
    removed_equations = 0

    changed = True
    while changed and len(components) > 1:
        changed = False
        for index in range(len(components) - 1, -1, -1):
            candidate = components[:index] + components[index + 1:]
            if _still_disagrees(candidate, disagreement, max_states, candidate_timeout):
                components = candidate
                removed_components += 1
                changed = True

    changed = True
    while changed:
        changed = False
        for c_index in range(len(components)):
            e_index = len(components[c_index].equations) - 1
            while e_index >= 0:
                reduced = _drop_equation(components[c_index], e_index)
                if reduced is not None:
                    candidate = list(components)
                    candidate[c_index] = reduced
                    if _still_disagrees(candidate, disagreement, max_states, candidate_timeout):
                        components = candidate
                        removed_equations += 1
                        changed = True
                e_index -= 1

    return ShrunkCounterexample(
        disagreement=replace(disagreement, design_name=f"{generated.name}_min"),
        components=tuple(components),
        removed_components=removed_components,
        removed_equations=removed_equations,
    )
