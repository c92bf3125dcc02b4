"""Per-layer attribution, measured from outside the program.

A :class:`LayerTracer` wraps public entry points of the ``repro`` modules
(one wrapper per boundary, installed by :meth:`LayerTracer.install` and
removed by :meth:`LayerTracer.uninstall`) and keeps one span stack.  A
span's *self time* is its duration minus the time of the spans nested in
it, so the self times of all layers partition the time covered by the
outermost spans; whatever the traced round spends outside every span is
reported as ``unattributed_ms``.

The stack is shared by all threads: the workloads drive one request at a
time, so a span opened in a worker thread (a store read in the default
executor, a computation on the service's backend thread) nests under the
span of the caller that is awaiting it.

Recording happens only while :attr:`LayerTracer.active` is set, so the
answer checks that run between timed operations add no span time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: layer name -> per_layer metric carrying its self time
SELF_TIME_METRICS: Dict[str, str] = {
    "lang.normalize": "lang.normalize_ms",
    "lang.digest": "lang.digest_ms",
    "clocks.analysis": "clocks.analysis_ms",
    "sched.graph": "sched.graph_ms",
    "properties.criterion": "properties.criterion_ms",
    "properties.check": "properties.check_ms",
    "api.verify": "api.verify_ms",
    "mc.compile": "mc.compile_ms",
    "mc.explore": "mc.explore_ms",
    "bdd.sift": "bdd.sift_ms",
    "store.get": "store.get_ms",
    "store.put": "store.put_ms",
    "scheduler": "scheduler.self_ms",
    "codegen.compile": "codegen.compile_ms",
    "codegen.scalar_run": "codegen.scalar_run_ms",
    "codegen.fleet_run": "codegen.fleet_run_ms",
}


def _boundary(owner, attribute: str):
    """``owner``'s own ``attribute``, which a layer boundary wraps.

    A boundary the program no longer has is an error: skipping it would
    move its layer's time into the enclosing span, and no run would show."""
    try:
        return owner.__dict__[attribute]
    except KeyError:
        raise AttributeError(
            f"layer boundary {owner.__name__}.{attribute} is gone; update perfbench/layers.py"
        ) from None


class LayerTracer:
    """Span stack plus per-layer self time, call counts and hook data."""

    def __init__(self) -> None:
        self.active = False
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.inclusive_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: (nodes before, nodes after) of every sift
        self.sifts: List[Tuple[int, int]] = []
        #: compiled step relations and on-the-fly checkers built while active
        self.compiled: List[object] = []
        self.checkers: List[object] = []
        #: (runtime, seconds) of every Design.compile
        self.compiles: List[Tuple[str, float]] = []
        self._stack: List[List] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------------
    def _open(self, layer: str) -> List:
        frame = [layer, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, frame: List) -> float:
        elapsed = time.perf_counter() - frame[2]
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index] is frame:
                del self._stack[index]
                break
        layer = frame[0]
        self.self_seconds[layer] += elapsed - frame[1]
        self.calls[layer] += 1
        if all(open_frame[0] != layer for open_frame in self._stack):
            self.inclusive_seconds[layer] += elapsed
        if self._stack:
            self._stack[-1][1] += elapsed
        return elapsed

    def span(self, layer: str, function: Callable, after: Optional[Callable] = None):
        """``function`` wrapped in a span of ``layer`` (coroutines too).

        ``after(result, args, kwargs, seconds)`` runs once the span closed,
        for hooks that keep results or timings for later counting."""
        tracer = self

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def traced_coroutine(*args, **kwargs):
                if not tracer.active:
                    return await function(*args, **kwargs)
                frame = tracer._open(layer)
                try:
                    return await function(*args, **kwargs)
                finally:
                    tracer._close(frame)

            return traced_coroutine

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            frame = tracer._open(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                seconds = tracer._close(frame)
            if after is not None:
                after(result, args, kwargs, seconds)
            return result

        return traced

    # -- patching ------------------------------------------------------------------
    def patch(self, owner, attribute: str, layer: str, after: Optional[Callable] = None):
        """Wrap ``owner.attribute`` in a span of ``layer``."""
        original = _boundary(owner, attribute)
        if isinstance(original, classmethod):
            replacement = classmethod(self.span(layer, original.__func__, after))
        elif isinstance(original, property):
            replacement = property(self.span(layer, original.fget, after))
        else:
            replacement = self.span(layer, original, after)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def patch_sift(self, owner) -> None:
        """Time ``sift`` and record the manager size before and after it."""
        original = _boundary(owner, "sift")
        tracer = self

        @functools.wraps(original)
        def sift(manager, keep, *args, **kwargs):
            if not tracer.active:
                return original(manager, keep, *args, **kwargs)
            before = manager.size()
            frame = tracer._open("bdd.sift")
            try:
                result = original(manager, keep, *args, **kwargs)
            finally:
                tracer._close(frame)
            tracer.sifts.append((before, manager.size()))
            return result

        owner.sift = sift
        self._patches.append((owner, "sift", original))

    def install(self) -> None:
        """Wrap the layer boundaries of every ``repro`` module the workloads use."""
        from repro.api import backends, deploy, session
        from repro.bdd import array_backend, bdd
        from repro.mc import compiled, onthefly, symbolic
        from repro.properties.compilable import ProcessAnalysis
        from repro.service import registry, scheduler, store

        context = session.AnalysisContext
        self.patch(context, "normalized", "lang.normalize")
        for name in ("digest_of", "fingerprint_of", "canonical_form_of", "design_digest"):
            self.patch(context, name, "lang.digest")
        self.patch(session.Design, "digest", "lang.digest")
        self.patch(registry.DesignRegistry, "register", "lang.digest")
        self.patch(context, "analysis", "clocks.analysis")
        self.patch(context, "hierarchy", "clocks.analysis")
        # a ProcessAnalysis computes its artefacts lazily, on first access
        for name in ("relations", "algebra", "hierarchy", "disjunctive"):
            self.patch(ProcessAnalysis, name, "clocks.analysis")
        for name in ("scheduling_graph", "reinforced_graph"):
            self.patch(ProcessAnalysis, name, "sched.graph")
        self.patch(session, "check_weakly_hierarchic", "properties.criterion")
        self.patch(backends, "verify_weakly_hierarchic", "properties.criterion")
        self.patch(backends, "verify", "properties.check")
        self.patch(session.Design, "verify", "api.verify")
        self.patch(
            compiled.CompiledAbstraction,
            "try_compile",
            "mc.compile",
            after=lambda result, args, kwargs, seconds: self.compiled.append(result),
        )
        self.patch(session, "build_lts", "mc.explore")
        self.patch(onthefly.OnTheFlyChecker, "transitions_from", "mc.explore")
        self.patch(
            onthefly.OnTheFlyChecker,
            "__init__",
            "mc.explore",
            after=lambda result, args, kwargs, seconds: self.checkers.append(args[0]),
        )
        for name in ("__init__", "reachable_states", "check_invariant",
                     "check_reaction_invariant"):
            self.patch(symbolic.SymbolicChecker, name, "mc.explore")
        for name in ("__init__", "reachable_states", "is_non_blocking"):
            self.patch(symbolic.SymbolicProductChecker, name, "mc.explore")
        self.patch_sift(bdd.BDDManager)
        for manager in (bdd.BDDManager, array_backend.ArrayBackend):
            self.patch(manager, "reorder", "bdd.sift")
        self.patch(store.ArtifactStore, "get", "store.get")
        self.patch(store.ArtifactStore, "put", "store.put")
        self.patch(scheduler.VerificationService, "verify", "scheduler")
        self.patch(scheduler.VerificationService, "register", "scheduler")
        self.patch(
            session.Design,
            "compile",
            "codegen.compile",
            after=lambda result, args, kwargs, seconds: self.compiles.append(
                (getattr(result, "runtime", "?"), seconds)
            ),
        )
        self.patch(deploy.Deployment, "run", "codegen.scalar_run")
        self.patch(deploy.BatchedDeployment, "run_many", "codegen.fleet_run")

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reporting -----------------------------------------------------------------
    def self_time_ms(self) -> Dict[str, float]:
        """Every layer's self time in ms, keyed by its per_layer metric name."""
        return {
            metric: self.self_seconds.get(layer, 0.0) * 1000.0
            for layer, metric in SELF_TIME_METRICS.items()
        }

    def sift_shrink_ratio(self) -> float:
        """Total manager size before the sifts over the total after them."""
        after = sum(size for _before, size in self.sifts)
        return sum(size for size, _after in self.sifts) / after if after else 0.0

    def relation_nodes(self) -> int:
        return sum(result.bdd_nodes() for result in self.compiled if result is not None)

    def states(self) -> int:
        return sum(checker.states_discovered for checker in self.checkers)
