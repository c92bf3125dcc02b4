"""repro — compositional design of isochronous systems.

A Python reproduction of "Compositional design of isochronous systems"
(Talpin, Ouy, Besnard, Le Guernic — DATE 2008 / INRIA RR-6227): the Signal
language and its polychronous model of computation, the clock calculus of
Polychrony (clock hierarchy, disjunctive form, scheduling graph), the formal
properties of the paper (endochrony, weak endochrony, isochrony,
non-blocking), the static *weakly hierarchic* compositional criterion of
Definition 12 / Theorem 1, and the sequential, controlled and concurrent code
generation schemes of Sections 3.6 and 5.

The primary public API is the :class:`Design` session facade of
:mod:`repro.api` — one entry point for the paper's whole pipeline
(analyze → verify → compile → deploy), with every analysis artefact shared
and memoized across components and queries::

    from repro import Design, signal, const

    design = Design.from_source(
        '''
        process filter (y) returns (x) {
          local z;
          x := true when (y /= z);
          z := y pre true;
        }
        '''
    )
    assert design.verify("endochrony")            # Verdict, truthy when it holds
    assert design.verify("weak-endochrony")       # static criterion (Theorem 1)
    deployment = design.compile("sequential")     # Section 3.6 step function
    flows = deployment.run({"y": [True, False, False, True]})

The historical flat entry points (``analyze``, ``check_weakly_hierarchic``,
``compile_process``, ...) remain importable below as a compatibility layer;
new code should go through :class:`Design`.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from repro.lang.ast import ProcessDefinition
from repro.lang.builder import (
    ProcessBuilder,
    SignalExpr,
    const,
    signal,
    tick,
    when_false,
    when_true,
)
from repro.lang.normalize import NormalizedProcess, normalize
from repro.lang.parser import parse_process, parse_program
from repro.lang.printer import format_normalized_process, format_process
from repro.lang.validate import ValidationError, validate_process
from repro.semantics.interpreter import ABSENT, TICK, SignalInterpreter
from repro.properties.compilable import ProcessAnalysis
from repro.properties.endochrony import is_endochronous, is_hierarchic, verify_endochrony
from repro.properties.weak_endochrony import (
    check_weak_endochrony,
    model_check_weak_endochrony,
    verify_weak_endochrony,
)
from repro.properties.isochrony import check_isochrony, verify_isochrony
from repro.properties.nonblocking import is_non_blocking, verify_non_blocking
from repro.properties.composition import (
    check_weakly_hierarchic,
    compose_and_check,
    verify_weakly_hierarchic,
)
from repro.codegen.specialized import CompiledProcess, compile_process
from repro.codegen.runtime import StreamIO, simulate
from repro.codegen.controller import ControlledComposition, synthesize_controller
from repro.codegen.concurrent import ConcurrentComposition, run_concurrent

# -- the session facade (primary API) -----------------------------------------
from repro.api.results import Cost, Diagnostic, Verdict
from repro.api.session import AnalysisContext, Design
from repro.api.session import analyze as _analyze
from repro.api.backends import VerificationError
from repro.api.deploy import Deployment, DeploymentError

__version__ = "1.1.0"

__all__ = [
    # session facade
    "Design",
    "AnalysisContext",
    "Verdict",
    "Diagnostic",
    "Cost",
    "Deployment",
    "DeploymentError",
    "VerificationError",
    "analyze",
    # language layer
    "ProcessBuilder",
    "SignalExpr",
    "signal",
    "const",
    "tick",
    "when_true",
    "when_false",
    "ProcessDefinition",
    "NormalizedProcess",
    "normalize",
    "parse_process",
    "parse_program",
    "format_process",
    "format_normalized_process",
    "validate_process",
    "ValidationError",
    # semantics
    "ABSENT",
    "TICK",
    "SignalInterpreter",
    # properties (compatibility layer; prefer Design.verify)
    "ProcessAnalysis",
    "is_endochronous",
    "is_hierarchic",
    "check_weak_endochrony",
    "model_check_weak_endochrony",
    "check_isochrony",
    "is_non_blocking",
    "check_weakly_hierarchic",
    "compose_and_check",
    "verify_endochrony",
    "verify_weak_endochrony",
    "verify_isochrony",
    "verify_non_blocking",
    "verify_weakly_hierarchic",
    # code generation (compatibility layer; prefer Design.compile)
    "CompiledProcess",
    "compile_process",
    "StreamIO",
    "simulate",
    "ControlledComposition",
    "synthesize_controller",
    "ConcurrentComposition",
    "run_concurrent",
]


def analyze(
    process: Union[ProcessDefinition, NormalizedProcess, ProcessBuilder, str],
    registry: Optional[Mapping[str, ProcessDefinition]] = None,
    *,
    context: Optional[AnalysisContext] = None,
) -> ProcessAnalysis:
    """Analyse a process: normalize it (if needed) and build its analysis pipeline.

    This is the single canonical code path (also behind the deprecated
    ``ProcessAnalysis.of``); pass an :class:`AnalysisContext` — or use a
    :class:`Design` session — to memoize the work and share one BDD manager
    across repeated analyses.
    """
    return _analyze(process, registry, context=context)
