"""Sequential code generation (Sections 3.6 and 5.1).

For an endochronous (compilable and hierarchic) process, the generator
schedules a *step function*: one call computes one reaction, reading the
inputs that the clock calculus proves are needed and writing the outputs that
are present, exactly like the ``buffer_iterate`` transition function of the
paper.  The schedule is a :class:`StepProgram`, a flat stream of
:class:`StepOp`; every artefact is rendered from it:

* :func:`render_c` prints the C-like listing that mirrors the paper's
  figures, for documentation and inspection;
* :mod:`repro.codegen.specialized` exec-compiles it into the default
  execution tier and walks it in the per-op reference interpreter;
* :mod:`repro.codegen.batch` compiles it into a numpy fleet kernel.

For a process whose hierarchy has several roots the generator can either
refuse (the default — the compositional scheme of Section 5.2 should be used
instead) or reproduce Polychrony's *current scheme* (Section 5.1): add one
synchronized master-clock input per root (the ``C_a`` / ``C_b`` booleans of
the paper's ``main_iterate``) and rely on the environment to drive them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.lang.ast import (
    ClockBinary,
    ClockEmpty,
    ClockExpressionSyntax,
    ClockFalse,
    ClockOf,
    ClockTrue,
    Const,
)
from repro.lang.normalize import (
    DelayEquation,
    FunctionEquation,
    MergeEquation,
    NormalizedProcess,
    SamplingEquation,
)
from repro.properties.compilable import ProcessAnalysis


class CodeGenerationError(Exception):
    """Raised when a process cannot be compiled by the sequential scheme."""


Slot = Tuple[str, str]  # ("p", signal) or ("v", signal)

_PYTHON_OPERATORS = {
    "+": "({0} + {1})",
    "-": "({0} - {1})",
    "*": "({0} * {1})",
    "/": "({0} / {1})",
    "and": "({0} and {1})",
    "or": "({0} or {1})",
    "xor": "({0} != {1})",
    "=": "({0} == {1})",
    "/=": "({0} != {1})",
    "<": "({0} < {1})",
    "<=": "({0} <= {1})",
    ">": "({0} > {1})",
    ">=": "({0} >= {1})",
}

_PYTHON_UNARY = {
    "not": "(not {0})",
    "-": "(-{0})",
    "id": "{0}",
}

_C_OPERATORS = {
    "+": "({0} + {1})",
    "-": "({0} - {1})",
    "*": "({0} * {1})",
    "/": "({0} / {1})",
    "and": "({0} && {1})",
    "or": "({0} || {1})",
    "xor": "({0} != {1})",
    "=": "({0} == {1})",
    "/=": "({0} != {1})",
    "<": "({0} < {1})",
    "<=": "({0} <= {1})",
    ">": "({0} > {1})",
    ">=": "({0} >= {1})",
}

_C_UNARY = {
    "not": "(!{0})",
    "-": "(-{0})",
    "id": "{0}",
}

# numpy-elementwise renderings of the same operators, used by the batch
# runtime (:mod:`repro.codegen.batch`).  ``None`` marks an operator outside
# the vectorizable fragment: ``*`` and ``/`` are excluded so the int64 lanes
# grow at most additively per step, which makes the batch runtime's overflow
# guard sound (see ``StepOp.guard``).
_ARRAY_OPERATORS = {
    "+": "({0} + {1})",
    "-": "({0} - {1})",
    "*": None,
    "/": None,
    "and": "({0} & {1})",
    "or": "({0} | {1})",
    "xor": "({0} != {1})",
    "=": "({0} == {1})",
    "/=": "({0} != {1})",
    "<": "({0} < {1})",
    "<=": "({0} <= {1})",
    ">": "({0} > {1})",
    ">=": "({0} >= {1})",
}

_ARRAY_UNARY = {
    "not": "(~{0})",
    "-": "(-{0})",
    "id": "{0}",
}


def _presence_var(name: str) -> str:
    return f"p_{name}"


def _value_var(name: str) -> str:
    return f"v_{name}"


def _python_constant(value: object) -> str:
    return repr(value)


def _c_constant(value: object) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    return repr(value)


@dataclass(frozen=True)
class StepOp:
    """One semantic operation of a step function, in schedule order.

    The C listing (:func:`render_c`), the exec-compiled and interpreted
    tiers of :mod:`repro.codegen.specialized` and the batch runtime of
    :mod:`repro.codegen.batch` are all renderings of this stream.  Kinds:

    * ``"master_read"`` — unconditionally read the master-clock input ``target``;
    * ``"presence"`` — ``p_<target> = py_expr``;
    * ``"read"`` — if present, read input ``target`` from the environment;
    * ``"delay"`` — if present, ``v_<target>`` is the delay register ``register``;
    * ``"compute"`` — if present, ``v_<target> = py_expr``;
    * ``"write"`` — if present, emit ``v_<target>`` to the environment;
    * ``"update"`` — if ``source`` is present, store ``v_<source>`` into
      ``register``.

    ``c_expr`` is the C rendering of a presence or compute expression;
    ``array_expr`` is the numpy-elementwise rendering (``None`` when the
    expression falls outside the vectorizable fragment); ``guard`` marks
    numeric computations whose magnitude can grow (``+`` / ``-``), which the
    batch runtime bounds with an overflow check.
    """

    kind: str
    target: str
    py_expr: Optional[str] = None
    array_expr: Optional[str] = None
    register: Optional[str] = None
    source: Optional[str] = None
    guard: bool = False
    c_expr: Optional[str] = None


@dataclass(frozen=True)
class StepProgram:
    """The scheduled semantic program of one process's step function."""

    process: NormalizedProcess
    ops: Tuple[StepOp, ...]
    initial_state: Dict[str, object]
    master_clock_inputs: Tuple[str, ...]

    @property
    def types(self) -> Dict[str, str]:
        return self.process.types

    @property
    def inputs(self) -> Tuple[str, ...]:
        return tuple(self.process.inputs) + self.master_clock_inputs

    @property
    def outputs(self) -> Tuple[str, ...]:
        return tuple(self.process.outputs)


@dataclass
class _Statement:
    """One schedulable op and the slots it depends on."""

    slot: Slot
    op: StepOp
    dependencies: Set[Slot] = field(default_factory=set)


class _Generator:
    """Schedules the op stream of the step function for one process."""

    def __init__(self, analysis: ProcessAnalysis, master_clocks: bool):
        self.analysis = analysis
        self.process = analysis.process
        self.master_clocks = master_clocks
        self.master_clock_inputs: List[str] = []
        self._root_signals: Set[str] = set()
        self._root_of_signal: Dict[str, str] = {}
        self._defined_by: Dict[str, object] = {}
        for equation in self.process.equations:
            target = equation.defined_signal()
            if target is not None:
                self._defined_by[target] = equation
        self._compute_roots()

    # -- roots and master clocks ---------------------------------------------------
    def _compute_roots(self) -> None:
        hierarchy = self.analysis.hierarchy
        roots = hierarchy.roots()
        if len(roots) > 1 and not self.master_clocks:
            raise CodeGenerationError(
                f"process {self.process.name!r} has {len(roots)} hierarchy roots; "
                "sequential code generation requires endochrony — use the controller "
                "scheme of Section 5.2 or enable master_clocks to reproduce the "
                "paper's Section 5.1 scheme"
            )
        for root in roots:
            signals = root.signal_clocks()
            if not signals:
                continue
            representative = signals[0]
            for name in signals:
                self._root_signals.add(name)
                self._root_of_signal[name] = representative
        if len(roots) > 1:
            self.master_clock_inputs = [
                f"C_{root.signal_clocks()[0]}" for root in roots if root.signal_clocks()
            ]

    # -- clock expression translation --------------------------------------------------
    def _clock_expr(
        self, expression: ClockExpressionSyntax
    ) -> Tuple[str, str, str, Set[Slot]]:
        """Translate a clock expression into (python, c, array, dependencies)."""
        if isinstance(expression, ClockEmpty):
            return "False", "FALSE", "_zeros", set()
        if isinstance(expression, ClockOf):
            name = expression.name
            return _presence_var(name), f"C_{name}", _presence_var(name), {("p", name)}
        if isinstance(expression, (ClockTrue, ClockFalse)):
            name = expression.name
            deps = {("p", name), ("v", name)}
            if isinstance(expression, ClockTrue):
                return (
                    f"({_presence_var(name)} and {_value_var(name)})",
                    f"(C_{name} && {name})",
                    f"({_presence_var(name)} & {_value_var(name)})",
                    deps,
                )
            return (
                f"({_presence_var(name)} and not {_value_var(name)})",
                f"(C_{name} && !{name})",
                f"({_presence_var(name)} & ~{_value_var(name)})",
                deps,
            )
        if isinstance(expression, ClockBinary):
            left_py, left_c, left_np, left_deps = self._clock_expr(expression.left)
            right_py, right_c, right_np, right_deps = self._clock_expr(expression.right)
            deps = left_deps | right_deps
            if expression.operator == "and":
                return (
                    f"({left_py} and {right_py})",
                    f"({left_c} && {right_c})",
                    f"({left_np} & {right_np})",
                    deps,
                )
            if expression.operator == "or":
                return (
                    f"({left_py} or {right_py})",
                    f"({left_c} || {right_c})",
                    f"({left_np} | {right_np})",
                    deps,
                )
            return (
                f"({left_py} and not {right_py})",
                f"({left_c} && !{right_c})",
                f"({left_np} & ~{right_np})",
                deps,
            )
        raise CodeGenerationError(f"unsupported clock expression {expression!r}")

    # -- presence candidates ----------------------------------------------------------
    def _presence_candidates(self, name: str) -> List[_Statement]:
        """The candidate ways of computing ``p_<name>``, in order of preference."""
        candidates: List[_Statement] = []

        def candidate(py_expr: str, c_expr: str, array_expr: str, deps: Set[Slot]) -> None:
            op = StepOp(
                kind="presence",
                target=name,
                py_expr=py_expr,
                array_expr=array_expr,
                c_expr=c_expr,
            )
            candidates.append(_Statement(("p", name), op, deps))

        # 1. explicit clock relations (in disjunctive form)
        for relation in self.analysis.disjunctive.relations.clock_relations:
            for own, other in ((relation.left, relation.right), (relation.right, relation.left)):
                if isinstance(own, ClockOf) and own.name == name:
                    if name in other.free_signals():
                        continue
                    python_expr, c_expr, array_expr, deps = self._clock_expr(other)
                    candidate(python_expr, c_expr, array_expr, deps)
        # 2. the defining equation
        equation = self._defined_by.get(name)
        if isinstance(equation, FunctionEquation):
            signal_operands = [op for op in equation.operands if isinstance(op, str)]
            if signal_operands:
                source = signal_operands[0]
                presence = _presence_var(source)
                candidate(presence, f"C_{source}", presence, {("p", source)})
        elif isinstance(equation, DelayEquation):
            presence = _presence_var(equation.source)
            candidate(presence, f"C_{equation.source}", presence, {("p", equation.source)})
        elif isinstance(equation, SamplingEquation):
            condition = equation.condition
            deps = {("p", condition), ("v", condition)}
            python_expr = f"({_presence_var(condition)} and {_value_var(condition)})"
            c_expr = f"(C_{condition} && {condition})"
            array_expr = f"({_presence_var(condition)} & {_value_var(condition)})"
            if isinstance(equation.source, str):
                deps.add(("p", equation.source))
                python_expr = f"({_presence_var(equation.source)} and {python_expr})"
                c_expr = f"(C_{equation.source} && {c_expr})"
                array_expr = f"({_presence_var(equation.source)} & {array_expr})"
            candidate(python_expr, c_expr, array_expr, deps)
        elif isinstance(equation, MergeEquation):
            preferred = _presence_var(equation.preferred)
            alternative = _presence_var(equation.alternative)
            candidate(
                f"({preferred} or {alternative})",
                f"(C_{equation.preferred} || C_{equation.alternative})",
                f"({preferred} | {alternative})",
                {("p", equation.preferred), ("p", equation.alternative)},
            )
        # 3. root activation
        if name in self._root_signals:
            if self.master_clocks and len(self.master_clock_inputs) > 0:
                master = f"C_{self._root_of_signal[name]}"
                candidate(
                    f"bool({_value_var(master)})", master, _value_var(master), {("v", master)}
                )
            else:
                candidate("True", "TRUE", "_ones", set())
        return candidates

    # -- value statements --------------------------------------------------------------
    def _operand_python(self, operand: Union[str, Const]) -> Tuple[str, Set[Slot]]:
        if isinstance(operand, Const):
            return _python_constant(operand.value), set()
        return _value_var(operand), {("v", operand)}

    def _operand_c(self, operand: Union[str, Const]) -> str:
        if isinstance(operand, Const):
            return _c_constant(operand.value)
        return operand

    def _value_statement(self, name: str) -> Optional[_Statement]:
        equation = self._defined_by.get(name)
        deps: Set[Slot] = {("p", name)}

        if equation is None:
            if name in self.process.inputs:
                return _Statement(("v", name), StepOp(kind="read", target=name), deps)
            return None
        if isinstance(equation, DelayEquation):
            op = StepOp(kind="delay", target=name, register=name)
            return _Statement(("v", name), op, deps)

        expr_array: Optional[str] = None
        guard = False
        if isinstance(equation, FunctionEquation):
            rendered_py: List[str] = []
            rendered_c: List[str] = []
            for operand in equation.operands:
                py, operand_deps = self._operand_python(operand)
                rendered_py.append(py)
                rendered_c.append(self._operand_c(operand))
                deps |= operand_deps
            if equation.operator in _PYTHON_UNARY and len(rendered_py) == 1:
                expr_py = _PYTHON_UNARY[equation.operator].format(rendered_py[0])
                expr_c = _C_UNARY[equation.operator].format(rendered_c[0])
                template = _ARRAY_UNARY.get(equation.operator)
            elif equation.operator in _PYTHON_OPERATORS and len(rendered_py) == 2:
                expr_py = _PYTHON_OPERATORS[equation.operator].format(*rendered_py)
                expr_c = _C_OPERATORS[equation.operator].format(*rendered_c)
                template = _ARRAY_OPERATORS.get(equation.operator)
            else:
                raise CodeGenerationError(
                    f"unsupported operator {equation.operator!r} in equation for {name!r}"
                )
            if template is not None:
                # the python operand rendering (v_<x> / repr(const)) is also
                # valid elementwise, so the array expression reuses it
                expr_array = template.format(*rendered_py)
                guard = equation.operator in ("+", "-")
        elif isinstance(equation, SamplingEquation):
            expr_py, source_deps = self._operand_python(equation.source)
            expr_c = self._operand_c(equation.source)
            deps |= source_deps
            expr_array = expr_py
        elif isinstance(equation, MergeEquation):
            expr_py = (
                f"({_value_var(equation.preferred)} if {_presence_var(equation.preferred)} "
                f"else {_value_var(equation.alternative)})"
            )
            expr_c = f"(C_{equation.preferred} ? {equation.preferred} : {equation.alternative})"
            expr_array = (
                f"_where({_presence_var(equation.preferred)}, "
                f"{_value_var(equation.preferred)}, {_value_var(equation.alternative)})"
            )
            deps |= {
                ("p", equation.preferred),
                ("v", equation.preferred),
                ("v", equation.alternative),
            }
        else:
            raise CodeGenerationError(f"unsupported equation {equation!r}")

        op = StepOp(
            kind="compute",
            target=name,
            py_expr=expr_py,
            array_expr=expr_array,
            guard=guard,
            c_expr=expr_c,
        )
        return _Statement(("v", name), op, deps)

    # Merge value dependencies are conditional: when the preferred operand is
    # absent its value is not read, so the hard dependency is only on its
    # presence.  The resolver treats conditional value dependencies as soft.
    def _soften(self, statement: _Statement) -> Set[Slot]:
        equation = self._defined_by.get(statement.slot[1])
        if isinstance(equation, MergeEquation):
            return {("v", equation.preferred), ("v", equation.alternative)}
        return set()

    # -- assembly ----------------------------------------------------------------------
    def schedule(self) -> List[_Statement]:
        """Order the presence and value statements by their dependencies."""
        signals = self.process.all_signals()
        statements: Dict[Slot, _Statement] = {}
        candidates: Dict[Slot, List[_Statement]] = {}

        for master in self.master_clock_inputs:
            slot = ("v", master)
            statements[slot] = _Statement(slot, StepOp(kind="master_read", target=master))

        for name in signals:
            candidates[("p", name)] = self._presence_candidates(name)
            value_statement = self._value_statement(name)
            if value_statement is not None:
                statements[("v", name)] = value_statement

        # Greedy resolution: repeatedly emit any slot whose dependencies are met.
        resolved: Set[Slot] = set()
        order: List[_Statement] = []
        pending_presence = {("p", name) for name in signals}
        pending_values = set(statements.keys())

        def try_resolve_presence() -> bool:
            for slot in sorted(pending_presence):
                for candidate in candidates[slot]:
                    if candidate.dependencies <= resolved:
                        order.append(candidate)
                        resolved.add(slot)
                        pending_presence.discard(slot)
                        return True
            return False

        def try_resolve_value() -> bool:
            for slot in sorted(pending_values):
                statement = statements[slot]
                hard = statement.dependencies - self._soften(statement)
                soft = statement.dependencies & self._soften(statement)
                soft_ready = all(dependency in resolved or dependency in pending_never for dependency in soft)
                if hard <= resolved and soft_ready:
                    order.append(statement)
                    resolved.add(slot)
                    pending_values.discard(slot)
                    return True
            return False

        # Slots that will never be produced (e.g. values of signals that are
        # neither inputs nor defined — they can only be absent).
        pending_never: Set[Slot] = {
            ("v", name) for name in signals if ("v", name) not in statements
        }

        while pending_presence or pending_values:
            if try_resolve_presence():
                continue
            if try_resolve_value():
                continue
            unresolved = sorted(pending_presence | pending_values)
            raise CodeGenerationError(
                f"cannot order the computations of {self.process.name!r}; "
                f"unresolved slots: {unresolved[:8]}"
            )
        return order

    def program(self) -> StepProgram:
        """The full op stream: the scheduled statements, then the output
        writes, then the delay-register updates."""
        ops: List[StepOp] = [statement.op for statement in self.schedule()]
        ops.extend(StepOp(kind="write", target=name) for name in self.process.outputs)
        initial: Dict[str, object] = {}
        for equation in self.process.equations:
            if isinstance(equation, DelayEquation):
                initial[equation.target] = equation.initial
                ops.append(
                    StepOp(
                        kind="update",
                        target=equation.target,
                        register=equation.target,
                        source=equation.source,
                    )
                )
        return StepProgram(
            process=self.process,
            ops=tuple(ops),
            initial_state=initial,
            master_clock_inputs=tuple(self.master_clock_inputs),
        )


def build_step_program(
    process: Union[NormalizedProcess, ProcessAnalysis],
    master_clocks: bool = False,
    check_compilable: bool = True,
) -> StepProgram:
    """Schedule the :class:`StepProgram` of a process.

    ``master_clocks=True`` reproduces the *current scheme* of Section 5.1 for
    multi-rooted processes: one boolean master-clock input ``C_<root>`` per
    hierarchy root is added to the interface and read at every step.
    """
    analysis = process if isinstance(process, ProcessAnalysis) else ProcessAnalysis(process)
    if check_compilable and not analysis.is_compilable():
        raise CodeGenerationError(
            f"process {analysis.process.name!r} is not compilable "
            f"(well_clocked={analysis.is_well_clocked()}, acyclic={analysis.is_acyclic()})"
        )
    return _Generator(analysis, master_clocks).program()


def render_c(program: StepProgram) -> str:
    """The C-like listing of a step program, in the style of the paper's figures."""
    name = program.process.name
    lines: List[str] = [f"bool {name}_iterate() {{"]
    for op in program.ops:
        target = op.target
        if op.kind == "master_read":
            lines.append(f"  if (!r_{name}_{target}(&{target})) return FALSE;")
        elif op.kind == "presence":
            lines.append(f"  C_{target} = {op.c_expr};")
        elif op.kind == "read":
            lines.append(f"  if (C_{target}) {{")
            lines.append(f"    if (!r_{name}_{target}(&{target})) return FALSE;")
            lines.append("  }")
        elif op.kind == "compute":
            lines.append(f"  if (C_{target}) {target} = {op.c_expr};")
        elif op.kind == "write":
            lines.append(f"  if (C_{target}) w_{name}_{target}({target});")
        elif op.kind == "update":
            lines.append(f"  if (C_{op.source}) {op.register} = {op.source};")
        # a "delay" op reads the register in place: C needs no statement
    lines.append("  return TRUE;")
    lines.append("}")
    return "\n".join(lines) + "\n"
