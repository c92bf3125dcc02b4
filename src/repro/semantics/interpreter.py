"""Operational interpreter for normalized Signal processes.

One call to :meth:`SignalInterpreter.step` computes one *reaction*: given the
presence and values of (some of) the input signals, the interpreter solves
the presence and value of every signal of the process by propagating the
constraints of the primitive equations to a fixpoint, then commits the state
of the delay equations.

The propagation uses a three-valued presence domain (present / absent /
unknown).  When propagation reaches a fixpoint and some presences remain
unknown, the interpreter (optionally) completes the reaction by absence —
the behaviour expected of endochronous specifications, whose reactions are
fully determined by the signals already known to be present — and then
re-checks that every equation is satisfied.

Propagation plan.  Everything a reaction needs that depends only on the
process is computed once, when the interpreter is built: the signal tuple
(``all_signals()``), each equation's member tuple (the signals it defines
and reads), the *watchers* of every signal (the equations it is a member
of), and one propagation rule and one consistency rule per equation, chosen
by the equation's type (an unknown type raises :class:`TypeError` at
construction).  The process must therefore not be mutated once an
interpreter is built on it; no caller does — normalized processes are
built whole and composed into new objects.

Clean-equation skipping.  The fixpoint is chaotic iteration (Cousot &
Cousot, 1977): sweep the equations in order until a sweep changes nothing.
As in AC-3's worklist (Mackworth, 1977), an equation is *clean* once it has
been evaluated and none of its members has changed presence or value since;
every change (from an input, an assumption, a rule or the default-absent
completion) marks the changed signal's watchers dirty, and a sweep
evaluates only dirty equations.  A rule reads nothing but its own members
and the register snapshot, so re-evaluating a clean equation would change
nothing and raise nothing: the sequence of changes, the fixpoint, the
accepted reactions and the first :class:`ClockError` or
:class:`UnderdeterminedError` message are those of the unskipped sweep.
Rules that *settle* (a second evaluation right after their own changes is a
no-op, see ``_RULES``) are not re-marked by their own changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

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
    ClockEquation,
    DelayEquation,
    FunctionEquation,
    MergeEquation,
    NormalizedProcess,
    SamplingEquation,
)
from repro.mocc.reactions import Reaction


class _Absent:
    """Singleton marker for an explicitly absent input signal."""

    _instance: Optional["_Absent"] = None

    def __new__(cls) -> "_Absent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ABSENT"


#: pass ``ABSENT`` as an input value to state that the signal has no event.
ABSENT = _Absent()


class _Tick:
    """Singleton marker forcing a signal to be present without fixing its value."""

    _instance: Optional["_Tick"] = None

    def __new__(cls) -> "_Tick":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TICK"


#: pass ``TICK`` in ``assume`` to force a signal present, letting its value be computed.
TICK = _Tick()

#: three-valued presence domain
PRESENT = "present"
MISSING = "absent"
UNKNOWN = "unknown"


class ClockError(Exception):
    """Raised when an instant's constraints are contradictory (blocked reaction)."""


class UnderdeterminedError(Exception):
    """Raised when a reaction cannot be fully determined from the given inputs."""


@dataclass
class InstantResult:
    """The outcome of one reaction: presence, values, and the reaction object."""

    presence: Dict[str, bool]
    values: Dict[str, object]
    reaction: Reaction

    def is_silent(self) -> bool:
        return self.reaction.is_silent()

    def present(self, name: str) -> bool:
        return self.presence.get(name, False)

    def value(self, name: str) -> object:
        return self.values[name]


_OPERATORS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if isinstance(a, float) or isinstance(b, float) else a // b,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
    "xor": lambda a, b: bool(a) != bool(b),
    "=": lambda a, b: a == b,
    "/=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_UNARY_OPERATORS = {
    "not": lambda a: not a,
    "-": lambda a: -a,
    "id": lambda a: a,
}


def apply_operator(operator: str, values: Tuple[object, ...]) -> object:
    """Evaluate a functional operator on concrete values."""
    if len(values) == 1:
        if operator in _UNARY_OPERATORS:
            return _UNARY_OPERATORS[operator](values[0])
        if operator in _OPERATORS:
            raise ValueError(f"operator {operator!r} expects two operands")
    if len(values) == 2 and operator in _OPERATORS:
        return _OPERATORS[operator](values[0], values[1])
    raise ValueError(f"unsupported operator {operator!r} with {len(values)} operands")


class _PropagationPlan:
    """What every reaction of one process needs, computed once per interpreter.

    ``signals`` is ``process.all_signals()``; ``steps`` lists, in equation
    order, each equation's index, its propagation rule, the equation, its
    member tuple (the signals it defines and reads) and whether the rule
    settles (see ``_RULES``); ``watchers`` maps every
    signal to the indices of the equations it is a member of; ``checks``
    holds each equation's final consistency rule and defined signal;
    ``delays`` lists the delay equations in order.
    """

    __slots__ = ("signals", "steps", "watchers", "checks", "delays")

    def __init__(self, process: NormalizedProcess):
        self.signals: Tuple[str, ...] = process.all_signals()
        watchers: Dict[str, List[int]] = {name: [] for name in self.signals}
        steps = []
        checks = []
        for index, equation in enumerate(process.equations):
            propagate, check, settles = _rules_of(equation)
            members = equation.signals()
            if settles is _DISTINCT_MEMBERS:
                settles = len(set(members)) == len(members)
            steps.append((index, propagate, equation, members, settles))
            checks.append((check, equation, members, equation.defined_signal()))
            for name in dict.fromkeys(members):
                watchers[name].append(index)
        self.steps = tuple(steps)
        self.checks = tuple(checks)
        self.watchers: Dict[str, Tuple[int, ...]] = {
            name: tuple(indices) for name, indices in watchers.items()
        }
        self.delays: Tuple[DelayEquation, ...] = tuple(
            equation for equation in process.equations if isinstance(equation, DelayEquation)
        )


class _InstantSolver:
    """Constraint propagation for a single instant.

    An equation is *dirty* until it is evaluated and again as soon as one of
    its members changes presence or value; :meth:`propagate` evaluates only
    dirty equations (see the module docstring for why that is exact).
    """

    def __init__(self, plan: _PropagationPlan, state: Mapping[str, object]):
        self.plan = plan
        self.state = state
        self.presence: Dict[str, str] = dict.fromkeys(plan.signals, UNKNOWN)
        self.values: Dict[str, object] = {}
        self.watchers = plan.watchers
        self.dirty = bytearray(b"\x01") * len(plan.steps)

    # -- elementary updates -----------------------------------------------
    def touch(self, name: str) -> None:
        """Mark every equation that ``name`` is a member of for re-evaluation."""
        dirty = self.dirty
        for index in self.watchers[name]:
            dirty[index] = 1

    def set_presence(self, name: str, status: str) -> bool:
        current = self.presence[name]
        if current == status:
            return False
        if current != UNKNOWN:
            raise ClockError(
                f"signal {name!r} is both {current} and {status} in the same instant"
            )
        self.presence[name] = status
        self.touch(name)
        return True

    def set_value(self, name: str, value: object) -> bool:
        changed = self.set_presence(name, PRESENT)
        if name in self.values:
            if self.values[name] != value:
                raise ClockError(
                    f"signal {name!r} takes two different values "
                    f"({self.values[name]!r} and {value!r}) in the same instant"
                )
            return changed
        self.values[name] = value
        self.touch(name)
        return True

    def complete_by_absence(self) -> None:
        """Make every signal whose presence is still unknown absent."""
        for name, status in self.presence.items():
            if status == UNKNOWN:
                self.presence[name] = MISSING
                self.touch(name)

    # -- operand helpers ------------------------------------------------------
    def operand_presence(self, operand) -> str:
        if isinstance(operand, Const):
            return PRESENT
        return self.presence[operand]

    def operand_value(self, operand):
        if isinstance(operand, Const):
            return operand.value
        return self.values.get(operand)

    # -- clock expression evaluation (three-valued) -----------------------------
    def eval_clock(self, expression: ClockExpressionSyntax) -> Optional[bool]:
        """Evaluate a clock expression to True / False / None (unknown)."""
        if isinstance(expression, ClockEmpty):
            return False
        if isinstance(expression, ClockOf):
            status = self.presence[expression.name]
            if status == PRESENT:
                return True
            if status == MISSING:
                return False
            return None
        if isinstance(expression, (ClockTrue, ClockFalse)):
            status = self.presence[expression.name]
            if status == MISSING:
                return False
            if status == PRESENT:
                value = self.values.get(expression.name)
                if value is None:
                    return None
                truth = bool(value)
                return truth if isinstance(expression, ClockTrue) else not truth
            return None
        if isinstance(expression, ClockBinary):
            left = self.eval_clock(expression.left)
            right = self.eval_clock(expression.right)
            if expression.operator == "and":
                if left is False or right is False:
                    return False
                if left is True and right is True:
                    return True
                return None
            if expression.operator == "or":
                if left is True or right is True:
                    return True
                if left is False and right is False:
                    return False
                return None
            if expression.operator == "diff":
                if left is False:
                    return False
                if left is True and right is False:
                    return True
                if right is True:
                    return False
                return None
        raise TypeError(f"unsupported clock expression: {expression!r}")

    def force_clock(self, expression: ClockExpressionSyntax, truth: bool) -> bool:
        """Propagate a known truth value into an atomic clock expression."""
        changed = False
        if isinstance(expression, ClockOf):
            changed |= self.set_presence(expression.name, PRESENT if truth else MISSING)
        elif isinstance(expression, ClockTrue):
            if truth:
                changed |= self.set_value(expression.name, True)
            elif self.presence[expression.name] == PRESENT and self.values.get(
                expression.name
            ) is None:
                # present but [x] is false: the value must be false
                changed |= self.set_value(expression.name, False)
        elif isinstance(expression, ClockFalse):
            if truth:
                changed |= self.set_value(expression.name, False)
            elif self.presence[expression.name] == PRESENT and self.values.get(
                expression.name
            ) is None:
                changed |= self.set_value(expression.name, True)
        elif isinstance(expression, ClockBinary) and truth:
            if expression.operator == "and":
                changed |= self.force_clock(expression.left, True)
                changed |= self.force_clock(expression.right, True)
            elif expression.operator == "or":
                left = self.eval_clock(expression.left)
                right = self.eval_clock(expression.right)
                if left is False:
                    changed |= self.force_clock(expression.right, True)
                elif right is False:
                    changed |= self.force_clock(expression.left, True)
            elif expression.operator == "diff":
                changed |= self.force_clock(expression.left, True)
                changed |= self.force_clock(expression.right, False)
        elif isinstance(expression, ClockBinary) and not truth:
            if expression.operator == "or":
                changed |= self.force_clock(expression.left, False)
                changed |= self.force_clock(expression.right, False)
            elif expression.operator == "and":
                left = self.eval_clock(expression.left)
                right = self.eval_clock(expression.right)
                if left is True:
                    changed |= self.force_clock(expression.right, False)
                elif right is True:
                    changed |= self.force_clock(expression.left, False)
        return changed

    # -- equation propagation ------------------------------------------------
    # Each rule reads only the presence and values of the equation's members
    # and the register snapshot ``self.state``, and returns whether it
    # changed anything.

    def propagate_synchronous(self, equation, members) -> bool:
        """Functional and delay equations: all members share one clock."""
        presence = self.presence
        statuses = [presence[name] for name in members]
        if PRESENT in statuses:
            status = PRESENT
        elif MISSING in statuses:
            status = MISSING
        else:
            return False
        changed = False
        for name, current in zip(members, statuses):
            if current != status:
                # raises on the first member already of the other status
                changed |= self.set_presence(name, status)
        return changed

    def propagate_function(self, equation: FunctionEquation, members) -> bool:
        changed = self.propagate_synchronous(equation, members)
        if self.presence[equation.target] == PRESENT:
            operand_values = [self.operand_value(op) for op in equation.operands]
            if all(value is not None for value in operand_values):
                result = apply_operator(equation.operator, tuple(operand_values))
                changed |= self.set_value(equation.target, result)
        return changed

    def propagate_delay(self, equation: DelayEquation, members) -> bool:
        changed = self.propagate_synchronous(equation, members)
        if self.presence[equation.target] == PRESENT:
            changed |= self.set_value(equation.target, self.state[equation.target])
        return changed

    def propagate_sampling(self, equation: SamplingEquation, members) -> bool:
        changed = False
        condition = equation.condition
        condition_status = self.presence[condition]
        condition_value = self.values.get(condition)
        source_status = self.operand_presence(equation.source)
        # downward: condition absent/false or source absent forces absence
        if condition_status == MISSING or (
            condition_status == PRESENT and condition_value is False
        ):
            changed |= self.set_presence(equation.target, MISSING)
        if source_status == MISSING:
            changed |= self.set_presence(equation.target, MISSING)
        # downward: everything present and condition true forces presence
        if condition_status == PRESENT and condition_value is True and source_status == PRESENT:
            changed |= self.set_presence(equation.target, PRESENT)
        # upward: target present forces condition true and source present
        if self.presence[equation.target] == PRESENT:
            changed |= self.set_value(condition, True)
            if isinstance(equation.source, str):
                changed |= self.set_presence(equation.source, PRESENT)
        # value
        if self.presence[equation.target] == PRESENT:
            source_value = self.operand_value(equation.source)
            if source_value is not None:
                changed |= self.set_value(equation.target, source_value)
        return changed

    def propagate_merge(self, equation: MergeEquation, members) -> bool:
        changed = False
        presence = self.presence
        target = equation.target
        preferred = equation.preferred
        alternative = equation.alternative
        if presence[preferred] == PRESENT or presence[alternative] == PRESENT:
            changed |= self.set_presence(target, PRESENT)
        if presence[preferred] == MISSING and presence[alternative] == MISSING:
            changed |= self.set_presence(target, MISSING)
        if presence[target] == MISSING:
            changed |= self.set_presence(preferred, MISSING)
            changed |= self.set_presence(alternative, MISSING)
        if presence[target] == PRESENT:
            if presence[preferred] == MISSING:
                changed |= self.set_presence(alternative, PRESENT)
            if presence[alternative] == MISSING and presence[preferred] == UNKNOWN:
                changed |= self.set_presence(preferred, PRESENT)
        # value
        if presence[preferred] == PRESENT and preferred in self.values:
            changed |= self.set_value(target, self.values[preferred])
        elif (
            presence[preferred] == MISSING
            and presence[alternative] == PRESENT
            and alternative in self.values
        ):
            changed |= self.set_value(target, self.values[alternative])
        return changed

    def propagate_clock(self, equation: ClockEquation, members) -> bool:
        changed = False
        left = self.eval_clock(equation.left)
        right = self.eval_clock(equation.right)
        if left is not None and right is not None and left != right:
            raise ClockError(
                f"clock constraint violated: {equation.left!r} = {equation.right!r}"
            )
        if left is not None and right is None:
            changed |= self.force_clock(equation.right, left)
        if right is not None and left is None:
            changed |= self.force_clock(equation.left, right)
        return changed

    def propagate(self) -> None:
        """Sweep the equations in order, skipping clean ones, until nothing changes."""
        dirty = self.dirty
        steps = self.plan.steps
        changed = True
        while changed:
            changed = False
            for index, rule, equation, members, settles in steps:
                if dirty[index]:
                    dirty[index] = 0
                    if rule(self, equation, members):
                        changed = True
                        if settles:
                            # its own changes were the only marks since it ran
                            dirty[index] = 0

    # -- final checks --------------------------------------------------------
    def check_synchronous(self, equation, members) -> None:
        statuses = {self.presence[name] for name in members}
        if PRESENT in statuses and MISSING in statuses:
            raise ClockError(f"synchronous signals of {equation!r} disagree on presence")

    def check_sampling(self, equation: SamplingEquation, members) -> None:
        condition_present = self.presence[equation.condition] == PRESENT
        condition_true = condition_present and bool(self.values.get(equation.condition))
        source_present = self.operand_presence(equation.source) == PRESENT
        expected = condition_true and source_present
        actual = self.presence[equation.target] == PRESENT
        if expected != actual:
            raise ClockError(f"sampling equation for {equation.target!r} unsatisfied")

    def check_merge(self, equation: MergeEquation, members) -> None:
        expected = (
            self.presence[equation.preferred] == PRESENT
            or self.presence[equation.alternative] == PRESENT
        )
        actual = self.presence[equation.target] == PRESENT
        if expected != actual:
            raise ClockError(f"merge equation for {equation.target!r} unsatisfied")

    def check_clock(self, equation: ClockEquation, members) -> None:
        left = self.eval_clock(equation.left)
        right = self.eval_clock(equation.right)
        if left is None or right is None or left != right:
            raise ClockError(
                f"clock constraint unsatisfied: {equation.left!r} = {equation.right!r}"
            )

    def check_consistency(self) -> None:
        """Verify every equation is satisfied by the completed assignment."""
        presence = self.presence
        for check, equation, members, defined in self.plan.checks:
            check(self, equation, members)
            if defined is not None and presence[defined] == PRESENT and defined not in self.values:
                raise UnderdeterminedError(f"present signal {defined!r} has no value")


#: marks a rule that settles only when the equation's members are distinct signals
_DISTINCT_MEMBERS = object()

#: (propagation rule, consistency rule, settles) of each primitive equation
#: type.  A rule *settles* when evaluating it again right after it changed
#: something changes nothing: the function and delay rules always do, the
#: sampling and merge rules when no signal fills two roles in the equation
#: (each premise a rule can make true is either tested after it in the same
#: evaluation or already implies the conclusion it guards); the clock rule
#: does not (``x^ = (a^ or b^) diff a^`` makes ``a`` absent first and only
#: then can force ``b``).
_RULES = {
    FunctionEquation: (
        _InstantSolver.propagate_function, _InstantSolver.check_synchronous, True
    ),
    DelayEquation: (_InstantSolver.propagate_delay, _InstantSolver.check_synchronous, True),
    SamplingEquation: (
        _InstantSolver.propagate_sampling, _InstantSolver.check_sampling, _DISTINCT_MEMBERS
    ),
    MergeEquation: (
        _InstantSolver.propagate_merge, _InstantSolver.check_merge, _DISTINCT_MEMBERS
    ),
    ClockEquation: (_InstantSolver.propagate_clock, _InstantSolver.check_clock, False),
}


def _rules_of(equation):
    """The rules of ``equation``'s type (or nearest typed base class)."""
    for kind in type(equation).__mro__:
        rules = _RULES.get(kind)
        if rules is not None:
            return rules
    raise TypeError(f"unsupported primitive equation: {equation!r}")


#: instrumentation: total reactions solved by any interpreter instance.  The
#: compiled engine (:mod:`repro.mc.compiled`) promises *zero* interpreter
#: evaluations on its per-state path; tests pin that promise on this counter.
EVALUATIONS = 0


def evaluation_count() -> int:
    """Total :meth:`SignalInterpreter.step` invocations since the last reset."""
    return EVALUATIONS


def reset_evaluation_count() -> int:
    """Reset the global step counter; returns the value it had."""
    global EVALUATIONS
    previous = EVALUATIONS
    EVALUATIONS = 0
    return previous


class SignalInterpreter:
    """Reaction-by-reaction execution of a normalized process."""

    def __init__(self, process: NormalizedProcess):
        self.process = process
        self.plan = _PropagationPlan(process)
        self.state: Dict[str, object] = {}
        self.reset()

    def reset(self) -> None:
        """Reset every delay register to its initial value."""
        self.state = {equation.target: equation.initial for equation in self.plan.delays}

    def snapshot_state(self) -> Dict[str, object]:
        return dict(self.state)

    def restore_state(self, state: Mapping[str, object]) -> None:
        self.state = dict(state)

    def step(
        self,
        inputs: Optional[Mapping[str, object]] = None,
        assume: Optional[Mapping[str, object]] = None,
        default_absent: bool = True,
        commit: bool = True,
    ) -> InstantResult:
        """Compute one reaction.

        ``inputs`` maps input signals to a value or to :data:`ABSENT`.  Input
        signals not mentioned are left unknown (and completed by absence when
        ``default_absent`` is true).  ``assume`` adds presence/value
        assumptions on arbitrary signals, which is how a simulation driver
        activates an internal master clock.  When ``commit`` is false the
        delay registers are left untouched (used for exploration).
        """
        global EVALUATIONS
        EVALUATIONS += 1
        plan = self.plan
        solver = _InstantSolver(plan, self.state)
        for name, value in (inputs or {}).items():
            if name not in solver.presence:
                raise KeyError(f"unknown signal {name!r}")
            if value is ABSENT:
                solver.set_presence(name, MISSING)
            else:
                solver.set_value(name, value)
        for name, value in (assume or {}).items():
            if name not in solver.presence:
                raise KeyError(f"unknown signal {name!r}")
            if value is ABSENT:
                solver.set_presence(name, MISSING)
            elif value is TICK:
                solver.set_presence(name, PRESENT)
            else:
                solver.set_value(name, value)
        solver.propagate()

        if default_absent:
            solver.complete_by_absence()
            solver.propagate()

        unknown = [name for name, status in solver.presence.items() if status == UNKNOWN]
        if unknown:
            raise UnderdeterminedError(
                f"presence of signals {sorted(unknown)} cannot be determined"
            )
        solver.check_consistency()

        presence = {name: status == PRESENT for name, status in solver.presence.items()}
        values = solver.values
        reaction = Reaction(
            plan.signals,
            {name: values[name] for name, is_present in presence.items() if is_present},
        )
        if commit:
            for equation in plan.delays:
                if presence[equation.source]:
                    self.state[equation.target] = values[equation.source]
        return InstantResult(presence=presence, values=values, reaction=reaction)

    def try_step(
        self,
        inputs: Optional[Mapping[str, object]] = None,
        assume: Optional[Mapping[str, object]] = None,
        default_absent: bool = True,
        commit: bool = False,
    ) -> Optional[InstantResult]:
        """Like :meth:`step` but returns ``None`` instead of raising on failure."""
        saved = self.snapshot_state()
        try:
            return self.step(inputs, assume, default_absent, commit)
        except (ClockError, UnderdeterminedError):
            self.restore_state(saved)
            return None
