"""The exec-compiled step functions and the per-step-dispatch reference tier.

Both tiers execute the :class:`~repro.codegen.sequential.StepProgram` that
:func:`~repro.codegen.sequential.build_step_program` schedules, so they
produce byte-identical flows:

* :class:`CompiledProcess` (``runtime="specialized"``, the default) is the
  paper's ``<name>_iterate`` step function, exec-compiled once per process
  as a *bind* function.  Binding an IO object returns a closure whose body
  is straight-line code with the readers/writers resolved once (through
  :meth:`StreamIO.reader` / :meth:`StreamIO.writer` when available) and the
  delay registers held in closure locals, flushed back to the state dict at
  stream end — no per-step dictionary lookups at all.

* :class:`InterpretedProcess` (``runtime="interpreter"``) is the opposite
  end of the spectrum: it walks the op stream with one dispatch per
  operation, evaluating pre-compiled expression code objects against a
  per-step environment.  It is the measured baseline the compiled tier is
  benchmarked against (``benchmarks/bench_deploy.py``) and a second oracle
  for the differential suite.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.codegen.runtime import EndOfStream, StreamIO
from repro.codegen.sequential import (
    CodeGenerationError,
    StepProgram,
    build_step_program,
    render_c,
)
from repro.lang.normalize import NormalizedProcess
from repro.properties.compilable import ProcessAnalysis


def _bind_reader(io: StreamIO, name: str) -> Callable[[], object]:
    """Resolve the fastest available read callable for one input signal."""
    factory = getattr(io, "reader", None)
    if factory is not None:
        return factory(name)

    def read_one() -> object:
        return io.read(name)

    return read_one


def _bind_writer(io: StreamIO, name: str) -> Callable[[object], None]:
    """Resolve the fastest available write callable for one output signal."""
    factory = getattr(io, "writer", None)
    if factory is not None:
        return factory(name)

    def write_one(value: object) -> None:
        io.write(name, value)

    return write_one


def render_bind_source(program: StepProgram) -> str:
    """The Python source of the bind function for one step program.

    The bound step closure keeps the paper's name, ``<process>_iterate``.
    """
    name = program.process.name
    registers = sorted(program.initial_state)
    bound = (
        {f"_r_{signal}" for signal in program.inputs}
        | {f"_w_{signal}" for signal in program.outputs}
        | {f"s_{register}" for register in registers}
    )
    iterate = f"{name}_iterate"
    while iterate in bound:  # a register or IO local already has the name
        iterate = f"_{iterate}"
    lines: List[str] = [f"def {name}_bind(io, state):"]
    body: List[str] = []
    for signal in program.inputs:
        body.append(f"_r_{signal} = _reader(io, {signal!r})")
    for signal in program.outputs:
        body.append(f"_w_{signal} = _writer(io, {signal!r})")
    for register in registers:
        body.append(f"s_{register} = state[{register!r}]")
    body.append("def _sync():")
    if registers:
        body.extend(f"    state[{register!r}] = s_{register}" for register in registers)
    else:
        body.append("    pass")
    body.append(f"def {iterate}():")
    step_body: List[str] = []
    if registers:
        step_body.append("nonlocal " + ", ".join(f"s_{register}" for register in registers))
    for op in program.ops:
        if op.kind == "master_read":
            step_body.extend(
                [
                    "try:",
                    f"    v_{op.target} = _r_{op.target}()",
                    "except EndOfStream:",
                    "    _sync()",
                    "    return False",
                ]
            )
        elif op.kind == "presence":
            step_body.append(f"p_{op.target} = {op.py_expr}")
        elif op.kind == "read":
            step_body.extend(
                [
                    f"if p_{op.target}:",
                    "    try:",
                    f"        v_{op.target} = _r_{op.target}()",
                    "    except EndOfStream:",
                    "        _sync()",
                    "        return False",
                ]
            )
        elif op.kind == "delay":
            step_body.extend([f"if p_{op.target}:", f"    v_{op.target} = s_{op.register}"])
        elif op.kind == "compute":
            step_body.extend([f"if p_{op.target}:", f"    v_{op.target} = {op.py_expr}"])
        elif op.kind == "write":
            step_body.extend([f"if p_{op.target}:", f"    _w_{op.target}(v_{op.target})"])
        elif op.kind == "update":
            step_body.extend([f"if p_{op.source}:", f"    s_{op.register} = v_{op.source}"])
        else:  # pragma: no cover - exhaustive over StepOp kinds
            raise CodeGenerationError(f"unknown step op kind {op.kind!r}")
    step_body.append("return True")
    body.extend(f"    {line}" for line in step_body)
    body.extend(
        [
            "def run(limit):",
            "    n = 0",
            f"    while n < limit and {iterate}():",
            "        n += 1",
            "    return n",
            f"return {iterate}, run, _sync",
        ]
    )
    lines.extend(f"    {line}" for line in body)
    return "\n".join(lines) + "\n"


class CompiledProcess:
    """A sequentially compiled process: the exec-compiled step function.

    ``reset`` / ``step(io)`` / ``run(io)`` / ``state`` drive it;
    ``python_source`` is the executed bind function and ``c_source`` the
    paper-style listing, both rendered from ``program``.  Each IO object is
    bound once: the first ``step``/``run`` against an IO compiles nothing
    and merely calls the cached closure.  Binding is keyed by IO identity —
    stepping a different IO flushes the registers of the previous binding
    and rebinds, so interleaved use stays correct (just slower).
    """

    def __init__(
        self,
        program: StepProgram,
        python_source: str,
        bind: Callable[[StreamIO, Dict[str, object]], tuple],
    ):
        self.program = program
        self.process: NormalizedProcess = program.process
        self.python_source = python_source
        self.initial_state: Dict[str, object] = dict(program.initial_state)
        self.master_clock_inputs: List[str] = list(program.master_clock_inputs)
        self._bind = bind
        self._bound: Optional[tuple] = None  # (io, step, run, sync)
        self._state: Dict[str, object] = dict(self.initial_state)

    @property
    def c_source(self) -> str:
        """The C-like listing of the same schedule (paper-figure style)."""
        return render_c(self.program)

    # -- state ------------------------------------------------------------------------
    @property
    def state(self) -> Dict[str, object]:
        """The delay registers, flushed from any live binding first."""
        bound = self._bound
        if bound is not None:
            bound[3]()
        return self._state

    @state.setter
    def state(self, value: Dict[str, object]) -> None:
        self._bound = None
        self._state = dict(value)

    def reset(self) -> None:
        """Reset the delay registers to their initial values."""
        self._bound = None
        self._state = dict(self.initial_state)

    # -- execution --------------------------------------------------------------------
    def _rebind(self, io: StreamIO) -> tuple:
        bound = self._bound
        if bound is not None:
            bound[3]()
        step, run, sync = self._bind(io, self._state)
        bound = (io, step, run, sync)
        self._bound = bound
        return bound

    def step(self, io: StreamIO) -> bool:
        """Execute one reaction; returns False when an input stream ends."""
        bound = self._bound
        if bound is None or bound[0] is not io:
            bound = self._rebind(io)
        return bound[1]()

    def run(self, io: StreamIO, max_steps: int = 1_000_000) -> int:
        """Iterate until the step function returns False (paper's simulation main)."""
        bound = self._bound
        if bound is None or bound[0] is not io:
            bound = self._rebind(io)
        return bound[2](max_steps)

    # -- interface --------------------------------------------------------------------
    @property
    def inputs(self) -> Tuple[str, ...]:
        return tuple(self.process.inputs) + tuple(self.master_clock_inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        return tuple(self.process.outputs)


def compile_process(
    process: Union[NormalizedProcess, ProcessAnalysis],
    master_clocks: bool = False,
    check_compilable: bool = True,
) -> CompiledProcess:
    """Schedule a process once and exec-compile its step function once.

    ``master_clocks=True`` reproduces the *current scheme* of Section 5.1 for
    multi-rooted processes: one boolean master-clock input ``C_<root>`` per
    hierarchy root is added to the interface and read at every step.
    """
    program = build_step_program(process, master_clocks, check_compilable)
    source = render_bind_source(program)
    bind_name = f"{program.process.name}_bind"
    namespace: Dict[str, object] = {
        "EndOfStream": EndOfStream,
        "_reader": _bind_reader,
        "_writer": _bind_writer,
    }
    exec(compile(source, f"<generated {bind_name}>", "exec"), namespace)
    return CompiledProcess(program, source, namespace[bind_name])


class InterpretedProcess:
    """The per-step-dispatch execution tier: one dispatch per scheduled op.

    Walks the :class:`StepProgram` with pre-compiled expression code objects,
    looking values up in a per-step environment dict — the dynamic baseline
    that the exec-compiled tier eliminates.
    """

    def __init__(self, program: StepProgram):
        self.program = program
        self.process: NormalizedProcess = program.process
        self.initial_state: Dict[str, object] = dict(program.initial_state)
        self.master_clock_inputs: List[str] = list(program.master_clock_inputs)
        self.state: Dict[str, object] = dict(self.initial_state)
        self._globals: Dict[str, object] = {}
        compiled_ops: List[tuple] = []
        for op in program.ops:
            presence = f"p_{op.target}"
            value = f"v_{op.target}"
            if op.kind == "master_read":
                compiled_ops.append(("master_read", op.target, value))
            elif op.kind == "presence":
                code = compile(op.py_expr, f"<presence {op.target}>", "eval")
                compiled_ops.append(("presence", presence, code))
            elif op.kind == "read":
                compiled_ops.append(("read", op.target, presence, value))
            elif op.kind == "delay":
                compiled_ops.append(("delay", value, presence, op.register))
            elif op.kind == "compute":
                code = compile(op.py_expr, f"<compute {op.target}>", "eval")
                compiled_ops.append(("compute", value, presence, code))
            elif op.kind == "write":
                compiled_ops.append(("write", op.target, presence, value))
            elif op.kind == "update":
                compiled_ops.append(("update", op.register, f"p_{op.source}", f"v_{op.source}"))
            else:  # pragma: no cover - exhaustive over StepOp kinds
                raise CodeGenerationError(f"unknown step op kind {op.kind!r}")
        self._ops: Tuple[tuple, ...] = tuple(compiled_ops)

    def reset(self) -> None:
        self.state = dict(self.initial_state)

    def step(self, io: StreamIO) -> bool:
        env: Dict[str, object] = {}
        env_globals = self._globals
        state = self.state
        for op in self._ops:
            kind = op[0]
            if kind == "presence":
                env[op[1]] = eval(op[2], env_globals, env)
            elif kind == "compute":
                if env[op[2]]:
                    env[op[1]] = eval(op[3], env_globals, env)
            elif kind == "read":
                if env[op[2]]:
                    try:
                        env[op[3]] = io.read(op[1])
                    except EndOfStream:
                        return False
            elif kind == "delay":
                if env[op[2]]:
                    env[op[1]] = state[op[3]]
            elif kind == "write":
                if env[op[2]]:
                    io.write(op[1], env[op[3]])
            elif kind == "update":
                if env[op[2]]:
                    state[op[1]] = env[op[3]]
            else:  # master_read
                try:
                    env[op[2]] = io.read(op[1])
                except EndOfStream:
                    return False
        return True

    def run(self, io: StreamIO, max_steps: int = 1_000_000) -> int:
        steps = 0
        while steps < max_steps and self.step(io):
            steps += 1
        return steps

    @property
    def inputs(self) -> Tuple[str, ...]:
        return tuple(self.process.inputs) + tuple(self.master_clock_inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        return tuple(self.process.outputs)


def compile_interpreted(
    process: Union[NormalizedProcess, ProcessAnalysis],
    master_clocks: bool = False,
    check_compilable: bool = True,
) -> InterpretedProcess:
    """Build the per-step-dispatch tier for a process."""
    program = build_step_program(process, master_clocks, check_compilable)
    return InterpretedProcess(program)
