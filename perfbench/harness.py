"""Shared plumbing of the benchmark: timing loop, clocks, statistics, memory, fingerprint.

The gated times are *normalised CPU times*.  On a shared host the wall
clock also counts the time the machine gave to others (hypervisor steal,
run-queue waits, cross-process wake-ups): wall-clock runs of the same
code spread by a quarter.  CPU time (:func:`cpu_now`,
:class:`ProcessClock`) counts only the work done, but the host's speed
drifts as well, within seconds: the same work took 15-20% more or less
CPU time from one run to the next.  So a fixed reference loop of the
benchmark's own (:func:`reference_work`) is timed between operations
every SPEED_INTERVAL (:class:`Speed`), and every stretch of CPU time is
scaled by ``REFERENCE_CPU_S`` over the reference's time around it: it
reads as CPU time on a host where the reference loop takes
``REFERENCE_CPU_S``.  A change to the program moves these figures; a
change of the host's speed moves the reference with them and cancels
out.  The reference shares the caches with the program, so how much it
slows after the program's operations is part of each workload's scale.
Wall-clock times are still measured and printed.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus" / "corpus.json"
#: the benchmark's workloads and metrics (names, units, directions, bounds)
SPEC = ROOT / "BENCHMARK.json"
#: everything a run leaves behind lives here (gitignored)
OUTPUT = ROOT / ".perfbench-out"

#: set-ups per run, at least: ``setup_s`` is their median.  Cheap set-ups
#: repeat until they have taken SETUP_MIN_SECONDS of wall time, so a median
#: of a few milliseconds still rests on many samples.
SETUP_REPEATS = 9
SETUP_MIN_SECONDS = 1.0


def percentile(values: Sequence[float], rank: int) -> float:
    """The ``rank``-th percentile (inclusive linear interpolation)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[rank - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


#: CPU seconds of this process, all its threads
cpu_now = time.process_time

#: CPU seconds of one :func:`reference_work` call on the host the
#: normalised figures are quoted for (a 2-vCPU x86-64 VM, Python 3.11)
REFERENCE_CPU_S = 0.00078
#: reference calls per speed sample; a sample is their median
REFERENCE_REPEATS = 5
#: wall seconds between speed samples during a run, at least (the host's
#: speed moves within a second; a sample costs about 2% of this)
SPEED_INTERVAL = 0.2


class _Node:
    __slots__ = ("next", "link", "weight")


#: the reference loop's data, built once.  The loop allocates nothing
#: (every integer it makes is one of CPython's cached small ints), so its
#: speed does not depend on what the program left in the heap: an
#: allocating loop ran a third faster right after a set-up had freed memory.
_NODES = [_Node() for _ in range(512)]
for _index, _node in enumerate(_NODES):
    _node.next = _NODES[(_index * 37 + 11) & 511]
    _node.link = (_index * 31 + 7) & 511
    _node.weight = _index & 7
_TABLE = dict(enumerate(_NODES))
_STEPS = [step & 255 for step in range(6000)]


def reference_work() -> int:
    """Fixed interpreter work like the program's: pointer chasing through
    slotted objects, dict probes and small-integer arithmetic."""
    total = 0
    node = _NODES[0]
    for step in _STEPS:
        node = node.next
        other = _TABLE[node.link]
        total = total ^ node.weight ^ other.weight ^ step
    return total


class Speed:
    """The host's speed over a run, sampled with :func:`reference_work`.

    A run takes a sample before its first round and after its last, and
    the workload calls :meth:`tick` between its operations, which samples
    again once SPEED_INTERVAL has passed.  :meth:`normalise` then scales a
    stretch of this process's CPU time by the samples around it.  Until
    the first sample, :meth:`tick` does nothing (warm-up, traced runs)."""

    def __init__(self):
        #: per sample: CPU clock (:func:`cpu_now`) at its start and end,
        #: and its median reference time
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.values: List[float] = []
        #: wall seconds spent sampling, to leave out of wall-clock figures
        self.wall_spent = 0.0
        self._due: Optional[float] = None

    def sample(self) -> None:
        wall_started, started = time.perf_counter(), cpu_now()
        seconds = []
        for _ in range(REFERENCE_REPEATS):
            begun = cpu_now()
            reference_work()
            seconds.append(cpu_now() - begun)
        self.starts.append(started)
        self.ends.append(cpu_now())
        self.values.append(median(seconds))
        now = time.perf_counter()
        self.wall_spent += now - wall_started
        self._due = now + SPEED_INTERVAL

    def tick(self) -> None:
        if self._due is not None and time.perf_counter() >= self._due:
            self.sample()

    def normalise(self, begin: float, end: float, other_cpu: float = 0.0) -> float:
        """CPU seconds from ``begin`` to ``end`` (:func:`cpu_now` readings),
        less the samples taken meanwhile, plus ``other_cpu`` seconds other
        processes spent on the same work, at reference speed.

        The stretch between samples ``k`` and ``k + 1`` is scaled by
        ``REFERENCE_CPU_S`` over the mean of the two."""
        total = own = 0.0
        k = max(bisect.bisect_right(self.ends, begin) - 1, 0)
        while k + 1 < len(self.starts) and self.ends[k] < end:
            overlap = min(end, self.starts[k + 1]) - max(begin, self.ends[k])
            if overlap > 0:
                factor = 2.0 * REFERENCE_CPU_S / (self.values[k] + self.values[k + 1])
                total += overlap * factor
                own += overlap
            k += 1
        if other_cpu:
            nearest = self.values[min(k, len(self.values) - 1)]
            total += other_cpu * (total / own if own > 0 else REFERENCE_CPU_S / nearest)
        return total


class ProcessClock:
    """CPU seconds another live process has run, summed over its threads.

    Reads ``/proc/<pid>/task/<tid>/schedstat`` (nanoseconds on the CPU)
    through descriptors kept open, so a reading costs a few microseconds.
    :meth:`refresh` picks up threads started since the last one."""

    def __init__(self, pid: int):
        self.pid = pid
        self._fds: Dict[str, int] = {}
        self.refresh()

    def refresh(self) -> None:
        tasks = set(os.listdir(f"/proc/{self.pid}/task"))
        for tid in set(self._fds) - tasks:
            os.close(self._fds.pop(tid))
        for tid in tasks - set(self._fds):
            try:
                self._fds[tid] = os.open(f"/proc/{self.pid}/task/{tid}/schedstat", os.O_RDONLY)
            except FileNotFoundError:  # the thread ended meanwhile
                pass

    def read(self) -> float:
        total = 0
        for fd in self._fds.values():
            try:
                total += int(os.pread(fd, 128, 0).split()[0])
            except (OSError, IndexError):  # a thread that ended: its time is gone
                pass
        return total / 1e9

    def close(self) -> None:
        for fd in self._fds.values():
            os.close(fd)
        self._fds.clear()


def peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mib(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


@dataclass
class Tally:
    """Operations attempted and failed; a wrong answer is a failure."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        """Count one checked operation."""
        self.attempted += 1
        if not ok:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def run_dir(workload: str) -> Path:
    """A fresh working directory for this run's stores and socket."""
    path = OUTPUT / f"tmp-{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def repeat_setup(
    build: Callable[[], object],
    discard: Callable[[object], None],
    helper_cpu: Callable[[object], float] = lambda product: 0.0,
):
    """Run ``build`` repeatedly (see :data:`SETUP_REPEATS`); keep the last product.

    Returns ``(product, median normalised CPU seconds, median wall
    seconds)``.  A set-up's CPU time is this process's plus
    ``helper_cpu(product)``, the CPU time of the processes the set-up
    started, normalised by speed samples on either side (see
    :class:`Speed`).  Every earlier product is handed to ``discard`` so it
    releases what it holds."""
    stretches = []
    wall: List[float] = []
    speed = Speed()
    product = None
    while len(wall) < SETUP_REPEATS or sum(wall) < SETUP_MIN_SECONDS:
        if product is not None:
            discard(product)
        gc.collect()
        speed.sample()
        started, cpu_started = time.perf_counter(), cpu_now()
        product = build()
        stretches.append((cpu_started, cpu_now(), helper_cpu(product)))
        wall.append(time.perf_counter() - started)
    speed.sample()
    return product, median([speed.normalise(*stretch) for stretch in stretches]), median(wall)


def normalised_metrics(
    speed: Speed,
    rounds: Sequence[Sequence[Stretch]],
    ops: Sequence[Stretch],
    work: Sequence[Tuple[float, Sequence[Stretch]]],
) -> Dict[str, float]:
    """The gated metrics of a run, from raw CPU stretches ``(begin, end,
    other processes' CPU)`` (see :meth:`Speed.normalise`).

    ``rounds`` holds the stretches of each round, ``ops`` one stretch per
    timed operation, and ``work`` per round the units of throughput work
    done and the stretches that did it."""

    def cpu(stretches: Sequence[Stretch]) -> float:
        return sum(speed.normalise(*stretch) for stretch in stretches)

    round_cpu = [cpu(stretches) for stretches in rounds]
    op_cpu = [speed.normalise(*stretch) for stretch in ops]
    rates = [done / cpu(stretches) for done, stretches in work]
    return {
        "round_norm_s": median(round_cpu),
        "op_norm_p50_ms": median(op_cpu) * 1000.0,
        "op_norm_p90_ms": percentile(op_cpu, 90) * 1000.0,
        "throughput_norm_per_s": median(rates),
    }


def measure(
    seconds: float, round_: Callable[[int], float], speed: Optional[Speed] = None
) -> List[float]:
    """Call ``round_(index)`` until ``seconds`` have passed (at least once).

    ``round_`` returns the time of its timed operations; the list of those
    times is returned.  Each round starts after a full collection,
    so no round pays for the garbage of the one before it.  With a
    ``speed``, a speed sample precedes the first round and follows the
    last; the rounds sample as they go (:meth:`Speed.tick`)."""
    walls: List[float] = []
    if speed is not None:
        speed.sample()
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        gc.collect()
        walls.append(round_(len(walls)))
    if speed is not None:
        speed.sample()
    return walls


def freeze_inputs() -> None:
    """Move everything alive now (the workload's inputs) out of the collector's
    reach, so the program's collections do not scale with the benchmark's
    own data."""
    gc.collect()
    gc.freeze()


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the program's sources: identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(seed: int) -> Dict[str, object]:
    """The machine and program a result was measured on."""
    from repro.bdd.backend import resolve_backend

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "bdd_backend": resolve_backend(None),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "argv": sys.argv[1:],
    }
