"""Machine-readable benchmark records: ``BENCH_<name>.json`` per bench module.

Every ``benchmarks/bench_*.py`` obtains a recorder once at import time::

    from _record import recorder
    RECORD = recorder("modelcheck")

and logs one entry per measured scenario::

    RECORD.record("pipeline_6 eager", seconds=elapsed, states=lts.state_count())

On interpreter exit the recorder writes ``BENCH_<name>.json`` next to the
repository root (override the directory with ``BENCH_OUTPUT_DIR``, which is
created with its parents if missing), so every benchmark run — local or CI —
leaves a comparable artifact and the perf trajectory can be tracked across
PRs.  The JSON schema is stable::

    {
      "bench": "modelcheck",
      "python": "3.12.1",
      "entries": [
        {"scenario": "...", "seconds": 0.123, "states": 42, "bdd_nodes": 17, ...}
      ],
      "metrics": {"families": [...]}
    }

``seconds``, ``states``, ``bdd_nodes`` are the canonical fields; extra
keyword arguments are stored verbatim.  Fields that were not measured are
omitted, not zeroed.  ``metrics`` is the process's global ``repro.obs``
registry snapshot at flush time (``tests/test_bench_schema.py`` validates
the whole shape for every committed ``BENCH_*.json``).
"""

from __future__ import annotations

import atexit
import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

_RECORDERS: Dict[str, "BenchRecorder"] = {}


def timed(function: Callable, *args, **kwargs) -> Tuple[object, float]:
    """One wall-clock measurement: ``(result, seconds)``.

    The pytest-benchmark fixture hides its statistics when benchmarks are
    disabled (the CI assertion-only mode), so the JSON records take one
    explicit measurement instead — coarse, but comparable across PRs.
    """
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


def _output_directory() -> Path:
    override = os.environ.get("BENCH_OUTPUT_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent.parent


class BenchRecorder:
    """Collects scenario entries for one bench module and flushes them to JSON."""

    def __init__(self, name: str):
        self.name = name
        self.entries: List[Dict[str, object]] = []
        self._flushed = False

    def record(
        self,
        scenario: str,
        seconds: Optional[float] = None,
        states: Optional[int] = None,
        bdd_nodes: Optional[int] = None,
        **extra: object,
    ) -> Dict[str, object]:
        entry: Dict[str, object] = {"scenario": scenario}
        if seconds is not None:
            entry["seconds"] = round(float(seconds), 6)
        if states is not None:
            entry["states"] = int(states)
        if bdd_nodes is not None:
            entry["bdd_nodes"] = int(bdd_nodes)
        entry.update(extra)
        self.entries.append(entry)
        return entry

    def flush(self) -> Optional[Path]:
        """Write ``BENCH_<name>.json``; returns the path (None if empty)."""
        if not self.entries:
            return None
        directory = _output_directory()
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{self.name}.json"
        payload = {
            "bench": self.name,
            "python": platform.python_version(),
            "entries": self.entries,
            "metrics": _metrics_snapshot(),
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        self._flushed = True
        return path


def _metrics_snapshot() -> Dict[str, object]:
    """The global ``repro.obs`` registry snapshot taken at flush time.

    Every BENCH record embeds the process's metric families so a perf
    number can be read beside the counters that explain it (cache hits,
    store reads, spans dropped).  Import is deferred and guarded: the
    recorder must keep working from a checkout where ``repro.obs`` is not
    importable.
    """
    try:
        from repro.obs.metrics import GLOBAL

        return GLOBAL.snapshot()
    except Exception:  # pragma: no cover - degraded environments only
        return {"families": []}


def recorder(name: str) -> BenchRecorder:
    """The (process-wide) recorder for one bench module, flushed at exit."""
    existing = _RECORDERS.get(name)
    if existing is not None:
        return existing
    instance = BenchRecorder(name)
    _RECORDERS[name] = instance
    atexit.register(instance.flush)
    return instance
