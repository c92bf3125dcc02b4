"""``serve_mixed``: a real ``repro.service serve`` process on a Unix socket.

Set-up seeds a fresh artifact store with the corpus verdicts
(``seed_store``), spawns the server with an LRU smaller than the 480-key
working set (so the store-read path runs, not only the cache), waits until
it answers, and registers the 60 corpus designs by source.

One closed-loop ``ServiceClient`` then sends rounds of requests: a
seeded Zipf draw over the 480 corpus (design, property, method) keys,
ranked in one fixed order, plus a few *edits*.  An edit registers a ``design_space`` design of
the ``network`` family (the only family that yields designs the corpus and
earlier edits have not; seeds from 1,000,000 on, in order, whatever the
workload seed) and asks weak endochrony three ways — compiled,
explicit and static — so cold computation and store writes run beside the
reads.  Warm answers must equal ``corpus.json``; edit answers must keep the
differential contract (compiled equals explicit, static implies explicit).

Every request is timed twice: its wall-clock round trip, and the CPU time
it cost this process and the server together (normalised, it makes the
gated metrics; the server's is read from ``/proc`` around each request,
see ``harness.ProcessClock``).

The traced run replays the same rounds through in-process
``VerificationService`` instances (one untraced, one traced) to split the
client's round trip into transport and the layers below the scheduler.
"""

from __future__ import annotations

import asyncio
import ctypes
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from harness import (
    CORPUS,
    SRC,
    ROOT,
    ProcessClock,
    Speed,
    Tally,
    cpu_now,
    median,
    normalised_metrics,
    percentile,
    peak_rss_mib,
    process_peak_rss_mib,
    run_dir,
)

#: The traffic mix is an assumption: no query trace of a served design
#: exists.  The values put each path in every round: with a Zipf(SKEW)
#: draw over the 480 keys, an LRU of CACHE_SIZE answers about 90% of warm
#: queries and the store the rest (~100 reads a round), and the edits take
#: about a third of a round.  Halving the LRU or lowering SKEW to 0.9 moved
#: the warm latencies less than run-to-run noise; four times the edits
#: halves the throughput.
#: verdict LRU of the served process, below the 480-key working set
CACHE_SIZE = 128
WARM_PER_ROUND = 1000
EDITS_PER_ROUND = 4
#: edits walk the design seeds from here on, the same sequence in every run
#: (the store is fresh per run, so each is still new to it): edit costs are
#: heavy-tailed, and a per-seed draw would make rounds incomparable
FIRST_EDIT_SEED = 1_000_000
#: the peak RSS of the server and of this process is read after this many
#: rounds (fixed work): the requests kept for the traced replay grow with
#: every round, and a faster host runs more of them
RSS_ROUNDS = 6
#: Zipf exponent of the warm key draw (near 1, the classic Zipf law)
SKEW = 1.1
#: shuffles the 480 keys into their popularity ranking
POPULARITY_SEED = 0
EDIT_PROP = "weak-endochrony"
EDIT_METHODS = ("compiled", "explicit", "static")
READY_TIMEOUT = 60.0
PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """In the server child: receive SIGTERM when the benchmark process dies,
    even by SIGKILL, so no server outlives a run (Linux ``PR_SET_PDEATHSIG``)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
    except OSError:
        return
    prctl = libc.prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def design_source(components) -> str:
    from repro.lang.printer import format_normalized_source

    return "\n".join(format_normalized_source(component) for component in components)


class Server:
    """One ``python -m repro.service serve`` child process and its store."""

    def __init__(self, directory, corpus, sources):
        from repro.gen.corpus import seed_store
        from repro.service.client import ServiceClient
        from repro.service.store import ArtifactStore

        self.directory = directory
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        seed_store(corpus, ArtifactStore(directory / "store"))
        # relative to the checkout root: a Unix socket path must stay short
        self.socket = os.path.relpath(directory / "s.sock", ROOT)
        self.log = open(directory / "server.log", "w")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--socket", self.socket,
             "--store", os.path.relpath(directory / "store", ROOT),
             "--cache-size", str(CACHE_SIZE)],
            cwd=ROOT, env=env, stdout=self.log, stderr=subprocess.STDOUT,
            preexec_fn=_die_with_parent,
        )
        self.client = ServiceClient(self.socket, retries=2)
        self.clock: Optional[ProcessClock] = None
        try:
            self._wait_ready()
            self.digests = [self.client.register(source) for source in sources]
            self.clock = ProcessClock(self.process.pid)
        except BaseException:
            self.close()
            raise

    def _wait_ready(self) -> None:
        from repro.service.errors import ServiceUnavailable

        from repro.service.client import ServiceClient

        # a probe of its own, so start-up attempts do not count as retries
        probe = ServiceClient(self.socket, retries=0)
        probe_deadline = time.perf_counter() + READY_TIMEOUT
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}; see "
                    f"{self.directory / 'server.log'}"
                )
            try:
                probe.ping()
                return
            except ServiceUnavailable:
                if time.perf_counter() > probe_deadline:
                    raise
                time.sleep(0.02)

    def peak_rss_mib(self) -> float:
        return process_peak_rss_mib(self.process.pid)

    def close(self) -> None:
        """Stop the child: shutdown request, then SIGTERM, then SIGKILL."""
        try:
            if self.process.poll() is None:
                try:
                    self.client.shutdown()
                except Exception:  # already gone or wedged: escalate below
                    pass
                try:
                    self.process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.process.send_signal(signal.SIGTERM)
                    try:
                        self.process.wait(timeout=5)
                    except subprocess.TimeoutExpired:
                        self.process.kill()
                        self.process.wait()
        finally:
            if self.clock is not None:
                self.clock.close()
            self.log.close()
            shutil.rmtree(self.directory, ignore_errors=True)


class ServeMixed:
    name = "serve_mixed"

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.tally = Tally()
        self.directory = run_dir(self.name)
        self.server: Optional[Server] = None
        self.setups = 0
        self.warm: List[float] = []
        self.cold: List[float] = []
        self.rounds: List[float] = []
        #: CPU stretches (``harness.Stretch``) of every warm query, and of
        #: every request of each round
        self.cpu_warm: list = []
        self.cpu_rounds: list = []
        self.round_operations: List[int] = []
        self.speed = Speed()
        self.operations = 0
        self.errors = 0
        self.history: List[list] = []  # every round's requests, for replay
        self.used_digests = set()
        self.rss: Optional[float] = None

    # -- set-up -----------------------------------------------------------------
    def build(self) -> Server:
        from repro.gen.corpus import Corpus

        corpus = Corpus.load(CORPUS)
        self.corpus = corpus
        sources = [design_source(entry.regenerate().components) for entry in corpus]
        self.sources = sources
        self.setups += 1
        server = Server(self.directory / f"server{self.setups}", corpus, sources)
        self.server = server
        return server

    def adopt(self, server: Server) -> None:
        self.server = server
        entries = self.corpus.entries
        for entry, digest in zip(entries, server.digests):
            self.tally.check(
                digest == entry.digest, f"{entry.name}: served digest {digest[:12]}"
            )
        self.keys = [
            (digest, *key.split("|", 1), entry.holds(*key.split("|", 1)))
            for entry, digest in zip(entries, server.digests)
            for key in sorted(entry.verdicts)
        ]
        # the popularity ranking is the same for every workload seed, which
        # draws only the request sequence: which keys are hot changes what a
        # warm query costs (LRU hit or store read, verdict size)
        random.Random(POPULARITY_SEED).shuffle(self.keys)
        self.weights = [1.0 / (rank + 1) ** SKEW for rank in range(len(self.keys))]
        self.used_digests = {entry.digest for entry in entries}
        self.edit_seed = FIRST_EDIT_SEED

    def discard(self, server: Server) -> None:
        server.close()

    @staticmethod
    def server_cpu(server: Server) -> float:
        """CPU seconds the server has run so far: its part of a set-up."""
        return server.clock.read()

    # -- requests ---------------------------------------------------------------
    def _edit(self):
        """A fresh ``network`` design: one nobody has registered yet."""
        from repro.api.session import Design
        from repro.gen.topologies import design_space

        while True:
            self.edit_seed += 1
            (generated,) = design_space([self.edit_seed], families=("network",))
            digest = Design.from_generated(generated).digest()
            if digest not in self.used_digests:
                self.used_digests.add(digest)
                return ("edit", design_source(generated.components), digest)

    def _requests(self, warm: int, edits: int) -> list:
        requests = [
            ("warm", *key)
            for key in self.rng.choices(self.keys, weights=self.weights, k=warm)
        ]
        for _ in range(edits):
            requests.insert(self.rng.randrange(len(requests) + 1), self._edit())
        return requests

    def warmup(self) -> None:
        self._socket_round(self._requests(200, 1), record=False)

    # -- one round over the socket -----------------------------------------------
    def round(self, index: int) -> float:
        requests = self._requests(WARM_PER_ROUND, EDITS_PER_ROUND)
        self.history.append(requests)
        wall = self._socket_round(requests, record=True)
        if len(self.rounds) == RSS_ROUNDS:
            self.rss = self.peak_rss_mib()
        return wall

    def _socket_round(self, requests, record: bool) -> float:
        from repro.service.errors import ServiceError

        client, clock, speed = self.server.client, self.server.clock, self.speed
        clock.refresh()
        warm: List[float] = []
        cold: List[float] = []
        cpu_warm = []
        cpu_requests = []
        answers = []
        errors = 0
        started, sampled = time.perf_counter(), speed.wall_spent
        for request in requests:
            speed.tick()
            server_begun, cpu_begun = clock.read(), cpu_now()
            try:
                if request[0] == "warm":
                    _kind, digest, prop, method, expected = request
                    begun = time.perf_counter()
                    verdict = client.verify(digest, prop=prop, method=method, max_states=256)
                    warm.append(time.perf_counter() - begun)
                    cpu_warm.append((cpu_begun, cpu_now(), clock.read() - server_begun))
                    answers.append((verdict["holds"] == expected, f"{digest[:12]} {prop}/{method}"))
                else:
                    _kind, source, expected_digest = request
                    begun = time.perf_counter()
                    digest = client.register(source)
                    holds = {}
                    for method in EDIT_METHODS:
                        verdict = client.verify(
                            digest, prop=EDIT_PROP, method=method, max_states=256
                        )
                        cold.append(time.perf_counter() - begun)
                        holds[method] = bool(verdict["holds"])
                        begun = time.perf_counter()
                    answers.append((digest == expected_digest, f"edit digest {digest[:12]}"))
                    answers.append(_contract(holds, digest))
            except ServiceError as error:
                errors += 1
                answers.append((False, f"{type(error).__name__}: {error}"))
            cpu_requests.append((cpu_begun, cpu_now(), clock.read() - server_begun))
        wall = time.perf_counter() - started - (speed.wall_spent - sampled)
        if record:
            self.rounds.append(wall)
            self.cpu_rounds.append(cpu_requests)
            self.cpu_warm.extend(cpu_warm)
            self.warm.extend(warm)
            self.cold.extend(cold)
            self.round_operations.append(len(warm) + len(cold))
            self.operations += len(warm) + len(cold)
            self.errors += errors
            for ok, problem in answers:
                self.tally.check(ok, problem)
        return wall

    # -- results ----------------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        return normalised_metrics(
            self.speed, self.cpu_rounds, self.cpu_warm,
            list(zip(self.round_operations, self.cpu_rounds)),
        )

    def report(self) -> Dict[str, object]:
        return {
            "round_s": (median(self.rounds), "s"),
            "warm_p50_ms": (median(self.warm) * 1000.0, "ms"),
            "warm_p99_ms": (percentile(self.warm, 99) * 1000.0, "ms"),
            "cold_p50_ms": (median(self.cold) * 1000.0, "ms"),
            "cold_p90_ms": (percentile(self.cold, 90) * 1000.0, "ms"),
            "queries_per_s": (self.operations / len(self.rounds) / median(self.rounds), "1/s"),
            "warm_samples": (len(self.warm), "count"),
            "cold_samples": (len(self.cold), "count"),
            "rounds": (len(self.rounds), "count"),
        }

    def peak_rss_mib(self) -> float:
        """Peak RSS of this process and the server, over set-up and the
        first RSS_ROUNDS rounds (or all of them, in a shorter run)."""
        if self.rss is None:
            return peak_rss_mib() + self.server.peak_rss_mib()
        return self.rss

    # -- traced replay ------------------------------------------------------------
    def replay(self, tracer) -> Dict[str, object]:
        """Replay every recorded round in process, untraced and traced.

        Returns the per-round means the traced report needs: socket round
        trip, untraced and traced in-process operation time, and the
        scheduler's counters."""
        untraced = InProcess(self.directory / "replay0", self.corpus, self.sources)
        traced = InProcess(self.directory / "replay1", self.corpus, self.sources)
        try:
            plain = [untraced.run(requests) for requests in self.history]
            timed = [traced.run(requests, tracer) for requests in self.history]
            counters = traced.counters()
        finally:
            untraced.close()
            traced.close()
        rounds = len(self.history)
        socket_ops = (sum(self.warm) + sum(self.cold)) / rounds
        return {
            "socket_ops_s": socket_ops,
            "untraced_ops_s": sum(plain) / rounds,
            "traced_ops_s": sum(timed) / rounds,
            "counters": counters,
            "retries": self.server.client.retried / rounds,
            "errors": self.errors / rounds,
        }

    def close(self) -> None:
        try:
            if self.server is not None:
                self.server.close()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


def _contract(holds: Dict[str, bool], digest: str) -> Tuple[bool, str]:
    """The differential contract for weak endochrony on one edit."""
    ok = holds["compiled"] == holds["explicit"] and (
        not holds["static"] or holds["explicit"]
    )
    return ok, f"edit {digest[:12]} breaks the agreement contract: {holds}"


class InProcess:
    """A ``VerificationService`` in this process, set up like the server."""

    def __init__(self, directory, corpus, sources):
        from repro.gen.corpus import seed_store
        from repro.service import ArtifactStore, VerificationService

        self.directory = directory
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        seed_store(corpus, ArtifactStore(directory / "store"))
        self.service = VerificationService(
            store=ArtifactStore(directory / "store"), cache_size=CACHE_SIZE
        )
        for source in sources:
            self.service.register(source)
        self.loop = asyncio.new_event_loop()

    def run(self, requests, tracer=None) -> float:
        """Seconds spent inside the service's operations for one round."""
        service, loop = self.service, self.loop
        total = 0.0
        for request in requests:
            if tracer is not None:
                tracer.active = True
            begun = time.perf_counter()
            if request[0] == "warm":
                _kind, digest, prop, method, _expected = request
                loop.run_until_complete(service.verify(digest, prop, method, max_states=256))
            else:
                digest = service.register(request[1])
                for method in EDIT_METHODS:
                    loop.run_until_complete(
                        service.verify(digest, EDIT_PROP, method, max_states=256)
                    )
            total += time.perf_counter() - begun
            if tracer is not None:
                tracer.active = False
        return total

    def counters(self) -> Dict[str, object]:
        service = self.service
        return {
            "queries": service.queries,
            "cache_hits": service.cache_hits,
            "verdict_store_hits": service.verdict_store_hits,
            "computations": service.computations,
            "stages": service.artifact_stats()["stages"],
        }

    def close(self) -> None:
        try:
            self.service.close()
            self.loop.close()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)
