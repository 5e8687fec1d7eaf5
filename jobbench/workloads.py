"""The three workloads: their service stacks and closed-loop clients.

Each workload builds the service the way the matching ``repro``
command does, on a private cache directory (and an ephemeral port for
HTTP), runs one closed loop for the timed phase, and closes everything
it opened.  A phase returns raw observations; ``run.py`` turns them into
metrics.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import resource
import shutil
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.pipeline import PassConfig
from repro.mapping.routing._astar_native import kernel_stats
from repro.service import (
    AsyncCompileService,
    CompileCache,
    CompileJob,
    CompileService,
    GatewayServer,
)
from repro.service.keys import canonical_qasm

from .gate import Outcome
from .inputs import (
    Job,
    build_device,
    compile_large_jobs,
    serve_paper_jobs,
    sweep_batch_rounds,
)

NPROC = os.cpu_count() or 1
_TICK = os.sysconf("SC_CLK_TCK")
KERNEL_KEYS = ("native_layers", "python_layers", "batch_calls",
               "sabre_native_calls", "sabre_python_calls")


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def _proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _worker_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children()]


def _cpu_now() -> tuple[float, dict]:
    """CPU seconds of this process (all threads, ns resolution) and of
    each live worker (clock ticks)."""
    workers = {}
    for pid in _worker_pids():
        try:
            workers[pid] = _proc_cpu_s(pid)
        except OSError:
            pass
    return time.process_time(), workers


def _cpu_between(a: tuple[float, dict], b: tuple[float, dict]) -> float:
    return b[0] - a[0] + sum(t - a[1].get(pid, 0.0)
                             for pid, t in b[1].items())


def peak_rss_mb() -> float:
    """Largest resident set of this process or any live worker."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for pid in _worker_pids():
        try:
            peak = max(peak, _proc_hwm_mb(pid))
        except OSError:
            pass
    return peak


def compile_jobs(jobs: list[Job]) -> list[tuple[Job, CompileJob]]:
    """Pair each input with the :class:`CompileJob` a library caller
    would build for it (built before timing starts; jobs that share a
    circuit share its canonical text)."""
    devices: dict = {}
    texts: dict = {}
    out = []
    for job in jobs:
        if job.device not in devices:
            devices[job.device] = build_device(job.device).to_dict()
        if job.qasm not in texts:
            texts[job.qasm] = canonical_qasm(job.qasm)
        out.append((job, CompileJob(
            texts[job.qasm], devices[job.device],
            PassConfig.from_dict(job.config), job_id=job.job_id,
        )))
    return out


@dataclass
class Phase:
    """What one timed phase observed."""

    outcomes: list[Outcome]
    latencies: list[float]       # seconds per closed-loop request
    cpus: list[float]            # CPU seconds per closed-loop request
    elapsed: float
    peak_rss_mb: float
    stats_before: dict
    stats_after: dict
    kernel_delta: dict
    kernel_available: bool
    workers: int = 0
    handles: dict = field(default_factory=dict)   # job id -> JobHandle
    results: list = field(default_factory=list)   # JobResults of a pool


class _Workload:
    """Shared closed-loop bookkeeping; subclasses own the stack."""

    name = ""
    #: Seconds one input cycle takes on the 2-CPU reference container.
    CYCLE_S = 1.0
    #: Timed phases per untraced run, each on a fresh stack with the
    #: same requests; timings keep the best of them (``run.end_to_end``).
    REPEATS = 3

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.cache_dir: str | None = None
        self.service: CompileService | None = None

    def _fresh_cache_dir(self) -> str:
        self.cache_dir = tempfile.mkdtemp(prefix=f"{self.name}-",
                                          dir=self.workdir)
        return self.cache_dir

    def _kernel(self) -> dict:
        """In-process kernel counters plus the pool workers' own (their
        preload reports are the only place worker counters exist, and
        ``CompileService`` exposes its pool only as ``_pool``)."""
        local = kernel_stats()
        total = {key: local[key] for key in KERNEL_KEYS}
        available = local["available"]
        pool = getattr(self.service, "_pool", None)
        if pool is not None and not pool.closed:
            for report in pool.worker_stats():
                for key in KERNEL_KEYS:
                    total[key] += report[key]
                available = available and report["native_available"]
        total["available"] = available
        return total

    def stats(self) -> dict:
        return self.service.stats()

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def cycles_for(self, seconds: float) -> int:
        """Whole input cycles such that ``REPEATS`` timed phases take
        about ``seconds`` on the 2-CPU reference container.  A run does
        a fixed amount of work, so runs on different seeds (and two
        builds) compare equal work."""
        return max(1, round(seconds / (self.REPEATS * self.CYCLE_S)))

    def _phase(self, instrument) -> Phase:
        """Closed loop over ``self.requests``; ``instrument`` (a context
        manager) spans exactly the loop."""
        stats_before = self.stats()
        kernel_before = self._kernel()
        latencies: list[float] = []
        cpus: list[float] = []
        sent = []
        t0 = time.monotonic()
        with instrument or nullcontext():
            for request in self.requests:
                cpu = _cpu_now()
                start = time.monotonic()
                reply = self._send(request)
                latencies.append(time.monotonic() - start)
                cpus.append(_cpu_between(cpu, _cpu_now()))
                sent.append((request, reply))
        elapsed = time.monotonic() - t0
        peak = peak_rss_mb()
        kernel_after = self._kernel()
        return Phase(
            outcomes=[], latencies=latencies, cpus=cpus, elapsed=elapsed,
            peak_rss_mb=peak,
            stats_before=stats_before, stats_after=self.stats(),
            kernel_delta={k: kernel_after[k] - kernel_before[k]
                          for k in KERNEL_KEYS},
            kernel_available=kernel_after["available"],
            results=sent,
        )

    @staticmethod
    def _finish(phase: Phase, outcomes: list[Outcome]) -> Phase:
        phase.outcomes = outcomes
        return phase


class ServePaper(_Workload):
    """HTTP front door: one client, one persistent connection, ``POST
    /jobs`` with ``wait`` and ``artifact``, as ``repro serve --cache-dir``
    serves it."""

    name = "serve_paper"
    CYCLE_S = 6.7
    REPEATS = 5

    def prepare(self, seed: int, seconds: float) -> None:
        """Generate this seed's inputs for a run of about ``seconds``."""
        self.requests = serve_paper_jobs(seed, self.cycles_for(seconds))
        self.warmup = serve_paper_jobs(seed, 1, stream="warmup",
                                       prefix="w")[:3]

    def open(self) -> None:
        cache = CompileCache(directory=self._fresh_cache_dir())
        self.service = CompileService(cache, max_workers=NPROC)
        self.gateway = AsyncCompileService(self.service)
        self.server = GatewayServer(("127.0.0.1", 0), self.gateway)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="bench-httpd", daemon=True)
        self.thread.start()
        self.port = self.server.port
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                               timeout=170)

    def close(self) -> None:
        if getattr(self, "server", None) is not None:
            self.conn.close()
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(30)
            self.gateway.close(drain=True)
            self.server = None
        super().close()

    def stats(self) -> dict:
        return self.gateway.stats()

    def _send(self, job: Job) -> tuple[int, bytes]:
        self.conn.request("POST", "/jobs", body=job.http_body(),
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, response.read()

    @staticmethod
    def _outcome(job: Job, reply: tuple[int, bytes]) -> Outcome:
        code, body = reply
        try:
            data = json.loads(body)
        except ValueError:
            return Outcome(job, f"http {code}", error="unreadable body")
        status = data.get("status") if code == 200 else f"http {code}"
        return Outcome(job, status, data.get("artifact"), data.get("error"))

    def run(self, instrument=None) -> Phase:
        for job in self.warmup:
            self._send(job)
        phase = self._phase(instrument)
        outcomes = [self._outcome(j, r) for j, r in phase.results]
        phase.handles = {o.job.job_id: self.gateway.get(o.job.job_id)
                         for o in outcomes}
        phase.results = []
        return self._finish(phase, outcomes)


class SweepBatch(_Workload):
    """Batch rounds through a warm pool of ``NPROC`` workers sharing a
    private on-disk cache, as ``repro batch --jobs N --cache-dir`` runs
    them."""

    name = "sweep_batch"
    CYCLE_S = 7.3

    def prepare(self, seed: int, seconds: float) -> None:
        """Generate this seed's inputs for a run of about ``seconds``."""
        rounds = sweep_batch_rounds(seed, self.cycles_for(seconds))
        self.requests = [compile_jobs(r) for r in rounds]
        self.warmup = compile_jobs(
            sweep_batch_rounds(seed, 1, stream="warmup", prefix="w")[0])

    def open(self) -> None:
        cache = CompileCache(directory=self._fresh_cache_dir())
        self.service = CompileService(cache, max_workers=NPROC)
        self.service.prewarm()

    def _send(self, batch):
        return self.service.submit_batch([cj for _, cj in batch])

    def run(self, instrument=None) -> Phase:
        self._send(self.warmup)
        phase = self._phase(instrument)
        phase.workers = NPROC
        outcomes, results = [], []
        for batch, replies in phase.results:
            for (job, _), result in zip(batch, replies):
                outcomes.append(Outcome(job, result.status, result.artifact,
                                        result.error))
                results.append(result)
        phase.results = results
        return self._finish(phase, outcomes)


class CompileLarge(_Workload):
    """One job at a time through in-process ``CompileService.submit``:
    no pool, the default memory cache, every job fresh."""

    name = "compile_large"
    CYCLE_S = 10.0

    def prepare(self, seed: int, seconds: float) -> None:
        """Generate this seed's inputs for a run of about ``seconds``."""
        self.requests = compile_jobs(
            compile_large_jobs(seed, self.cycles_for(seconds)))
        self.warmup = compile_jobs(
            compile_large_jobs(seed, 1, stream="warmup", prefix="w")[:1])

    def open(self) -> None:
        self.service = CompileService()

    def _send(self, pair):
        return self.service.submit(pair[1])

    def run(self, instrument=None) -> Phase:
        for pair in self.warmup:
            self._send(pair)
        phase = self._phase(instrument)
        phase.results = [r for _, r in phase.results]
        return self._finish(phase, [
            Outcome(job, r.status, r.artifact, r.error)
            for (job, _), r in zip(self.requests, phase.results)
        ])


WORKLOADS = {w.name: w for w in (ServePaper, SweepBatch, CompileLarge)}
