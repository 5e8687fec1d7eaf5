"""Span recording around the public entry points of each layer.

The traced run installs wrappers from this file around functions and
methods of ``repro`` (nothing under ``src/`` changes) and removes them
when the run ends.  Each span records its name, start, end, parent and
job id; spans stay in memory until the run writes them out.  A span's
self time is its duration minus the durations of its children.

Waiting spans (``gateway.wait``: a handler thread blocked on the job
handle) mark structure only; the work they wait for is recorded on the
dispatcher thread and attributed there.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict

from repro.core import pipeline
from repro.mapping import placement
from repro.service import artifact, engine, keys
from repro.service.cache import CacheStageStore, CompileCache
from repro.service.engine import CompileService
from repro.service.gateway import AsyncCompileService, JobHandle
from repro.service.httpd import GatewayRequestHandler
from repro.service.jobs import CompileJob
from repro.service.pool import WarmPool

#: Span name -> the per-layer metric its self time is billed to.
#: ``None`` marks a waiting span, billed to nothing.
SPAN_METRIC = {
    "httpd.do_POST": "httpd.handler_ms",
    "gateway.submit": "gateway.dispatch_ms",
    "gateway.wait": None,
    "engine.submit": "engine.self_ms",
    "engine.submit_batch": "engine.self_ms",
    "keys.job_key": "keys.job_key_ms",
    "cache.lookup": "cache.lookup_ms",
    "cache.put": "cache.put_ms",
    "cache.stage_load": "cache.stage_lookup_ms",
    "cache.stage_store": "cache.stage_put_ms",
    "artifact.render": "artifact.render_ms",
    "artifact.validate": "artifact.validate_ms",
    "qasm.parse": "qasm.parse_ms",
    "qasm.write": "qasm.write_ms",
    "placement": "placement.busy_ms",
    "routing": "routing.busy_ms",
    "lower.decompose": "lower.busy_ms",
    "lower.direction": "lower.busy_ms",
    "lower.connectivity": "lower.busy_ms",
    "schedule.asap": "schedule.busy_ms",
    "schedule.alap": "schedule.busy_ms",
    "schedule.constraints": "schedule.busy_ms",
    "pool.poll": "pool.wait_ms",
    "pool.submit_chunk": "pool.wait_ms",
}


class Span:
    __slots__ = ("name", "parent", "job_id", "tid", "t0", "t1", "child")

    def __init__(self, name, parent, job_id, tid):
        self.name = name
        self.parent = parent
        self.job_id = job_id
        self.tid = tid
        self.t0 = self.t1 = 0.0
        self.child = 0.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.t1 - self.t0 - self.child

    def job(self) -> str | None:
        span = self
        while span is not None and span.job_id is None:
            span = span.parent
        return None if span is None else span.job_id

    def to_dict(self, index: dict) -> dict:
        return {
            "name": self.name, "start": self.t0, "end": self.t1,
            "parent": index.get(id(self.parent)), "job_id": self.job(),
            "tid": self.tid,
        }


class Recorder:
    """In-memory span and count store shared by every thread.

    Times come from ``time.monotonic``, the clock the gateway stamps
    its handles with, so spans and queue waits line up.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, job_of=None):
        """``fn`` wrapped in a span named ``name``; ``job_of(args)``
        names the job when the arguments carry it."""
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(name, parent, job_of(args) if job_of else None,
                        threading.get_ident())
            stack.append(span)
            span.t0 = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                span.t1 = time.monotonic()
                stack.pop()
                if parent is not None:
                    parent.child += span.t1 - span.t0
                    if parent.job_id is None:
                        parent.job_id = span.job_id
                with self._lock:
                    self.spans.append(span)

        wrapper.jobbench_original = fn
        return wrapper

    def counting(self, fn, name: str):
        """``fn`` wrapped to count its calls (no span: too hot to time)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.jobbench_original = fn
        return wrapper

    def self_times(self) -> dict:
        """Seconds of self time billed to each per-layer metric."""
        out: dict = defaultdict(float)
        for span in self.spans:
            metric = SPAN_METRIC.get(span.name)
            if metric is not None:
                out[metric] += span.self_time
        return out

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def export(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [s.to_dict(index) for s in self.spans]


def _job_arg(args):
    return args[1].job_id


def _batch_arg(args):
    jobs = args[1]
    return jobs[0].job_id if len(jobs) == 1 else f"batch:{len(jobs)}"


def _self_job(args):
    return args[0].job_id


def _patch_points(rec: Recorder):
    """(namespace, attribute, replacement) for every wrapped entry."""
    points = []

    def method(cls, attr, name, job_of=None):
        points.append((cls, attr, rec.wrap(cls.__dict__[attr], name, job_of)))

    def func(modules, attr, name):
        for module in modules:
            points.append(
                (module, attr, rec.wrap(getattr(module, attr), name))
            )

    method(GatewayRequestHandler, "do_POST", "httpd.do_POST")
    method(AsyncCompileService, "submit", "gateway.submit", _job_arg)
    method(JobHandle, "wait", "gateway.wait", _self_job)
    method(CompileService, "submit", "engine.submit", _job_arg)
    method(CompileService, "submit_batch", "engine.submit_batch", _batch_arg)
    method(CompileJob, "key", "keys.job_key", _self_job)
    method(CompileCache, "lookup", "cache.lookup")
    method(CompileCache, "put", "cache.put")
    method(CacheStageStore, "load", "cache.stage_load")
    method(CacheStageStore, "store", "cache.stage_store")
    method(WarmPool, "poll", "pool.poll")
    method(WarmPool, "submit_chunk", "pool.submit_chunk")
    func([engine, pipeline, keys], "parse_qasm", "qasm.parse")
    func([pipeline, artifact, keys], "to_openqasm", "qasm.write")
    func([engine], "result_to_artifact", "artifact.render")
    func([engine], "validate_artifact", "artifact.validate")
    func([pipeline], "route", "routing")
    func([pipeline], "decompose_circuit", "lower.decompose")
    func([pipeline], "fix_directions", "lower.direction")
    func([pipeline], "check_connectivity", "lower.connectivity")
    func([pipeline], "asap_schedule", "schedule.asap")
    func([pipeline], "alap_schedule", "schedule.alap")
    func([pipeline], "schedule_with_constraints", "schedule.constraints")
    points.append((placement, "placement_cost",
                   rec.counting(placement.placement_cost,
                                "placement.cost_calls")))
    return points


class Instrumented:
    """Context manager: wrappers in place inside, originals restored on
    exit (also on error), so nothing leaks into the next run."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list = []

    def __enter__(self) -> Recorder:
        for owner, attr, wrapper in _patch_points(self.recorder):
            if isinstance(owner, type):
                self._saved.append((owner, attr, owner.__dict__[attr]))
            else:
                self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)
        for name, placer in list(placement.PLACERS.items()):
            self._saved.append((placement.PLACERS, name, placer))
            placement.PLACERS[name] = self.recorder.wrap(placer, "placement")
        return self.recorder

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()


def installed_wrappers() -> list[str]:
    """Entry points that currently carry a wrapper (empty when clean)."""
    found = []
    probe = Recorder()
    for owner, attr, _ in _patch_points(probe):
        current = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if hasattr(current, "jobbench_original"):
            found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    for name, placer in placement.PLACERS.items():
        if hasattr(placer, "jobbench_original"):
            found.append(f"PLACERS[{name}]")
    return found
