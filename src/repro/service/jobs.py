"""The compile-service job API: :class:`CompileJob` and :class:`JobResult`.

A job is a fully self-contained compile request — canonical QASM text,
device description dict, and a :class:`~repro.core.pipeline.PassConfig`
— so it can be hashed for the cache, pickled to a worker process, or
written into a batch manifest without losing information.  A result
carries the artefact (see :mod:`repro.service.artifact`) as the JSON
text it was rendered to once, a status, and per-job metrics: queue
wait, compile wall-clock, cache tier, and the gate/depth deltas of the
compilation.
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass, field
from typing import Mapping

from ..core.circuit import Circuit
from ..core.pipeline import CompilationResult, PassConfig
from ..devices.device import Device
from ..qasm import QasmError
from .artifact import artifact_to_result
from .keys import canonical_qasm, compute_key, device_fingerprint

__all__ = ["CompileJob", "JOB_STATUSES", "JobResult"]

#: The terminal status taxonomy of a batch job (see :class:`JobResult`).
JOB_STATUSES = ("ok", "degraded", "timeout", "crashed", "invalid")


@dataclass
class CompileJob:
    """One compile request for the service.

    Attributes:
        qasm: Canonical OpenQASM text of the input circuit.
        device: Device description in ``Device.to_dict`` form.
        config: Pass configuration (hashable, serialisable).
        job_id: Caller-chosen identifier (auto-generated when empty);
            reported back on the matching :class:`JobResult`.
        timeout: Per-job wall-clock budget in seconds for batch runs
            (``None``: the service default).
        deadline: Per-job *cooperative* routing deadline in seconds —
            routers poll it and degrade through the fallback chain
            instead of being killed.  Overrides any batch-wide
            ``deadline`` for this job; the async gateway sets it to the
            remaining SLO budget at dispatch time.  Not part of the
            cache key (it changes when an answer arrives, not what the
            clean answer is).
        metadata: Free-form caller annotations, passed through to the
            result untouched.
    """

    qasm: str
    device: dict
    config: PassConfig = field(default_factory=PassConfig)
    job_id: str = ""
    timeout: float | None = None
    deadline: float | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.job_id:
            self.job_id = uuid.uuid4().hex[:12]

    @classmethod
    def create(
        cls,
        circuit: Circuit | str,
        device: Device | Mapping,
        config: PassConfig | Mapping | None = None,
        *,
        job_id: str = "",
        timeout: float | None = None,
        deadline: float | None = None,
        metadata: dict | None = None,
    ) -> "CompileJob":
        """Build a job from rich objects, normalising every field.

        Args:
            circuit: A :class:`Circuit` or OpenQASM text (canonicalised
                either way, so formatting never splits the cache).
            device: A :class:`Device` or its dict form.
            config: A :class:`PassConfig`, a dict of its fields, or
                ``None`` for the pipeline defaults.
        """
        if isinstance(config, PassConfig):
            cfg = config
        elif config is None:
            cfg = PassConfig()
        else:
            cfg = PassConfig.from_dict(config)
        try:
            qasm = canonical_qasm(circuit)
        except QasmError:
            # Keep the raw text: the compile itself will fail and report
            # the parse error as this job's JobResult instead of making
            # job construction throw.
            qasm = circuit
        return cls(
            qasm=qasm,
            device=(
                device.to_dict() if isinstance(device, Device) else dict(device)
            ),
            config=cfg,
            job_id=job_id,
            timeout=timeout,
            deadline=deadline,
            metadata=dict(metadata or {}),
        )

    def key(self) -> str:
        """The content-addressed cache key of this request."""
        return compute_key(self.qasm, self.device, self.config)

    def payload(self) -> dict:
        """Picklable, JSON-able form shipped to worker processes."""
        return {
            "qasm": self.qasm,
            "device": self.device,
            "config": self.config.to_dict(),
            "job_id": self.job_id,
            "metadata": self.metadata,
        }

    def describe(self) -> str:
        """Short human-readable label for reports."""
        return (
            f"{self.job_id} [{self.device.get('name', '?')}"
            f"/{self.config.router} dev:{device_fingerprint(self.device)[:8]}]"
        )


@dataclass(init=False)
class JobResult:
    """Outcome of one job, successful or not.

    Attributes:
        job_id: Identifier of the originating job.
        key: The job's cache key.
        status: The terminal outcome, one of :data:`JOB_STATUSES`:

            * ``"ok"`` — compiled as requested; artefact present and
              cached.
            * ``"degraded"`` — compiled, but through the router fallback
              chain (the requested router failed or timed out); artefact
              present, carries a ``resilience`` record, and is **not**
              cached under the clean key.
            * ``"timeout"`` — the compute budget ran out (cooperative
              :class:`~repro.resilience.deadline.DeadlineExceeded`, a
              hard per-job budget, or the batch deadline).
            * ``"crashed"`` — the worker process died, an injected fault
              fired, or the artefact failed validation on every attempt.
            * ``"invalid"`` — the request itself is bad (parse error,
              unknown device/config field, …); retrying cannot help.
        cache_hit: ``"memory"``, ``"disk"``, ``"batch"`` (deduplicated
            against an identical job earlier in the same batch), or
            ``None`` for a fresh compile.
        artifact_json: The serialised compilation result as JSON text
            (``None`` unless the job completed: ``status`` in ``("ok",
            "degraded")``).  The engine fills it with the very string
            the compiling process rendered, which the cache also holds.
        error: One-line failure description for failed results.
        attempts: Number of compile attempts (>1 after crash retries).
        metrics: Per-job numbers: ``queue_wait_s``, ``compile_s``,
            ``total_s``, and the artefact's gate/depth metrics.
        metadata: The job's metadata, passed through.

    The artefact dict (:attr:`artifact`) is decoded from
    ``artifact_json`` on first access and kept, so results nobody reads
    never hold a decoded copy.  Passing ``artifact`` (a dict) to the
    constructor still works: the text is then rendered from it.
    """

    job_id: str
    key: str
    status: str
    cache_hit: str | None
    artifact_json: str | None = field(repr=False)
    error: str | None
    attempts: int
    metrics: dict
    metadata: dict

    def __init__(
        self,
        job_id: str,
        key: str,
        status: str,
        cache_hit: str | None = None,
        artifact: dict | None = None,
        error: str | None = None,
        attempts: int = 1,
        metrics: dict | None = None,
        metadata: dict | None = None,
        *,
        artifact_json: str | None = None,
    ) -> None:
        self.job_id = job_id
        self.key = key
        self.status = status
        self.cache_hit = cache_hit
        if artifact_json is None and artifact is not None:
            artifact_json = json.dumps(artifact)
        self.artifact_json = artifact_json
        self._artifact = artifact
        self.error = error
        self.attempts = attempts
        self.metrics = {} if metrics is None else metrics
        self.metadata = {} if metadata is None else metadata

    @property
    def artifact(self) -> dict | None:
        """The artefact dict, decoded from :attr:`artifact_json` on
        first access (``None`` when the job produced no artefact)."""
        if self._artifact is None and self.artifact_json is not None:
            self._artifact = json.loads(self.artifact_json)
        return self._artifact

    @property
    def ok(self) -> bool:
        """Compiled exactly as requested (excludes degraded results)."""
        return self.status == "ok"

    @property
    def completed(self) -> bool:
        """An artefact was produced (``ok`` or ``degraded``)."""
        return self.status in ("ok", "degraded")

    def result(self) -> CompilationResult:
        """Rebuild the full :class:`CompilationResult`.

        Raises:
            RuntimeError: when the job produced no artefact.
        """
        if not self.completed or self.artifact is None:
            raise RuntimeError(
                f"job {self.job_id} has no artifact (status={self.status})"
            )
        return artifact_to_result(self.artifact)

    def to_dict(self, *, include_artifact: bool = False) -> dict:
        """JSON-able report row (artefact omitted by default: it is
        large and addressable through ``key`` in the cache)."""
        row = {
            "job_id": self.job_id,
            "key": self.key,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "attempts": self.attempts,
            "metrics": dict(self.metrics),
        }
        if self.metadata:
            row["metadata"] = dict(self.metadata)
        if include_artifact:
            row["artifact"] = self.artifact
        return row

    def to_json(self, *, include_artifact: bool = False) -> str:
        """``json.dumps(self.to_dict(include_artifact=...))``, byte for
        byte, with :attr:`artifact_json` spliced in as is — the
        artefact is never decoded or re-encoded."""
        body = json.dumps(self.to_dict())
        if not include_artifact:
            return body
        text = "null" if self.artifact_json is None else self.artifact_json
        # to_dict() puts "artifact" last, and its row is never empty.
        return f'{body[:-1]}, "artifact": {text}}}'
