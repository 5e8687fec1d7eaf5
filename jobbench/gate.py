"""Correctness gate, run after the timed phase.

Checks every distinct artefact a run received, independently of the
mapper that produced it:

* the native circuit uses only coupled qubit pairs of the device the
  request named (``check_connectivity``);
* on devices within ``repro.verify.STATEVECTOR_LIMIT`` qubits, the
  routed circuit equals the *request's* input circuit under the
  artefact's initial and final placements, checked by statevector
  simulation on a random state (``repro.sim`` and ``repro.verify``
  helpers, not the mapper);
* every repeated request got the same canonical artefact bytes as the
  first.

Quality counts (swaps, native gates, schedule cycles) are averaged over
the run's distinct jobs; a run's work is fixed by its seed, so they
repeat exactly for a seed.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field, fields

import numpy as np

import repro
from repro.mapping.routing import RoutingError, check_connectivity
from repro.qasm import parse_qasm
from repro.sim.statevector import simulate
from repro.verify import STATEVECTOR_LIMIT, apply_permutation

from .inputs import Job, build_device

_device = functools.lru_cache(maxsize=None)(build_device)

#: Import roots of this benchmark and of the program it checks, for the
#: child interpreters that run the checks.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@dataclass
class Outcome:
    """What the service answered for one job."""

    job: Job
    status: str
    artifact: dict | None = None
    error: str | None = None


@dataclass
class GateReport:
    checked: int = 0
    equivalence_checked: int = 0
    repeats_checked: int = 0
    failures: dict = field(default_factory=dict)  # job_id -> reason
    quality: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def _artifact_bytes(artifact: dict) -> bytes:
    """Canonical bytes (sorted keys, compact), the form the artefact
    byte-stability contract is stated in.  The disk cache tier returns
    keys sorted and the memory tier in build order, so raw response
    bytes of a repeat differ by key order alone."""
    return json.dumps(artifact, sort_keys=True,
                      separators=(",", ":")).encode()


def routed_equivalent(input_qasm: str, artifact: dict) -> bool:
    """True when the artefact's routed circuit implements ``input_qasm``
    under its initial and final placements.

    Only the physical qubits the routed circuit touches, or that hold a
    program qubit at either end, are simulated; every other qubit must
    be left in place by the placements, which is checked.
    """
    original = parse_qasm(input_qasm)
    mapped = parse_qasm(artifact["routed_qasm"])
    initial = artifact["routing"]["initial"]["prog_to_phys"]
    final = artifact["routing"]["final"]["prog_to_phys"]
    nprog = original.num_qubits
    if len(initial) != len(final) or sorted(initial) != sorted(final):
        return False
    moved_to = dict(zip(initial, final))
    active = set(mapped.used_qubits())
    active |= set(initial[:nprog]) | set(final[:nprog])
    active |= {moved_to[p] for p in list(active)}
    if any(moved_to[p] != p for p in moved_to if p not in active):
        return False
    order = sorted(active)
    index = {p: i for i, p in enumerate(order)}
    n = len(order)
    if n > STATEVECTOR_LIMIT:
        raise ValueError(f"{n} active qubits exceed the statevector limit")
    lhs = mapped.remap_qubits(index, num_qubits=n)
    rhs = original.remap_qubits(
        {q: index[initial[q]] for q in range(nprog)}, num_qubits=n
    )
    perm = [index[moved_to[p]] for p in order]
    rng = np.random.default_rng(20200309)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi /= np.linalg.norm(psi)
    out_l = simulate(lhs, psi)
    out_r = apply_permutation(simulate(rhs, psi), perm)
    return abs(abs(np.vdot(out_l, out_r)) - 1.0) < 1e-6


def check_artifact(job: Job, artifact) -> str | None:
    """The first problem with ``artifact`` as an answer to ``job``."""
    if not isinstance(artifact, dict):
        return "no artifact"
    device = _device(job.device)
    try:
        native = parse_qasm(artifact["native_qasm"])
        check_connectivity(native, device)
    except RoutingError as exc:
        return f"connectivity: {exc}"
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable artifact: {type(exc).__name__}: {exc}"
    if device.num_qubits <= STATEVECTOR_LIMIT:
        try:
            if not routed_equivalent(job.qasm, artifact):
                return "routed circuit is not equivalent to the input"
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"unreadable artifact: {type(exc).__name__}: {exc}"
    return None


def quality(outcomes: list[Outcome]) -> dict:
    """Mean swaps, native gates and schedule cycles per distinct job."""
    done = [o for o in outcomes
            if o.status == "ok" and o.job.repeat_of is None]
    sums = {"swaps_per_job": 0, "native_gates_per_job": 0,
            "cycles_per_job": 0}
    for o in done:
        sums["swaps_per_job"] += o.artifact["routing"]["added_swaps"]
        sums["native_gates_per_job"] += o.artifact["metrics"]["native_gates"]
        sums["cycles_per_job"] += o.artifact["metrics"]["latency"]
    return {k: v / max(len(done), 1) for k, v in sums.items()}


def _answer(o: Outcome) -> tuple:
    """What identifies an answer: jobs that differ only in schedule share
    the routed and native circuits, and are checked once."""
    try:
        routing = o.artifact["routing"]
        return (o.job.qasm, o.job.device, o.artifact["routed_qasm"],
                o.artifact["native_qasm"], str(routing["initial"]),
                str(routing["final"]))
    except (KeyError, TypeError):
        return (o.job.job_id,)


def _job_fields(job: Job) -> dict:
    return {f.name: getattr(job, f.name) for f in fields(job) if f.init}


def check_in_children(pairs: list[tuple[Job, dict]],
                      workers: int) -> list[str | None]:
    """``check_artifact`` over ``pairs`` in ``workers`` child interpreters
    (``python3 -m jobbench.gate``), each sent its share as JSON on stdin.

    Plain child processes rather than a ``multiprocessing`` pool: a
    spawn-context pool starts a resource-tracker process that outlives
    this one.  Every child is waited for before this returns, and killed
    first when this process leaves early.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, _ROOT, env.get("PYTHONPATH")) if p)
    shares = [list(range(i, len(pairs), workers)) for i in range(workers)]
    procs: list[subprocess.Popen] = []
    try:
        for share in shares:
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "jobbench.gate"], cwd=_ROOT, env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            ))
        for proc, share in zip(procs, shares):
            json.dump([(_job_fields(pairs[i][0]), pairs[i][1])
                       for i in share], proc.stdin)
            proc.stdin.close()
        problems: list[str | None] = [None] * len(pairs)
        for proc, share in zip(procs, shares):
            verdicts = json.loads(proc.stdout.read())
            if proc.wait() != 0 or len(verdicts) != len(share):
                raise RuntimeError(f"gate child exited {proc.returncode}")
            for i, verdict in zip(share, verdicts):
                problems[i] = verdict
        return problems
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                if not pipe.closed:
                    pipe.close()


def run_gate(outcomes: list[Outcome], workers: int = 2) -> GateReport:
    """Check ``outcomes`` (in request order) and score their quality.

    Distinct answers are checked in ``workers`` child interpreters, all
    ended before this returns.
    """
    report = GateReport()
    first: dict[str, bytes] = {}
    pending: dict[tuple, Outcome] = {}
    owners: list[tuple[str, tuple]] = []
    for o in outcomes:
        job = o.job
        if o.status != "ok":
            report.failures[job.job_id] = f"status {o.status}: {o.error}"
            continue
        served = _artifact_bytes(o.artifact)
        if job.repeat_of in first:
            report.repeats_checked += 1
            if served != first[job.repeat_of]:
                report.failures[job.job_id] = (
                    f"repeat of {job.repeat_of} returned different bytes"
                )
            continue
        first[job.job_id] = served
        report.checked += 1
        answer = _answer(o)
        pending.setdefault(answer, o)
        owners.append((job.job_id, answer))
    todo = list(pending.items())
    report.equivalence_checked = sum(
        _device(o.job.device).num_qubits <= STATEVECTOR_LIMIT
        for _, o in todo
    )
    pairs = [(o.job, o.artifact) for _, o in todo]
    if workers > 1 and len(pairs) > 1:
        problems = check_in_children(pairs, workers)
    else:
        problems = [check_artifact(*pair) for pair in pairs]
    verdicts = {answer: p for (answer, _), p in zip(todo, problems)}
    for job_id, answer in owners:
        if verdicts[answer] is not None:
            report.failures[job_id] = verdicts[answer]
    report.quality = quality(outcomes)
    return report


def same_answers(a: list[Outcome], b: list[Outcome]) -> dict:
    """Jobs whose status or canonical artefact bytes differ between two
    runs of the same requests."""
    theirs = {o.job.job_id: o for o in b}
    out = {}
    for o in a:
        other = theirs.get(o.job.job_id)
        if other is None or o.status != other.status or (
                o.artifact is not None and other.artifact is not None
                and _artifact_bytes(o.artifact)
                != _artifact_bytes(other.artifact)):
            out[o.job.job_id] = "answer differs between repeated runs"
    return out


def _main() -> int:
    """Child side of :func:`check_in_children`: read ``[[job, artifact],
    ...]`` as JSON from stdin, write the verdicts as JSON to stdout."""
    pairs = json.load(sys.stdin)
    json.dump([check_artifact(Job(**job), artifact)
               for job, artifact in pairs], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(_main())
