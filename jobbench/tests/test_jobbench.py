"""Fast checks of the benchmark itself.

Each workload runs at a tiny size (a handful of requests) through the
same ``measure``/``score`` path as ``run.py``.  Run with::

    python3 -m pytest jobbench/tests -q
"""

import copy
import dataclasses
import json
import multiprocessing
import os
import re
import shutil
import socket
import subprocess
import sys
import threading

import pytest

from jobbench import run as bench
from jobbench.gate import Outcome, run_gate
from jobbench.inputs import (
    build_device,
    compile_large_jobs,
    serve_paper_jobs,
    sweep_batch_rounds,
)
from jobbench.trace import Instrumented, Recorder, installed_wrappers
from jobbench.workloads import WORKLOADS, compile_jobs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def tiny(name: str, workdir) -> object:
    """A workload cut down to a few requests of its first cycle."""
    workload = WORKLOADS[name](str(workdir))
    workload.prepare(seed=1, seconds=1)
    if name == "sweep_batch":
        workload.requests = [workload.requests[0][:6]]
    elif name == "serve_paper":
        workload.requests = workload.requests[:6]
    else:
        workload.requests = workload.requests[:1]
    return workload


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, trace, tmp_path):
    workload = tiny(name, tmp_path)
    setup = [] if trace else bench.time_setup(name, str(tmp_path), 1)
    phases, recorder = bench.measure(workload, bool(trace))
    result = bench.score(phases, recorder, setup)["result"]

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: block["unit"] for name, block in result["metrics"].items()
    }
    assert all(isinstance(block["value"], float)
               for block in result["metrics"].values())
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    json.dumps(result, allow_nan=False)


@pytest.fixture(scope="module")
def answers():
    """Real answers for three serve_paper requests, compiled in-process."""
    from repro.service import CompileService

    jobs = [j for j in serve_paper_jobs(2, 1) if j.repeat_of is None][:3]
    service = CompileService(None)
    return [Outcome(job, r.status, r.artifact, r.error)
            for job, r in ((job, service.submit(cj))
                           for job, cj in compile_jobs(jobs))]


def test_gate_accepts_real_answers(answers):
    report = run_gate(answers, workers=1)
    assert report.passed, report.failures
    assert report.checked == len(answers)
    assert report.equivalence_checked == len(answers)


def test_gate_rejects_a_tampered_routed_circuit(answers):
    bad = copy.deepcopy(next(o for o in answers
                             if "cx q[" in o.artifact["routed_qasm"]))
    text = bad.artifact["routed_qasm"]
    a, b = re.findall(r"cx q\[(\d+)\],q\[(\d+)\];", text)[-1]
    head, _, tail = text.rpartition(f"cx q[{a}],q[{b}];")
    bad.artifact["routed_qasm"] = head + f"cx q[{b}],q[{a}];" + tail

    report = run_gate([bad], workers=1)
    assert "not equivalent" in report.failures[bad.job.job_id]


def test_gate_rejects_a_gate_on_uncoupled_qubits(answers):
    bad = copy.deepcopy(answers[1])
    device = build_device(bad.job.device)
    a, b = next((a, b) for a in range(device.num_qubits)
                for b in range(device.num_qubits)
                if a != b and not device.connected(a, b))
    bad.artifact["native_qasm"] += f"cx q[{a}],q[{b}];\n"

    report = run_gate([bad], workers=1)
    assert report.failures[bad.job.job_id].startswith("connectivity")


def test_gate_rejects_a_repeat_with_other_bytes(answers):
    first = answers[2]
    again = dataclasses.replace(first.job, job_id="again",
                                repeat_of=first.job.job_id)
    changed = copy.deepcopy(first.artifact)
    changed["metrics"]["native_gates"] += 1
    same = Outcome(dataclasses.replace(again, job_id="same"), "ok",
                   copy.deepcopy(first.artifact))

    report = run_gate([first, Outcome(again, "ok", changed), same],
                      workers=1)
    assert set(report.failures) == {"again"}
    assert report.repeats_checked == 2


def test_gate_counts_jobs_that_did_not_end_ok(answers):
    timed_out = Outcome(answers[0].job, "timeout", None, "deadline")
    report = run_gate([timed_out], workers=1)
    assert report.failures == {answers[0].job.job_id: "status timeout: "
                               "deadline"}


def child_pids() -> set[int]:
    """Every live (or unreaped) child process of this process."""
    pids: set[int] = set()
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children") as fh:
            pids.update(int(pid) for pid in fh.read().split())
    return pids


@pytest.mark.parametrize("name", ["serve_paper", "sweep_batch"])
def test_runs_leave_nothing_behind(name, tmp_path):
    threads = {t.name for t in threading.enumerate()}
    children = child_pids()
    workload = tiny(name, tmp_path)
    phases, recorder = bench.measure(workload, trace=True)
    # The gate checks in child interpreters of its own.
    assert bench.score(phases, recorder, [])["result"]["correct"]

    assert multiprocessing.active_children() == []
    assert child_pids() <= children
    assert os.listdir(tmp_path) == []
    assert installed_wrappers() == []
    assert {t.name for t in threading.enumerate()} <= threads
    if name == "serve_paper":
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", workload.port), timeout=2)
    # The second run starts from an empty cache of its own: it hits
    # exactly as often as the first.
    first, second = (bench.health(p) for p in phases)
    assert first["cache_hits"] == second["cache_hits"]
    assert first["stages"] == second["stages"]


def test_wrappers_come_off_when_a_traced_run_fails():
    with pytest.raises(RuntimeError):
        with Instrumented(Recorder()):
            assert installed_wrappers()
            raise RuntimeError("run failed")
    assert installed_wrappers() == []


def test_inputs_follow_the_seed():
    def bodies(seed):
        return [j.http_body() for j in serve_paper_jobs(seed, 1)]

    assert bodies(5) == bodies(5)
    assert bodies(5) != bodies(6)
    assert ([[j.qasm for j in r] for r in sweep_batch_rounds(5, 1)]
            != [[j.qasm for j in r] for r in sweep_batch_rounds(6, 1)])


def test_every_cycle_holds_the_same_mix():
    def mix(jobs, cycle):
        return sorted((j.device, j.router, j.schedule, j.num_qubits,
                       j.num_gates) for j in jobs if j.cycle == cycle)

    large = compile_large_jobs(5, 2)
    assert (sorted(m[:3] for m in mix(large, 0))
            == sorted(m[:3] for m in mix(large, 1)))
    sizes = {c: sorted((j.device, j.num_qubits, j.num_gates)
                       for j in large if j.cycle == c) for c in (0, 1)}
    assert sizes[0] == sizes[1]
    serve = serve_paper_jobs(5, 2)
    for cycle in (0, 1):
        in_cycle = [j for j in serve if j.cycle == cycle]
        assert sum(j.repeat_of is None for j in in_cycle) == 60
        assert sum(j.repeat_of is not None for j in in_cycle) == 26


def test_percentile_is_a_weighted_order_statistic():
    assert bench.percentile([7.0] * 5, 0.9) == pytest.approx(7.0)
    values = [float(i) for i in range(101)]
    assert bench.percentile(values, 0.5) == pytest.approx(50.0)
    assert 85.0 < bench.percentile(values, 0.9) < 95.0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "jobbench"), tmp_path / "jobbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "jobbench/run.py", "--workload", "serve_paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
