"""Seeded inputs for the three workloads.

Every input is a pure function of ``(workload, seed)``: the same seed
gives byte-identical request bodies and jobs.  The service under test
receives only these generated inputs.

Inputs come in cycles.  Every cycle holds the same mix of devices,
routers, schedules and circuit sizes (per device an evenly spread, fixed
set of qubit and gate counts); seeds change the gate content, which
shape gets which size, and the order.  The timed phase runs whole
cycles, so runs on different seeds do the same kind of work.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass, field

from repro.devices import get_device
from repro.qasm import to_openqasm
from repro.workloads import random_circuit

PAPER_DEVICES = ("ibm_qx4", "ibm_qx5", "surface7", "surface17")
SERVE_ROUTERS = ("naive", "sabre", "astar", "latency", "reliability")
SWEEP_ROUTERS = ("sabre", "astar", "naive", "latency")
SCHEDULES = ("asap", "alap", "constraints")
LARGE_DEVICES = {
    "grid8x10": ("grid", {"rows": 8, "cols": 10}),
    "grid10x10": ("grid", {"rows": 10, "cols": 10}),
    "heavyhex119": ("heavy_hex", {"rows": 7, "row_len": 14}),
}
LARGE_ROUTERS = ("sabre", "astar")

#: Exact repeats of earlier requests per serve_paper cycle of 60 fresh
#: requests: 26 of 86, about 30%.
SERVE_REPEATS = 26
#: SLO budget (seconds) on every serve_paper request: far above the
#: slowest job, so it never fires, but it is armed.
SLO_DEADLINE_S = 300.0
TWO_QUBIT_FRACTION = 0.6
#: Largest paper-device circuit.  At 15-16 program qubits on the
#: 16-qubit QX5, one A* job under a deadline (Python kernel) takes
#: 3-15 s and 500 MB, and a single such job would set a whole run's
#: throughput; that tail is recorded in README.md instead.
PAPER_MAX_QUBITS = 14
#: Circuits per device in one sweep_batch cycle, and per round.
SWEEP_LEVELS = 6
SWEEP_CIRCUITS = 2


@dataclass
class Job:
    """One compile request: what to compile, on what, and how."""

    job_id: str
    qasm: str
    device: str
    router: str
    schedule: str
    num_qubits: int
    num_gates: int
    deadline: float | None = None
    repeat_of: str | None = None
    cycle: int = 0
    config: dict = field(init=False)

    def __post_init__(self) -> None:
        self.config = {"router": self.router, "schedule": self.schedule}

    def http_body(self) -> bytes:
        """The ``POST /jobs`` body, as ``repro serve`` clients send it."""
        body = {
            "qasm": self.qasm,
            "device": self.device,
            "config": self.config,
            "job_id": self.job_id,
            "wait": True,
            "artifact": True,
        }
        if self.deadline is not None:
            body["deadline"] = self.deadline
        return json.dumps(body).encode()


def build_device(name: str):
    """A registry device by benchmark name (paper or large)."""
    if name in LARGE_DEVICES:
        registry, params = LARGE_DEVICES[name]
        return get_device(registry, **params)
    return get_device(name)


@functools.lru_cache(maxsize=None)
def physical_qubits(name: str) -> int:
    """Physical qubit count of a benchmark device."""
    return build_device(name).num_qubits


def _levels(lo: int, hi: int, k: int) -> list[int]:
    if k == 1:
        return [lo]
    return [lo + round(i * (hi - lo) / (k - 1)) for i in range(k)]


def _size_pairs(sizes, k: int) -> list[tuple[int, int]]:
    """``k`` fixed (qubits, gates) pairs spread over both ranges: qubit
    level ``i`` goes with gate level ``i * stride mod k``."""
    (q_lo, q_hi), (g_lo, g_hi) = sizes
    stride = next(s for s in range(2, k + 2) if math.gcd(s, k) == 1)
    qs, gs = _levels(q_lo, q_hi, k), _levels(g_lo, g_hi, k)
    return [(qs[i], gs[(i * stride) % k]) for i in range(k)]


def _cycle(rng: random.Random, shapes: list[tuple], sizes) -> list[tuple]:
    """One cycle: ``shapes`` shuffled, each given a size pair.  Per
    device the multiset of size pairs is the same in every cycle; which
    shape gets which pair, and the order, change."""
    shapes = list(shapes)
    rng.shuffle(shapes)
    by_device: dict[str, list[int]] = {}
    for i, shape in enumerate(shapes):
        by_device.setdefault(shape[0], []).append(i)
    out: list = [None] * len(shapes)
    for device, idx in by_device.items():
        pairs = _size_pairs(sizes(device), len(idx))
        rng.shuffle(pairs)
        for i, (nq, ng) in zip(idx, pairs):
            out[i] = (*shapes[i], nq, ng)
    return out


def _circuit_qasm(rng: random.Random, nq: int, ng: int) -> str:
    circuit = random_circuit(
        nq, ng, two_qubit_fraction=TWO_QUBIT_FRACTION,
        seed=rng.randrange(2**31),
    )
    return to_openqasm(circuit)


def _paper_sizes(device: str):
    return (3, min(PAPER_MAX_QUBITS, physical_qubits(device))), (20, 120)


def _large_sizes(device: str):
    return (6, 12), (30, 80)


def serve_paper_jobs(seed: int, cycles: int, *, stream: str = "timed",
                     prefix: str = "r") -> list[Job]:
    """``cycles`` cycles of HTTP requests.  A cycle is one fresh circuit
    per paper device x router x schedule, plus ``SERVE_REPEATS`` exact
    repeats of earlier requests at random places; every request carries
    an armed SLO deadline."""
    rng = random.Random(f"serve_paper:{stream}:{seed}")
    shapes = list(itertools.product(PAPER_DEVICES, SERVE_ROUTERS, SCHEDULES))
    jobs: list[Job] = []
    fresh: list[Job] = []
    for c in range(cycles):
        pending = _cycle(rng, shapes, _paper_sizes)
        slots = ["fresh"] * len(pending) + ["repeat"] * SERVE_REPEATS
        rng.shuffle(slots)
        if not fresh:
            slots.remove("fresh")
            slots.insert(0, "fresh")
        for kind in slots:
            job_id = f"{prefix}{len(jobs)}"
            if kind == "repeat":
                first = rng.choice(fresh)
                jobs.append(Job(
                    job_id, first.qasm, first.device, first.router,
                    first.schedule, first.num_qubits, first.num_gates,
                    deadline=SLO_DEADLINE_S, repeat_of=first.job_id, cycle=c,
                ))
                continue
            device, router, schedule, nq, ng = pending.pop()
            job = Job(job_id, _circuit_qasm(rng, nq, ng), device, router,
                      schedule, nq, ng, deadline=SLO_DEADLINE_S, cycle=c)
            fresh.append(job)
            jobs.append(job)
    return jobs


def sweep_batch_rounds(seed: int, cycles: int, *, stream: str = "timed",
                       prefix: str = "b") -> list[list[Job]]:
    """``cycles`` cycles of batch rounds.  A cycle is ``SWEEP_LEVELS``
    fresh circuits per paper device; a round is ``SWEEP_CIRCUITS`` of
    them x SWEEP_ROUTERS x SCHEDULES, shuffled.  No deadline."""
    rng = random.Random(f"sweep_batch:{stream}:{seed}")
    shapes = [(d,) for d in PAPER_DEVICES for _ in range(SWEEP_LEVELS)]
    rounds = []
    for c in range(cycles):
        circuits = _cycle(rng, shapes, _paper_sizes)
        for start in range(0, len(circuits), SWEEP_CIRCUITS):
            r = len(rounds)
            jobs = []
            for k, (device, nq, ng) in enumerate(
                    circuits[start:start + SWEEP_CIRCUITS]):
                qasm = _circuit_qasm(rng, nq, ng)
                for router, schedule in itertools.product(SWEEP_ROUTERS,
                                                          SCHEDULES):
                    jobs.append(Job(
                        f"{prefix}{r}.{k}.{router}.{schedule}", qasm,
                        device, router, schedule, nq, ng, cycle=c,
                    ))
            rng.shuffle(jobs)
            rounds.append(jobs)
    return rounds


def compile_large_jobs(seed: int, cycles: int, *, stream: str = "timed",
                       prefix: str = "L") -> list[Job]:
    """``cycles`` cycles of fresh large-device jobs.  A cycle is one job
    per large device x router (sabre, astar) x schedule.  No deadline."""
    rng = random.Random(f"compile_large:{stream}:{seed}")
    shapes = list(itertools.product(LARGE_DEVICES, LARGE_ROUTERS, SCHEDULES))
    jobs = []
    for c in range(cycles):
        for device, router, schedule, nq, ng in _cycle(rng, shapes,
                                                      _large_sizes):
            jobs.append(Job(
                f"{prefix}{len(jobs)}", _circuit_qasm(rng, nq, ng), device,
                router, schedule, nq, ng, cycle=c,
            ))
    return jobs


def input_properties(jobs: list[Job]) -> dict:
    """Measured properties of the inputs a run actually sent."""
    n = len(jobs)
    if n == 0:
        return {"jobs": 0}
    physical = [physical_qubits(j.device) for j in jobs]
    return {
        "jobs": n,
        "repeat_share": sum(j.repeat_of is not None for j in jobs) / n,
        "astar_share": sum(j.router == "astar" for j in jobs) / n,
        "deadline_share": sum(j.deadline is not None for j in jobs) / n,
        "physical_qubits_min": min(physical),
        "physical_qubits_max": max(physical),
        "mean_program_qubits": sum(j.num_qubits for j in jobs) / n,
        "mean_gates": sum(j.num_gates for j in jobs) / n,
    }
