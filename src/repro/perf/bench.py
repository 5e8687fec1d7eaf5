"""Router benchmark runner: times the corpus, checks seed equivalence.

The corpus is small enough to run in seconds yet covers every router on
several topologies (QX5's directed 2x8 lattice, a 4x4 grid, a line, the
surface-17 layout) plus the router-option variants (commutation, no
look-ahead, no decay, deeper A* look-ahead).  Cases and seeds must stay
in sync with :data:`repro.perf.baseline.SEED_BASELINE` — they are the
same corpus the seed outputs were captured on.

Used by ``python -m repro.cli bench`` (JSON emission, perf trajectory)
and by ``benchmarks/test_perf_smoke.py`` (tier-1 budgets).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..core.circuit import Circuit
from ..devices import grid_device, heavy_hex_device, ibm_qx5, linear_device, surface17
from ..devices.device import Device
from ..obs import trace_span
from ..mapping.routing import (
    route_astar,
    route_latency,
    route_naive,
    route_reliability,
    route_sabre,
)
from ..mapping.routing._astar_native import kernel_stats
from ..workloads import random_circuit
from .baseline import SEED_BASELINE
from .timing import time_call

__all__ = ["BenchCase", "CORPUS", "LARGE_CORPUS", "fingerprint", "run_bench"]


def fingerprint(circuit: Circuit) -> str:
    """Order-sensitive digest of a circuit's gate list (16 hex digits)."""
    digest = hashlib.sha256()
    for gate in circuit.gates:
        digest.update(repr(gate).encode())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class BenchCase:
    """One timed routing instance of the fixed-seed corpus."""

    key: str                               # matches a SEED_BASELINE key
    device_factory: Callable[[], Device]
    num_qubits: int
    num_gates: int
    seed: int
    route: Callable[[Circuit, Device], object]

    def circuit(self) -> Circuit:
        return random_circuit(
            self.num_qubits, self.num_gates, seed=self.seed,
            two_qubit_fraction=0.6,
        )


_ROUTERS: dict[str, Callable] = {
    "naive": route_naive,
    "sabre": route_sabre,
    "astar": route_astar,
    "latency": route_latency,
    "reliability": route_reliability,
}

_DEVICES: dict[str, Callable[[], Device]] = {
    "ibm_qx5": ibm_qx5,
    "grid44": lambda: grid_device(4, 4),
    "linear9": lambda: linear_device(9),
    "surface17": surface17,
}

_INSTANCES = [
    ("ibm_qx5", 12, 30, 11),
    ("ibm_qx5", 12, 120, 120),
    ("ibm_qx5", 16, 80, 5),
    ("grid44", 16, 100, 7),
    ("grid44", 10, 60, 3),
    ("linear9", 9, 50, 2),
    ("surface17", 12, 70, 13),
]

#: Large devices exercising the multi-word native kernels (the old
#: single-word kernel refused anything past 64 qubits/edges).  Program
#: circuits stay small enough for the layer-exact A* budget; the devices
#: are the point — 80 to 119 physical qubits, grid and heavy-hex.
_LARGE_DEVICES: dict[str, Callable[[], Device]] = {
    "grid8x10": lambda: grid_device(8, 10),
    "grid10x10": lambda: grid_device(10, 10),
    "heavyhex119": lambda: heavy_hex_device(7, 14),
}

_LARGE_INSTANCES = [
    ("grid8x10", 12, 40, 21),
    ("grid10x10", 12, 40, 9),
    ("heavyhex119", 12, 30, 17),
]

#: Routers benchmarked on the large devices: the two with native paths.
_LARGE_ROUTERS = ("astar", "sabre")

#: Router-option variants, as ``{name: (router, options)}`` — the same
#: table feeds the routing corpus here and the compile-job corpus of
#: :func:`repro.perf.service_bench.corpus_jobs`.
_VARIANTS: dict[str, tuple[str, dict]] = {
    "sabre_commutation": ("sabre", {"commutation": True}),
    "sabre_lookahead0": ("sabre", {"lookahead": 0}),
    "sabre_nodecay": ("sabre", {"use_decay": False}),
    "astar_lookahead2": ("astar", {"lookahead_layers": 2}),
    "latency_commutation": ("latency", {"commutation": True}),
}


def _build_corpus() -> list[BenchCase]:
    cases = []
    for dev_name, nq, ng, seed in _INSTANCES:
        for router_name, router in _ROUTERS.items():
            cases.append(
                BenchCase(
                    key=f"{dev_name}/{nq}q{ng}g_s{seed}/{router_name}",
                    device_factory=_DEVICES[dev_name],
                    num_qubits=nq,
                    num_gates=ng,
                    seed=seed,
                    route=router,
                )
            )
    for name, (router_name, options) in _VARIANTS.items():
        cases.append(
            BenchCase(
                key=f"variants/{name}",
                device_factory=ibm_qx5,
                num_qubits=12,
                num_gates=60,
                seed=42,
                route=partial(_ROUTERS[router_name], **options),
            )
        )
    return cases


def _build_large_corpus() -> list[BenchCase]:
    return [
        BenchCase(
            key=f"{dev_name}/{nq}q{ng}g_s{seed}/{router_name}",
            device_factory=_LARGE_DEVICES[dev_name],
            num_qubits=nq,
            num_gates=ng,
            seed=seed,
            route=_ROUTERS[router_name],
        )
        for dev_name, nq, ng, seed in _LARGE_INSTANCES
        for router_name in _LARGE_ROUTERS
    ]


#: The full fixed-seed corpus (same keys as SEED_BASELINE).
CORPUS: list[BenchCase] = _build_corpus()

#: Large-device cases (80+ qubits), run with ``run_bench(include_large=True)``
#: / ``repro bench --large``.  Baselines captured from the Python
#: reference kernels, so each run proves native/Python equivalence.
LARGE_CORPUS: list[BenchCase] = _build_large_corpus()


_KERNEL_COUNTERS = (
    "build_calls",
    "native_layers",
    "python_layers",
    "batch_calls",
    "sabre_native_calls",
    "sabre_python_calls",
)


def run_bench(
    cases: list[BenchCase] | None = None,
    *,
    repeats: int = 1,
    include_large: bool = False,
) -> dict:
    """Time every case; verify outputs against the seed baseline.

    Returns a JSON-serialisable report.  Each entry carries the measured
    seconds, swap count, circuit fingerprint, the seed's reference
    values, and a ``matches_seed`` flag; the summary totals them and
    computes the headline speedup on the seed's slowest case.  The
    summary's ``kernel`` block reports the native-kernel activity during
    the run (counter deltas plus availability), so CI can assert the
    native path was really taken — or really avoided under
    ``REPRO_NO_NATIVE=1``.  ``include_large=True`` appends the
    :data:`LARGE_CORPUS` 80-119-qubit cases.
    """
    if cases is None:
        cases = CORPUS + LARGE_CORPUS if include_large else CORPUS
    elif include_large:
        cases = list(cases) + LARGE_CORPUS
    stats_before = kernel_stats()
    report_cases = []
    all_match = True
    for case in cases:
        device = case.device_factory()
        circuit = case.circuit()

        # The span sits *inside* the timed region so traced runs report
        # pipeline-stage (routing) spans covering the measured wall time
        # of each case; with tracing disabled the wrapper is a no-op
        # context manager (<2% corpus overhead, budgeted by the smoke
        # test on the null-span path).
        def traced_route(circ: Circuit, dev: Device):
            with trace_span("routing", pass_="routing", case=case.key) as sp:
                routed = case.route(circ, dev)
                if sp.enabled:
                    sp.set(
                        added_swaps=routed.added_swaps,
                        gates_in=circ.size(),
                        gates_out=routed.circuit.size(),
                    )
                return routed

        seconds, result = time_call(
            traced_route, circuit, device, repeats=repeats
        )
        fp = fingerprint(result.circuit)
        seed_entry = SEED_BASELINE.get(case.key)
        matches = seed_entry is not None and (
            result.added_swaps == seed_entry["swaps"]
            and fp == seed_entry["fingerprint"]
        )
        all_match = all_match and matches
        report_cases.append(
            {
                "case": case.key,
                "seconds": round(seconds, 6),
                "swaps": result.added_swaps,
                "fingerprint": fp,
                "seed_seconds": seed_entry and seed_entry["seed_seconds"],
                "seed_swaps": seed_entry and seed_entry["swaps"],
                "matches_seed": matches,
            }
        )

    total = sum(c["seconds"] for c in report_cases)
    seed_total = sum(
        c["seed_seconds"] for c in report_cases if c["seed_seconds"]
    )
    hot = next(
        (c for c in report_cases if c["case"] == "ibm_qx5/12q120g_s120/astar"),
        None,
    )
    stats_after = kernel_stats()
    summary = {
        "total_seconds": round(total, 4),
        "seed_total_seconds": round(seed_total, 4),
        "all_match_seed": all_match,
        "kernel": {
            "available": stats_after["available"],
            **{
                name: stats_after[name] - stats_before[name]
                for name in _KERNEL_COUNTERS
            },
        },
    }
    if hot is not None and hot["seed_seconds"]:
        summary["hot_case"] = hot["case"]
        summary["hot_case_speedup"] = round(
            hot["seed_seconds"] / max(hot["seconds"], 1e-9), 1
        )
    return {
        "schema": 1,
        "corpus": "fixed-seed router corpus (see repro.perf.bench)",
        "repeats": repeats,
        "cases": report_cases,
        "summary": summary,
    }
