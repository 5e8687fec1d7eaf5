"""Batch-compile throughput benchmark for the service layer.

Reuses the fixed-seed router corpus of :mod:`repro.perf.bench` as a
*compile-service workload*: every corpus case becomes a
:class:`~repro.service.CompileJob` running the full Fig. 2 pipeline
(place, route, decompose, schedule) rather than routing alone.  The
benchmark times three phases and reports circuits/second for each:

1. **serial** — plain in-process :func:`compile_with_config` over every
   job, no cache: the pre-service baseline;
2. **parallel cold** — ``CompileService.submit_batch`` with ``--jobs``
   workers and an empty cache;
3. **parallel warm** — the same batch again on the now-warm cache,
   reporting the hit rate;
4. **gateway** — the warm workload once more through the async job
   gateway (:class:`~repro.service.AsyncCompileService`), measuring the
   per-job submit→result round trip the HTTP front end adds on top of
   the cache;
5. **router sweep** — one fixed circuit compiled under every router ×
   scheduler combination on a fresh cache: every full-pipeline key is
   distinct, but all twelve jobs share one placement stage entry, so
   the circuit is placed once (1 stage miss, 11 hits).  Reports the
   stage-hit rate, the wall-time speedup over the same grid compiled
   serially without a cache, and byte-compares every swept artefact
   against that serial compile.

It also cross-checks correctness: the artefact served from the cache in
phase 3 must be byte-identical (canonical JSON) to the artefact a fresh
serial compile produces.  ``python -m repro.cli batch --corpus perf
--compare-serial --json BENCH_service.json`` runs this and persists the
numbers.  An optional one-shot baseline times a cold ``repro map``
subprocess (interpreter start + import + compile), the cost the service
amortises for every job after the first.
"""

from __future__ import annotations

import subprocess
import sys
import time

from ..core.pipeline import PassConfig, compile_with_config
from ..devices.device import Device
from ..qasm import parse_qasm, to_openqasm
from ..service import CompileCache, CompileJob, CompileService
from ..service.artifact import result_to_artifact
from ..service.keys import canonical_json
from ..workloads import random_circuit
from .bench import _DEVICES, _INSTANCES, _ROUTERS, _VARIANTS

__all__ = ["corpus_jobs", "router_sweep_jobs", "run_service_bench"]

def corpus_jobs(limit: int | None = None) -> list[CompileJob]:
    """The perf corpus as full-pipeline compile jobs (40 by default)."""
    jobs: list[CompileJob] = []
    for dev_name, nq, ng, seed in _INSTANCES:
        device = _DEVICES[dev_name]()
        qasm = to_openqasm(
            random_circuit(nq, ng, seed=seed, two_qubit_fraction=0.6)
        )
        for router_name in _ROUTERS:
            jobs.append(
                CompileJob.create(
                    qasm,
                    device,
                    PassConfig(router=router_name),
                    job_id=f"{dev_name}/{nq}q{ng}g_s{seed}/{router_name}",
                )
            )
    variant_device = _DEVICES["ibm_qx5"]()
    variant_qasm = to_openqasm(
        random_circuit(12, 60, seed=42, two_qubit_fraction=0.6)
    )
    for name, (router_name, options) in _VARIANTS.items():
        jobs.append(
            CompileJob.create(
                variant_qasm,
                variant_device,
                PassConfig(router=router_name, router_options=options),
                job_id=f"variants/{name}",
            )
        )
    return jobs[:limit] if limit is not None else jobs


#: The router-sweep grid: every router × every scheduler, one circuit.
_SWEEP_ROUTERS = ("sabre", "astar", "naive", "latency")
_SWEEP_SCHEDULES = ("asap", "alap", "constraints")


def router_sweep_jobs() -> list[CompileJob]:
    """The router-sweep workload: one circuit, 4 routers × 3 schedulers.

    Sweeping routers and scheduler tweaks over a fixed circuit.  Every
    job has a distinct full-pipeline cache key; what the twelve jobs
    share is the placement, the costliest stage, which the stage cache
    computes once and serves to the other eleven.
    """
    device = _DEVICES["ibm_qx5"]()
    qasm = to_openqasm(random_circuit(12, 60, seed=42, two_qubit_fraction=0.6))
    jobs: list[CompileJob] = []
    for router_name in _SWEEP_ROUTERS:
        for sched in _SWEEP_SCHEDULES:
            jobs.append(
                CompileJob.create(
                    qasm,
                    device,
                    PassConfig(router=router_name, schedule=sched),
                    job_id=f"sweep/{router_name}/{sched}",
                )
            )
    return jobs


def _time_oneshot_cli() -> float | None:
    """Seconds for one cold CLI compile (interpreter + import + map)."""
    code = (
        "from repro.core.pipeline import compile_circuit\n"
        "from repro.devices import ibm_qx5\n"
        "from repro.workloads import random_circuit\n"
        "compile_circuit(random_circuit(12, 30, seed=11,"
        " two_qubit_fraction=0.6), ibm_qx5())\n"
    )
    t0 = time.perf_counter()
    try:
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            capture_output=True,
            timeout=120,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return time.perf_counter() - t0


def run_service_bench(
    *,
    jobs: int = 4,
    cache_dir: str | None = None,
    limit: int | None = None,
    retries: int = 1,
    timeout: float | None = None,
    oneshot_baseline: bool = True,
) -> dict:
    """Run the five-phase service benchmark; returns the JSON report."""
    workload = corpus_jobs(limit)
    n = len(workload)

    # Phase 1: serial in-process baseline (no cache, no pool).
    serial_artifacts: dict[str, str] = {}
    t0 = time.perf_counter()
    for job in workload:
        result = compile_with_config(
            parse_qasm(job.qasm), Device.from_dict(job.device), job.config
        )
        serial_artifacts[job.job_id] = canonical_json(
            result_to_artifact(result, config=job.config)
        )
    serial_seconds = time.perf_counter() - t0

    # Phase 2: parallel batch on an empty cache.  The warm pool is
    # spawned (and the native kernel preloaded) before the clock starts:
    # that cost is paid once per service lifetime, not per batch, so it
    # is reported separately as ``pool_prewarm_seconds``.
    service = CompileService(
        CompileCache(directory=cache_dir),
        max_workers=jobs,
        retries=retries,
        default_timeout=timeout,
    )
    t0 = time.perf_counter()
    service.prewarm()
    prewarm_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    cold = service.submit_batch(workload)
    cold_seconds = time.perf_counter() - t0

    # Phase 3: the same batch on the warm cache.
    t0 = time.perf_counter()
    warm = service.submit_batch(workload)
    warm_seconds = time.perf_counter() - t0
    warm_hits = sum(1 for r in warm if r.cache_hit)

    mismatches = [
        r.job_id
        for r in warm
        if not r.ok
        or canonical_json(r.artifact) != serial_artifacts[r.job_id]
    ]

    # Phase 4: the warm workload through the async gateway, one
    # submit→wait round trip per job (alternating priority tiers), to
    # price the queueing/admission layer itself: the cache is hot, so
    # nearly all of each round trip is gateway overhead.
    from ..service import AsyncCompileService

    gw = AsyncCompileService(service)  # borrowed: close() leaves it open
    round_trips: list[float] = []
    t0 = time.perf_counter()
    for i, job in enumerate(workload):
        tier = "interactive" if i % 2 == 0 else "batch"
        t1 = time.perf_counter()
        handle = gw.submit(job, priority=tier)
        handle.wait(timeout=120.0)
        round_trips.append(time.perf_counter() - t1)
    gateway_seconds = time.perf_counter() - t0
    gateway_stats = gw.stats().get("gateway", {})
    gw.close(drain=True)

    # Phase 5: router sweep on a fresh in-memory cache.  Runs inline
    # (one worker) so the parent-side stage store serves every placement
    # probe and the counts are exact (1 miss, 11 hits); the serial
    # baseline below compiles the same grid with no cache for the
    # byte-compare and the speedup.
    sweep_jobs = router_sweep_jobs()
    sweep_serial: dict[str, str] = {}
    t0 = time.perf_counter()
    for job in sweep_jobs:
        result = compile_with_config(
            parse_qasm(job.qasm), Device.from_dict(job.device), job.config
        )
        sweep_serial[job.job_id] = canonical_json(
            result_to_artifact(result, config=job.config)
        )
    sweep_serial_seconds = time.perf_counter() - t0

    sweep_service = CompileService(CompileCache(), max_workers=1)
    t0 = time.perf_counter()
    sweep_results = sweep_service.submit_batch(sweep_jobs)
    sweep_seconds = time.perf_counter() - t0
    sweep_mismatches = [
        r.job_id
        for r in sweep_results
        if not r.ok or canonical_json(r.artifact) != sweep_serial[r.job_id]
    ]
    sweep_cache = sweep_service.stats()["cache"]
    sweep_service.close()

    report_cases = []
    for job, cold_r, warm_r in zip(workload, cold, warm):
        report_cases.append(
            {
                "case": job.job_id,
                "cold_status": cold_r.status,
                "cold_compile_s": cold_r.metrics.get("compile_s"),
                "warm_hit": warm_r.cache_hit,
                "added_swaps": (warm_r.metrics or {}).get("added_swaps"),
                "native_gates": (warm_r.metrics or {}).get("native_gates"),
                "matches_serial": job.job_id not in mismatches,
            }
        )

    stats = service.stats()
    pool_stats = stats.get("pool", {})
    summary = {
        "cases": n,
        "workers": jobs,
        "serial_seconds": round(serial_seconds, 4),
        "serial_throughput": round(n / serial_seconds, 2),
        "parallel_cold_seconds": round(cold_seconds, 4),
        "parallel_cold_throughput": round(n / cold_seconds, 2),
        "parallel_speedup": round(serial_seconds / cold_seconds, 2),
        "warm_seconds": round(warm_seconds, 4),
        "warm_throughput": round(n / warm_seconds, 2),
        "warm_hit_rate": round(warm_hits / n, 4) if n else 0.0,
        "artifacts_match_serial": not mismatches,
        "pool_prewarm_seconds": round(prewarm_seconds, 4),
        "worker_spawns": pool_stats.get("worker_spawns", 0),
        "pool_reuse_hits": pool_stats.get("pool_reuse_hits", 0),
        "worker_recycles": pool_stats.get("worker_recycles", 0),
        "gateway_round_trip_p50_ms": _percentile_ms(round_trips, 0.50),
        "gateway_round_trip_p95_ms": _percentile_ms(round_trips, 0.95),
        "gateway_throughput": (
            round(n / gateway_seconds, 2) if gateway_seconds else None
        ),
        "sweep_cases": len(sweep_jobs),
        "sweep_seconds": round(sweep_seconds, 4),
        "sweep_serial_seconds": round(sweep_serial_seconds, 4),
        "sweep_speedup": (
            round(sweep_serial_seconds / sweep_seconds, 2)
            if sweep_seconds else None
        ),
        "sweep_artifacts_match": not sweep_mismatches,
        "stage_hits": sweep_cache["stage_hits"],
        "stage_misses": sweep_cache["stage_misses"],
        "stage_hit_rate": sweep_cache["stage_hit_rate"],
    }
    if oneshot_baseline:
        sample = _time_oneshot_cli()
        if sample is not None:
            summary["oneshot_cli_sample_seconds"] = round(sample, 4)
            summary["estimated_oneshot_total_seconds"] = round(sample * n, 2)
            summary["speedup_vs_oneshot_cli"] = round(
                (sample * n) / cold_seconds, 1
            )
    service.close()
    return {
        "schema": 1,
        "corpus": "fixed-seed full-pipeline corpus (see repro.perf.service_bench)",
        "cases": report_cases,
        "summary": summary,
        "service_stats": stats,
        "gateway": {
            "seconds": round(gateway_seconds, 4),
            "round_trip_p50_ms": summary["gateway_round_trip_p50_ms"],
            "round_trip_p95_ms": summary["gateway_round_trip_p95_ms"],
            "throughput": summary["gateway_throughput"],
            "stats": gateway_stats,
        },
        "router_sweep": {
            "routers": list(_SWEEP_ROUTERS),
            "schedules": list(_SWEEP_SCHEDULES),
            "cases": len(sweep_jobs),
            "seconds": summary["sweep_seconds"],
            "serial_seconds": summary["sweep_serial_seconds"],
            "speedup": summary["sweep_speedup"],
            "artifacts_match": summary["sweep_artifacts_match"],
            "mismatches": sweep_mismatches,
            "stage_hit_rate": sweep_cache["stage_hit_rate"],
            "stages": sweep_cache["stages"],
        },
    }


def _percentile_ms(samples: list[float], q: float) -> float | None:
    """``q``-th percentile of ``samples`` (seconds), in milliseconds."""
    if not samples:
        return None
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return round(ordered[idx] * 1000.0, 3)
