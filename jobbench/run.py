"""Whole-job benchmark of the ``repro`` compile service.

Usage, from the root of a checkout::

    python3 jobbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics: set-up time from fresh
interpreters, then the closed-loop timed phase, run several times on
fresh stacks with the same requests.  ``--trace 1`` runs it twice,
untraced then traced, and reports the per-layer metrics plus the tracing
overhead.  Either way the correctness gate checks every answer after the
timed phases, and the last line of standard output is one JSON object
with the result.  A full report (inputs, path and health counters, gate
failures, spans) goes to ``.bench_build/reports/``.  See
``jobbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_job": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
    "swaps_per_job": "count",
    "native_gates_per_job": "count",
    "cycles_per_job": "count",
}

#: Per-layer metrics: per-job times, per-job counts, fractions, totals.
PER_LAYER = {
    "httpd.handler_ms": "ms/job",
    "httpd.stall_ms": "ms/job",
    "gateway.queue_wait_ms": "ms/job",
    "gateway.dispatch_ms": "ms/job",
    "engine.self_ms": "ms/job",
    "keys.job_key_ms": "ms/job",
    "cache.lookup_ms": "ms/job",
    "cache.put_ms": "ms/job",
    "cache.hit_frac": "fraction",
    "cache.stage_lookup_ms": "ms/job",
    "cache.stage_put_ms": "ms/job",
    "cache.stage_hit_frac": "fraction",
    "cache.stage_hit_frac.placement": "fraction",
    "cache.stage_hit_frac.routing": "fraction",
    "cache.stage_hit_frac.lower": "fraction",
    "cache.stage_hit_frac.schedule": "fraction",
    "artifact.render_ms": "ms/job",
    "artifact.validate_ms": "ms/job",
    "artifact.kb_per_job": "kB/job",
    "pool.queue_wait_ms": "ms/job",
    "pool.compile_ms": "ms/job",
    "pool.busy_frac": "fraction",
    "qasm.parse_ms": "ms/job",
    "qasm.write_ms": "ms/job",
    "placement.busy_ms": "ms/job",
    "placement.cost_calls": "count/job",
    "routing.busy_ms": "ms/job",
    "routing.astar_native_layers": "count/job",
    "routing.astar_python_layers": "count/job",
    "routing.sabre_native_calls": "count/job",
    "lower.busy_ms": "ms/job",
    "schedule.busy_ms": "ms/job",
    "resilience.degraded_jobs": "count",
    "gateway.deadline_drops": "count",
    "unattributed_ms": "ms/job",
    "trace.overhead_frac": "fraction",
}

STAGES = ("placement", "routing", "lower", "schedule")


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile of ``values``.

    A Beta-weighted mean of all order statistics: on the few dozen
    samples of a compile_large or sweep_batch run it moves far less from
    run to run than a single order statistic, whose neighbours can sit
    apart when job sizes cluster.
    """
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum(x * (hi - lo)
                     for x, lo, hi in zip(xs, edges[:-1], edges[1:])))


def time_setup(workload: str, workdir: str, probes: int) -> list[float]:
    """Seconds from starting a fresh interpreter until the service it
    builds reports ready, ``probes`` times."""
    script = os.path.join(ROOT, "jobbench", "probe.py")
    times = []
    for _ in range(probes):
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, script, workload, workdir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            times.append(time.monotonic() - t0)
        finally:
            proc.stdin.close()
            proc.wait(120)
            proc.stdout.close()
        if line != "ready":
            raise RuntimeError(f"set-up probe said {line!r}")
    return times


def _stage_counts(stats: dict) -> dict:
    out = {}
    for stage in STAGES:
        block = (stats.get("cache") or {}).get("stages", {}).get(stage, {})
        out[stage] = {
            "hits": block.get("memory_hits", 0) + block.get("disk_hits", 0),
            "misses": block.get("misses", 0),
        }
    return out


def health(phase) -> dict:
    """Path and health counters over the phase, so a silent switch of
    kernel, cache tier or fallback path shows in every report."""
    before, after = phase.stats_before, phase.stats_after
    s0, s1 = before["service"], after["service"]
    g0, g1 = before.get("gateway", {}), after.get("gateway", {})
    st0, st1 = _stage_counts(before), _stage_counts(after)
    statuses: dict = {}
    for o in phase.outcomes:
        statuses[o.status] = statuses.get(o.status, 0) + 1
    return {
        "native_kernel_available": phase.kernel_available,
        "kernel_delta": phase.kernel_delta,
        "stages": {
            stage: {k: st1[stage][k] - st0[stage][k]
                    for k in ("hits", "misses")}
            for stage in STAGES
        },
        "cache_hits": s1["cache_hits"] - s0["cache_hits"],
        "fresh_compiles": s1["fresh_compiles"] - s0["fresh_compiles"],
        "degraded": s1["degraded"] - s0["degraded"],
        "timeouts": s1["timeouts"] - s0["timeouts"],
        "errors": s1["errors"] - s0["errors"],
        "deadline_drops": g1.get("deadline_drops", 0)
        - g0.get("deadline_drops", 0),
        "refused": g1.get("rejected", 0) - g0.get("rejected", 0),
        "statuses": statuses,
    }


def tally(phases, gate) -> tuple[int, int]:
    """(attempted, failed) job runs over every timed phase; a job run
    fails when it did not end ``ok``, or the job's answer failed the
    gate or differed between phases."""
    attempted = failed = 0
    for phase in phases:
        ids = {o.job.job_id for o in phase.outcomes}
        bad = {o.job.job_id for o in phase.outcomes if o.status != "ok"}
        attempted += len(ids)
        failed += len(bad | (set(gate.failures) & ids))
    return attempted, failed


def end_to_end(phases, gate, setup_times: list[float]) -> dict:
    """End-to-end metrics of repeated runs of the same requests.

    Each request's latency is the best of its runs, as
    ``repro.perf.timing.time_call`` keeps the best of repeats: the
    reference host's speed drifts by tens of percent over tens of
    seconds, and the best of runs spaced a phase apart removes most of
    that drift.  Throughput is over the sum of those latencies (the loop
    is closed); CPU per request is kept the same way.
    """
    attempted, failed = tally(phases, gate)
    ok_jobs = sum(o.status == "ok" for o in phases[0].outcomes)
    best = [min(runs) for runs in zip(*(p.latencies for p in phases))]
    best_ms = [1000.0 * x for x in best]
    best_cpu = [min(runs) for runs in zip(*(p.cpus for p in phases))]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": ok_jobs / sum(best),
        "latency_p50_ms": percentile(best_ms, 0.5),
        "latency_p90_ms": percentile(best_ms, 0.9),
        "cpu_ms_per_job": 1000.0 * sum(best_cpu) / max(ok_jobs, 1),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": max(p.peak_rss_mb for p in phases),
    }
    metrics.update(gate.quality)
    return metrics


def _frac(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(traced, untraced, recorder) -> dict:
    """Per-layer metrics of the traced phase; times are per job."""
    n = max(len(traced.outcomes), 1)
    selfs = recorder.self_times()
    metrics = {name: 0.0 for name in PER_LAYER}
    for name, seconds in selfs.items():
        if name in metrics:
            metrics[name] = 1000.0 * seconds / n

    # The HTTP hop and the gateway queue, from the handler spans and the
    # gateway's own job handles (same monotonic clock as the spans).
    latency_total = sum(traced.latencies)
    posts = recorder.by_name("httpd.do_POST")
    stall = latency_total - sum(s.duration for s in posts) if posts else 0.0
    submitted = {s.job(): s.t1 for s in recorder.by_name("gateway.submit")}
    engine_start: dict = {}
    for span in recorder.by_name("engine.submit_batch"):
        engine_start.setdefault(span.job(), span.t0)
    queue = queued = gap = 0.0
    for job_id, handle in traced.handles.items():
        if handle is None or handle.queue_wait_s is None:
            continue
        queue += handle.queue_wait_s
        dispatched = handle.submitted_mono + handle.queue_wait_s
        # Queue time not already inside the submit span.
        queued += max(0.0, dispatched - submitted.get(job_id, dispatched))
        if job_id in engine_start:
            gap += engine_start[job_id] - dispatched
    metrics["httpd.stall_ms"] = 1000.0 * stall / n
    metrics["gateway.queue_wait_ms"] = 1000.0 * queue / n
    metrics["gateway.dispatch_ms"] = 1000.0 * (
        selfs.get("gateway.dispatch_ms", 0.0) + gap) / n
    attributed = sum(selfs.values()) + stall + queued + gap
    metrics["unattributed_ms"] = 1000.0 * (latency_total - attributed) / n

    s0 = traced.stats_before["service"]
    s1 = traced.stats_after["service"]
    hits = s1["cache_hits"] - s0["cache_hits"]
    metrics["cache.hit_frac"] = _frac(
        hits, s1["fresh_compiles"] - s0["fresh_compiles"])
    st0 = _stage_counts(traced.stats_before)
    st1 = _stage_counts(traced.stats_after)
    total_hits = total_misses = 0
    for stage in STAGES:
        h = st1[stage]["hits"] - st0[stage]["hits"]
        m = st1[stage]["misses"] - st0[stage]["misses"]
        metrics[f"cache.stage_hit_frac.{stage}"] = _frac(h, m)
        total_hits += h
        total_misses += m
    metrics["cache.stage_hit_frac"] = _frac(total_hits, total_misses)

    done = [o for o in traced.outcomes if o.artifact is not None]
    if done:
        metrics["artifact.kb_per_job"] = sum(
            len(json.dumps(o.artifact)) for o in done) / 1024.0 / len(done)

    if traced.workers:
        fresh = [r for r in traced.results if r.cache_hit is None]
        compile_s = sum(r.metrics.get("compile_s", 0.0) for r in fresh)
        wait_s = sum(r.metrics.get("queue_wait_s", 0.0) for r in fresh)
        metrics["pool.compile_ms"] = 1000.0 * compile_s / max(len(fresh), 1)
        metrics["pool.queue_wait_ms"] = 1000.0 * wait_s / max(len(fresh), 1)
        metrics["pool.busy_frac"] = compile_s / (
            traced.elapsed * traced.workers)

    metrics["placement.cost_calls"] = (
        recorder.counts["placement.cost_calls"] / n)
    kernel = traced.kernel_delta
    metrics["routing.astar_native_layers"] = kernel["native_layers"] / n
    metrics["routing.astar_python_layers"] = kernel["python_layers"] / n
    metrics["routing.sabre_native_calls"] = kernel["sabre_native_calls"] / n
    metrics["resilience.degraded_jobs"] = float(
        sum(o.status == "degraded" for o in traced.outcomes))
    metrics["gateway.deadline_drops"] = float(
        health(traced)["deadline_drops"])

    def cpu_per_job(phase):
        return sum(phase.cpus) / max(sum(o.status == "ok"
                                     for o in phase.outcomes), 1)

    metrics["trace.overhead_frac"] = (
        cpu_per_job(traced) / cpu_per_job(untraced) - 1.0)
    return metrics


def _result(metrics: dict, units: dict, correct: bool, attempted: int,
            failed: int) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def measure(workload, trace: bool):
    """The timed phase on fresh stacks with the same requests: the
    workload's ``REPEATS`` times untraced, or untraced then traced.  Returns
    ``(phases, recorder)``."""
    from jobbench.trace import Instrumented, Recorder

    recorder = Recorder() if trace else None
    instruments = ([None, Instrumented(recorder)] if trace
                   else [None] * workload.REPEATS)
    phases = []
    for instrument in instruments:
        workload.open()
        try:
            phases.append(workload.run(instrument))
        finally:
            workload.close()
    if not all(p.kernel_available for p in phases):
        raise KernelUnavailable("a worker or the service lost the native "
                                "A* kernel, so the run measured a "
                                "different program; not reporting it")
    return phases, recorder


def score(phases, recorder, setup_times: list[float]) -> dict:
    """Gate the answers and compute the metrics of a measured run."""
    from jobbench.gate import run_gate, same_answers
    from jobbench.inputs import input_properties

    first = phases[0]
    gate = run_gate(first.outcomes)
    for phase in phases[1:]:
        # Every phase (traced or not) must give the same answers.
        gate.failures.update(same_answers(first.outcomes, phase.outcomes))
    if recorder is not None:
        metrics = per_layer(phases[-1], first, recorder)
        units = PER_LAYER
    else:
        metrics, units = end_to_end(phases, gate, setup_times), END_TO_END
    attempted, failed = tally(phases, gate)
    return {
        "inputs": input_properties([o.job for o in first.outcomes]),
        "health": health(first),
        "requests": len(first.latencies),
        "jobs": len(first.outcomes),
        "elapsed_s": [p.elapsed for p in phases],
        "latencies_ms": [[1000.0 * x for x in p.latencies] for p in phases],
        "gate": {
            "checked": gate.checked,
            "equivalence_checked": gate.equivalence_checked,
            "repeats_checked": gate.repeats_checked,
            "failures": gate.failures,
        },
        "metrics": metrics,
        "result": _result(metrics, units, gate.passed, attempted, failed),
    }


def run(args) -> dict:
    from repro.mapping.routing._astar_native import warm_kernel

    from jobbench.workloads import WORKLOADS

    # Build (or load) the kernel before anything is timed, so a changed
    # kernel source never bills its one-time compile to setup_s.
    if not warm_kernel():
        raise KernelUnavailable(
            "the native A* kernel is unavailable, so this run would "
            "measure a different program; not reporting it"
        )
    workdir = tempfile.mkdtemp(prefix="run-", dir=tempfile.gettempdir())
    try:
        workload = WORKLOADS[args.workload](workdir)
        report: dict = {"workload": args.workload, "seed": args.seed,
                        "seconds": args.seconds, "trace": args.trace}
        setup_times = []
        if not args.trace:
            setup_times = time_setup(args.workload, workdir, SETUP_PROBES)
            report["setup_s_samples"] = setup_times
        workload.prepare(args.seed, args.seconds)
        phases, recorder = measure(workload, bool(args.trace))
        report.update(score(phases, recorder, setup_times))
        if recorder is not None:
            report["spans"] = recorder.export()
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class KernelUnavailable(RuntimeError):
    """The run would not measure the program the benchmark defines."""


def _print_report(report: dict, out) -> None:
    result = report["result"]
    elapsed = " ".join(f"{x:.2f}s" for x in report["elapsed_s"])
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  requests {report['requests']}  "
          f"jobs {report['jobs']}  phases {elapsed}", file=out)
    for name, block in result["metrics"].items():
        print(f"  {name:34s} {block['value']:14.4f} {block['unit']}",
              file=out)
    print("  inputs " + json.dumps(report["inputs"], sort_keys=True),
          file=out)
    print("  health " + json.dumps(report["health"], sort_keys=True),
          file=out)
    gate = report["gate"]
    print(f"  gate checked={gate['checked']} "
          f"equivalence={gate['equivalence_checked']} "
          f"repeats={gate['repeats_checked']} "
          f"failures={len(gate['failures'])}", file=out)
    for job_id, reason in sorted(gate["failures"].items()):
        print(f"    FAIL {job_id}: {reason}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve_paper", "sweep_batch",
                                 "compile_large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    # Everything the run writes (kernel build, caches, reports) stays
    # inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    sys.path[:0] = [src, ROOT]
    # A terminated run still closes its server and pool and removes its
    # cache directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        report = run(args)
    except KernelUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    reports = os.path.join(BUILD, "reports")
    os.makedirs(reports, exist_ok=True)
    path = os.path.join(
        reports, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh)
    _print_report(report, sys.stdout)
    print(f"  report {os.path.relpath(path, ROOT)}")
    print(json.dumps(report["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
