"""Tests for the placement stage cache.

Covers the per-stage key derivation (`repro.service.keys.stage_key`),
the stage namespace of `CompileCache`, the pipeline's `stage_store`
hook (placement is the only cached stage: one entry must serve every
other config knob with byte-identical artifacts), corrupt-entry
semantics, tracing, and the engine integration (inline and pool paths).
"""

import itertools
import json

import pytest

from repro.core.pipeline import PassConfig, compile_with_config
from repro.devices import get_device
from repro.obs import Tracer, use_tracer
from repro.qasm import parse_qasm, to_openqasm
from repro.resilience.faults import FaultPlan
from repro.service import CompileCache, CompileJob, CompileService
from repro.service.artifact import result_to_artifact
from repro.service.cache import CacheStageStore
from repro.service.engine import run_payload
from repro.service.keys import canonical_json, stage_key
from repro.workloads import random_circuit


@pytest.fixture
def device():
    return get_device("ibm_qx4")


@pytest.fixture
def qasm():
    return to_openqasm(
        random_circuit(5, 18, seed=9, two_qubit_fraction=0.6)
    )


def _compile(qasm, device, store=None, **cfg):
    return compile_with_config(
        parse_qasm(qasm), device, PassConfig(**cfg), stage_store=store
    )


class TestStageKeys:
    INPUTS = {"circuit_qasm": "OPENQASM 2.0;", "device": {"n": 5}}

    def test_deterministic(self):
        a = stage_key("routing", self.INPUTS, {"router": "sabre"})
        b = stage_key("routing", self.INPUTS, {"router": "sabre"})
        assert a == b and len(a) == 64

    def test_stage_name_changes_key(self):
        assert stage_key("routing", self.INPUTS, {}) != stage_key(
            "placement", self.INPUTS, {}
        )

    def test_inputs_change_key(self):
        other = {"circuit_qasm": "OPENQASM 2.0;\nqreg q[1];", "device": {"n": 5}}
        assert stage_key("routing", self.INPUTS, {}) != stage_key(
            "routing", other, {}
        )

    def test_config_slice_changes_key(self):
        base = stage_key("routing", self.INPUTS, {"router": "sabre"})
        assert stage_key("routing", self.INPUTS, {"router": "astar"}) != base

    def test_version_changes_key(self):
        base = stage_key("routing", self.INPUTS, {})
        assert stage_key("routing", self.INPUTS, {}, version="0.0.0-x") != base

    def test_unserialisable_raises(self):
        with pytest.raises(TypeError):
            stage_key("routing", {"bad": object()}, {})


class TestStageReuse:
    def test_placement_reused_across_routers(self, qasm, device):
        cache = CompileCache()
        store = CacheStageStore(cache)
        _compile(qasm, device, store, router="sabre")
        _compile(qasm, device, store, router="astar")
        stages = cache.stats()["stages"]
        assert set(stages) == {"placement"}
        assert stages["placement"]["memory_hits"] == 1
        assert stages["placement"]["misses"] == 1

    def test_placement_entry_serves_every_other_knob(self, qasm, device):
        # The placement key commits to the placer alone, so it must be
        # sound for every other PassConfig knob: one probe misses, every
        # later job hits, and each artifact is byte-identical to a
        # store-less compile.  A knob that changed the placement without
        # entering its key would break the byte compare.
        routes = [
            ("sabre", {}), ("sabre", {"lookahead": 0}),
            ("astar", {}), ("naive", {}),
        ]
        schedules = [
            (None, None), ("asap", None), ("alap", None),
            ("constraints", None), ("constraints", True),
            ("constraints", False),
        ]
        grid = [
            PassConfig(
                router=router, router_options=options,
                decompose=decompose, optimize=optimize,
                schedule=sched, control_constraints=constraints,
            )
            for (router, options), decompose, optimize,
            (sched, constraints) in itertools.product(
                routes, (True, False), (False, True), schedules
            )
        ]
        varied = {
            knob for knob, value in PassConfig().to_dict().items()
            if any(cfg.to_dict()[knob] != value for cfg in grid)
        }
        assert varied == set(PassConfig().to_dict()) - {"placer"}

        cache = CompileCache()
        store = CacheStageStore(cache)
        for cfg in grid:
            staged = compile_with_config(
                parse_qasm(qasm), device, cfg, stage_store=store
            )
            fresh = compile_with_config(parse_qasm(qasm), device, cfg)
            assert canonical_json(
                result_to_artifact(staged, config=cfg)
            ) == canonical_json(result_to_artifact(fresh, config=cfg)), cfg
        stages = cache.stats()["stages"]
        assert set(stages) == {"placement"}
        assert stages["placement"]["misses"] == 1
        assert stages["placement"]["memory_hits"] == len(grid) - 1

    def test_staged_artifacts_byte_identical_to_fresh(self, qasm, device):
        store = CacheStageStore(CompileCache())
        for router in ("sabre", "naive"):
            for sched in ("asap", "alap"):
                cfg = PassConfig(router=router, schedule=sched)
                staged = compile_with_config(
                    parse_qasm(qasm), device, cfg, stage_store=store
                )
                fresh = compile_with_config(parse_qasm(qasm), device, cfg)
                assert canonical_json(
                    result_to_artifact(staged, config=cfg)
                ) == canonical_json(result_to_artifact(fresh, config=cfg))

    def test_callable_placer_never_stage_cached(self, qasm, device):
        from repro.mapping.placement import PLACERS

        cache = CompileCache()
        store = CacheStageStore(cache)
        placer = PLACERS["assignment"]  # a callable, not a name
        result = compile_with_config(
            parse_qasm(qasm), device, stage_store=store,
        )
        del result
        custom = parse_qasm(qasm)
        from repro.core.pipeline import compile_circuit

        compile_circuit(custom, device, placer=placer, stage_store=store)
        stages = cache.stats()["stages"]
        # One placement probe from the named run; none from the callable.
        assert stages["placement"]["misses"] == 1
        assert stages["placement"].get("memory_hits", 0) == 0

    def test_unserialisable_inputs_are_uncacheable_not_fatal(self):
        store = CacheStageStore(CompileCache())
        assert store.load("routing", {"bad": object()}, {}) is None
        store.store("routing", {"bad": object()}, {}, {"x": 1})  # no raise
        assert store.cache.stage_counters() == {}


class TestStageDiskTier:
    def test_stage_entries_shared_across_instances(self, qasm, device, tmp_path):
        first = CompileCache(directory=tmp_path)
        _compile(qasm, device, CacheStageStore(first), router="sabre")
        layout = {
            p.relative_to(tmp_path).parts[:2]
            for p in tmp_path.glob("stages/*/*.json")
        }
        assert layout == {("stages", "placement")}

        fresh = CompileCache(directory=tmp_path)
        _compile(qasm, device, CacheStageStore(fresh), router="sabre")
        stages = fresh.stats()["stages"]
        assert set(stages) == {"placement"}
        assert stages["placement"]["disk_hits"] == 1
        assert "misses" not in stages["placement"]

    def test_corrupt_stage_entry_deleted_and_recomputed(
        self, qasm, device, tmp_path
    ):
        first = CompileCache(directory=tmp_path)
        _compile(qasm, device, CacheStageStore(first), router="sabre")
        expected = canonical_json(result_to_artifact(
            _compile(qasm, device, router="sabre"),
            config=PassConfig(router="sabre"),
        ))
        [placement_file] = tmp_path.glob("stages/placement/*.json")
        placement_file.write_text("{not json")

        fresh = CompileCache(directory=tmp_path)
        result = _compile(qasm, device, CacheStageStore(fresh), router="sabre")
        stages = fresh.stats()["stages"]
        assert stages["placement"]["disk_errors"] == 1
        assert stages["placement"]["misses"] == 1
        # The corrupt bytes never reached the result, and the slot was
        # rewritten with a valid entry.
        assert canonical_json(result_to_artifact(
            result, config=PassConfig(router="sabre")
        )) == expected
        json.loads(placement_file.read_text())

    def test_clear_drops_stage_entries(self, qasm, device, tmp_path):
        cache = CompileCache(directory=tmp_path)
        _compile(qasm, device, CacheStageStore(cache))
        assert list(tmp_path.glob("stages/*/*.json"))
        cache.clear()
        assert not list(tmp_path.glob("stages/*/*.json"))


class TestStageTracing:
    def test_probes_emit_hit_and_miss_spans(self, qasm, device):
        store = CacheStageStore(CompileCache())
        tracer = Tracer()
        with use_tracer(tracer):
            _compile(qasm, device, store, schedule="asap")
            _compile(qasm, device, store, schedule="alap")
        names = [e["name"] for e in tracer.finished()]
        assert names.count("cache.stage_miss") == 1
        assert names.count("cache.stage_hit") == 1
        probed = {
            e["args"]["stage"]
            for e in tracer.finished()
            if e["name"] in ("cache.stage_hit", "cache.stage_miss")
        }
        assert probed == {"placement"}


class TestServiceIntegration:
    def _jobs(self, qasm, device, routers=("sabre", "astar"),
              schedule="asap"):
        return [
            CompileJob.create(
                qasm, device,
                PassConfig(router=router, schedule=schedule),
                job_id=f"{router}/{schedule}",
            )
            for router in routers
        ]

    def test_inline_submits_share_stage_entries(self, qasm, device):
        service = CompileService(CompileCache())
        for job in self._jobs(qasm, device):
            assert service.submit(job).ok
        svc = service.stats()["service"]
        assert svc["stage_hits"] == 1  # placement reused across routers
        assert svc["stage_misses"] == 1
        service.close()

    def test_pool_workers_probe_disk_and_parent_merges_counters(
        self, qasm, device, tmp_path
    ):
        service = CompileService(
            CompileCache(directory=tmp_path), max_workers=2
        )
        try:
            cold = service.submit_batch(self._jobs(qasm, device))
            assert all(r.ok for r in cold)
            assert list(tmp_path.glob("stages/placement/*.json"))
            # New schedule => every full-pipeline key misses, but the
            # workers find the placement on disk.  (The cold batch may
            # hit it once too, when one worker stores it first.)
            warm = service.submit_batch(
                self._jobs(qasm, device, schedule="alap")
            )
            assert all(r.ok and r.cache_hit is None for r in warm)
            svc = service.stats()["service"]
            assert svc["stage_hits"] >= 2
            stages = service.cache.stats()["stages"]
            assert set(stages) == {"placement"}
            assert stages["placement"]["disk_hits"] >= 2
        finally:
            service.close()

    def test_fault_plan_runs_never_touch_the_stage_cache(
        self, qasm, device, tmp_path
    ):
        plan = FaultPlan.from_dict({
            "seed": 7,
            "faults": [{
                "stage": "worker", "action": "crash",
                "job_id": "someone-else", "times": None,
            }],
        })
        job = CompileJob.create(
            qasm, device, PassConfig(), job_id="clean-job"
        )
        payload = job.payload()
        payload["faults"] = plan.to_dict()
        payload["stage_cache_dir"] = str(tmp_path / "stages-under-faults")
        outcome = run_payload(payload)
        assert outcome["status"] == "ok"
        assert "stage_counters" not in outcome
        assert not (tmp_path / "stages-under-faults").exists()
