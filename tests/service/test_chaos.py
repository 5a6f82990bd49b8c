"""Deterministic fault-injection tests: plans, seams, the invariant.

Three layers, mirroring :mod:`repro.service.chaos`:

* **plans** -- compilation is a pure function of (spec, seed): same seed
  same schedule, rules respect rate/limit/after/horizon, and both
  shipped presets plan >= 4 distinct fault kinds for *any* seed;
* **seams** -- each injector hook does what it says against the real
  component (a ProcessTeam's workers really get SIGKILLed, cache entries
  really get corrupted on disk and healed, coordinator submissions
  really drop/delay/429);
* **the invariant** -- the checker's classification matrix, and a full
  ``BenchService`` + coordinator run under chaos whose surviving
  completions are bit-identical to clean runs.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time

import pytest

from repro import run_benchmark
from repro.service import BenchService, ServiceUnavailable
from repro.service.cache import ResultCache
from repro.service.chaos import (
    FAULT_KINDS,
    POINT_KINDS,
    RECORD_KIND,
    RETRIES_429,
    SCHEMA_VERSION,
    ChaosInjector,
    ChaosPlan,
    ChaosSpec,
    FaultRule,
    build_record,
    check_invariant,
    coordinator_preset,
    derive_seed,
    load_record,
    result_digest,
    retry_429,
    service_preset,
    write_record,
)
from repro.service.loadgen import issue_request, run_closed_loop
from repro.service.pool import TeamPool
from repro.service.shard import ShardCoordinator
from repro.team.procs import ProcessTeam


# ===================================================================== #
# rules and specs
# ===================================================================== #


class TestFaultRule:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultRule("cache.evict", "cache_corrupt", rate=1.0)

    def test_kind_invalid_at_point_rejected(self):
        with pytest.raises(ValueError, match="not valid at"):
            FaultRule("pool.lease", "cache_corrupt", rate=1.0)

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            FaultRule("pool.lease", "kill_team", rate=1.5)
        with pytest.raises(ValueError, match="rate"):
            FaultRule("pool.lease", "kill_team", rate=-0.1)

    def test_limit_and_after_validated(self):
        with pytest.raises(ValueError, match="limit"):
            FaultRule("pool.lease", "kill_team", rate=1.0, limit=0)
        with pytest.raises(ValueError, match="after"):
            FaultRule("pool.lease", "kill_team", rate=1.0, after=-1)

    def test_every_point_has_known_kinds(self):
        for point, kinds in POINT_KINDS.items():
            for kind in kinds:
                assert kind in FAULT_KINDS
                FaultRule(point, kind, rate=0.5)  # must not raise

    def test_spec_horizon_validated(self):
        with pytest.raises(ValueError, match="horizon"):
            ChaosSpec("bad", rules=(), horizon=0)

    def test_spec_as_dict_is_json_clean(self):
        spec = service_preset()
        blob = json.dumps(spec.as_dict())
        assert json.loads(blob)["name"] == "service"


# ===================================================================== #
# plan compilation
# ===================================================================== #


class TestChaosPlan:
    def test_same_seed_same_schedule(self):
        for preset in (service_preset, coordinator_preset):
            for seed in (0, 7, 42, 99991):
                a = ChaosPlan.compile(preset(), seed)
                b = ChaosPlan.compile(preset(), seed)
                assert a.as_dict() == b.as_dict()

    def test_different_seeds_differ_somewhere(self):
        spec = service_preset()
        schedules = {
            json.dumps(ChaosPlan.compile(spec, seed).as_dict()["schedule"])
            for seed in range(20)
        }
        assert len(schedules) > 1  # probabilistic rules move with the seed

    def test_rate_one_fires_exactly_at_after_index(self):
        spec = ChaosSpec(
            "t",
            rules=(FaultRule("pool.lease", "kill_team", rate=1.0, after=3),),
        )
        plan = ChaosPlan.compile(spec, 123)
        faults = plan.faults()
        assert [f.index for f in faults] == [3]
        assert plan.get("pool.lease", 3).kind == "kill_team"
        assert plan.get("pool.lease", 2) is None

    def test_limit_caps_firings(self):
        spec = ChaosSpec(
            "t",
            rules=(
                FaultRule("cache.get", "cache_corrupt", rate=1.0, limit=2),
            ),
        )
        plan = ChaosPlan.compile(spec, 1)
        assert [f.index for f in plan.faults()] == [0, 1]

    def test_horizon_bounds_the_schedule(self):
        spec = ChaosSpec(
            "t",
            rules=(
                FaultRule("cache.get", "cache_corrupt", rate=1.0, limit=99),
            ),
            horizon=5,
        )
        plan = ChaosPlan.compile(spec, 1)
        assert len(plan.faults()) == 5
        assert plan.get("cache.get", 5) is None

    def test_first_rule_wins_an_index(self):
        spec = ChaosSpec(
            "t",
            rules=(
                FaultRule("cache.get", "cache_truncate", rate=1.0, limit=1),
                FaultRule("cache.get", "cache_corrupt", rate=1.0, limit=1),
            ),
        )
        plan = ChaosPlan.compile(spec, 5)
        assert plan.get("cache.get", 0).kind == "cache_truncate"
        assert plan.get("cache.get", 1).kind == "cache_corrupt"

    def test_points_have_independent_streams(self):
        """Adding rules at one point must not move another point's
        faults -- each point draws from its own seeded RNG."""
        base = ChaosSpec(
            "t",
            rules=(FaultRule("pool.lease", "kill_team", rate=0.3, limit=8),),
        )
        widened = ChaosSpec(
            "t",
            rules=base.rules
            + (FaultRule("cache.get", "cache_corrupt", rate=0.3, limit=8),),
        )
        for seed in range(10):
            a = ChaosPlan.compile(base, seed).schedule.get("pool.lease", {})
            b = ChaosPlan.compile(widened, seed).schedule.get(
                "pool.lease", {}
            )
            assert a == b

    def test_presets_plan_at_least_four_kinds_for_any_seed(self):
        """The CI gate needs >= 4 distinct fault kinds regardless of
        seed; both presets guarantee it with deterministic rate-1.0
        rules at staggered offsets."""
        for factory in (service_preset, coordinator_preset):
            spec = factory()
            for seed in range(50):
                kinds = ChaosPlan.compile(spec, seed).kinds()
                assert len(kinds) >= 4, (spec.name, seed, kinds)

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(7, "shard0") == derive_seed(7, "shard0")
        assert derive_seed(7, "shard0") != derive_seed(7, "shard1")
        assert derive_seed(7, "shard0") != derive_seed(8, "shard0")


# ===================================================================== #
# injector seams
# ===================================================================== #


def _plan(*rules, horizon=64):
    return ChaosPlan.compile(ChaosSpec("t", rules=rules, horizon=horizon), 0)


class TestInjectorCore:
    def test_fire_consumes_indices_and_records_events(self):
        injector = ChaosInjector(
            _plan(FaultRule("pool.lease", "kill_team", rate=1.0, after=1))
        )
        assert injector.fire("pool.lease") is None  # index 0: nothing
        fault = injector.fire("pool.lease")  # index 1: the kill
        assert fault.kind == "kill_team"
        assert injector.fire("pool.lease") is None  # limit reached
        summary = injector.summary()
        assert summary["injected"] == 1
        assert summary["invocations"] == {"pool.lease": 3}
        assert summary["kinds"] == {"kill_team": 1}

    def test_unplanned_points_are_noops(self):
        injector = ChaosInjector(_plan())
        for point in POINT_KINDS:
            assert injector.fire(point) is None
        assert injector.events == []

    def test_fire_is_thread_safe(self):
        injector = ChaosInjector(
            _plan(
                FaultRule("cache.get", "cache_corrupt", rate=1.0, limit=100),
            )
        )
        hits = []

        def worker():
            for _ in range(50):
                fault = injector.fire("cache.get")
                if fault is not None:
                    hits.append(fault)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # 200 invocations, horizon 64, limit 100 -> exactly 64 planned
        assert len(hits) == 64
        assert injector.summary()["invocations"]["cache.get"] == 200


class TestKillTeamSeam:
    def test_process_team_workers_really_die(self):
        injector = ChaosInjector(
            _plan(FaultRule("pool.lease", "kill_team", rate=1.0))
        )
        team = ProcessTeam(2)
        try:
            pids = [proc.pid for proc in team._procs]
            injector.on_lease(team)
            deadline = time.time() + 5.0
            while time.time() < deadline and team.alive():
                time.sleep(0.05)
            assert not team.alive()
            event = injector.events[0]
            assert event["kind"] == "kill_team"
            assert str(pids[0]) in event["detail"]
        finally:
            team.close()

    def test_killed_process_team_recovers_bit_identically(self):
        """The in-flight job after a lease-time SIGKILL must still
        complete with the same verification values as a clean run."""
        from repro.core.registry import get_benchmark

        injector = ChaosInjector(
            _plan(FaultRule("pool.lease", "kill_team", rate=1.0))
        )
        clean = run_benchmark("CG", "S").to_dict()
        team = ProcessTeam(2)
        try:
            injector.on_lease(team)
            result = get_benchmark("CG")("S", team).run()
            assert result.verified
            record = result.to_dict()
            assert record["verification"] == clean["verification"]
            assert any(f["kind"] in ("respawn", "degraded")
                       for f in record["faults"])
        finally:
            team.close()

    def test_serial_team_is_force_degraded(self):
        from repro.team import make_team

        injector = ChaosInjector(
            _plan(FaultRule("pool.lease", "kill_team", rate=1.0))
        )
        with make_team("serial", 1) as team:
            injector.on_lease(team)
            assert team.degraded
            assert "degraded" in injector.events[0]["detail"]


class TestCacheSeam:
    def _cache_with_entry(self, tmp_path, injector=None):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.chaos = injector
        fingerprint = "f" * 64
        cache.put(fingerprint, {"verification": [1, 2, 3]})
        return cache, fingerprint

    def test_corrupt_on_get_heals_and_counts(self, tmp_path):
        injector = ChaosInjector(
            _plan(FaultRule("cache.get", "cache_corrupt", rate=1.0))
        )
        cache, fingerprint = self._cache_with_entry(tmp_path, injector)
        assert cache.get(fingerprint) is None  # corrupted -> healed miss
        assert cache.corruption_healed == 1
        assert cache.misses == 1
        assert not os.path.exists(cache._path(fingerprint))
        assert cache.stats()["corruption_healed"] == 1
        # next lookup is a clean miss, not another heal
        assert cache.get(fingerprint) is None
        assert cache.corruption_healed == 1

    def test_truncate_on_get_heals(self, tmp_path):
        injector = ChaosInjector(
            _plan(FaultRule("cache.get", "cache_truncate", rate=1.0))
        )
        cache, fingerprint = self._cache_with_entry(tmp_path, injector)
        assert cache.get(fingerprint) is None
        assert cache.corruption_healed == 1

    def test_corrupt_on_put_poisons_next_get_only_once(self, tmp_path):
        injector = ChaosInjector(
            _plan(FaultRule("cache.put", "cache_corrupt", rate=1.0))
        )
        cache, fingerprint = self._cache_with_entry(tmp_path, injector)
        assert cache.get(fingerprint) is None  # the put was torn
        assert cache.corruption_healed == 1
        cache.put(fingerprint, {"verification": [1]})  # put index 1: clean
        assert cache.get(fingerprint) == {"verification": [1]}

    def test_missing_entry_damage_is_harmless(self, tmp_path):
        injector = ChaosInjector(
            _plan(FaultRule("cache.get", "cache_corrupt", rate=1.0))
        )
        cache = ResultCache(str(tmp_path / "cache"))
        cache.chaos = injector
        assert cache.get("a" * 64) is None
        assert cache.corruption_healed == 0
        assert "no entry" in injector.events[0]["detail"]


class TestCoordinatorSeams:
    def test_probe_drop_raises_service_unavailable(self):
        injector = ChaosInjector(
            _plan(FaultRule("shard.probe", "drop_response", rate=1.0))
        )
        with pytest.raises(ServiceUnavailable, match="chaos"):
            injector.on_probe("shard0")
        assert injector.on_probe("shard0") is None  # limit hit: clean

    def test_submit_drop_raises(self):
        injector = ChaosInjector(
            _plan(FaultRule("shard.submit", "drop_response", rate=1.0))
        )
        with pytest.raises(ServiceUnavailable, match="dropped"):
            injector.on_submit("shard0")

    def test_submit_delay_sleeps_then_proceeds(self):
        injector = ChaosInjector(
            _plan(
                FaultRule(
                    "shard.submit", "delay_response", rate=1.0, param=0.05
                )
            )
        )
        t0 = time.perf_counter()
        assert injector.on_submit("shard0") is None  # delayed, not replaced
        assert time.perf_counter() - t0 >= 0.04

    def test_submit_storm_returns_synthetic_429(self):
        injector = ChaosInjector(
            _plan(FaultRule("shard.submit", "storm_429", rate=1.0))
        )
        code, body = injector.on_submit("shard0")
        assert code == 429
        assert body["chaos"] is True


# ===================================================================== #
# component integration
# ===================================================================== #


class TestPoolIntegration:
    def test_lease_hook_fires_on_warm_leases(self):
        injector = ChaosInjector(
            _plan(FaultRule("pool.lease", "kill_team", rate=1.0))
        )
        with TeamPool("serial", 1, size=1) as pool:
            pool.chaos = injector
            team, pooled = pool.lease()
            assert pooled and team.degraded  # the hook degraded it
            pool.release(team, pooled)
            assert pool.occupancy()["replacements"] == 1

    def test_install_wires_every_seam(self, tmp_path):
        injector = ChaosInjector(_plan())
        service = BenchService(
            cache_dir=str(tmp_path / "cache"), chaos=injector,
            autostart=False,
        )
        try:
            assert service.pool.chaos is injector
            assert service.cache.chaos is injector
            assert service.scheduler.chaos is injector
            assert service.chaos is injector
            status = service.status()
            assert status["chaos"]["planned"] == 0
            assert status["chaos"]["seed"] == 0
        finally:
            service.drain(timeout=5.0)

    def test_no_chaos_means_no_status_block(self, tmp_path):
        service = BenchService(
            cache_dir=str(tmp_path / "cache"), autostart=False
        )
        try:
            assert "chaos" not in service.status()
        finally:
            service.drain(timeout=5.0)


class TestServiceUnderChaos:
    def test_jobs_complete_bit_identically_under_service_preset(
        self, tmp_path
    ):
        """A full BenchService run under the shipped service preset:
        every job terminal, completions match a clean run exactly."""
        plan = ChaosPlan.compile(service_preset(), 7)
        service = BenchService(
            cache_dir=str(tmp_path / "cache"),
            chaos=ChaosInjector(plan),
        )
        clean = run_benchmark("CG", "S").to_dict()
        try:
            jobs = [
                service.submit("CG", "S", no_cache=(i % 2 == 0))
                for i in range(6)
            ]
            for job in jobs:
                done = service.wait(job.job_id, timeout=60.0)
                assert done.state in ("done", "cached")
                assert (
                    done.result["verification"] == clean["verification"]
                )
            summary = service.status()["chaos"]
            assert summary["injected"] > 0
        finally:
            service.drain(timeout=10.0)

    def test_dispatch_delay_does_not_lose_jobs(self, tmp_path):
        plan = _plan(
            FaultRule(
                "scheduler.dispatch",
                "delay_dispatch",
                rate=1.0,
                limit=3,
                param=0.02,
            )
        )
        service = BenchService(
            cache_dir=str(tmp_path / "cache"), chaos=ChaosInjector(plan)
        )
        try:
            job = service.submit("MG", "S")
            assert service.wait(job.job_id, timeout=60.0).state == "done"
        finally:
            service.drain(timeout=10.0)


@contextlib.contextmanager
def _chaos_fleet(tmp_path, daemon_url, injector, count=2):
    """In-process shard fleet with a chaos-injecting coordinator."""
    services = [
        BenchService(backend="serial", pool_size=1,
                     cache_dir=str(tmp_path / f"cache{i}"))
        for i in range(count)
    ]
    shards = {
        f"s{i}": daemon_url(service, drain_timeout=10.0)
        for i, service in enumerate(services)
    }
    coordinator = ShardCoordinator(shards, health_interval=60.0)
    injector.install_coordinator(coordinator)
    coordinator.start()
    try:
        yield coordinator, services
    finally:
        coordinator.close()


class TestCoordinatorUnderChaos:
    def test_dropped_submission_fails_over_with_verdict(self, tmp_path, daemon_url):
        injector = ChaosInjector(
            _plan(FaultRule("shard.submit", "drop_response", rate=1.0))
        )
        with _chaos_fleet(tmp_path, daemon_url, injector) as (coordinator, _):
            code, body = coordinator.submit(
                {"benchmark": "CG", "problem_class": "S", "wait": True}
            )
            assert code == 200
            assert body["state"] == "done"
            routing = body["routing"]
            assert routing["degraded"] is True
            assert len(routing["attempts"]) == 1
            assert "chaos" in routing["attempts"][0]["error"]

    def test_storm_429_passes_through_as_backpressure(self, tmp_path, daemon_url):
        injector = ChaosInjector(
            _plan(FaultRule("shard.submit", "storm_429", rate=1.0))
        )
        with _chaos_fleet(tmp_path, daemon_url, injector) as (coordinator, _):
            code, body = coordinator.submit(
                {"benchmark": "CG", "problem_class": "S", "wait": True}
            )
            assert code == 429
            assert body["chaos"] is True
            # the storm burns one shard.submit index; the retry is clean
            code, body = coordinator.submit(
                {"benchmark": "CG", "problem_class": "S", "wait": True}
            )
            assert code == 200

    def test_probe_drop_marks_shard_unhealthy_then_recovers(self, tmp_path, daemon_url):
        injector = ChaosInjector(
            _plan(FaultRule("shard.probe", "drop_response", rate=1.0))
        )
        with _chaos_fleet(tmp_path, daemon_url, injector) as (coordinator, _):
            # start() already probed: index 0 dropped -> s0 condemned
            assert not coordinator._states["s0"].healthy
            coordinator.check_shard("s0")  # next probe is clean
            assert coordinator._states["s0"].healthy


# ===================================================================== #
# the runner's 429 retry
# ===================================================================== #


class _ScriptedSampler:
    def next_request(self):
        return "CG.S", {"benchmark": "CG", "wait": True}


class TestRetry429:
    """The runner's submit resubmits a 429 a bounded number of times."""

    def test_retries_429_then_gives_up(self):
        for codes, calls, status in (
            ([429, 429, 200], 3, "ok"),
            ([429] * 10, RETRIES_429 + 1, "rejected"),
        ):
            answers = iter(codes)
            seen = []

            def submit(payload):
                seen.append(payload)
                return next(answers), {"state": "done"}

            outcomes, _ = run_closed_loop(
                retry_429(submit), _ScriptedSampler(), 1, 1
            )
            assert len(seen) == calls
            assert outcomes[0].status == status


# ===================================================================== #
# the invariant
# ===================================================================== #


def _entry(code, body):
    """The outcome loadgen records for one ``(code, body)`` answer."""
    return issue_request(lambda payload: (code, body), "CG.S", {})


def _lost(error):
    """The outcome loadgen records when ``submit`` raises ``error``."""

    def submit(payload):
        raise error

    return issue_request(submit, "CG.S", {})


def _done_body(fingerprint="f" * 64, verification=(1.0, 2.0), state="done"):
    return {
        "state": state,
        "result": {
            "verification": list(verification),
            "provenance": {"fingerprint": fingerprint},
        },
    }


class TestInvariantChecker:
    def test_clean_completions_pass(self):
        outcomes = [
            _entry(200, _done_body()),
            _entry(200, _done_body(state="cached")),
        ]
        verdict = check_invariant(outcomes)
        assert verdict["pass"]
        assert verdict["counts"]["done"] == 1
        assert verdict["counts"]["cached"] == 1
        assert verdict["counts"]["lost"] == 0

    def test_structured_failure_passes(self):
        outcomes = [_entry(200, {"state": "failed", "error": "Trace..."})]
        verdict = check_invariant(outcomes)
        assert verdict["pass"]
        assert verdict["counts"]["failed"] == 1

    def test_unstructured_failure_fails(self):
        outcomes = [_entry(200, {"state": "failed", "error": None})]
        verdict = check_invariant(outcomes)
        assert not verdict["pass"]
        checks = {c["name"]: c for c in verdict["checks"]}
        assert not checks["structured_failures"]["pass"]

    def test_429_and_routed_503_are_accounted(self):
        outcomes = [
            _entry(429, {"error": "queue full"}),
            _entry(503, {"error": "no shard", "routing": {"attempts": []}}),
        ]
        verdict = check_invariant(outcomes)
        assert verdict["pass"]
        assert verdict["counts"]["rejected_429"] == 1
        assert verdict["counts"]["unroutable_503"] == 1

    def test_transport_error_is_lost(self):
        outcomes = [_lost(ServiceUnavailable("boom"))]
        verdict = check_invariant(outcomes)
        assert not verdict["pass"]
        assert verdict["counts"]["lost"] == 1

    def test_bare_503_without_routing_is_lost(self):
        outcomes = [_entry(503, {"error": "???"})]
        verdict = check_invariant(outcomes)
        assert not verdict["pass"]

    def test_divergent_completions_fail_bit_identical(self):
        outcomes = [
            _entry(200, _done_body(verification=(1.0, 2.0))),
            _entry(200, _done_body(verification=(1.0, 2.00001))),
        ]
        verdict = check_invariant(outcomes)
        assert not verdict["pass"]
        checks = {c["name"]: c for c in verdict["checks"]}
        assert not checks["bit_identical_results"]["pass"]

    def test_identical_completions_pass_bit_identical(self):
        outcomes = [
            _entry(200, _done_body(verification=(1.0, 2.0)))
            for i in range(3)
        ]
        assert check_invariant(outcomes)["pass"]

    def test_stuck_shard_job_fails(self):
        shard_jobs = {"s0": [{"job_id": "job-1", "state": "running"}]}
        verdict = check_invariant([], shard_jobs)
        assert not verdict["pass"]
        checks = {c["name"]: c for c in verdict["checks"]}
        assert not checks["shards_settled"]["pass"]

    def test_terminal_shard_jobs_pass(self):
        shard_jobs = {
            "s0": [
                {"job_id": "a", "state": "done"},
                {"job_id": "b", "state": "cached"},
                {"job_id": "c", "state": "failed", "error": "Trace"},
            ]
        }
        assert check_invariant([], shard_jobs)["pass"]

    def test_unstructured_shard_failure_fails(self):
        shard_jobs = {"s0": [{"job_id": "a", "state": "failed"}]}
        assert not check_invariant([], shard_jobs)["pass"]

    def test_result_digest_is_canonical(self):
        a = [{"quantity": "zeta", "computed": 1.0}]
        b = [{"computed": 1.0, "quantity": "zeta"}]  # key order irrelevant
        assert result_digest(a) == result_digest(b)
        assert result_digest(a) != result_digest(
            [{"quantity": "zeta", "computed": 1.1}]
        )


# ===================================================================== #
# records
# ===================================================================== #


def _minimal_record(seed=7, outcomes=None):
    plan = ChaosPlan.compile(coordinator_preset(), seed)
    return build_record(
        seed=seed,
        config={"shards": 2},
        coordinator_plan=plan,
        shard_plans={"shard0": ChaosPlan.compile(service_preset(), 1)},
        injected={
            "coordinator": [{"kind": "drop_response", "point": "x"}],
            "runner": [{"kind": "kill_shard"}],
            "shards": {"shard0": {"kinds": {"kill_team": 1}}},
        },
        outcomes=outcomes or [_entry(200, _done_body())],
        elapsed_seconds=1.0,
    )


class TestChaosRecords:
    def test_build_record_shape(self):
        record = _minimal_record()
        assert record["kind"] == RECORD_KIND
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["seed"] == 7
        assert set(record["fault_kinds"]) == {
            "drop_response",
            "kill_shard",
            "kill_team",
        }
        assert record["invariant"]["pass"]
        json.dumps(record)  # must be JSON-serializable

    def test_write_load_round_trip_and_sequencing(self, tmp_path):
        record = _minimal_record()
        path1 = write_record(record, directory=str(tmp_path))
        path2 = write_record(record, directory=str(tmp_path))
        assert path1.endswith("CHAOS_0001.json")
        assert path2.endswith("CHAOS_0002.json")
        loaded = load_record(path1)
        assert loaded["sequence"] == 1
        assert loaded["plan"] == record["plan"]

    def test_load_rejects_foreign_kind(self, tmp_path):
        path = tmp_path / "CHAOS_0001.json"
        path.write_text(json.dumps({"kind": "npb-bench-record"}))
        with pytest.raises(ValueError, match="not an npb-chaos-record"):
            load_record(str(path))

    def test_load_rejects_newer_schema(self, tmp_path):
        record = dict(_minimal_record(), schema_version=SCHEMA_VERSION + 1)
        path = tmp_path / "CHAOS_0001.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="schema_version"):
            load_record(str(path))

    def test_load_rejects_older_schema(self, tmp_path):
        """CHAOS has no migration: a v1 record is refused, not read as
        though it were current."""
        record = dict(_minimal_record(), schema_version=SCHEMA_VERSION - 1)
        path = tmp_path / "CHAOS_0001.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match=f"schema_version {SCHEMA_VERSION - 1}"):
            load_record(str(path))

    def test_traffic_is_the_loadgen_summary(self):
        outcomes = [
            _entry(200, _done_body()),
            _entry(429, {"error": "full"}),
            _lost(RuntimeError("boom")),
            _entry(200, dict(_done_body(), routing={"degraded": True})),
        ]
        record = _minimal_record(outcomes=outcomes)
        requests = record["traffic"]["requests"]
        assert requests["total"] == 4 == len(record["ledger"])
        assert requests["ok"] == 2
        assert requests["rejected_429"] == 1
        assert requests["failed"] == 1
        assert requests["degraded"] == 1
        assert record["ledger"][1]["body"] == {"error": "full"}
        assert record["ledger"][2]["error"] == "RuntimeError: boom"
        assert record["invariant"]["counts"]["lost"] == 1
        json.dumps(record)


class TestChaosCounts:
    """``npb chaos`` refuses a count below 1 with exit 2, naming the
    option, before it spawns a single shard."""

    @pytest.mark.parametrize(
        "flag, option",
        [("--shards", "--shards"), ("-n", "--requests"), ("-C", "--concurrency")],
    )
    def test_count_below_one_is_a_usage_error(
        self, flag, option, monkeypatch, tmp_path, capsys
    ):
        from repro.harness.cli import main
        from repro.service import chaos

        def spawn_shard(*args, **kwargs):
            raise AssertionError("spawn_shard called")

        monkeypatch.setattr(chaos, "spawn_shard", spawn_shard)
        code = main(["chaos", flag, "0", "--dir", str(tmp_path)])
        assert code == 2
        assert f"{option} must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
