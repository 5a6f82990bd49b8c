"""Loadgen harness tests: mixes, samplers, percentile accounting, SLO
verdicts, record round-trips, the comparator, and a small
end-to-end run against an in-process service."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.harness.stats import percentile
from repro.service import BenchService, ServiceUnavailable
from repro.service.loadgen import (LoadgenConfig, MixEntry, PROFILES,
                                   RequestOutcome, RequestSampler, SLOPolicy,
                                   TrafficProfile, closed_loop,
                                   compare_records,
                                   evaluate_slo, latest_record_path,
                                   load_record, next_sequence, parse_mix,
                                   run_closed_loop, run_loadgen,
                                   summarize_outcomes, write_record)


class TestPercentile:
    def test_matches_numpy_linear_interpolation(self):
        numpy = pytest.importorskip("numpy")
        values = [0.5, 0.1, 0.9, 0.2, 0.4, 0.8, 0.3]
        for q in (0, 25, 50, 75, 90, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(
                float(numpy.percentile(values, q)))

    def test_edges_and_errors(self):
        assert percentile([3.0], 95) == 3.0
        assert percentile([1.0, 2.0], 50) == 1.5
        assert percentile([1.0, 2.0], 0) == 1.0
        assert percentile([1.0, 2.0], 100) == 2.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestMixes:
    def test_parse_shorthand_and_full_spec(self):
        assert MixEntry.parse("CG") == MixEntry("CG")
        entry = MixEntry.parse("mg:s:threads:2@3")
        assert entry == MixEntry("MG", "S", "threads", 2, 3.0)
        assert entry.cell_id == "MG.S.threads.x2"
        assert entry.payload() == {"benchmark": "MG", "problem_class": "S",
                                   "backend": "threads", "workers": 2}
        assert MixEntry.parse("CG").cell_id == "CG.S.serial.x1"

    def test_parse_rejects_malformed_specs(self):
        with pytest.raises(ValueError):  # four fields; a fifth was the tier
            MixEntry.parse("CG:S:serial:1:fused")
        with pytest.raises(ValueError):
            MixEntry.parse("@2")
        with pytest.raises(ValueError):
            MixEntry.parse("CG@0")
        with pytest.raises(ValueError):
            parse_mix("")
        with pytest.raises(ValueError):
            parse_mix("CG", duplicate_fraction=1.5)

    def test_profiles_match_cli_choices(self):
        from repro.harness.cli import LOADGEN_PROFILES

        assert tuple(sorted(PROFILES)) == LOADGEN_PROFILES
        for profile in PROFILES.values():
            assert 0.0 <= profile.duplicate_fraction <= 1.0
            assert profile.entries

    def test_sampler_is_deterministic_and_marks_duplicates(self):
        profile = TrafficProfile(
            name="t", entries=(MixEntry("CG"), MixEntry("MG")),
            duplicate_fraction=0.5)
        a = RequestSampler(profile, seed=42)
        b = RequestSampler(profile, seed=42)
        stream_a = [a.next_request() for _ in range(50)]
        stream_b = [b.next_request() for _ in range(50)]
        assert stream_a == stream_b
        # duplicate-class requests are cache-eligible, fresh ones are not
        flags = [payload["no_cache"] for _, payload in stream_a]
        assert any(flags) and not all(flags)
        assert all(payload["wait"] for _, payload in stream_a)

    def test_duplicate_fraction_extremes(self):
        always = TrafficProfile("a", (MixEntry("CG"),), 1.0)
        never = TrafficProfile("n", (MixEntry("CG"),), 0.0)
        dup = RequestSampler(always, seed=0)
        fresh = RequestSampler(never, seed=0)
        assert not any(dup.next_request()[1]["no_cache"] for _ in range(20))
        assert all(fresh.next_request()[1]["no_cache"] for _ in range(20))


def _outcome(cell="CG.S.serial.x1", status="ok", latency=0.1,
             cache_hit=False, shard=None, degraded=False, code=200,
             coalesced=False):
    return RequestOutcome(cell_id=cell, status=status, code=code,
                          cache_hit=cache_hit, latency_seconds=latency,
                          shard=shard, degraded=degraded,
                          coalesced=coalesced)


class TestSummarize:
    def test_counts_percentiles_and_ratios_on_a_synthetic_trace(self):
        latencies = [0.010 * (i + 1) for i in range(10)]  # 10ms..100ms
        outcomes = [_outcome(latency=lat, cache_hit=(i % 2 == 0),
                             shard="s0" if i < 7 else "s1")
                    for i, lat in enumerate(latencies)]
        outcomes.append(_outcome(status="rejected", code=429))
        outcomes.append(_outcome(status="failed", code=500))
        outcomes.append(_outcome(status="unreachable", code=0,
                                 degraded=True))
        metrics = summarize_outcomes(outcomes, elapsed_seconds=2.0)
        counts = metrics["requests"]
        assert counts["total"] == 13
        assert counts["ok"] == 10
        assert counts["cached"] == 5
        assert counts["executed"] == 5
        assert counts["rejected_429"] == 1
        assert counts["failed"] == 1
        assert counts["unreachable"] == 1
        assert counts["degraded"] == 1
        latency = metrics["latency_seconds"]
        assert latency["samples"] == 10
        assert latency["p50"] == pytest.approx(percentile(latencies, 50))
        assert latency["p95"] == pytest.approx(percentile(latencies, 95))
        assert latency["min"] == pytest.approx(0.010)
        assert latency["max"] == pytest.approx(0.100)
        assert metrics["throughput_rps"] == pytest.approx(5.0)  # 10 ok / 2s
        assert metrics["cache_hit_ratio"] == pytest.approx(0.5)
        assert metrics["rate_429"] == pytest.approx(1 / 13)
        assert metrics["error_rate"] == pytest.approx(2 / 13)
        assert metrics["by_shard"] == {"s0": 7, "s1": 3}
        cell = metrics["by_cell"]["CG.S.serial.x1"]
        assert cell["requests"] == 13
        assert cell["ok"] == 10
        assert cell["p50_seconds"] is not None

    def test_no_ok_requests_yields_null_latency(self):
        metrics = summarize_outcomes(
            [_outcome(status="rejected", code=429)], elapsed_seconds=1.0)
        assert metrics["latency_seconds"] is None
        assert metrics["throughput_rps"] == 0.0
        assert metrics["cache_hit_ratio"] == 0.0
        assert metrics["dedup_ratio"] == 0.0

    def test_coalesced_counts_toward_dedup_not_cache(self):
        outcomes = ([_outcome(cache_hit=True)] * 2
                    + [_outcome(coalesced=True)] * 3
                    + [_outcome()] * 5)
        metrics = summarize_outcomes(outcomes, elapsed_seconds=1.0)
        counts = metrics["requests"]
        assert counts["cached"] == 2
        assert counts["coalesced"] == 3
        assert counts["executed"] == 5
        assert metrics["cache_hit_ratio"] == pytest.approx(0.2)
        assert metrics["dedup_ratio"] == pytest.approx(0.5)

    def test_cache_hit_wins_over_coalesced_classification(self):
        # a coordinator-side cached replay of a coalesced record carries
        # both flags; it must be counted once, as a cache hit
        metrics = summarize_outcomes(
            [_outcome(cache_hit=True, coalesced=True)], elapsed_seconds=1.0)
        assert metrics["requests"]["cached"] == 1
        assert metrics["requests"]["coalesced"] == 0
        assert metrics["dedup_ratio"] == pytest.approx(1.0)


class TestSLO:
    def _metrics(self, **overrides):
        metrics = {
            "requests": {"ok": 10},
            "error_rate": 0.0,
            "rate_429": 0.0,
            "cache_hit_ratio": 0.5,
            "latency_seconds": {"p95": 0.2},
        }
        metrics.update(overrides)
        return metrics

    def test_default_policy_passes_a_clean_run(self):
        verdict = evaluate_slo(self._metrics(), SLOPolicy())
        assert verdict["pass"] is True

    def test_any_error_fails_the_default_policy(self):
        verdict = evaluate_slo(self._metrics(error_rate=0.1), SLOPolicy())
        assert verdict["pass"] is False
        failed = [c for c in verdict["checks"] if not c["pass"]]
        assert [c["name"] for c in failed] == ["error_rate"]

    def test_optional_bounds_are_checked_when_set(self):
        policy = SLOPolicy(max_p95_seconds=0.1, min_cache_hit_ratio=0.6)
        verdict = evaluate_slo(self._metrics(), policy)
        names = {c["name"]: c["pass"] for c in verdict["checks"]}
        assert names["p95_seconds"] is False  # 0.2 > 0.1
        assert names["cache_hit_ratio"] is False  # 0.5 < 0.6

    def test_min_dedup_ratio_gate(self):
        policy = SLOPolicy(min_dedup_ratio=0.7)
        verdict = evaluate_slo(self._metrics(dedup_ratio=0.8), policy)
        names = {c["name"]: c["pass"] for c in verdict["checks"]}
        assert names["dedup_ratio"] is True
        verdict = evaluate_slo(self._metrics(dedup_ratio=0.6), policy)
        names = {c["name"]: c["pass"] for c in verdict["checks"]}
        assert names["dedup_ratio"] is False

    def test_min_ok_guards_empty_runs(self):
        metrics = self._metrics(latency_seconds=None)
        metrics["requests"] = {"ok": 0}
        verdict = evaluate_slo(metrics, SLOPolicy())
        assert verdict["pass"] is False


class TestClosedLoop:
    def test_issues_exactly_n_requests_via_fake_submit(self):
        profile = TrafficProfile("t", (MixEntry("CG"),), 1.0)
        sampler = RequestSampler(profile, seed=0)
        lock = threading.Lock()
        seen = []

        def submit(payload):
            with lock:
                seen.append(payload)
            return 200, {"state": "done", "cache_hit": True}

        outcomes, elapsed = run_closed_loop(
            submit, sampler, concurrency=4, total_requests=25)
        assert len(outcomes) == 25
        assert len(seen) == 25
        assert elapsed > 0
        assert all(o.status == "ok" and o.cache_hit for o in outcomes)

    def test_classifies_failures_and_shard_routing(self):
        profile = TrafficProfile("t", (MixEntry("CG"),), 1.0)
        sampler = RequestSampler(profile, seed=0)
        responses = iter([
            (200, {"state": "done", "routing": {"served_by": "s1",
                                                "degraded": True}}),
            (429, {"error": "full"}),
            (200, {"state": "failed"}),
        ])

        outcomes, _ = run_closed_loop(
            lambda payload: next(responses), sampler,
            concurrency=1, total_requests=3)
        assert [o.status for o in outcomes] == ["ok", "rejected", "failed"]
        assert outcomes[0].shard == "s1"
        assert outcomes[0].degraded is True
        assert outcomes[1].body == {"error": "full"}

    def test_outcomes_come_back_in_index_order(self):
        def one(index):
            time.sleep(0.001 * (index % 3))  # finish out of order
            return index

        results, elapsed = closed_loop(one, 10, 3)
        assert results == list(range(10))
        assert elapsed >= 0.0

    def test_any_submit_exception_is_recorded_not_raised(self):
        profile = TrafficProfile("t", (MixEntry("CG"),), 1.0)
        for error, status in ((ServiceUnavailable("boom"), "unreachable"),
                              (RuntimeError("boom"), "failed")):
            def submit(payload, error=error):
                raise error

            outcomes, _ = run_closed_loop(
                submit, RequestSampler(profile, seed=0),
                concurrency=2, total_requests=2)
            assert [o.status for o in outcomes] == [status, status]
            assert all(o.code == 0 and o.body is None for o in outcomes)
            assert all(o.error == f"{type(error).__name__}: boom"
                       for o in outcomes)

    def test_requests_and_concurrency_below_one_refused(self):
        profile = TrafficProfile("t", (MixEntry("CG"),), 1.0)
        for total, concurrency in ((0, 1), (1, 0)):
            with pytest.raises(ValueError):
                run_closed_loop(lambda payload: (200, {}),
                                RequestSampler(profile, seed=0),
                                concurrency=concurrency,
                                total_requests=total)

    def test_an_exception_in_one_is_re_raised_after_every_index(self):
        """A raising ``one`` must not shrink the step silently: every
        other index still runs, then the first exception surfaces."""
        calls = []

        def one(index):
            calls.append(index)
            return 1 // (index - 3)

        with pytest.raises(ZeroDivisionError):
            closed_loop(one, 10, 2)
        assert sorted(calls) == list(range(10))


class TestRecords:
    def _record(self, directory):
        profile = PROFILES["smoke"]
        return {
            "kind": "npb-loadgen-record",
            "schema_version": 1,
            "created_at": "2026-01-01T00:00:00Z",
            "environment": {},
            "url": "http://x",
            "config": LoadgenConfig(profile=profile).as_dict(),
            "curve": [],
            "slo_pass": True,
        }

    def test_sequence_numbering_and_round_trip(self, tmp_path):
        directory = str(tmp_path)
        assert next_sequence(directory) == 1
        path1 = write_record(self._record(directory), directory)
        path2 = write_record(self._record(directory), directory)
        assert path1.endswith("LOADGEN_0001.json")
        assert path2.endswith("LOADGEN_0002.json")
        assert latest_record_path(directory) == path2
        loaded = load_record(path2)
        assert loaded["sequence"] == 2
        assert loaded["kind"] == "npb-loadgen-record"

    def test_v1_record_migrates_in_memory(self, tmp_path):
        """Pre-coalescing records load with the cache as the only dedup
        layer: coalesced=0 and dedup_ratio == cache_hit_ratio."""
        record = self._record(str(tmp_path))
        record["curve"] = [{
            "mode": "closed", "level": 2,
            "requests": {"ok": 10, "total": 10, "cached": 4},
            "cache_hit_ratio": 0.4,
        }]
        path = tmp_path / "LOADGEN_0001.json"
        path.write_text(json.dumps(record))
        loaded = load_record(str(path))
        assert loaded["schema_version"] == 2
        step = loaded["curve"][0]
        assert step["requests"]["coalesced"] == 0
        assert step["dedup_ratio"] == pytest.approx(0.4)
        # migration is in-memory only: the disk file still says v1
        assert json.loads(path.read_text())["schema_version"] == 1

    def test_load_rejects_foreign_and_future_records(self, tmp_path):
        foreign = tmp_path / "LOADGEN_0001.json"
        foreign.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(ValueError):
            load_record(str(foreign))
        future = self._record(str(tmp_path))
        future["schema_version"] = 99
        path = tmp_path / "LOADGEN_0002.json"
        path.write_text(json.dumps(future))
        with pytest.raises(ValueError, match="schema_version"):
            load_record(str(path))


def _step(mode="closed", level=2, p50=0.1, p95=0.15, p99=0.18, mad=0.001,
          rps=20.0, slo_pass=True):
    return {
        "mode": mode,
        "level": level,
        "latency_seconds": {"p50": p50, "p95": p95, "p99": p99,
                            "mad": mad, "samples": 20},
        "throughput_rps": rps,
        "slo": {"pass": slo_pass, "checks": []},
        "requests": {"ok": 20, "total": 20},
    }


def _curve_record(steps):
    return {"kind": "npb-loadgen-record", "schema_version": 1,
            "curve": steps}


def _verdicts(comparison):
    return {row["id"]: row["verdict"] for row in comparison["rows"]}


class TestCompare:
    def test_identical_records_pass(self):
        base = _curve_record([_step(level=1), _step(level=4)])
        comparison = compare_records(
            base, _curve_record([_step(level=1), _step(level=4)])
        )
        assert comparison["counts"]["worse"] == 0
        assert not comparison["slo_failed"]
        assert len(comparison["rows"]) == 8  # p50/p95/p99/throughput x 2

    def test_latency_blowup_is_a_regression(self):
        base = _curve_record([_step()])
        cand = _curve_record([_step(p50=0.3, p95=0.45, p99=0.54)])
        verdicts = _verdicts(compare_records(base, cand))
        assert verdicts["closed@2 latency_p50"] == "worse"
        assert verdicts["closed@2 latency_p95"] == "worse"

    def test_throughput_drop_is_a_regression(self):
        base = _curve_record([_step()])
        cand = _curve_record([_step(rps=5.0)])
        verdicts = _verdicts(compare_records(base, cand))
        assert verdicts["closed@2 throughput_rps"] == "worse"

    def test_one_run_per_record_judges_by_the_bound_alone(self):
        # 20% slower p50 stays inside the 25% bound; one sample per side
        # has no spread, so any gain at all reads better.
        base = _curve_record([_step()])
        cand = _curve_record([_step(p50=0.12, rps=21.0)])
        verdicts = _verdicts(compare_records(base, cand))
        assert verdicts["closed@2 latency_p50"] == "unchanged"
        assert verdicts["closed@2 throughput_rps"] == "better"

    def test_candidate_slo_failure_counts_as_regression(self):
        base = _curve_record([_step()])
        cand = _curve_record([_step(slo_pass=False)])
        comparison = compare_records(base, cand)
        assert comparison["slo_failed"] == ["closed@2"]

    def test_missing_and_added_steps_are_reported(self):
        base = _curve_record([_step(level=1), _step(level=4)])
        cand = _curve_record([_step(level=1), _step(level=8)])
        comparison = compare_records(base, cand)
        metrics = ["latency_p50", "latency_p95", "latency_p99", "throughput_rps"]
        assert comparison["missing"] == [f"closed@4 {m}" for m in metrics]
        assert comparison["added"] == [f"closed@8 {m}" for m in metrics]

    def test_cli_exits_1_on_a_worse_metric_missing_step_or_failed_slo(
        self, tmp_path, capsys
    ):
        from repro.harness.cli import main

        def code(cand_steps):
            base = tmp_path / "base.json"
            cand = tmp_path / "cand.json"
            base.write_text(json.dumps(_curve_record([_step(level=1), _step()])))
            cand.write_text(json.dumps(_curve_record(cand_steps)))
            return main(["loadgen", "--compare", str(base), str(cand)])

        assert code([_step(level=1), _step()]) == 0
        assert code([_step(level=1), _step(p95=0.3)]) == 1
        assert code([_step(level=1)]) == 1
        assert code([_step(level=1), _step(slo_pass=False)]) == 1
        out = capsys.readouterr().out
        assert "only in baseline (not compared): closed@2 latency_p50" in out
        assert "candidate SLO failed: closed@2" in out


class TestEndToEnd:
    def test_closed_loop_run_against_a_real_service(self, tmp_path,
                                                    daemon_url):
        """Small full-path smoke: HTTP service, duplicate-heavy traffic,
        record with a passing SLO and at least one cache hit."""
        service = BenchService(backend="serial", pool_size=2,
                               cache_dir=str(tmp_path / "cache"))
        config = LoadgenConfig(
            profile=PROFILES["cache-heavy"],
            levels=(2,), requests_per_step=8, seed=5,
            slo=SLOPolicy(min_cache_hit_ratio=0.1))
        record = run_loadgen(daemon_url(service), config)
        assert record["slo_pass"] is True
        step = record["curve"][0]
        assert step["requests"]["total"] == 8
        assert step["requests"]["ok"] == 8
        assert step["requests"]["cached"] >= 1
        assert step["latency_seconds"]["samples"] == 8
        assert record["config"]["profile"]["name"] == "cache-heavy"
        assert record["environment"]  # fingerprint present
        path = write_record(record, directory=str(tmp_path))
        assert load_record(path)["slo_pass"] is True
