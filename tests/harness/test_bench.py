"""Tests for the bench trajectory subsystem (records + comparator)."""

import importlib.util
import json
import math
import sys
import threading
from pathlib import Path

import pytest

from repro.harness import bench, records
from repro.harness.cli import main
from repro.harness.stats import mad, median, summarize, time_callable, verdict

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The project's first trajectory record (PR 2, schema v1), retired from
#: the repo root: the oldest real input the migration chain must load.
BENCH_V1 = Path(__file__).resolve().parent / "fixtures" / "bench_v1.json"

CELL_TIMING_KEYS = {
    "repeats",
    "times_seconds",
    "best_seconds",
    "median_seconds",
    "mad_seconds",
}

ENVIRONMENT_KEYS = {
    "python",
    "implementation",
    "numpy",
    "platform",
    "machine",
    "cpu_count",
    "hostname",
    "git_sha",
}


def make_cell(cell_id, best=None, times=None):
    """Synthetic trajectory cell for comparator tests (``times`` defaults
    to three repeats of ``best``)."""
    times = [best] * 3 if times is None else times
    return {
        "id": cell_id,
        "kind": "benchmark",
        "verified": True,
        "repeats": len(times),
        "times_seconds": times,
        "best_seconds": min(times),
        "median_seconds": median(times),
        "mad_seconds": mad(times),
    }


def make_record(cells):
    return {
        "kind": bench.RECORD_KIND,
        "schema_version": bench.SCHEMA_VERSION,
        "created_at": "2026-01-01T00:00:00Z",
        "environment": {"python": "3.11.7"},
        "config": {"repeat": 3, "quick": True, "cells": [], "kernels": []},
        "cells": cells,
    }


class TestStats:
    def test_median_and_mad(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
        assert mad([1.0, 2.0, 3.0]) == 1.0
        assert mad([5.0, 5.0, 5.0]) == 0.0

    def test_summarize_is_min_of_k(self):
        summary = summarize([0.5, 0.3, 0.4])
        assert summary.best == 0.3
        assert summary.median == 0.4
        assert summary.repeats == 3
        assert set(summary.as_dict()) == CELL_TIMING_KEYS

    def test_time_callable_runs_setup_untimed(self):
        calls = []
        summary = time_callable(lambda: calls.append("fn"), repeat=3)
        assert summary.repeats == 3
        assert calls == ["fn"] * 3
        assert all(t >= 0 for t in summary.times)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


#: BENCH_0004's repeats of ``basic_op.assignment.numpy.18x18x22``: the
#: first call is cold, so the set spreads wider than even the CI bound 2.0.
COLD_FIRST_REPEATS = [6.7e-5, 2e-5, 1.9e-5]

#: (a, b, better, bound) cases both copies of the verdict rule must agree on.
VERDICT_CASES = [
    ([1.0], [1.5], "lower", 0.25),  # n = 1 on both sides
    ([1.0], [1.1], "lower", 0.25),
    ([1.0], [0.9], "lower", 0.25),
    ([1.0], [0.5], "higher", 0.25),
    ([], [1.0], "lower", 0.25),  # an empty side
    ([1.0], [], "higher", 0.25),
    ([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], "lower", 0.25),  # wide, B dominates
    ([1.0, 2.0, 3.0], [0.5, 2.5, 1.0], "lower", 0.25),  # wide, no domination
    ([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], "higher", 0.25),
    ([1.0, 2.0, 3.0], [3.0, 3.5, 4.0], "higher", 0.25),  # a tie does not beat
    ([1.0, 2.0, 3.0], [1.0, 2.5, 3.0], "lower", 1.0),  # spread == bound
    ([1.0, 1.1, 0.9], [0.95, 1.05, 0.97], "lower", 0.25),  # gain inside spread
    ([100.0, 101.0, 99.0], [50.0, 51.0, 49.0], "higher", 0.25),
    ([100.0, 101.0, 99.0], [150.0, 151.0, 149.0], "higher", 0.25),
    ([100.0, 101.0, 99.0], [102.0, 100.0, 101.0], "lower", 0.25),
    ([0.1, 0.104, 0.098], [0.4, 0.41, 0.39], "lower", 2.0),
    (COLD_FIRST_REPEATS, [2.0e-5, 1.9e-5, 2.1e-5], "lower", 2.0),
    (COLD_FIRST_REPEATS, [1.5e-5, 1.4e-5, 1.6e-5], "lower", 2.0),
]


@pytest.fixture(scope="module")
def e2e_verdict():
    """``verdict`` of ``benchmarks/e2e/compare.py``, loaded by path."""
    path = REPO_ROOT / "benchmarks" / "e2e" / "compare.py"
    spec = importlib.util.spec_from_file_location("e2e_compare", path)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)  # puts benchmarks/ on sys.path
    finally:
        sys.path[:] = saved
    return module.verdict


class TestVerdict:
    @pytest.mark.parametrize("a, b, better, bound", VERDICT_CASES)
    def test_agrees_with_the_e2e_copy(self, e2e_verdict, a, b, better, bound):
        ours, theirs = verdict(a, b, better, bound), e2e_verdict(a, b, better, bound)
        assert ours[0] == theirs[0]
        assert ours[1] == theirs[1] or math.isnan(ours[1]) and math.isnan(theirs[1])

    def test_reads_the_change_in_the_metrics_direction(self):
        lower = [verdict([1.0], [r], "lower", 0.25)[0] for r in (0.7, 1.2, 1.3)]
        assert lower == ["better", "unchanged", "worse"]
        higher = [verdict([1.0], [r], "higher", 0.25)[0] for r in (0.7, 1.2)]
        assert higher == ["worse", "better"]

    def test_wide_spread_is_unresolved_unless_dominated(self):
        wide = [1.0, 2.0, 3.0]
        assert verdict(wide, [0.1, 0.2, 0.3], "lower", 0.25)[0] == "better"
        assert verdict(wide, [0.5, 2.5, 1.0], "lower", 0.25)[0] == "unresolved"
        assert verdict([], [1.0], "lower", 0.25)[0] == "unresolved"

    def test_a_zero_baseline_median_is_unresolved(self):
        """A loadgen step whose every request failed has throughput 0."""
        outcome, change = verdict([0.0], [5.0], "higher", 0.25)
        assert outcome == "unresolved" and math.isnan(change)


class TestRecordSchema:
    def test_suite_record_round_trips(self, tmp_path):
        record = bench.run_suite(
            cells=[bench.BenchCell("CG", "S", "serial", 1)],
            kernels=[bench.KernelCell("reduction", "numpy", (8, 8, 10))],
            repeat=2,
        )
        path = bench.write_record(record, directory=str(tmp_path))
        loaded = bench.load_record(path)
        assert loaded["kind"] == bench.RECORD_KIND
        assert loaded["schema_version"] == bench.SCHEMA_VERSION
        assert loaded["sequence"] == 1
        assert ENVIRONMENT_KEYS <= set(loaded["environment"])
        cg, kernel = loaded["cells"]
        assert cg["id"] == "CG.S.serial.x1"
        assert CELL_TIMING_KEYS <= set(cg)
        assert cg["verified"] is True
        assert cg["repeats"] == 2
        # The per-region dispatch/execute/barrier split rides along.
        assert "conj_grad" in cg["regions"]
        assert cg["regions"]["conj_grad"]["execute_seconds"] > 0
        assert kernel["id"] == "basic_op.reduction.numpy.8x8x10"
        assert kernel["best_seconds"] > 0

    def test_sequence_numbering_continues(self, tmp_path):
        record = make_record([make_cell("X", 1.0)])
        first = bench.write_record(record, directory=str(tmp_path))
        second = bench.write_record(record, directory=str(tmp_path))
        assert first.endswith("BENCH_0001.json")
        assert second.endswith("BENCH_0002.json")
        assert bench.load_record(second)["sequence"] == 2
        assert bench.latest_record_path(str(tmp_path)) == second

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="not an npb-bench-record"):
            bench.load_record(str(path))

    def test_future_schema_rejected(self, tmp_path):
        record = make_record([])
        record["schema_version"] = bench.SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="schema_version"):
            bench.load_record(str(path))

    def test_family_without_migration_reads_only_its_version(self, tmp_path):
        path = tmp_path / "X_0001.json"
        path.write_text(json.dumps({"kind": "x", "schema_version": 1}))
        assert records.load_record(str(path), "x", 1, "npb x")
        with pytest.raises(ValueError, match="schema_version 1 "):
            records.load_record(str(path), "x", 2, "npb x")
        migrated = records.load_record(
            str(path), "x", 2, "npb x", lambda record, version: record)
        assert migrated["schema_version"] == 1

    def test_v2_record_migrates_to_v3_in_memory(self, tmp_path):
        """A pre-allocation-accounting record (``bench_v1.json`` vintage)
        loads with zeroed alloc fields so the comparator still works."""
        cell = make_cell("CG.S.serial.x1", 0.1)
        cell["kind"] = "benchmark"
        cell["faults"] = 0
        cell["regions"] = {
            "conj_grad": {"calls": 25, "wall_seconds": 0.05,
                          "dispatch_seconds": 0.01,
                          "execute_seconds": 0.03,
                          "barrier_seconds": 0.01},
        }
        record = make_record([cell])
        record["schema_version"] = 2
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(record))
        loaded = bench.load_record(str(path))
        assert loaded["schema_version"] == bench.SCHEMA_VERSION
        stats = loaded["cells"][0]["regions"]["conj_grad"]
        assert stats["alloc_bytes"] == 0
        assert stats["alloc_blocks"] == 0
        assert stats["calls"] == 25  # untouched fields survive
        # the on-disk file is never rewritten
        assert json.loads(path.read_text())["schema_version"] == 2

    def test_v1_record_migrates_through_both_steps(self, tmp_path):
        cell = make_cell("CG.S.serial.x1", 0.1)
        cell["regions"] = {"conj_grad": {"calls": 25}}
        record = make_record([cell])
        record["schema_version"] = 1
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(record))
        loaded = bench.load_record(str(path))
        assert loaded["schema_version"] == bench.SCHEMA_VERSION
        migrated = loaded["cells"][0]
        assert migrated["faults"] == 0
        assert migrated["fault_counts"] == {}
        assert migrated["regions"]["conj_grad"]["alloc_bytes"] == 0

    def test_traced_suite_records_alloc_fields(self):
        record = bench.run_suite(
            cells=[bench.BenchCell("CG", "S", "serial", 1)],
            kernels=[], repeat=1, trace_alloc=True,
        )
        assert record["config"]["trace_alloc"] is True
        regions = record["cells"][0]["regions"]
        assert all("alloc_bytes" in stats for stats in regions.values())
        # the CG run allocates at least something per conj_grad call
        # (reduction partials, python floats) even when kernels are fused
        assert any(stats["alloc_bytes"] >= 0 for stats in regions.values())


def make_versioned_record(version):
    """Synthetic record as ``npb bench`` wrote it at schema ``version``."""
    cell = make_cell("CG.S.serial.x1", 0.1)
    cell["regions"] = {
        "conj_grad": {
            "calls": 25,
            "wall_seconds": 0.05,
            "dispatch_seconds": 0.01,
            "execute_seconds": 0.03,
            "barrier_seconds": 0.01,
        }
    }
    if version >= 2:
        cell["faults"] = 0
        cell["fault_counts"] = {}
    if version >= 3:
        for stats in cell["regions"].values():
            stats["alloc_bytes"] = 0
            stats["alloc_blocks"] = 0
    if version >= 4:
        cell["job_id"] = None
        cell["cache_hit"] = False
        cell["queue_wait_seconds"] = 0.0
    if 5 <= version < 7:
        cell["kernel_backend"] = "fused"
    if version >= 6:
        cell["tenant"] = None
        cell["coalesced_with"] = None
    record = make_record([cell])
    record["schema_version"] = version
    return record


class TestMigrationChain:
    """Every historical schema version migrates to the current one, and
    migration is idempotent: migrating twice equals migrating once."""

    VERSIONS = list(range(1, bench.SCHEMA_VERSION + 1))

    @pytest.mark.parametrize("version", VERSIONS)
    def test_every_version_migrates_to_current(self, tmp_path, version):
        path = tmp_path / f"v{version}.json"
        path.write_text(json.dumps(make_versioned_record(version)))
        loaded = bench.load_record(str(path))
        assert loaded["schema_version"] == bench.SCHEMA_VERSION
        cell = loaded["cells"][0]
        assert cell["faults"] == 0
        assert cell["fault_counts"] == {}
        assert cell["job_id"] is None
        assert cell["cache_hit"] is False
        assert cell["queue_wait_seconds"] == 0.0
        assert "kernel_backend" not in cell
        assert cell["tenant"] is None
        assert cell["coalesced_with"] is None
        stats = cell["regions"]["conj_grad"]
        assert stats["alloc_bytes"] == 0
        assert stats["alloc_blocks"] == 0
        assert stats["calls"] == 25  # pre-existing fields survive

    @pytest.mark.parametrize("version", VERSIONS)
    def test_migrating_twice_equals_migrating_once(self, tmp_path, version):
        path = tmp_path / f"v{version}.json"
        path.write_text(json.dumps(make_versioned_record(version)))
        once = bench.load_record(str(path))
        again = bench._migrate_record(
            json.loads(json.dumps(once)), once["schema_version"]
        )
        assert again == once

    @pytest.mark.parametrize("version", VERSIONS)
    def test_round_trip_through_disk_is_stable(self, tmp_path, version):
        """Writing a migrated record back out and reloading is a no-op."""
        path = tmp_path / f"v{version}.json"
        path.write_text(json.dumps(make_versioned_record(version)))
        once = bench.load_record(str(path))
        rewritten = tmp_path / "rewritten.json"
        rewritten.write_text(json.dumps(once))
        assert bench.load_record(str(rewritten)) == once

    def test_each_step_adds_only_its_own_fields(self):
        """Adjacent synthetic fixtures differ exactly by the fields the
        intervening schema step added or took away (no silent drift)."""
        step_fields = {
            2: {"faults", "fault_counts"},
            3: set(),  # v3 added *region* fields, not cell fields
            4: {"job_id", "cache_hit", "queue_wait_seconds"},
            5: {"kernel_backend"},
            6: {"tenant", "coalesced_with"},
            7: {"kernel_backend"},  # the one step that removes a field
        }
        for version in self.VERSIONS[:-1]:
            old = make_versioned_record(version)["cells"][0]
            new = make_versioned_record(version + 1)["cells"][0]
            assert set(new) ^ set(old) == step_fields[version + 1]
            region_added = set(new["regions"]["conj_grad"]) - set(
                old["regions"]["conj_grad"]
            )
            expected = (
                {"alloc_bytes", "alloc_blocks"} if version + 1 == 3 else set()
            )
            assert region_added == expected


class TestCommittedRecord:
    """The project's first trajectory record stays loadable, and so does
    every record at the repo root."""

    def test_bench_0001_migrates_cleanly(self):
        path = BENCH_V1
        raw = json.loads(path.read_text())
        assert raw["schema_version"] == 1  # the vintage stays frozen on disk
        loaded = bench.load_record(str(path))
        assert loaded["schema_version"] == bench.SCHEMA_VERSION
        benchmark_cells = [
            c for c in loaded["cells"] if c.get("kind") == "benchmark"
        ]
        assert benchmark_cells
        for cell in benchmark_cells:
            assert cell["faults"] == 0
            assert cell["fault_counts"] == {}
            assert cell["job_id"] is None
            assert cell["cache_hit"] is False
            assert cell["queue_wait_seconds"] == 0.0
            assert "kernel_backend" not in cell
            for stats in cell["regions"].values():
                assert stats["alloc_bytes"] == 0
                assert stats["alloc_blocks"] == 0

    def test_bench_0001_migration_is_idempotent(self, tmp_path):
        loaded = bench.load_record(str(BENCH_V1))
        rewritten = tmp_path / "migrated.json"
        rewritten.write_text(json.dumps(loaded))
        assert bench.load_record(str(rewritten)) == loaded

    def test_root_records_load_without_losing_a_cell(self):
        """BENCH_0002.. are schema v6 with every cell at the one kept
        tier: the v7 step drops their column and none of their cells
        (CI's perf-smoke gates on one of them)."""
        paths = sorted(REPO_ROOT.glob("BENCH_0*.json"))
        assert len(paths) >= 4
        for path in paths:
            raw = json.loads(path.read_text())
            loaded = bench.load_record(str(path))
            assert loaded["schema_version"] == bench.SCHEMA_VERSION
            assert [c["id"] for c in loaded["cells"]] == [
                c["id"] for c in raw["cells"]]
            assert all("kernel_backend" not in c for c in loaded["cells"])


class TestSequenceAllocation:
    """``records.reserve_record_path`` closes the scan-then-write race
    shared by the BENCH, LOADGEN, and CHAOS trajectory writers."""

    def test_concurrent_appends_never_collide(self, tmp_path):
        nthreads, per_thread = 8, 4
        paths = []
        lock = threading.Lock()

        def writer(worker):
            for n in range(per_thread):
                path = records.append_record(
                    {"kind": "race", "worker": worker, "n": n},
                    str(tmp_path),
                    "BENCH",
                )
                with lock:
                    paths.append(path)

        pool = [
            threading.Thread(target=writer, args=(i,))
            for i in range(nthreads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len(paths) == nthreads * per_thread
        assert len(set(paths)) == len(paths)  # no slot claimed twice
        sequences = sorted(
            json.loads(Path(p).read_text())["sequence"] for p in paths
        )
        assert sequences == list(range(1, nthreads * per_thread + 1))

    def test_reserve_claims_the_slot_immediately(self, tmp_path):
        sequence, path = records.reserve_record_path(str(tmp_path), "BENCH")
        assert sequence == 1
        assert Path(path).exists()  # placeholder blocks other claimants
        assert records.next_sequence(str(tmp_path), "BENCH") == 2

    def test_prefixes_sequence_independently(self, tmp_path):
        for prefix in ("BENCH", "LOADGEN", "CHAOS"):
            first = records.append_record(
                {"kind": "x"}, str(tmp_path), prefix
            )
            assert first.endswith(f"{prefix}_0001.json")


def verdicts(comparison):
    return [row["verdict"] for row in comparison["rows"]]


class TestComparator:
    def test_detects_2x_slowdown(self):
        base = make_record([make_cell("CG.S.serial.x1", 0.100)])
        cand = make_record([make_cell("CG.S.serial.x1", 0.200)])
        comparison = bench.compare_records(base, cand)
        assert verdicts(comparison) == ["worse"]
        assert comparison["rows"][0]["change"] == pytest.approx(1.0)

    def test_no_false_positive_within_tolerance(self):
        base = make_record([make_cell("CG.S.serial.x1", 0.100)])
        cand = make_record([make_cell("CG.S.serial.x1", 0.105)])
        comparison = bench.compare_records(base, cand, tolerance=0.10)
        assert verdicts(comparison) == ["unchanged"]
        assert comparison["counts"]["worse"] == 0

    def test_no_false_positive_within_noise_band(self):
        # 25% slower, but the baseline's own repeats spread 20% of their
        # median, wider than the 10% bound: unresolved, not worse.
        base = make_record([make_cell("FT.S.serial.x1", times=[0.36, 0.40, 0.44])])
        cand = make_record([make_cell("FT.S.serial.x1", 0.500)])
        comparison = bench.compare_records(base, cand, tolerance=0.10)
        assert verdicts(comparison) == ["unresolved"]

    def test_improvement_flagged(self):
        base = make_record([make_cell("LU.S.serial.x1", 1.0)])
        cand = make_record([make_cell("LU.S.serial.x1", 0.5)])
        comparison = bench.compare_records(base, cand)
        assert verdicts(comparison) == ["better"]
        assert comparison["counts"] == {
            "worse": 0,
            "better": 1,
            "unchanged": 0,
            "unresolved": 0,
        }

    def test_unmatched_cells_reported_not_fatal(self):
        base = make_record([make_cell("CG.S.serial.x1", 0.1), make_cell("OLD", 0.1)])
        cand = make_record([make_cell("CG.S.serial.x1", 0.1), make_cell("NEW", 0.1)])
        comparison = bench.compare_records(base, cand)
        assert comparison["missing"] == ["OLD"]
        assert comparison["added"] == ["NEW"]
        assert verdicts(comparison) == ["unchanged"]

    def test_as_dict_shape(self):
        base = make_record([make_cell("CG.S.serial.x1", 0.1)])
        cand = make_record([make_cell("CG.S.serial.x1", 0.3)])
        payload = json.loads(json.dumps(bench.compare_records(base, cand)))
        assert payload["counts"]["worse"] == 1
        row = payload["rows"][0]
        assert row["verdict"] == "worse"
        assert row["change"] == pytest.approx(2.0)
        assert row["runs"] == [3, 3]

    def test_v1_fixture_compares_cell_by_cell(self):
        """Every record since v1 carries ``times_seconds``, which is what
        the comparator reads."""
        v1 = bench.load_record(str(BENCH_V1))
        v7 = bench.load_record(str(REPO_ROOT / "BENCH_0004.json"))
        comparison = bench.compare_records(v1, v7, tolerance=2.0)
        assert len(comparison["rows"]) >= 10
        assert all(row["runs"] == [3, 3] for row in comparison["rows"])


class TestBenchCli:
    def test_quick_json_smoke(self, tmp_path, capsys):
        out = tmp_path / "BENCH_smoke.json"
        code = main(
            [
                "bench",
                "--quick",
                "--repeat",
                "1",
                "--json",
                "--out",
                str(out),
                "--dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["schema_version"] == bench.SCHEMA_VERSION
        assert record["config"]["quick"] is True
        ids = {cell["id"] for cell in record["cells"]}
        assert "CG.S.serial.x1" in ids
        assert "CG.S.threads.x2" in ids
        assert any(i.startswith("basic_op.") for i in ids)
        assert all(cell["verified"] for cell in record["cells"])
        assert out.exists()

    def test_compare_gate_exits_nonzero(self, tmp_path, capsys):
        base = make_record([make_cell("CG.S.serial.x1", 0.100)])
        cand = make_record([make_cell("CG.S.serial.x1", 0.250)])
        base_path = tmp_path / "BENCH_0001.json"
        cand_path = tmp_path / "BENCH_0002.json"
        base_path.write_text(json.dumps(base))
        cand_path.write_text(json.dumps(cand))
        code = main(["bench", "--compare", str(base_path), str(cand_path)])
        assert code == 1
        assert "worse" in capsys.readouterr().out

    def test_compare_defaults_to_latest_record(self, tmp_path, capsys):
        base = make_record([make_cell("CG.S.serial.x1", 0.100)])
        bench.write_record(base, directory=str(tmp_path))
        bench.write_record(base, directory=str(tmp_path))
        base_path = tmp_path / "BENCH_0001.json"
        code = main(["bench", "--compare", str(base_path), "--dir", str(tmp_path)])
        assert code == 0
        assert "unchanged" in capsys.readouterr().out

    def test_compare_generous_ci_tolerance(self, tmp_path):
        base = make_record([make_cell("CG.S.serial.x1", 0.100)])
        cand = make_record([make_cell("CG.S.serial.x1", 0.250)])
        blowup = make_record([make_cell("CG.S.serial.x1", 0.450)])
        paths = {}
        for name, record in [
            ("base", base),
            ("cand", cand),
            ("blowup", blowup),
        ]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(record))
            paths[name] = str(path)
        args = ["bench", "--compare", paths["base"], "--tolerance", "2.0"]
        assert main(args + [paths["cand"]]) == 0
        assert main(args + [paths["blowup"]]) == 1

    def _compare(self, tmp_path, base_times, cand_times):
        paths = []
        for name, times in (("base", base_times), ("cand", cand_times)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(make_record([make_cell("X", times=times)])))
            paths.append(str(path))
        return main(["bench", "--compare", *paths, "--tolerance", "2.0"])

    def test_a_4x_slower_cell_fails_the_ci_gate(self, tmp_path, capsys):
        """CG.S.serial.x1's repeats in BENCH_0004, then four times slower."""
        base = [0.1042, 0.0979, 0.1099]
        assert self._compare(tmp_path, base, [4 * t for t in base]) == 1
        assert "1 worse" in capsys.readouterr().out

    def test_a_cold_first_repeat_is_unresolved_not_a_failure(self, tmp_path, capsys):
        code = self._compare(tmp_path, COLD_FIRST_REPEATS, [2.0e-5, 1.9e-5, 2.1e-5])
        assert code == 0
        assert "1 unresolved" in capsys.readouterr().out
