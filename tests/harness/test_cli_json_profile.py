"""Tests for the structured run records (--json) and npb profile."""

import json

from repro.harness.cli import main

REGION_KEYS = {"calls", "inline_calls", "wall_seconds", "dispatch_seconds",
               "execute_seconds", "barrier_seconds",
               "alloc_bytes", "alloc_blocks"}


class TestRunJson:
    def test_cg_run_record(self, capsys):
        assert main(["run", "CG", "-c", "S", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["benchmark"] == "CG"
        assert record["problem_class"] == "S"
        assert record["backend"] == "serial"
        assert record["verified"] is True
        assert record["time_seconds"] > 0
        assert "total" in record["timers"]
        # Per-region timers with the dispatch/execute/barrier split.
        assert "conj_grad" in record["regions"]
        for stats in record["regions"].values():
            assert set(stats) == REGION_KEYS
        cg = record["regions"]["conj_grad"]
        # 15 outer iterations x (2 + 25*4 + 1 + 2) dispatches... at least
        # one dispatch per CG inner step; exact count is an implementation
        # detail, positive compute time is the contract.
        assert cg["calls"] > 0
        assert cg["execute_seconds"] > 0
        assert record["verification"][0]["quantity"] == "zeta"

    def test_run_record_under_threads(self, capsys):
        assert main(["run", "IS", "-c", "S", "-b", "threads", "-w", "2",
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["backend"] == "threads"
        assert record["nworkers"] == 2
        assert "rank" in record["regions"]

    def test_thin_regions_report_their_inline_calls(self, capsys):
        assert main(["run", "CG", "-c", "S", "-b", "threads", "-w", "2",
                     "--json"]) == 0
        cg = json.loads(capsys.readouterr().out)["regions"]["conj_grad"]
        # a few crossings per call site to measure it, the rest inline
        assert 0.9 * cg["calls"] < cg["inline_calls"] < cg["calls"]


class TestVerifyJson:
    def test_verify_emits_record_per_benchmark(self, capsys):
        assert main(["verify", "-c", "S", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        names = {r["benchmark"] for r in records}
        assert names == {"BT", "SP", "LU", "FT", "MG", "CG", "IS", "EP"}
        assert all(r["verified"] for r in records)
        assert all(r["regions"] for r in records)


class TestProfile:
    def test_lu_profile_shows_sync_split(self, capsys):
        assert main(["profile", "LU", "-c", "S"]) == 0
        out = capsys.readouterr().out
        assert "Region profile: LU.S" in out
        # LU's sweep phases appear with synchronization (dispatch/barrier)
        # separated from compute (execute).
        for region in ("blts", "buts", "rhs"):
            assert region in out
        for column in ("inline", "dispatch s", "execute s", "barrier s",
                       "sync %"):
            assert column in out
        assert "plan cache" in out

    def test_profile_json_includes_plan_cache(self, capsys):
        assert main(["profile", "EP", "-c", "S", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["plan_cache"]["misses"] >= 1
        assert "tally" in record["regions"]

    def test_profile_threads_records_nonzero_sync(self, capsys):
        assert main(["profile", "CG", "-c", "S", "-b", "threads",
                     "-w", "2"]) == 0
        out = capsys.readouterr().out
        assert "threads x2" in out
