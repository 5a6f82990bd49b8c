"""Tests for the table harness and CLI."""

import os

import pytest

from repro.harness import TABLES, bench, format_table, generate_table, tables
from repro.harness.cli import build_parser, main
from repro.harness.report import Table
from repro.harness.stats import summarize
from repro.team import team_worker_counts


class TestReport:
    def test_format_basic(self):
        t = Table("Demo", ["A", "B"])
        t.add_row("x", 1.234567)
        t.add_row("yy", 1234.8)
        text = format_table(t)
        assert "Demo" in text and "1.23" in text and "1235" in text

    def test_nan_renders_dash(self):
        t = Table("Demo", ["A"])
        t.add_row(float("nan"))
        assert "-" in format_table(t)


class TestSimulatedTables:
    @pytest.mark.parametrize("number", TABLES)
    def test_all_tables_render(self, number):
        table = generate_table(number, "simulated")
        text = format_table(table)
        assert table.title in text
        assert len(table.rows) > 0
        for row in table.rows:
            assert len(row) == len(table.headers)

    def test_table3_has_openmp_rows(self):
        table = generate_table(3, "simulated")
        labels = [row[0] for row in table.rows]
        assert any("f77-OpenMP" in lab for lab in labels)
        assert any("C-OpenMP" in lab for lab in labels)  # IS row

    def test_table4_java_only(self):
        table = generate_table(4, "simulated")
        assert all("Java" in row[0] for row in table.rows)

    def test_table5_no_speedup_at_2_threads(self):
        table = generate_table(5, "simulated")
        for row in table.rows:
            serial, one, two = (float(c) for c in row[1:4])
            assert two >= serial * 0.99  # Linux JVM: no speedup

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            generate_table(9)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            generate_table(1, "guessed")


class TestMeasuredTables:
    def test_table1_measured_tiny_grid(self):
        table = generate_table(1, "measured", grid=(8, 8, 8))
        assert len(table.rows) == 5
        # the interpreted style must be slower than numpy on every op
        for row in table.rows:
            assert float(row[3]) > 1.0  # python/numpy ratio

    def test_table7_measured_small(self):
        table = generate_table(7, "measured", max_n=500)
        assert len(table.rows) >= 1

    @pytest.fixture
    def asked(self, monkeypatch):
        """The cells asked of ``run_bench_cell``, which runs nothing."""
        asked = []

        def record(cell, repeat):
            asked.append((cell, repeat))
            return {"best_seconds": 1.0, "verified": True}

        monkeypatch.setattr(bench, "run_bench_cell", record)
        return asked

    def test_tables_2_to_6_are_one_host_table(self, asked, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        rendered = {format_table(generate_table(n, "measured", "S"))
                    for n in (2, 3, 4, 5, 6)}
        assert len(rendered) == 1
        (text,) = rendered
        assert "6-CPU host" in text and "os.cpu_count() = 6" in text
        assert "proc x4  verified" in text and "proc x8" not in text
        # five tables, each asking once for every cell of its own
        once = [(name, backend, workers)
                for name in tables.TABLE_BENCHMARKS
                for backend, workers in (("serial", 1), ("process", 1),
                                         ("process", 2), ("process", 4))]
        assert [(c.benchmark, c.backend, c.workers)
                for c, _ in asked] == once * 5
        assert {(c.problem_class, repeat) for c, repeat in asked} == {
            ("S", 1)}

    def test_tables_measured_builds_the_host_table_once(
            self, asked, monkeypatch, capsys):
        monkeypatch.setattr(bench, "run_kernel_cell",
                            lambda cell, repeat: {"best_seconds": 1.0})
        monkeypatch.setattr(tables, "time_callable",
                            lambda fn, repeat: summarize([1.0]))
        assert main(["tables", "--measured", "-c", "S"]) == 0
        cells = [cell.cell_id for cell, _ in asked]
        columns = 1 + len(team_worker_counts(os.cpu_count()))
        assert len(cells) == len(set(cells)) == 7 * columns
        assert max(cell.workers for cell, _ in asked) <= os.cpu_count()
        out = capsys.readouterr().out
        assert out.count("Tables 2-6 (measured") == 1
        assert "Table 1 (measured" in out and "Table 7 (measured" in out


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "BT" in out and "Classes" in out

    def test_run_cg_s(self, capsys):
        assert main(["run", "CG", "-c", "S"]) == 0
        assert "SUCCESSFUL" in capsys.readouterr().out

    def test_table_command(self, capsys):
        assert main(["table", "1"]) == 0
        assert "Origin2000" in capsys.readouterr().out

    def test_parser_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "QQ"])
