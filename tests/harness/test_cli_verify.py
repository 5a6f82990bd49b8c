"""End-to-end CLI tests (verify command, report, exit-code table)."""

import pytest

from repro.harness import cli
from repro.harness.cli import main


class TestVerifyCommand:
    def test_whole_suite_class_s(self, capsys):
        assert main(["verify", "-c", "S"]) == 0
        out = capsys.readouterr().out
        assert out.count("[ok  ]") == 8
        for name in ("BT", "SP", "LU", "FT", "MG", "CG", "IS", "EP"):
            assert f"{name}.S" in out

    def test_run_verbose_prints_checks(self, capsys):
        assert main(["run", "MG", "-c", "S", "-v"]) == 0
        out = capsys.readouterr().out
        assert "rnm2" in out

    def test_run_with_process_backend(self, capsys):
        assert main(["run", "EP", "-c", "S", "-b", "process",
                     "-w", "2"]) == 0
        assert "process x2" in capsys.readouterr().out


class TestExitCodeTable:
    """The authoritative exit-code table (cli.py module docstring).

    Every subcommand returns one of these five codes; anything new must
    extend the table, the docstring, and this test together.
    """

    def test_the_table(self):
        assert cli.EXIT_OK == 0
        assert cli.EXIT_FAILURE == 1
        assert cli.EXIT_USAGE == 2
        assert cli.EXIT_WORKER_FAILURE == 3
        assert cli.EXIT_REJECTED == 4

    def test_table_is_documented_in_one_place(self):
        doc = cli.__doc__
        for name in ("EXIT_OK", "EXIT_FAILURE", "EXIT_USAGE",
                     "EXIT_WORKER_FAILURE", "EXIT_REJECTED"):
            assert name in doc, f"{name} missing from the cli docstring"

    def test_success_is_exit_ok(self, capsys):
        assert main(["run", "CG", "-c", "S"]) == cli.EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("argv,shown", [
        (["backends"], "invalid choice: 'backends'"),
        (["submit", "CG", "--kernel-backend", "x"],
         "unrecognized arguments: --kernel-backend"),
        (["run", "CG", "--kernel-backend", "fused"],
         "unrecognized arguments: --kernel-backend"),
    ], ids=["backends", "submit", "run"])
    def test_removed_kernel_tier_options_are_argparse_errors(
            self, capsys, argv, shown):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == cli.EXIT_USAGE
        assert shown in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--mode", "open"], ["--rate", "4"]],
                             ids=["mode", "rate"])
    def test_removed_open_loop_options_are_argparse_errors(
            self, capsys, option):
        with pytest.raises(SystemExit) as exit_info:
            main(["loadgen"] + option)
        assert exit_info.value.code == cli.EXIT_USAGE
        assert f"unrecognized arguments: {option[0]}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv,grammar", [
        (["bench", "--cells", "CG:S:serial:1:compiled"],
         "BENCHMARK:CLASS:BACKEND:WORKERS\n"),
        (["loadgen", "--mix", "CG:S:serial:1:compiled"],
         "BENCH[:CLASS[:BACKEND[:WORKERS]]][@WEIGHT]\n"),
    ], ids=["bench", "loadgen"])
    def test_five_field_cell_is_exit_usage(self, capsys, argv, grammar):
        """The fifth field was the kernel tier; both cell grammars are
        four fields, and the message shows the grammar."""
        assert main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "CG:S:serial:1:compiled" in err
        assert err.endswith(grammar)

    def test_list_names_no_kernel_tiers(self, capsys):
        assert main(["list"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "Backends:" in out and "tier" not in out.lower()

    def test_unreachable_service_is_exit_usage(self, capsys):
        # nothing listens on this port (reserved port 47 is never bound)
        code = main(["submit", "CG", "-c", "S",
                     "--url", "http://127.0.0.1:47", "--timeout", "2"])
        assert code == cli.EXIT_USAGE
        assert "cannot reach" in capsys.readouterr().err

    def test_admission_rejection_is_exit_rejected(self, capsys, tmp_path,
                                                  daemon_url):
        from repro.service import BenchService

        # queue of depth 1 and no scheduler: the second submission must
        # be rejected with HTTP 429 -> CLI exit 4 (window 2, so it is
        # the full queue that answers, not fair admission parking it)
        service = BenchService(pool_size=1, queue_depth=1,
                               cache_dir=str(tmp_path / "cache"),
                               autostart=False)
        url = daemon_url(service, window=2, drain_timeout=5)
        assert main(["submit", "CG", "-c", "S", "--url", url,
                     "--no-wait"]) == cli.EXIT_OK
        assert main(["submit", "MG", "-c", "S", "--url", url,
                     "--no-wait"]) == cli.EXIT_REJECTED
        assert "admission rejected" in capsys.readouterr().err


class TestReportCommand:
    def test_report_no_tables(self, capsys):
        assert main(["report", "--no-tables"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert "[FAIL]" not in out

    def test_tables_command_all(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        for n in range(1, 8):
            assert f"Table {n}" in out
