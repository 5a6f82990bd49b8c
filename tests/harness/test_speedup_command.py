"""Tests for the speedup CLI subcommand."""

from repro.core.benchmark import NPBenchmark
from repro.ep import EP
from repro.harness.cli import main


def test_speedup_ep_threads(capsys):
    assert main(["speedup", "EP", "-c", "S", "-b", "threads",
                 "-w", "2"]) == 0
    out = capsys.readouterr().out
    assert "Speedup study: EP.S" in out
    assert "Modeled EP.A" in out
    assert "origin2000" in out


def test_speedup_times_only_through_run(monkeypatch, capsys):
    """Serial, x1 and x2 each reach ``_iterate`` from inside ``run()``."""
    depth, inside = [], []
    real_run, real_iterate = NPBenchmark.run, EP._iterate

    def run(self):
        depth.append(self)
        try:
            return real_run(self)
        finally:
            depth.pop()

    def iterate(self):
        inside.append(bool(depth))
        return real_iterate(self)

    monkeypatch.setattr(NPBenchmark, "run", run)
    monkeypatch.setattr(EP, "_iterate", iterate)
    assert main(["speedup", "EP", "-c", "S", "-b", "threads",
                 "-w", "2"]) == 0
    assert inside == [True, True, True]
    assert "threads x2 (this host)" in capsys.readouterr().out
