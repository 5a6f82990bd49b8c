"""The command leaves no process behind (each case runs in a child
interpreter: adopting orphans and ``waitpid(-1)`` are not for pytest's)."""

import os
import subprocess
import sys
import textwrap

from conftest import ROOT


def _run(body: str) -> str:
    script = textwrap.dedent("""
        import os, subprocess, sys, time
        sys.path.insert(0, {benchmarks!r})
        from e2e import reap
        assert reap.adopt_orphans()
    """).format(benchmarks=os.path.join(ROOT, "benchmarks"))
    done = subprocess.run([sys.executable, "-c", script + textwrap.dedent(body)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_an_orphaned_grandchild_is_adopted_signalled_and_waited_for():
    out = _run("""
        # the shell ends at once and orphans its background sleep
        subprocess.run(["sh", "-c", "sleep 300 & echo $!"])
        sleeper = reap.children()
        assert len(sleeper) == 1, sleeper
        print(reap.reap_all(grace=0.2), reap.children(),
              os.path.exists(f"/proc/{sleeper[0]}"))
    """)
    assert out.splitlines()[-1] == "1 [] False"


def test_the_resource_tracker_is_stopped_and_nothing_is_signalled():
    out = _run("""
        from multiprocessing import resource_tracker
        resource_tracker.ensure_running()
        tracker = resource_tracker._resource_tracker._pid
        assert tracker in reap.children()
        print(reap.reap_all(grace=5.0), reap.children(),
              os.path.exists(f"/proc/{tracker}"))
    """)
    assert out == "0 [] False"
