"""Service workloads: a closed loop of clients against an ``npb serve`` child.

The server is started through the CLI (``python -m repro serve``) with a
fresh cache directory inside the checkout and torn down with SIGTERM;
the load is generated from this process by ``CLIENTS`` threads, each
blocking on ``ServiceClient.submit(wait=True)`` over its own keep-alive
connection -- a closed loop, because the service's real callers are
measurement scripts that wait for each result.
"""

from __future__ import annotations

import itertools
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro import get_benchmark
from repro.service import ServiceClient
from repro.team import SerialTeam

from e2e.metrics import Op, add_region_spans
from e2e.spans import Recorder
from e2e.stats import median

#: Client threads = connections = ``nproc`` of the reference host.
CLIENTS = 2
POOL = 2
CACHE_ENTRIES = 256

#: The server is set up this many times; the median is reported and the
#: last server is the one measured.
SETUP_REPEATS = 3

#: Executed mix: every block of five requests holds these, shuffled.
#: IS.S (a 1 ms run) is the cell where service overhead is a visible
#: share of the latency; CG.S (1980 short dispatches) is the cell that
#: suffers from a second dispatcher thread in the same interpreter: its
#: latency ranges from 145 to 300 ms with what the other thread runs.
#: FT.S (few long numpy calls) is tight, and three fifths of the mix,
#: so that the median request and the 95th percentile both sit inside
#: its mode.  With equal thirds the median request was a CG.S run and
#: moved by 23 % between seeds.
EXECUTED_BLOCK = ("IS", "CG", "FT", "FT", "FT")

#: Cached working set: 3 cells x 16 ``dispatch_timeout`` values = 48
#: fingerprints, inside the cache bound of 256.
CACHED_CELLS = ("IS", "MG", "CG")
CACHED_VARIANTS = 16

PROBLEM_CLASS = "S"

#: Seconds the server gets to announce its URL, and to drain on SIGTERM.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0

_ANNOUNCE = re.compile(r"listening on (http://\S+)")


def cell_key(benchmark: str) -> str:
    return f"{benchmark}.{PROBLEM_CLASS}.serial"


# --------------------------------------------------------------------- #
# request schedules (the only thing the seed decides)


def executed_schedule(seed: int, client: int):
    """Endless ``no_cache`` requests in balanced, seeded blocks: every
    block is a shuffle of ``EXECUTED_BLOCK``."""
    rng = random.Random(f"executed:{seed}:{client}")
    while True:
        block = list(EXECUTED_BLOCK)
        rng.shuffle(block)
        for benchmark in block:
            yield {"benchmark": benchmark, "problem_class": PROBLEM_CLASS,
                   "wait": True, "no_cache": True}


def cached_fingerprints() -> list[dict]:
    """The 48 cache-eligible submissions of the cached working set."""
    return [{"benchmark": benchmark, "problem_class": PROBLEM_CLASS,
             "wait": True, "dispatch_timeout": 600.0 + variant}
            for benchmark in CACHED_CELLS
            for variant in range(CACHED_VARIANTS)]


def cached_schedule(seed: int, client: int):
    """Endless cache-eligible requests drawn uniformly from the set."""
    rng = random.Random(f"cached:{seed}:{client}")
    working_set = cached_fingerprints()
    while True:
        yield rng.choice(working_set)


# --------------------------------------------------------------------- #
# the direct runs every response is compared with


def direct_reference(benchmarks) -> dict[str, dict]:
    """cell -> verification values and operation count of a direct,
    in-process serial run of the same cell."""
    reference = {}
    with SerialTeam() as team:
        for benchmark in benchmarks:
            instance = get_benchmark(benchmark)(PROBLEM_CLASS, team)
            result = instance.run()
            if not result.verified:
                raise RuntimeError(f"direct {benchmark}.{PROBLEM_CLASS} run "
                                   f"did not verify")
            reference[cell_key(benchmark)] = {
                "values": [float(check[1])
                           for check in result.verification.checks],
                "op_count": instance.op_count(),
            }
            team.reset()
    return reference


def check_response(code: int, body: dict, expected_state: str,
                   reference: dict) -> str | None:
    """Why this response fails the correctness gate, or None."""
    if code != 200:
        return f"HTTP {code}: {body.get('error')}"
    if body.get("state") != expected_state:
        return f"state {body.get('state')!r}, expected {expected_state!r}"
    result = body.get("result") or {}
    if not result.get("verified"):
        return "unverified"
    values = [check["computed"] for check in result.get("verification", ())]
    if values != reference["values"]:
        return "verification values differ from the direct run"
    return None


# --------------------------------------------------------------------- #
# server child


def serve_command(src_dir: str) -> list[str]:
    """``python -m repro serve ...`` without the cache directory.

    ``--async`` is passed only while ``serve --help`` lists it: the
    asyncio front end is planned to become the only server.
    """
    base = [sys.executable, "-m", "repro", "serve"]
    listing = subprocess.run(base + ["--help"], env=_child_env(src_dir),
                             capture_output=True, text=True, timeout=60)
    command = base + ["--port", "0", "--pool", str(POOL),
                      "--cache-entries", str(CACHE_ENTRIES)]
    if "--async" in listing.stdout:
        command.append("--async")
    return command


def _child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    return env


class Server:
    """One ``npb serve`` child with its own cache directory."""

    def __init__(self, command: list[str], src_dir: str, work_dir: str):
        self._command = command
        self._src_dir = src_dir
        self._work_dir = work_dir
        self._process: subprocess.Popen | None = None
        self._cache_dir: str | None = None
        self.url: str | None = None

    def start(self) -> None:
        """Spawn, and return after the first 200 on ``/status``."""
        os.makedirs(self._work_dir, exist_ok=True)
        self._cache_dir = tempfile.mkdtemp(prefix="cache-",
                                           dir=self._work_dir)
        self._process = subprocess.Popen(
            self._command + ["--cache-dir", self._cache_dir],
            cwd=self._work_dir, env=_child_env(self._src_dir),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        watchdog = threading.Timer(START_TIMEOUT, self._process.kill)
        watchdog.start()
        try:
            seen = []
            while self.url is None:
                line = self._process.stdout.readline()
                if not line:
                    raise RuntimeError("npb serve exited before announcing "
                                       "its URL:\n" + "".join(seen))
                seen.append(line)
                match = _ANNOUNCE.search(line)
                if match:
                    self.url = match.group(1)
            code, _ = ServiceClient(self.url, keep_alive=False).status()
            if code != 200:
                raise RuntimeError(f"/status answered {code}")
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()

    def stop(self) -> None:
        """SIGTERM, wait, then kill; remove the cache directory."""
        process, self._process = self._process, None
        if process is not None:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            process.stdout.close()
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = None
        self.url = None


# --------------------------------------------------------------------- #
# closed-loop clients


def _request(client: ServiceClient, payload: dict, expected_state: str,
             reference: dict, recorder: Recorder | None) -> Op:
    """One submission, checked against the direct run of its cell."""
    cell = cell_key(payload["benchmark"])
    sent_wall = time.time()
    sent = time.perf_counter()
    try:
        code, body = client.submit(payload)
    except Exception as exc:  # the gate reports it; keep the loop going
        return Op(cell, 0.0, False, error=f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - sent
    error = check_response(code, body, expected_state, reference[cell])
    op = Op(cell, latency, error is None, error=error)
    if recorder is not None and error is None:
        _record_request(recorder, body, sent_wall, sent_wall + latency)
    return op


def _record_request(recorder: Recorder, body: dict, sent: float,
                    received: float) -> None:
    """``request`` -> the five intervals its response's timestamps cut.

    A response coalesced onto an in-flight twin carries the *twin's*
    timestamps (it may have been submitted before this request was
    sent), so it gets no children: its whole latency is ``share.other``.
    """
    request = body["job_id"]
    parent = recorder.add("request", sent, received, None, request)
    if body.get("coalesced_with"):
        return
    stamps = [sent, body["submitted_at"], body["queued_at"],
              body["started_at"], body["finished_at"], received]
    names = ("http_in", "admit", "queue_wait", "run", "http_out")
    for name, start, end in zip(names, stamps, stamps[1:]):
        span = recorder.add(name, start, end, parent, request)
        if name == "run" and not body.get("cache_hit"):
            add_region_spans(recorder, span, start,
                             body["result"].get("regions", {}), request)


def _client_loop(url: str, schedule, deadline: float | None,
                 expected_state: str, reference: dict, traced: bool):
    """One client's closed loop: (operations, recorder or None)."""
    client = ServiceClient(url)
    recorder = Recorder() if traced else None
    ops = []
    try:
        for payload in schedule:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            ops.append(_request(client, payload, expected_state, reference,
                                recorder))
    finally:
        client.close()
    return ops, recorder


def drive(url: str, schedules, seconds: float | None, expected_state: str,
          reference: dict, traced: bool = False):
    """Run one client thread per schedule; (ops, wall, recorder).

    With ``seconds`` the clients stop at the deadline; without, when
    their (finite) schedules are used up.
    """
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    with ThreadPoolExecutor(len(schedules)) as pool:
        futures = [pool.submit(_client_loop, url, schedule, deadline,
                               expected_state, reference, traced)
                   for schedule in schedules]
        results = [future.result() for future in futures]
    wall = time.perf_counter() - start
    recorder = None
    if traced:
        recorder = Recorder()
        for _, client_recorder in results:
            recorder.extend(client_recorder)
    return [op for ops, _ in results for op in ops], wall, recorder


# --------------------------------------------------------------------- #
# the two workloads


class ServiceRun:
    """``service_executed`` or ``service_cached``: set up, measure, close."""

    def __init__(self, name: str, seed: int, src_dir: str, work_dir: str):
        if name not in ("service_executed", "service_cached"):
            raise ValueError(f"unknown service workload {name!r}")
        self.name = name
        self.cached = name == "service_cached"
        self._seed = seed
        self._src_dir = src_dir
        self._work_dir = work_dir
        self._server: Server | None = None
        self._phases = 0
        self.setup_s = 0.0
        self.rejected_429 = 0
        self._benchmarks = (CACHED_CELLS if self.cached
                            else tuple(dict.fromkeys(EXECUTED_BLOCK)))
        self.reference: dict[str, dict] = {}

    @property
    def op_counts(self) -> dict[str, float]:
        return {cell: ref["op_count"] for cell, ref in self.reference.items()}

    @property
    def url(self) -> str:
        return self._server.url

    def _prime(self) -> None:
        """Set-up traffic: fill the cache (cached) or warm both pooled
        teams on every cell (executed).  Every response must pass."""
        if self.cached:
            fingerprints = cached_fingerprints()
            schedules = [fingerprints[i::CLIENTS] for i in range(CLIENTS)]
        else:
            schedules = [
                list(itertools.islice(executed_schedule(self._seed, -1 - i),
                                      2 * len(EXECUTED_BLOCK)))
                for i in range(CLIENTS)]
        ops, _, _ = drive(self.url, schedules, None, "done", self.reference)
        failed = [op.error for op in ops if not op.ok]
        if failed:
            raise RuntimeError(f"set-up traffic failed: {failed[0]}")

    def open(self) -> None:
        self.reference = direct_reference(self._benchmarks)
        command = serve_command(self._src_dir)
        samples = []
        for _ in range(SETUP_REPEATS):
            self.close()
            self._server = Server(command, self._src_dir, self._work_dir)
            start = time.perf_counter()
            self._server.start()
            self._prime()
            samples.append(time.perf_counter() - start)
        self.setup_s = median(samples)

    def measure(self, seconds: float, traced: bool = False):
        """A closed loop of ``CLIENTS`` clients for ``seconds``:
        (operations, wall, recorder or None)."""
        make = cached_schedule if self.cached else executed_schedule
        # a fresh stream per measured phase, so a traced phase does not
        # replay the untraced one's requests
        self._phases += 1
        schedules = [make(f"{self._seed}:{self._phases}", client)
                     for client in range(CLIENTS)]
        ops, wall, recorder = drive(
            self.url, schedules, seconds,
            "cached" if self.cached else "done", self.reference, traced)
        self.rejected_429 += sum(
            1 for op in ops if (op.error or "").startswith("HTTP 429"))
        return ops, wall, recorder

    def server_status(self) -> dict:
        """``/status`` of the measured server, plus the 429s clients saw."""
        code, body = ServiceClient(self.url, keep_alive=False).status()
        if code != 200:
            raise RuntimeError(f"/status answered {code}")
        body["rejected_429"] = self.rejected_429
        return body

    def close(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None
