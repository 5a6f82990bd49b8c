"""The job lifecycle as a state machine (hypothesis).

Random interleavings of submit / replay-by-key / coalesce /
finish(done|failed|cached) / wait, ended by a drain, against a real
:class:`BenchService` behind a real :class:`AsyncFrontEnd` -- only the
benchmark is a stub, gated so the machine decides when and how each
execution ends (swapped in through the lazy
``repro.core.registry.get_benchmark`` lookup, like the async tests do).

Whatever the interleaving: every admitted job reaches exactly one
terminal verdict, every waiter resolves, nothing executes twice for one
in-flight fingerprint, and retention never drops a non-terminal job.
"""

from __future__ import annotations

import asyncio
import functools
import json
import shutil
import tempfile
import threading
import time

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

import repro.core.registry as registry
import repro.service.api as api
from repro.service import AsyncFrontEnd, BenchService
from repro.service.jobs import Job, routing_key

NAMES = ("CG", "EP", "FT", "IS")
RETENTION = 3
#: dispatchers; executions in flight stay below it so a cache hit always
#: finds a free one
POOL, MAX_RUNNING = 8, 6


class _Result:
    """What the scheduler reads off a benchmark result."""

    verified, regions, fault_counts = True, {}, {}

    def __init__(self, name):
        self.name = name

    def to_dict(self):
        return {"benchmark": self.name, "verified": True, "verification": []}


def _until(predicate, what, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"never happened: {what}"
        time.sleep(0.002)


class JobLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        machine = self
        #: name -> the gate its executions block on, and how they end
        self.gates = {name: threading.Event() for name in NAMES}
        self.fail = dict.fromkeys(NAMES, False)

        class Stub:
            def __init__(self, name, problem_class, team):
                self.name = name

            def run(self):
                assert machine.gates[self.name].wait(60), "gate never opened"
                if machine.fail[self.name]:
                    raise RuntimeError("injected benchmark failure")
                return _Result(self.name)

        self.finishes: dict[str, int] = {}
        real_finish = Job.finish

        def counting_finish(job, *args, **kwargs):
            self.finishes[job.job_id] = self.finishes.get(job.job_id, 0) + 1
            real_finish(job, *args, **kwargs)

        self._restore = [
            (registry, "get_benchmark", registry.get_benchmark),
            (api, "TERMINAL_RETENTION", api.TERMINAL_RETENTION),
            (Job, "finish", real_finish),
        ]
        registry.get_benchmark = lambda name: functools.partial(Stub, name)
        api.TERMINAL_RETENTION = RETENTION
        Job.finish = counting_finish

        self.cache_dir = tempfile.mkdtemp(prefix="lifecycle-")
        self.service = BenchService(pool_size=POOL, cache_dir=self.cache_dir)
        self.frontend = AsyncFrontEnd(self.service, window=64)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

        # the model
        self.admitted: set[str] = set()
        self.running: dict[str, set[str]] = {name: set() for name in NAMES}
        self.primary: dict[str, str | None] = dict.fromkeys(NAMES)
        self.stored: set[str] = set()
        self.keys: dict[str, str] = {}
        self.waiters: list = []
        self.serial = 0

    # ------------------------------------------------------------------ #

    def _post(self, payload, key=None):
        headers = {} if key is None else {"idempotency-key": key}
        return asyncio.run_coroutine_threadsafe(
            self.frontend.handle_post_jobs(headers, json.dumps(payload).encode()),
            self.loop,
        )

    def _registered(self, name) -> bool:
        pool = self.service.pool
        key = routing_key({"benchmark": name}, pool.backend, pool.workers)
        return key in self.frontend._registry

    def _running(self) -> int:
        return sum(len(ids) for ids in self.running.values())

    # ------------------------------------------------------------------ #

    @precondition(lambda self: self._running() < MAX_RUNNING)
    @rule(name=st.sampled_from(NAMES), no_cache=st.booleans(),
          wait=st.booleans(), keyed=st.booleans())
    def submit(self, name, no_cache, wait, keyed):
        self.serial += 1
        key = f"key-{self.serial}" if keyed else None
        payload = {"benchmark": name, "no_cache": no_cache, "wait": wait}
        future = self._post(payload, key)
        coalesces = not no_cache and self.primary[name] is not None
        hits = not no_cache and not coalesces and name in self.stored
        if wait and not hits:
            self.waiters.append(future)
            _until(lambda: future.done() or self._expected(name, coalesces),
                   "the waiting submission showed up")
            job_id = self._newest(name) if not coalesces else self.primary[name]
        else:
            code, body, _ = future.result(20)
            assert code == (200 if wait else 202), body
            job_id = body["job_id"]
            if coalesces:
                assert body["coalesced_with"] == job_id == self.primary[name]
        if coalesces:
            return
        assert job_id not in self.admitted
        self.admitted.add(job_id)
        if key is not None:
            self.keys[key] = job_id
        if hits:
            assert self.service.wait(job_id, 20).state == "cached"
            _until(lambda: not self._registered(name), "the hit's entry retired")
            return
        # an execution is modelled from its cache probe on: a job still
        # queued when its gate opens could probe a record a twin just wrote
        _until(lambda: self.service.job(job_id).state == "running",
               "the execution started")
        self.running[name].add(job_id)
        if not no_cache:
            self.primary[name] = job_id

    def _expected(self, name, coalesces) -> bool:
        """A parked ``wait`` submission has registered with the service."""
        if coalesces:
            return True
        return self._newest(name) is not None

    def _newest(self, name) -> str | None:
        fresh = [job.job_id for job in self.service.jobs()
                 if job.job_id not in self.admitted
                 and job.spec.benchmark == name]
        return fresh[-1] if fresh else None

    @precondition(lambda self: any(
        job_id in ids for ids in self.running.values()
        for job_id in self.keys.values()))
    @rule(data=st.data())
    def replay(self, data):
        live = sorted(key for key, job_id in self.keys.items()
                      if any(job_id in ids for ids in self.running.values()))
        key = data.draw(st.sampled_from(live))
        before = self.service.idempotent_replays
        # the key wins over whatever spec rides along
        code, body, _ = self._post({"benchmark": "MG"}, key).result(20)
        assert (code, body["job_id"]) == (202, self.keys[key])
        assert self.service.idempotent_replays == before + 1

    @precondition(lambda self: self._running() > 0)
    @rule(data=st.data(), fail=st.booleans())
    def finish(self, data, fail):
        name = data.draw(st.sampled_from(
            sorted(name for name, ids in self.running.items() if ids)))
        # held before the gate opens: once more than RETENTION of them
        # finish, the first ones expire and can no longer be looked up
        jobs = [self.service.job(job_id) for job_id in self.running[name]]
        self.fail[name] = fail
        self.gates[name].set()
        for job in jobs:
            job.completion.result(20)
            assert job.state == ("failed" if fail else "done"), job.error
        _until(lambda: not self._registered(name), "the registry entry retired")
        self.gates[name].clear()
        self.running[name] = set()
        self.primary[name] = None
        if not fail:
            self.stored.add(name)

    # ------------------------------------------------------------------ #

    @invariant()
    def non_terminal_jobs_are_never_dropped(self):
        for ids in self.running.values():
            for job_id in ids:
                job = self.service.job(job_id)
                assert job is not None and not job.terminal, job_id
        assert len(self.service._kept) <= RETENTION

    @invariant()
    def terminal_jobs_are_held_or_expired(self):
        running = set().union(*self.running.values())
        for job_id in self.admitted - running:
            job = self.service.job(job_id)
            assert job.terminal if job else self.service.expired(job_id), job_id

    @invariant()
    def one_verdict_one_execution(self):
        assert all(count == 1 for count in self.finishes.values())
        assert self.service.scheduler.duplicate_executions == 0

    def teardown(self):
        try:
            for name in NAMES:
                self.fail[name] = False
                self.gates[name].set()
            drained = asyncio.run_coroutine_threadsafe(
                self.frontend.drain(30), self.loop)
            assert drained.result(60) is True
            # every admitted job: one verdict, counted once
            assert set(self.finishes) == self.admitted
            assert all(count == 1 for count in self.finishes.values())
            tally = self.service.scheduler
            assert (tally.executed + tally.cached + tally.failed
                    == len(self.admitted))
            assert not self.service._live
            # every waiter: resolved, with a terminal job
            for future in self.waiters:
                code, body, _ = future.result(20)
                assert code == 200, body
                assert body["state"] in ("done", "failed", "cached")
        finally:
            for name in NAMES:
                self.gates[name].set()
            self.service.drain(30)
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(30)
            self.loop.close()
            for owner, attribute, value in self._restore:
                setattr(owner, attribute, value)
            shutil.rmtree(self.cache_dir, ignore_errors=True)


TestJobLifecycle = JobLifecycle.TestCase
TestJobLifecycle.settings = settings(
    max_examples=12, stateful_step_count=16, deadline=None)
