"""Serial backend: the reference implementation of the Team interface."""

from __future__ import annotations

from typing import Callable

from repro.runtime.dispatch import FaultPolicy, WorkerReply, execute_task
from repro.runtime.plan import Bounds
from repro.team.base import Team


class SerialTeam(Team):
    """No workers; every task runs inline on the master.

    This is the baseline against which the paper measures thread overhead
    (its "Serial" column), and the correctness reference for the parallel
    backends.  Its transport is a direct call, so a serial region's
    ``dispatch``/``barrier`` overhead is (nearly) zero by construction --
    and it cannot suffer transport failures, so the fault policy is inert.
    """

    backend = "serial"

    def __init__(self, policy: FaultPolicy | None = None):
        super().__init__(1, policy=policy)

    def _transport(self, fn: Callable, bounds: Bounds,
                   args: tuple) -> list[WorkerReply]:
        a, b = bounds[0]
        return [execute_task(0, fn, a, b, args)]
