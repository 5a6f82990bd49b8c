"""Memoized execution plans for slab dispatch.

Every ``parallel_for`` in the suite block-partitions ``range(n)`` over a
fixed worker count, and the hot iteration loops (25 CG steps per outer
iteration, one dispatch per LU wavefront, ...) repeat the same handful of
extents thousands of times.  An :class:`ExecutionPlan` computes each
partition once per ``(n, nworkers)`` and serves the cached bounds on every
later call, so partition arithmetic drops out of the dispatch hot path.

The plan also remembers, per call site ``(fn, n)``, whether the site's
slabs are worth a crossing to the workers at all (the granularity
threshold of Halli et al.: a crossing wins only above the size at which
its fixed cost amortises).  Nothing is configured: the dispatch core
reports every finished dispatch to :meth:`ExecutionPlan.observe`, which
compares measured times only.
"""

from __future__ import annotations

from typing import Callable

from repro.runtime.partition import partition_bounds

#: Per-worker half-open bounds, rank order: ((lo_0, hi_0), (lo_1, hi_1), ...)
Bounds = tuple[tuple[int, int], ...]

#: A dispatch call site: (slab function, extent).  Holds the function
#: strongly, like the suite's module-level task functions are held anyway.
Site = tuple[Callable, int]


class ExecutionPlan:
    """Block partitions for a fixed worker count, memoized by extent.

    The cache is unbounded by design: a benchmark run touches a bounded
    set of extents (grid dimensions, wavefront sizes), so entries are a
    few dozen tuples at most.  ``hits``/``misses`` expose the memoization
    behaviour to tests and to ``npb profile --json`` (``plan_cache``).

    Crossover rule (see :meth:`observe`): a transported dispatch whose
    workers' summed execute time is below the dispatch's own wall time
    was a net loss -- the master alone would have been done sooner.  Two
    losses in a row send the site inline; it returns to the transport
    the first time its inline wall exceeds the cheaper of those two
    transported walls, so a fat site that lost twice to a descheduled
    worker is back after one slow inline call.
    """

    __slots__ = ("nworkers", "ranks", "_bounds", "hits", "misses",
                 "_inline", "_lost")

    def __init__(self, nworkers: int):
        if nworkers < 1:
            raise ValueError("nworkers must be >= 1")
        self.nworkers = nworkers
        #: per-worker ``(rank, nworkers)`` pairs, the run_on_all "bounds"
        self.ranks: Bounds = tuple((r, nworkers) for r in range(nworkers))
        self._bounds: dict[int, Bounds] = {}
        self.hits = 0
        self.misses = 0
        #: site -> wall seconds its inline dispatches must stay under
        self._inline: dict[Site, float] = {}
        #: site -> wall seconds of its last transported dispatch, kept
        #: only while that dispatch was a net loss
        self._lost: dict[Site, float] = {}

    def bounds(self, n: int) -> Bounds:
        """Per-worker slab bounds for ``range(n)``, cached per extent."""
        cached = self._bounds.get(n)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        cached = tuple(partition_bounds(n, self.nworkers, rank)
                       for rank in range(self.nworkers))
        self._bounds[n] = cached
        return cached

    def bounds_for(self, n: int, rank: int) -> tuple[int, int]:
        """One worker's slab of ``range(n)`` (via the shared cache)."""
        return self.bounds(n)[rank]

    def inline_limit(self, site: Site) -> float | None:
        """Wall seconds ``site`` must beat to stay on the master; None
        while it crosses to the workers."""
        return self._inline.get(site)

    def observe(self, site: Site, limit: float | None, wall: float,
                busy: float) -> None:
        """Fold one finished dispatch of ``site`` into its decision.

        ``limit`` is what :meth:`inline_limit` returned before the
        dispatch (so None means it was transported), ``wall`` the
        master-side publish -> all-done time and ``busy`` the summed
        execute time of its slabs.
        """
        if limit is not None:
            if wall > limit:
                del self._inline[site]
        elif busy < wall:
            previous = self._lost.pop(site, None)
            if previous is None:
                self._lost[site] = wall
            else:
                self._inline[site] = min(previous, wall)
        else:
            self._lost.pop(site, None)

    def cache_info(self) -> dict[str, int]:
        """Memoization counters, for tests and overhead benchmarks."""
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._bounds)}
