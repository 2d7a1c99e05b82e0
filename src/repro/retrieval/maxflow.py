"""Optimal retrieval via maximum flow (paper §III-C, refs [14, 15]).

Network: source -> request (capacity 1), request -> replica device
(capacity 1), device -> sink (capacity ``M``).  A full flow of value
``b`` exists iff the batch is retrievable in ``M`` accesses; the
smallest such ``M`` (searched upward from ``ceil(b/N)``) is the optimal
schedule, read off the saturated request->device edges.
"""

from __future__ import annotations

from typing import Collection, Optional, Sequence

from repro.allocation.degraded import DataUnavailableError
from repro.check import sanitizers
from repro.graph import kernels
from repro.graph.kuhn import capacitated_assignment
from repro.graph.matching import bounded_degree_assignment
from repro.retrieval.schedule import RetrievalSchedule, optimal_accesses

__all__ = ["maxflow_retrieval", "is_retrievable_in",
           "maxflow_retrieval_with_carry", "mask_candidates"]


def mask_candidates(candidates: Sequence[Sequence[int]],
                    excluded: Collection[int],
                    ) -> Sequence[Sequence[int]]:
    """Candidate lists with the ``excluded`` (failed) devices removed.

    The failure-aware entry point of the retrieval layer: dead or
    degraded modules (:mod:`repro.faults`) leave every candidate set
    before scheduling, preserving replica preference order.  Raises
    :class:`repro.allocation.degraded.DataUnavailableError` when a
    request loses all of its replicas -- at that failure level the
    batch is not retrievable at any access count.
    """
    if not excluded:
        return candidates
    dead = frozenset(excluded)
    out = []
    for i, cands in enumerate(candidates):
        live = tuple(d for d in cands if d not in dead)
        if not live:
            raise DataUnavailableError(
                f"request {i}: all replica devices {tuple(cands)} "
                f"are failed")
        out.append(live)
    return out


def is_retrievable_in(candidates: Sequence[Sequence[int]], n_devices: int,
                      accesses: int,
                      excluded: Optional[Collection[int]] = None) -> bool:
    """Feasibility: can the batch complete within ``accesses`` rounds?

    On the kernel path (:mod:`repro.graph.kernels`, the default) the
    answer comes from a memoized bitset feasibility check -- it is a
    boolean, so the cache key is the *canonical* mask multiset and
    Zipf-repeated batches hit regardless of request order.  The legacy
    answer is one run of the specialised capacitated matcher
    (:mod:`repro.graph.kuhn`); both are exact, so the call sites cannot
    tell them apart.

    ``excluded`` masks failed devices out of every candidate set
    first; a request with no live replica makes the batch infeasible
    (False) rather than raising.
    """
    if excluded:
        try:
            candidates = mask_candidates(candidates, excluded)
        except DataUnavailableError:
            return False
    if kernels.ENABLED:
        return kernels.feasible_cached(candidates, n_devices, accesses)
    return capacitated_assignment(
        candidates, n_devices, accesses) is not None


def maxflow_retrieval(candidates: Sequence[Sequence[int]],
                      n_devices: int,
                      excluded: Optional[Collection[int]] = None,
                      ) -> RetrievalSchedule:
    """Compute the minimum-access schedule exactly.

    Runs in ``O(b^{1.5} c)`` per feasibility probe on these unit
    networks -- inside the paper's ``O(b^3)`` bound -- with the number
    of probes bounded by how far the optimum sits above ``ceil(b/N)``
    (at most a couple of steps for design-based allocations).

    On the kernel path the verbatim legacy schedule is memoized on the
    *exact ordered* candidate tuple (the matcher's device choices are
    order-sensitive, so a canonical key would return merely equivalent
    schedules and break byte-identity).

    ``excluded`` masks failed devices out of every candidate set first
    (failure-aware retrieval); raises
    :class:`~repro.allocation.degraded.DataUnavailableError` when a
    request has no live replica.  The memo key is computed *after*
    masking, so degraded and healthy schedules never collide.
    """
    if excluded:
        candidates = mask_candidates(candidates, excluded)
    b = len(candidates)
    if b == 0:
        return RetrievalSchedule((), n_devices)
    use_cache = kernels.ENABLED
    if use_cache:
        key = kernels.schedule_key(candidates, n_devices, "maxflow")
        cached = kernels.SCHEDULE_CACHE.get(key)
        if cached is not kernels.MISS:
            if sanitizers.ACTIVE:
                sanitizers.check_schedule(
                    candidates, list(cached.assignment),
                    cached.accesses)
            return cached
    m = optimal_accesses(b, n_devices)
    while True:
        assignment = capacitated_assignment(candidates, n_devices, m)
        if assignment is not None:
            if sanitizers.ACTIVE:
                sanitizers.check_schedule(candidates, assignment, m)
            schedule = RetrievalSchedule(tuple(assignment), n_devices)
            if use_cache:
                kernels.SCHEDULE_CACHE.put(key, schedule)
            return schedule
        m += 1
        if m > b:  # pragma: no cover - any non-empty candidates terminate
            raise RuntimeError("retrieval search failed to terminate")


def maxflow_retrieval_with_carry(candidates: Sequence[Sequence[int]],
                                 n_devices: int,
                                 carry: Sequence[float],
                                 ) -> RetrievalSchedule:
    """Minimum-makespan schedule when devices start with backlog.

    ``carry[d]`` is the outstanding work on device ``d`` in units of
    one service time (fractional allowed).  The search finds the
    smallest round count ``M`` such that every request fits one of its
    replica devices with ``assigned_d + ceil(carry_d) <= M``.

    Used by the interval-batch driver so that an interval's schedule
    does not pile new work onto devices still draining the previous
    interval -- the queue-aware behaviour a real I/O driver shows.
    """
    import math

    b = len(candidates)
    if b == 0:
        return RetrievalSchedule((), n_devices)
    carry_units = [math.ceil(c - 1e-9) for c in carry]
    if any(c < 0 for c in carry_units):
        raise ValueError("carry must be non-negative")
    if all(c == 0 for c in carry_units):
        return maxflow_retrieval(candidates, n_devices)
    m = optimal_accesses(b, n_devices)
    while True:
        # Per-device residual capacity at level m; devices with zero
        # residual are removed from the candidate lists outright.
        residual = [max(0, m - c) for c in carry_units]
        pruned = [[d for d in cands if residual[d] > 0]
                  for cands in candidates]
        if all(p for p in pruned):
            assignment = bounded_degree_assignment(
                pruned, n_devices, residual)
            if assignment is not None:
                if sanitizers.ACTIVE:
                    sanitizers.check_schedule(candidates, assignment,
                                              residual)
                return RetrievalSchedule(tuple(assignment), n_devices)
        m += 1
        if m > b + max(carry_units):  # pragma: no cover
            raise RuntimeError("carry retrieval failed to terminate")

