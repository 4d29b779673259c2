"""Sharded replay: shard workers over one shared geometry, then the
serialized boundary pass.

:class:`ShardedDriver` replays one event trace across ``N`` shards:

* **Shared geometry** — one full-problem
  :class:`~repro.core.conflict.ConflictIndex` is built once
  (:class:`SharedGeometry`); the coordinator ledger uses it directly and
  every shard ledger gets a relabeled :meth:`ConflictIndex.sliced` view
  that shares its interned arrays, frozensets and Euler tours, so no
  shard rebuilds routes or conflict arrays.
* **Phase A** — every shard's local stream (cut-interior demands only,
  densified ids, plus ticks) is replayed through its own
  :class:`~repro.session.AdmissionSession` with a fresh policy
  instance, one ``fork`` worker per shard (the ledger is built before
  the fork and inherited copy-on-write; only the final
  :class:`~repro.session.kernel.ReplayResult` crosses the pipe), or
  inline when ``processes <= 1``.  Shard edge sets are disjoint, so
  the workers never contend.
* **Phase B** — the shard finals are absorbed into the coordinator and
  the cut-crossing demands are serialized through one more unmodified
  policy instance bound to the exact global view.  The coordinator then
  re-verifies the merged admitted set from first principles.

Boundary metrics are counter *deltas* over the absorbed baseline, so
absorbed locals are never double counted (a preemptive policy that
evicts an absorbed local in phase B shows up as a negative profit
contribution there, exactly once).

With ``shards=1`` every demand is local, the single stream is the
original trace, and phase B is empty — the run is event-for-event
identical to the single-ledger driver (same admissions, evictions,
profits and final solution; only wall-clock timing differs).  Inline
and forked runs are byte-identical; both are pinned to
``tests/data/sharded_expected.json``.
"""

from __future__ import annotations

import math
import queue as _queue
import time
from dataclasses import dataclass, field, replace as dc_replace

from ..core.conflict import ConflictIndex
from ..core.demand import TreeDemandInstance
from ..core.instance import TreeProblem
from ..core.solution import Solution
from ..obs import tracing as _tracing
from ..online.events import Arrival, Departure, EventTrace, Tick
from ..online.metrics import ReplayMetrics
from ..online.policies import make_policy
from ..online.state import CapacityLedger
from ..session.kernel import AdmissionSession, ReplayResult
from .planner import ShardPlanner

__all__ = ["SharedGeometry", "ShardedDriver", "ShardedReplayResult"]


# ----------------------------------------------------------------------
# Shared geometry: one index build, N sliced views
# ----------------------------------------------------------------------


class SharedGeometry:
    """One full-problem conflict index serving coordinator and shards.

    Builds the coordinator :class:`~repro.online.state.CapacityLedger`
    (and with it the full :class:`~repro.core.conflict.ConflictIndex`)
    exactly once; :meth:`shard_view` then hands each shard a ledger over
    a :meth:`~repro.core.conflict.ConflictIndex.sliced` view whose
    arrays, route frozensets and Euler tours are shared read-only with
    the full build.  The shard subproblem's instance list is relabeled
    from the full population (same routes, densified ids) and seeded
    into the subproblem, so neither the instances nor their paths are
    ever recomputed.
    """

    def __init__(self, problem, plan):
        self.problem = problem
        self.plan = plan
        insts = problem.instances()
        edges_of = [frozenset(problem.global_edges_of(d)) for d in insts]
        trees = None
        if isinstance(problem, TreeProblem):
            trees = {q: net for q, net in enumerate(problem.networks)}
        self.index = ConflictIndex(insts, edges_of, trees=trees)
        #: The exact global capacity view, sharing the full index.
        self.coordinator = CapacityLedger(problem, index=self.index)
        # Instances are sorted by demand id: record each demand's block
        # so a shard's instance rows are O(1) to locate.
        block = [0] * (problem.num_demands + 1)
        d = 0
        for i, inst in enumerate(insts):
            while d <= inst.demand_id:
                block[d] = i
                d += 1
        while d <= problem.num_demands:
            block[d] = len(insts)
            d += 1
        self._block = block

    def shard_view(self, s: int) -> CapacityLedger:
        """Shard ``s``'s ledger over a sliced view of the full index."""
        plan = self.plan
        sub = plan.subproblem(s)
        if sub._instances is None:
            insts = self.problem.instances()
            tree = isinstance(self.problem, TreeProblem)
            local: list = []
            gids: list[int] = []
            for rank, d in enumerate(plan.shard_demands[s]):
                for g in range(self._block[d], self._block[d + 1]):
                    it = insts[g]
                    gids.append(g)
                    if tree:
                        # Direct construction: dataclasses.replace costs
                        # ~6us apiece and this loop covers every
                        # instance of every shard.
                        local.append(TreeDemandInstance(
                            instance_id=len(local), demand_id=rank,
                            network_id=it.network_id, u=it.u, v=it.v,
                            profit=it.profit, height=it.height,
                            path_edges=it.path_edges))
                    else:
                        local.append(dc_replace(it, demand_id=rank,
                                                instance_id=len(local)))
            # Seed the subproblem's instance cache (identical to what it
            # would compute: routes are shared with the full networks)
            # and the plan's local->global instance map in one shot.
            sub._instances = local
            plan._instance_maps.setdefault(s, gids)
        else:
            local = sub.instances()
            gids = plan.instance_map(s)
        return CapacityLedger(sub, index=self.index.sliced(local, gids))


# ----------------------------------------------------------------------
# Stream splitting and the phase-A hand-off
# ----------------------------------------------------------------------


def _split_streams(plan, trace: EventTrace) -> list[list]:
    """Route the trace once into per-shard local streams: each shard's
    arrivals/departures (demand ids densified in ascending global order)
    plus every tick, in the original time order.  Cut-crossing events
    belong to ``plan.boundary_events(trace)``."""
    locals_of: dict[int, tuple[int, int]] = {}
    for s, ids in enumerate(plan.shard_demands):
        for k, d in enumerate(ids):
            locals_of[d] = (s, k)
    streams: list[list] = [[] for _ in range(plan.n_shards)]
    for ev in trace.events:
        if isinstance(ev, Tick):
            for stream in streams:
                stream.append(ev)
            continue
        info = locals_of.get(ev.demand_id)
        if info is not None:
            s, local = info
            cls = Arrival if isinstance(ev, Arrival) else Departure
            streams[s].append(cls(ev.time, local))
    return streams


def _absorb_results(coordinator: CapacityLedger, plan,
                    shard_results) -> tuple[int, float]:
    """Pre-admit every shard's final set into the coordinator (shard
    order, snapshot order within a shard).

    The union over shards is feasible by construction (shard edge sets
    are disjoint and each final set is verified per shard), so every
    admission succeeds.  Returns the absorbed ``(count, profit)``.
    """
    tree = isinstance(plan.problem, TreeProblem)
    lut = plan._lookup()
    count = 0
    profits: list[float] = []
    for s, result in enumerate(shard_results):
        ids = plan.shard_demands[s]
        for inst in result.final_solution.selected:
            g = ids[inst.demand_id]
            key = ((g, inst.network_id) if tree
                   else (g, inst.network_id, inst.start, inst.end))
            coordinator.admit(lut[key])
            profits.append(float(inst.profit))
            count += 1
    return count, math.fsum(profits)


def _merge(trace: EventTrace, shard_results: list[ReplayResult],
           boundary_result: ReplayResult | None, wall: float,
           boundary_certificate: dict | None = None) -> ReplayMetrics:
    """Merged metrics: trace-level counts + summed outcome counters.

    Boundary metrics are already deltas over the absorbed baseline, so
    a plain sum never double counts; latency percentiles cannot be
    merged exactly without raw samples, so the merged tail is the
    conservative maximum across shard and boundary rows.
    """
    with _tracing.span("boundary.merge", shards=len(shard_results)):
        rows = [r.metrics for r in shard_results]
        if boundary_result is not None:
            rows.append(boundary_result.metrics)
        # The peak-based companion column (history-mode certificates)
        # merges only where the tightened bound is a single row's: the
        # multi-shard sum mixes tightened and peak semantics.
        if boundary_result is not None:
            peak = boundary_result.metrics.dual_upper_bound_peak
        elif len(shard_results) == 1:
            peak = shard_results[0].metrics.dual_upper_bound_peak
        else:
            peak = None
        arrivals = trace.num_arrivals
        accepted = sum(m.accepted for m in rows)
        # Money columns merge with fsum: the merged totals must not
        # depend on shard enumeration order.
        realized = math.fsum(m.realized_profit for m in rows)
        penalty = math.fsum(m.penalty_paid for m in rows)
        if boundary_result is not None:
            # The boundary certificate is computed on the coordinator
            # over the full population — a valid global upper bound.
            cert = boundary_result.metrics.dual_upper_bound
        elif len(shard_results) == 1:
            # One shard, nothing crossing: the run *is* the unsharded
            # replay, certificate included (event-for-event identity).
            cert = shard_results[0].metrics.dual_upper_bound
        else:
            # No demand crosses a cut: the LP separates across shards,
            # so the per-shard certificates sum to a global bound; the
            # boundary policy still priced the coordinator over the
            # absorbed state, which is an independent valid bound —
            # report the tighter of the two.
            shard_certs = [r.metrics.dual_upper_bound for r in shard_results]
            candidates = []
            if all(c is not None for c in shard_certs):
                candidates.append(math.fsum(shard_certs))
            if boundary_certificate is not None:
                candidates.append(boundary_certificate["upper_bound"])
            cert = min(candidates) if candidates else None
        return ReplayMetrics(
            policy=rows[0].policy,
            events=len(trace.events),
            arrivals=arrivals,
            departures=trace.num_departures,
            ticks=len(trace.events) - arrivals - trace.num_departures,
            accepted=accepted,
            rejected=arrivals - accepted,
            acceptance_ratio=accepted / arrivals if arrivals else 0.0,
            realized_profit=realized,
            evictions=sum(m.evictions for m in rows),
            forfeited_profit=math.fsum(m.forfeited_profit for m in rows),
            penalty_paid=penalty,
            penalty_adjusted_profit=realized - penalty,
            elapsed_s=wall,
            events_per_sec=len(trace.events) / wall if wall > 0 else 0.0,
            latency_p50_us=max(m.latency_p50_us for m in rows),
            latency_p90_us=max(m.latency_p90_us for m in rows),
            latency_p99_us=max(m.latency_p99_us for m in rows),
            latency_mean_us=max(m.latency_mean_us for m in rows),
            dual_upper_bound=cert,
            dual_upper_bound_peak=peak,
        )


# ----------------------------------------------------------------------
# Phase A: one shard replay, inline or in a forked worker
# ----------------------------------------------------------------------


def _replay_shard(s: int, ledger: CapacityLedger, events, meta: dict,
                  policy: str, params: dict, verify: bool) -> ReplayResult:
    """Replay shard ``s``'s local stream on its sliced ledger."""
    with _tracing.span("shard.phaseA", shard=s):
        session = AdmissionSession(ledger.problem,
                                   make_policy(policy, **params),
                                   ledger=ledger, trace_meta=meta)
        session.feed_many(events)
        return session.close(verify=verify)


def _shard_worker(s, ledger, events, meta, policy, params, verify,
                  results) -> None:
    """Forked worker body: replay, then send one ``done`` message with
    the result and the shard's span ring (``None`` when tracing is
    off)."""
    try:
        recording = _tracing.RECORDER.enabled
        if recording:
            # The fork inherited the parent's ring copy-on-write; this
            # shard's recorder must start empty so the spans it ships
            # back are exactly its own phase-A work.
            _tracing.RECORDER.clear()
        result = _replay_shard(s, ledger, events, meta, policy, params,
                               verify)
        spans = _tracing.RECORDER.drain() if recording else None
        results.put(("done", s, result, spans))
    except BaseException as exc:  # surfaced in the parent
        import traceback

        results.put(("error", s, f"{exc!r}\n{traceback.format_exc()}"))
        raise


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


@dataclass
class ShardedReplayResult:
    """Everything one sharded replay produced.

    Attributes
    ----------
    plan:
        The :class:`~repro.sharding.planner.ShardPlan` summary dict —
        per-shard demand counts and the boundary-demand population (the
        first-order divergence scale vs the unsharded replay).
    shard_results:
        One :class:`~repro.session.kernel.ReplayResult` per shard, over
        local demand ids (``trace_meta["shard"]`` names the shard).
    boundary_result:
        The serialized boundary replay (counter deltas; global demand
        ids), or ``None`` when no demand crossed a cut.
    merged:
        The merged :class:`~repro.online.metrics.ReplayMetrics` — whole
        trace event counts, summed acceptance/profit/eviction counters,
        wall-clock throughput, and the conservative (max) latency tail
        across shards.
    merged_solution:
        The coordinator's final admitted set (verified feasible).
    policy_stats:
        ``{"shards": [...], "boundary": {...}, "absorbed": {...}}`` —
        per-policy counters plus the absorb hand-off tally.
    wall_s:
        Replay wall-clock on this host, geometry build included.
    """

    plan: dict
    shard_results: list[ReplayResult]
    boundary_result: ReplayResult | None
    merged: ReplayMetrics
    merged_solution: Solution | None
    policy_stats: dict = field(default_factory=dict)
    wall_s: float = 0.0


class ShardedDriver:
    """Replay traces across shard workers and merge the outcome.

    Parameters
    ----------
    shards:
        Number of shards (>= 1).
    shard_by:
        Partition strategy, ``"subtree"`` or ``"layer"`` (see
        :class:`~repro.sharding.planner.ShardPlanner`).
    processes:
        ``0`` or ``1`` replays the shards inline; a larger value forks
        one worker per shard; ``None`` forks when the host has more than
        one CPU.  Fork workers need the ``fork`` start method (POSIX);
        elsewhere the driver runs inline.  Decisions are identical
        either way.
    """

    def __init__(self, shards: int, shard_by: str = "subtree",
                 processes: int | None = None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.planner = ShardPlanner(shard_by)
        self.processes = processes

    def run(self, trace: EventTrace, policy: str,
            params: dict | None = None, *,
            verify: bool = True) -> ShardedReplayResult:
        """Replay ``trace`` through ``policy`` across the shards.

        ``policy`` is a registry name (one fresh instance is built per
        shard plus one for the boundary pass); ``params`` are its
        constructor keywords — validated up front so misconfigurations
        fail before any replay work starts.
        """
        params = dict(params or {})
        boundary_policy = make_policy(policy, **params)  # validates early
        plan = self.planner.plan(trace.problem, self.shards)
        n = plan.n_shards
        streams = _split_streams(plan, trace)
        metas = []
        for s in range(n):
            meta = dict(trace.meta)
            meta.update({"shard": s, "shards": n, "shard_by": plan.by})
            metas.append(meta)
            # Subproblem demand containers are trace prep, outside the
            # wall window; the geometry/ledger builds below stay inside.
            plan.subproblem(s)

        t0 = time.perf_counter()
        geometry = SharedGeometry(trace.problem, plan)
        views = [geometry.shard_view(s) for s in range(n)]
        if self._use_fork(n):
            shard_results = self._run_forked(views, streams, metas, policy,
                                             params, verify)
        else:
            shard_results = [
                _replay_shard(s, views[s], streams[s], metas[s], policy,
                              params, verify)
                for s in range(n)
            ]

        coordinator = geometry.coordinator
        with _tracing.span("shard.absorb"):
            count, profit = _absorb_results(coordinator, plan, shard_results)
        events = plan.boundary_events(trace)
        with _tracing.span("shard.phaseB", events=len(events)):
            session = AdmissionSession.over_ledger(
                coordinator, boundary_policy, trace_meta=trace.meta)
            session.feed_many(events)
            closed = session.close(verify=verify)
        # The boundary certificate is priced on the coordinator over the
        # full population, so it is kept even when no demand crossed a
        # cut (the merge still uses it then).
        boundary_result = closed if events else None
        wall = time.perf_counter() - t0

        merged = _merge(trace, shard_results, boundary_result, wall,
                        boundary_certificate=session.certificate)
        policy_stats = {
            "shards": [dict(r.policy_stats) for r in shard_results],
            "boundary": (dict(boundary_result.policy_stats)
                         if boundary_result else {}),
            "absorbed": {"count": count, "profit": profit},
        }
        return ShardedReplayResult(
            plan=plan.summary(),
            shard_results=shard_results,
            boundary_result=boundary_result,
            merged=merged,
            merged_solution=coordinator.snapshot(),
            policy_stats=policy_stats,
            wall_s=wall,
        )

    def _use_fork(self, n: int) -> bool:
        nproc = self.processes
        if nproc is None:
            import os

            nproc = min(n, os.cpu_count() or 1)
        if min(nproc, n) <= 1:
            return False
        import multiprocessing as mp

        return "fork" in mp.get_all_start_methods()

    @staticmethod
    def _run_forked(views, streams, metas, policy, params,
                    verify) -> list[ReplayResult]:
        """Phase A over one ``fork`` worker per shard."""
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        results = ctx.Queue()
        n = len(views)
        procs = [
            ctx.Process(target=_shard_worker,
                        args=(s, views[s], streams[s], metas[s], policy,
                              params, verify, results),
                        daemon=True)
            for s in range(n)
        ]
        for p in procs:
            p.start()
        shard_results: list = [None] * n
        worker_spans: list = [None] * n
        remaining = n
        empties_after_death = 0
        while remaining:
            try:
                msg = results.get(timeout=1.0)
            except _queue.Empty:  # poll worker liveness
                dead = [s for s, p in enumerate(procs)
                        if not p.is_alive() and shard_results[s] is None]
                if dead:
                    # A feeder thread may still be flushing: give the
                    # queue one more beat before declaring the loss.
                    empties_after_death += 1
                    if empties_after_death >= 2:
                        for p in procs:
                            p.terminate()
                        raise RuntimeError(
                            f"shard worker(s) {dead} exited without a "
                            "result") from None
                continue
            empties_after_death = 0
            if msg[0] == "error":
                _, s, detail = msg
                for p in procs:
                    p.terminate()
                raise RuntimeError(f"shard worker {s} failed:\n{detail}")
            _, s, result, spans = msg
            shard_results[s] = result
            worker_spans[s] = spans
            remaining -= 1
        for p in procs:
            p.join()
        if _tracing.RECORDER.enabled:
            # Merge the shipped per-shard rings in shard order — before
            # the serialized tail records its own spans, so the merged
            # sequence matches what the inline run (shard 0 fully, then
            # shard 1, ...) records.
            for spans in worker_spans:
                if spans:
                    _tracing.RECORDER.extend(spans)
        return shard_results
