"""Columnar batch-decision fast path: vectorized admission over
speculative event windows.

The scalar event loop (``session.feed`` → ``policy.on_arrival`` →
``ledger.admit``) costs a few microseconds of interpreter work per
event.  This module amortizes it for the two stateless-per-event
policies (``greedy-threshold`` and ``dual-gated``) without changing a
single decision bit:

* :class:`DemandGeometry` — per-demand candidate/route/footprint CSR
  arrays resolved **once** per ledger against the shared
  :class:`~repro.core.conflict.ConflictIndex` (cached on the ledger, so
  every session over the same ledger — including the sharded boundary
  pass — reuses one build);
* :class:`TraceArrays` — a columnar view of one event batch (kinds,
  demand ids, per-event conflict footprints);
* batch kernels (:data:`BATCH_KERNELS`) — gather/segment-reduce
  replicas of the scalar decision paths, bit-for-bit (see the float
  notes below), split into a pure *decide* over a window of arrivals
  and a *commit* of a prefix of those decisions;
* :func:`conflict_free_prefix` — how far a window's speculative
  decisions stand: up to the first event whose footprint overlaps an
  earlier *state-changing* event (an admission or a live departure) of
  the window;
* :class:`FastFeeder` — the executor ``AdmissionSession.feed_many``
  engages when the policy advertises a batch kernel.

Speculation: the executor decides every arrival of a window against the
window-entry loads in one kernel call, marks the events that would
change ledger state, and commits the longest prefix none of whose
events overlaps an earlier state change.  Every decision in that prefix
read exactly the loads it would have read one event at a time; the
first overlapping event and everything after it are decided again in
the next window.  Rejections and departures of demands that are not
admitted change nothing, so on a congested stream a window commits far
more events than a conflict-free run (every event a potential writer)
would hold.

Bit-exactness ground rules (each empirically verified against this
container's NumPy):

* ``np.add.reduceat`` reduces every segment identically whether it
  sums one segment or many, independent of segment position and buffer
  alignment (it does *not* match ``np.sum``'s pairwise blocking, which
  is why the scalar ``DualGated._price_from_loads`` itself sums through
  a single-segment ``reduceat`` — both paths then share one reduction
  definition and match bit for bit by construction);
* elementwise ufuncs (``np.power``) are position-invariant, so pricing
  every gathered route edge in one call matches per-route calls;
* ``max``/``min`` reductions are order-independent, so
  ``maximum.reduceat`` feasibility probes and first-min selection keys
  are exact;
* within a committed prefix, the state-changing routes are
  edge-disjoint, so batched scatter-adds touch every load position
  exactly once — the same single float add the scalar loop performs.

The executor amortizes per-window overhead by *pre-gathering* per
chunk: candidate rows, route edges, heights and selection keys for
every batchable arrival in a chunk are flattened once
(:func:`_prepare`), so each window reduces to a load gather plus a
handful of segment reductions over contiguous slices.

A *footprint* is the union of every candidate route of a demand plus a
per-demand sentinel pseudo-edge: two events of the same demand always
conflict (the arrival/departure bookkeeping is order-dependent), and
any two demands whose admitted-or-considered routes could share an edge
conflict.
"""

from __future__ import annotations

import time

import numpy as np

from ..obs import tracing as _tracing
from .events import Arrival, Departure, Tick

__all__ = [
    "DemandGeometry",
    "TraceArrays",
    "FastFeeder",
    "BATCH_KERNELS",
    "conflict_free_prefix",
    "geometry_of",
]

#: Events columnarized per pass; a chunk boundary is a forced window
#: boundary — a finer split, which is always sound.
CHUNK = 32768

#: Stretches of batchable events shorter than this are executed through
#: the scalar dispatcher: a kernel window pays a few dozen NumPy-call
#: overheads, which only amortize over enough events.  Either execution
#: is bit-identical, so this is purely a throughput constant.
MIN_VECTOR_RUN = 2

#: Sizing of the speculation window: the first spans ``WINDOW_MIN``
#: events, each later one the prefix the previous window committed plus
#: ``WINDOW_MIN``, at most ``WINDOW_MAX``.  Events past the committed
#: prefix are decided again, so a window much longer than the prefixes
#: the stream allows only wastes gathers; on the 2k-event line trace of
#: ``benchmarks/bench_online.py`` this sizing beat twice the last
#: prefix, 1.5 times it and fixed windows of 32 or 64 events.
WINDOW_MIN = 16
WINDOW_MAX = 512

_INT_MAX = np.iinfo(np.int64).max

#: The ledger's capacity bound: an admission is blocked when the route's
#: peak load plus the instance height exceeds this (the exact comparison
#: :meth:`ActiveConflictSet.blocked_mask` performs).
_CAP = 1.0 + 1e-9


# ----------------------------------------------------------------------
# Static per-demand geometry
# ----------------------------------------------------------------------


class DemandGeometry:
    """Candidate/route/footprint CSR arrays over a ledger's population.

    Everything here is static (routes, profits, densities never change),
    resolved once against the ledger's shared
    :class:`~repro.core.conflict.ConflictIndex` and reused by every
    batch.  Demand ids index the CSR directly (the trace contract:
    ``0 .. num_demands-1``; shard-sliced subproblems densify to the same
    convention).
    """

    def __init__(self, ledger) -> None:
        index = ledger.index
        problem = ledger.problem
        D = int(problem.num_demands)
        I = len(ledger.instances)
        E = int(index.num_edges)
        self.num_demands = D
        self.num_instances = I
        self.num_edges = E

        # --- per-demand candidate CSR (ascending instance ids, exactly
        # the order ledger.candidates() reports) -----------------------
        counts = np.zeros(D, dtype=np.int64)
        for inst in ledger.instances:
            counts[inst.demand_id] += 1
        self.cand_indptr = np.zeros(D + 1, dtype=np.int64)
        np.cumsum(counts, out=self.cand_indptr[1:])
        cand_iids = np.empty(I, dtype=np.int64)
        fill = self.cand_indptr[:-1].copy()
        for inst in ledger.instances:
            d = inst.demand_id
            cand_iids[fill[d]] = inst.instance_id
            fill[d] += 1
        self.cand_iids = cand_iids

        # --- per-candidate columns (aligned with cand_iids) -----------
        indptr = index._indptr
        route_counts = (indptr[1:] - indptr[:-1])[cand_iids]
        self.cand_route_len = np.maximum(route_counts, 1)
        profits = np.asarray(
            [float(d.profit) for d in ledger.instances], dtype=np.float64
        )
        self.cand_profit = profits[cand_iids]
        self.cand_height = index._heights[cand_iids].astype(
            np.float64, copy=True
        )
        self.cand_dix = index._dix[cand_iids]
        # route_length / density exactly as the ledger caches them:
        # max(route, 1) and profit / route_length (one float64 divide).
        self.cand_density = self.cand_profit / self.cand_route_len.astype(
            np.float64
        )

        # --- per-candidate route CSR (the index's own edge rows,
        # re-packed in candidate order) --------------------------------
        self.rr_indptr = np.zeros(I + 1, dtype=np.int64)
        np.cumsum(route_counts, out=self.rr_indptr[1:])
        total = int(self.rr_indptr[-1])
        if total:
            offsets = np.repeat(
                indptr[cand_iids] - self.rr_indptr[:-1], route_counts
            )
            self.rr_edges = index._flat_edges[
                np.arange(total, dtype=np.int64) + offsets
            ]
        else:
            self.rr_edges = np.zeros(0, dtype=np.int64)

        # --- per-demand conflict footprints ---------------------------
        # Union of every candidate route of the demand, deduped in one
        # global argsort pass, plus a sentinel pseudo-edge ``E + d`` so
        # two events of the same demand always conflict.  Stamps range
        # over ``E + D``.
        if total:
            owner = np.repeat(
                np.repeat(
                    np.arange(D, dtype=np.int64),
                    counts,
                ),
                route_counts,
            )
            key = owner * np.int64(E) + self.rr_edges
            key = np.sort(key)
            keep = np.empty(len(key), dtype=bool)
            keep[0] = True
            np.not_equal(key[1:], key[:-1], out=keep[1:])
            uniq = key[keep]
            owner_u = uniq // E
            edge_u = uniq - owner_u * E
        else:
            uniq = np.zeros(0, dtype=np.int64)
            owner_u = np.zeros(0, dtype=np.int64)
            edge_u = np.zeros(0, dtype=np.int64)
        counts_u = np.bincount(owner_u, minlength=D).astype(np.int64)
        fp_counts = counts_u + 1  # +1 for the sentinel
        self.fp_indptr = np.zeros(D + 1, dtype=np.int64)
        np.cumsum(fp_counts, out=self.fp_indptr[1:])
        fp_edges = np.empty(int(self.fp_indptr[-1]), dtype=np.int64)
        fp_edges[self.fp_indptr[:-1]] = E + np.arange(D, dtype=np.int64)
        if len(uniq):
            u_starts = np.zeros(D, dtype=np.int64)
            np.cumsum(counts_u[:-1], out=u_starts[1:])
            dest = (
                self.fp_indptr[owner_u]
                + 1
                + (np.arange(len(uniq), dtype=np.int64) - u_starts[owner_u])
            )
            fp_edges[dest] = edge_u
        self.fp_edges = fp_edges
        self.fp_counts = fp_counts


def geometry_of(ledger) -> DemandGeometry:
    """The ledger's cached :class:`DemandGeometry` (built on first use).

    Cached on the ledger itself so every session attached to it — the
    replay driver, the service, the sharded boundary pass — shares one
    build.  Route geometry never changes, so the cache never
    invalidates.
    """
    geom = getattr(ledger, "_fastpath_geometry", None)
    if geom is None:
        geom = DemandGeometry(ledger)
        ledger._fastpath_geometry = geom
    return geom


# ----------------------------------------------------------------------
# Columnar event batches
# ----------------------------------------------------------------------


_KIND_ARRIVAL = 0
_KIND_DEPARTURE = 1
_KIND_TICK = 2
_KIND_OTHER = 3


class TraceArrays:
    """One event batch as columns: kinds, demand ids, footprints.

    ``batchable[i]`` is False for anything the kernels must not touch —
    unknown event types, out-of-range demand ids, demands without
    candidates — which the executor routes through the scalar
    dispatcher one at a time (reproducing the scalar path's exact
    behaviour, errors included).
    """

    __slots__ = ("events", "kinds", "demand", "batchable",
                 "fp_indptr", "fp_edges", "fp_owner")

    def __init__(self, events, kinds, demand, batchable,
                 fp_indptr, fp_edges) -> None:
        self.events = events
        self.kinds = kinds
        self.demand = demand
        self.batchable = batchable
        self.fp_indptr = fp_indptr
        self.fp_edges = fp_edges
        #: The event index of every footprint entry.
        self.fp_owner = np.arange(len(events), dtype=np.int64).repeat(
            fp_indptr[1:] - fp_indptr[:-1])

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def from_events(cls, events: list, geom: DemandGeometry) -> "TraceArrays":
        """Columnarize one batch against ``geom``'s footprint CSR."""
        n = len(events)
        D = geom.num_demands
        # Exact-type dispatch (the event classes are final by
        # convention; subclasses would fall to _KIND_OTHER and the
        # scalar dispatcher, which handles anything).
        kind_of = {Arrival: _KIND_ARRIVAL, Departure: _KIND_DEPARTURE,
                   Tick: _KIND_TICK}.get
        kl = [kind_of(type(ev), _KIND_OTHER) for ev in events]
        dl = [ev.demand_id if k <= _KIND_DEPARTURE else -1
              for k, ev in zip(kl, events)]
        kinds = np.asarray(kl, dtype=np.int8)
        demand = np.asarray(dl, dtype=np.int64)
        # Demand-carrying events with ids outside the population go
        # through the scalar dispatcher (which raises or no-ops exactly
        # as it always did).
        batchable = (kinds == _KIND_TICK) | (
            (demand >= 0) & (demand < D)
        )
        has_demand = batchable & (demand >= 0)
        # An arrival of a demand with no candidate instances raises in
        # the scalar path (``candidates()`` KeyError); leave it there.
        ok = batchable & has_demand
        cnt = np.zeros(n, dtype=np.int64)
        cnt[ok] = geom.fp_counts[demand[ok]]
        arrivals_no_cand = (
            batchable & (kinds == _KIND_ARRIVAL) & has_demand
        )
        arrivals_no_cand[arrivals_no_cand] = (
            geom.cand_indptr[demand[arrivals_no_cand] + 1]
            == geom.cand_indptr[demand[arrivals_no_cand]]
        )
        if arrivals_no_cand.any():
            batchable &= ~arrivals_no_cand
            cnt[arrivals_no_cand] = 0
        fp_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(cnt, out=fp_indptr[1:])
        total = int(fp_indptr[-1])
        if total:
            ok = cnt > 0
            starts = geom.fp_indptr[demand[ok]]
            offsets = np.repeat(starts - fp_indptr[:-1][ok], cnt[ok])
            fp_edges = geom.fp_edges[
                np.arange(total, dtype=np.int64) + offsets
            ]
        else:
            fp_edges = np.zeros(0, dtype=np.int64)
        return cls(events, kinds, demand, batchable, fp_indptr, fp_edges)


def conflict_free_prefix(ta: TraceArrays, lo: int, hi: int,
                         changing: np.ndarray | None = None,
                         stamp: np.ndarray | None = None) -> int:
    """End of the longest prefix of ``ta.events[lo:hi]`` free of
    order-dependent conflicts.

    Returns the least ``p`` in ``(lo, hi]`` such that event ``p`` (when
    ``p < hi``) has a footprint overlapping some earlier *changing*
    event of ``[lo, p)`` — the first event whose decision may depend on
    an earlier one of the stretch.  ``changing`` is one bool per event
    of ``[lo, hi)``: the events that change ledger state (admissions,
    releases of admitted demands).  ``None`` treats every event as
    changing, which makes ``[lo, p)`` the maximal conflict-free run
    starting at ``lo``.

    ``stamp`` is scratch indexed by footprint entry id (at least
    ``max(ta.fp_edges) + 1`` long, every slot ``int64`` max); it is
    restored before returning, so a caller may keep one across calls.
    The first changing owner of every footprint entry is scattered in
    with ``np.minimum.at``; an event then conflicts iff one of its
    entries carries a smaller owner.
    """
    if hi - lo <= 1:
        return hi
    f0 = int(ta.fp_indptr[lo])
    f1 = int(ta.fp_indptr[hi])
    if f0 == f1:
        return hi
    edges = ta.fp_edges[f0:f1]
    owner = ta.fp_owner[f0:f1]
    if changing is None:
        ce, co = edges, owner
    else:
        mask = changing[owner - lo]
        ce, co = edges[mask], owner[mask]
    if stamp is None:
        stamp = np.full(int(edges.max()) + 1, _INT_MAX, dtype=np.int64)
    np.minimum.at(stamp, ce, co)
    hit = stamp[edges] < owner
    stamp[ce] = _INT_MAX
    # Entries are laid out in event order, so the first hit belongs to
    # the earliest conflicting event.
    k = int(hit.argmax())
    return int(owner[k]) if hit[k] else hi


# ----------------------------------------------------------------------
# Batch decision kernels
# ----------------------------------------------------------------------


class _ChunkPlan:
    """Pre-gathered candidate/route columns for one batch of arrivals.

    Built once per chunk by :func:`_prepare`; every kernel call then
    works on contiguous slices of these arrays, so the per-window work
    is one load gather plus a handful of segment reductions.  All arrays
    are flat in *chunk arrival order*:

    * ``demands``/``dix`` — per arrival;
    * ``cstart`` — arrival → candidate-range prefix (length n+1);
    * ``height``/``pos``/``iid`` (+ per-kernel ``gkey`` or
      ``aidx``/``profit``) — per candidate;
    * ``estart`` — candidate → route-edge-range prefix (length C+1);
    * ``edges`` — flat route edge ids per candidate.

    ``has_empty`` flags chunks containing empty-route candidates; only
    those pay the masked reductions.
    """

    __slots__ = ("demands", "dix", "cstart", "height", "pos", "aidx",
                 "estart", "edges", "earange", "has_empty", "gkey",
                 "profit", "iid")


def _prepare(feeder: "FastFeeder", demands: np.ndarray) -> _ChunkPlan:
    """Flatten the candidate rows of ``demands`` against the geometry."""
    geom = feeder.geom
    p = _ChunkPlan()
    p.demands = demands
    ci0 = geom.cand_indptr[demands]
    ccnt = geom.cand_indptr[demands + 1] - ci0
    cstart = np.zeros(len(demands) + 1, dtype=np.int64)
    np.cumsum(ccnt, out=cstart[1:])
    C = int(cstart[-1])
    gidx = np.arange(C, dtype=np.int64) + np.repeat(ci0 - cstart[:-1], ccnt)
    p.cstart = cstart
    p.dix = geom.cand_dix[gidx[cstart[:-1]]]
    r0 = geom.rr_indptr[gidx]
    r_cnt = geom.rr_indptr[gidx + 1] - r0
    estart = np.zeros(C + 1, dtype=np.int64)
    np.cumsum(r_cnt, out=estart[1:])
    total = int(estart[-1])
    if total:
        p.edges = geom.rr_edges[
            np.arange(total, dtype=np.int64) + np.repeat(r0 - estart[:-1],
                                                         r_cnt)
        ]
    else:
        p.edges = np.zeros(0, dtype=np.int64)
    p.estart = estart
    p.height = geom.cand_height[gidx]
    p.pos = np.arange(C, dtype=np.int64)
    p.earange = np.arange(total, dtype=np.int64)
    p.has_empty = bool((r_cnt == 0).any())
    p.iid = geom.cand_iids[gidx]
    if feeder.below is not None:
        # Greedy's (route_length, iid) ranking as one sortable int64,
        # tie-broken by plan position: an arrival's candidates sit in
        # ascending instance-id order, so the ranking is the same and
        # the winning key names the winner's position.  Candidates
        # under the density floor carry ``_INT_MAX``.
        p.gkey = np.where(feeder.below[gidx], _INT_MAX,
                          geom.cand_route_len[gidx] * np.int64(C + 1)
                          + p.pos)
        p.aidx = p.profit = None
    else:
        p.gkey = None
        # Per-candidate arrival index: lets the kernels expand a
        # per-arrival column to candidates with one gather instead of a
        # per-window ``np.repeat``.
        p.aidx = np.arange(len(demands), dtype=np.int64).repeat(ccnt)
        p.profit = geom.cand_profit[gidx]
    return p


class _Decision:
    """One window's speculative decisions, arrival indices relative to
    the window's first arrival.

    ``admit`` (ascending) are the arrivals that would admit, with the
    plan position of the admitted candidate (``first``) and the demand
    id (``dems``) in the same order.  The dual kernel adds the
    per-arrival ``has_any``/``best_price`` columns and the ascending
    ``gated`` arrivals, from which a commit derives the policy stats of
    any prefix.
    """

    __slots__ = ("admit", "first", "dems", "has_any", "best_price",
                 "gated")

    def __init__(self, admit, first=None, dems=None, has_any=None,
                 best_price=None, gated=None) -> None:
        self.admit = admit
        self.first = first
        self.dems = dems
        self.has_any = has_any
        self.best_price = best_price
        self.gated = gated


def _admit_positions(feeder: "FastFeeder", plan: _ChunkPlan,
                     pos: np.ndarray, dems: list):
    """Admit the candidates at plan positions ``pos`` (pairwise
    route-disjoint) in order, handing ``admit_many`` the route edges and
    heights gathered here; returns the edges (``None`` when every route
    is empty)."""
    estart = plan.estart
    r0 = estart[pos]
    r_cnt = estart[pos + 1] - r0
    total = int(r_cnt.sum())
    edges = adds = None
    if total:
        csum = np.zeros(len(pos), dtype=np.int64)
        r_cnt[:-1].cumsum(out=csum[1:])
        edges = plan.edges[plan.earange[:total] + (r0 - csum).repeat(r_cnt)]
        adds = plan.height[pos].repeat(r_cnt)
    feeder.ledger.admit_many(plan.iid[pos], _prechecked=True,
                             _demands=dems, _edges=edges, _adds=adds)
    return edges


def _route_peaks(plan: _ChunkPlan, load: np.ndarray, i0: int, i1: int):
    """``(loads, seg_max, rel, nonempty)`` over the candidates of
    arrivals ``[i0, i1)``: the loads gathered along their routes, each
    candidate's peak (0.0 on an empty route, as the scalar probe sees
    it), its segment offset into ``loads``, and — only when the plan
    has empty routes, else ``None`` — which segments are nonempty."""
    estart = plan.estart
    c0 = plan.cstart[i0]
    c1 = plan.cstart[i1]
    e0 = estart[c0]
    loads = load[plan.edges[e0:estart[c1]]]
    rel = estart[c0:c1] - e0
    if not plan.has_empty:
        return loads, np.maximum.reduceat(loads, rel), rel, None
    seg_max = np.zeros(c1 - c0, dtype=np.float64)
    ne = (estart[c0 + 1:c1 + 1] - estart[c0:c1]) > 0
    if loads.size:
        seg_max[ne] = np.maximum.reduceat(loads, rel[ne])
    return loads, seg_max, rel, ne


def _kernel_greedy(feeder: "FastFeeder", plan: _ChunkPlan,
                   i0: int, i1: int) -> _Decision:
    """Vectorized ``GreedyThreshold.on_arrival`` over arrivals
    ``[i0, i1)`` of the plan, against the current loads; pure.

    The density floor is pre-folded into ``plan.gkey``
    (below-threshold candidates carry ``_INT_MAX``), and the
    already-admitted early return is applied per arrival — the
    currently-admitted check is subsumed, since a demand in the system
    is by invariant in the ever-admitted set.
    """
    ledger = feeder.ledger
    c0 = plan.cstart[i0]
    c1 = plan.cstart[i1]
    _, seg_max, _, _ = _route_peaks(plan, ledger.active._load, i0, i1)
    key = np.where(seg_max + plan.height[c0:c1] > _CAP, _INT_MAX,
                   plan.gkey[c0:c1])
    best = np.minimum.reduceat(key, plan.cstart[i0:i1] - c0)
    sel = (best != _INT_MAX).nonzero()[0]
    if not len(sel):
        return _NO_ADMISSION
    dems = plan.demands[i0 + sel].tolist()
    ever = ledger._ever_admitted
    if ever:
        keep = [k for k, d in enumerate(dems) if d not in ever]
        if len(keep) != len(dems):
            if not keep:
                return _NO_ADMISSION
            sel = sel[np.asarray(keep, dtype=np.int64)]
            dems = [dems[k] for k in keep]
    # The key's low part is the plan position (see _prepare).
    return _Decision(sel, best[sel] % np.int64(len(plan.pos) + 1), dems)


def _kernel_greedy_commit(feeder: "FastFeeder", plan: _ChunkPlan,
                          dec: _Decision, n: int) -> int:
    """Apply the first ``n`` arrivals of a greedy window; returns the
    number admitted."""
    k = int(dec.admit.searchsorted(n))
    if k:
        _admit_positions(feeder, plan, dec.first[:k], dec.dems[:k])
    return k


def _kernel_dual(feeder: "FastFeeder", plan: _ChunkPlan,
                 i0: int, i1: int) -> _Decision:
    """Vectorized ``DualGated.on_arrival`` over arrivals ``[i0, i1)``
    of the plan, against the current loads; pure.

    Same candidate ranking (first strict price minimum in candidate
    order) and gate (``profit <= eta * price``).  The demand-in-system
    block is applied per arrival (every candidate of such a demand is
    blocked in the scalar probe, so the arrival counts as
    capacity-blocked either way).
    """
    ledger = feeder.ledger
    policy = feeder.policy
    cstart = plan.cstart
    c0 = cstart[i0]
    c1 = cstart[i1]
    loads, seg_max, rel, ne = _route_peaks(plan, ledger.active._load,
                                           i0, i1)
    h = plan.height[c0:c1]
    feasible = seg_max + h <= _CAP
    # Price every gathered route edge in one ufunc call (elementwise,
    # position-invariant); the per-candidate sums are one multi-segment
    # reduceat — the very reduction the scalar price function performs.
    pw = np.power(policy.mu, loads) - 1.0
    if ne is None:
        sums = np.add.reduceat(pw, rel)
    else:
        sums = np.zeros(c1 - c0, dtype=np.float64)
        if loads.size:
            sums[ne] = np.add.reduceat(pw, rel[ne])
    price = h * (policy._scale * sums)
    priced = np.where(feasible, price, np.inf)
    relc = cstart[i0:i1] - c0
    best_price = np.minimum.reduceat(priced, relc)
    # An arrival has a feasible candidate iff its best price is finite
    # (feasible prices are always finite).
    has_any = best_price < np.inf
    has_any &= ~ledger.active._demand_used[plan.dix[i0:i1]]
    ai = has_any.nonzero()[0]
    if not len(ai):
        return _Decision(_EMPTY_IIDS, has_any=has_any,
                         best_price=best_price, gated=_EMPTY_IIDS)
    # First strict minimum in candidate order — the scalar loop keeps
    # the first candidate attaining the minimum.  Infeasible candidates
    # carry +inf, which only ties a +inf best price — and those
    # arrivals are already excluded by ``has_any``.
    at_min = priced == best_price[plan.aidx[c0:c1] - i0]
    first = np.minimum.reduceat(
        np.where(at_min, plan.pos[c0:c1], _INT_MAX), relc
    )[ai]
    gated = plan.profit[first] <= policy.eta * best_price[ai]
    keep = ~gated
    admit = ai[keep]
    return _Decision(admit, first[keep], plan.demands[i0 + admit].tolist(),
                     has_any, best_price, ai[gated])


def _kernel_dual_commit(feeder: "FastFeeder", plan: _ChunkPlan,
                        dec: _Decision, n: int) -> int:
    """Apply the first ``n`` arrivals of a dual-gated window: stats
    counters, the ``max_gate`` trajectory, admissions and peak-load
    notes; returns the number admitted."""
    ledger = feeder.ledger
    stats = feeder.policy.stats
    has_any = dec.has_any[:n]
    n_any = int(np.count_nonzero(has_any))
    stats["capacity_blocked"] += n - n_any
    if n_any:
        # max_gate folds in every best price seen, gated or not (max is
        # order-independent; cast keeps the stats JSON-safe floats).
        mg = float(dec.best_price[:n][has_any].max())
        if mg > stats["max_gate"]:
            stats["max_gate"] = mg
        n_gated = int(dec.gated.searchsorted(n))
        if n_gated:
            stats["gated"] += n_gated
    k = int(dec.admit.searchsorted(n))
    if not k:
        return 0
    edges = _admit_positions(feeder, plan, dec.first[:k], dec.dems[:k])
    if edges is not None:
        # Batched ``_note_peak``: each admitted route's post-admission
        # loads equal its post-commit loads (disjointness), so one
        # gather after admit_many folds the same values into the peaks
        # as the per-admission scalar notes.  History snapshots are
        # never taken here: the policy only advertises its batch
        # kernel with ``history=False``.
        load = ledger.active._load
        peak = feeder.policy._peak
        peak[edges] = np.maximum(peak[edges], load[edges])
    return k


_EMPTY_IIDS = np.zeros(0, dtype=np.int64)
_NO_ADMISSION = _Decision(_EMPTY_IIDS)


#: Kernel registry: the names policies advertise via ``batch_kernel()``.
#: Values are ``(decide, commit)``: ``decide(feeder, plan, i0, i1)``
#: returns the :class:`_Decision` of arrivals ``[i0, i1)`` without
#: touching any state, ``commit(feeder, plan, decision, n)`` applies
#: the first ``n`` of them.
BATCH_KERNELS = {
    "greedy-threshold": (_kernel_greedy, _kernel_greedy_commit),
    "dual-gated": (_kernel_dual, _kernel_dual_commit),
}


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------


class FastFeeder:
    """Drives one session's ``feed_many`` batches through the kernels.

    Constructed by :class:`~repro.session.kernel.AdmissionSession` when
    the policy advertises a batch kernel (and keeps the base no-op
    departure/tick hooks).  Each batch is columnarized per
    :data:`CHUNK` and executed window by window: the kernel decides a
    window's arrivals, :func:`conflict_free_prefix` finds how many of
    its events stand, and that prefix is committed — departures in one
    batched release, arrivals in one kernel commit.  Anything the
    kernels must not touch — unbatchable events, stretches shorter than
    :data:`MIN_VECTOR_RUN` — goes through the session's scalar
    dispatcher, which is bit-identical by definition.
    """

    def __init__(self, session, kernel_name: str) -> None:
        if kernel_name not in BATCH_KERNELS:
            raise ValueError(f"unknown batch kernel {kernel_name!r}")
        self.session = session
        self.ledger = session.ledger
        self.policy = session.policy
        self._decide, self._commit = BATCH_KERNELS[kernel_name]
        self.geom = geometry_of(session.ledger)
        # Scratch for conflict_free_prefix over footprint ids E + D.
        self._stamp = np.full(self.geom.num_edges + self.geom.num_demands,
                              _INT_MAX, dtype=np.int64)
        # Greedy's density floor is static per session: fold it into the
        # selection key, so the kernel's eligibility test is just the
        # feasibility mask.
        if kernel_name == "greedy-threshold":
            self.below = self.geom.cand_density < self.policy.threshold
        else:
            self.below = None

    def feed(self, events) -> None:
        """Apply a whole batch (the ``feed_many`` fast route)."""
        evs = events if isinstance(events, list) else list(events)
        if evs and self.session.closed:
            raise RuntimeError("session is closed")
        for c0 in range(0, len(evs), CHUNK):
            chunk = evs[c0:c0 + CHUNK]
            ta = TraceArrays.from_events(chunk, self.geom)
            self._feed_chunk(ta)

    def _feed_chunk(self, ta: TraceArrays) -> None:
        session = self.session
        stats = session.fastpath_stats
        n = len(ta)
        batchable = ta.batchable
        # Chunk-wide pregather: candidate/route columns for every
        # batchable arrival, plus event → arrival/departure prefix maps
        # so each window's slice bounds are O(1) lookups.
        barr = batchable & (ta.kinds == _KIND_ARRIVAL)
        bdep = batchable & (ta.kinds == _KIND_DEPARTURE)
        arr_ofs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(barr, out=arr_ofs[1:])
        dep_ofs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(bdep, out=dep_ofs[1:])
        cols = _ChunkColumns(
            plan=_prepare(self, ta.demand[barr]),
            arr_ofs=arr_ofs.tolist(),
            dep_ofs=dep_ofs.tolist(),
            arr_event=np.nonzero(barr)[0],
            dep_event=np.nonzero(bdep)[0],
            dep_demands=ta.demand[bdep].tolist(),
        )
        bl = batchable.tolist()
        # Per-window counter updates accumulate locally and flush once
        # per chunk (the scalar dispatcher keeps updating the session
        # directly, so totals come out identical either way).
        c_events = c_arr = c_dep = c_runs = c_adm = 0
        t_first = dur_sum = 0.0
        max_run = stats["max_run_len"]
        window = WINDOW_MIN
        lo = 0
        while lo < n:
            if not bl[lo]:
                stats["scalar_fallbacks"] += 1
                session._dispatch(ta.events[lo])
                lo += 1
                continue
            hi = lo
            while hi < n and bl[hi]:
                hi += 1
            if hi - lo < MIN_VECTOR_RUN:
                stats["scalar_fallbacks"] += hi - lo
                dispatch = session._dispatch
                for i in range(lo, hi):
                    dispatch(ta.events[i])
                lo = hi
                continue
            while lo < hi:
                t0, dur, admitted, p = self._window(
                    ta, cols, lo, min(hi, lo + window))
                rn = p - lo
                c_events += rn
                c_arr += cols.arr_ofs[p] - cols.arr_ofs[lo]
                c_dep += cols.dep_ofs[p] - cols.dep_ofs[lo]
                c_adm += admitted
                if not c_runs:
                    t_first = t0
                dur_sum += dur
                c_runs += 1
                if rn > max_run:
                    max_run = rn
                window = min(WINDOW_MAX, rn + WINDOW_MIN)
                lo = p
        if c_runs:
            session.events += c_events
            session.arrivals += c_arr
            session.departures += c_dep
            session.ticks += c_events - c_arr - c_dep
            stats["runs"] += c_runs
            stats["batched_events"] += c_events
            stats["max_run_len"] = max_run
            # One aggregated span per chunk, not one per window: per-run
            # spans cost ~2µs each, which the batch kernels made a
            # measurable slice of the hot path (the obs-overhead gate
            # caught it).  ``dur`` sums only the in-window kernel time,
            # so scalar fallbacks interleaved between windows stay out.
            if _tracing.RECORDER.enabled:
                _tracing.record_complete(
                    "session.batch_decide", t_first, dur_sum,
                    {"events": c_events, "arrivals": c_arr,
                     "departures": c_dep, "admitted": c_adm,
                     "runs": c_runs},
                )

    def _window(self, ta: TraceArrays, cols: "_ChunkColumns", a: int,
                b: int) -> tuple[float, float, int, int]:
        """Decide batchable events ``[a, b)``, commit the prefix that
        stands; returns ``(t0, duration, admitted, prefix_end)``.

        Departures are live when their demand is admitted at window
        entry; a demand admitted inside the window shares its
        departure's sentinel edge, so such a departure is never in the
        committed prefix.  Within the prefix, releases and admissions
        touch pairwise disjoint edges, so releases go first (the scalar
        loop performs them outside the decision clock too).  Ticks are
        no-ops here by construction (the policy keeps the base
        ``on_tick``).
        """
        session = self.session
        ledger = self.ledger
        t0 = time.perf_counter()
        i0 = cols.arr_ofs[a]
        i1 = cols.arr_ofs[b]
        admitted_map = ledger._admitted
        dep_demands = cols.dep_demands
        live = [k for k in range(cols.dep_ofs[a], cols.dep_ofs[b])
                if dep_demands[k] in admitted_map]
        dec = None
        if i1 > i0:
            dec = self._decide(self, cols.plan, i0, i1)
        p = b
        if live or (dec is not None and len(dec.admit)):
            changing = np.zeros(b - a, dtype=bool)
            if dec is not None:
                changing[cols.arr_event[i0 + dec.admit] - a] = True
            if live:
                changing[cols.dep_event[live] - a] = True
            p = conflict_free_prefix(ta, a, b, changing, self._stamp)
        d_end = cols.dep_ofs[p]
        released = [dep_demands[k] for k in live if k < d_end]
        if released:
            ledger.release_many(released, _disjoint=True)
        admitted = 0
        if dec is not None:
            admitted = self._commit(self, cols.plan, dec,
                                    cols.arr_ofs[p] - i0)
        dur = time.perf_counter() - t0
        n = p - a
        session.latencies.extend([dur / n] * n)
        return t0, dur, admitted, p


class _ChunkColumns:
    """One chunk's pre-gathered plan plus its event → arrival/departure
    maps (``*_ofs``: prefix counts per event; ``*_event``: the event
    index of each batchable arrival/departure)."""

    __slots__ = ("plan", "arr_ofs", "dep_ofs", "arr_event", "dep_event",
                 "dep_demands")

    def __init__(self, plan, arr_ofs, dep_ofs, arr_event, dep_event,
                 dep_demands) -> None:
        self.plan = plan
        self.arr_ofs = arr_ofs
        self.dep_ofs = dep_ofs
        self.arr_event = arr_event
        self.dep_event = dep_event
        self.dep_demands = dep_demands
