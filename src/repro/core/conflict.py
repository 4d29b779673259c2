"""The conflict relation over demand instances (Section 2).

Two demand instances *conflict* iff they belong to the same demand, or
they belong to the same network and their routes share an edge (overlap).
A feasible unit-height solution is exactly an independent set in the
conflict graph; the distributed algorithm computes maximal independent
sets of sub-populations of it every step (Section 5).

:class:`ConflictIndex` answers conflict queries and enumerates conflict
edges without materialising the full quadratic graph unless asked.  Since
the vectorization refactor it keeps two complementary representations:

* per-demand buckets and per-(network, edge) activity buckets for exact
  single-instance neighbourhood queries (the original scalar API),
  built on the first such query;
* NumPy *geometry* arrays — interval endpoints for line instances,
  endpoint pairs plus a per-network Euler-tour index
  (:class:`~repro.network.tree.EulerTourIndex`) for tree instances, and a
  CSR copy of the activity lists — so population-level queries
  (:meth:`adjacency`) and active-set queries (:class:`ActiveConflictSet`)
  run as array operations instead of per-pair Python loops.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

__all__ = ["ConflictIndex", "ActiveConflictSet"]

#: Largest batch :meth:`ActiveConflictSet.blocked_mask` probes one
#: candidate at a time.  Per-call times, loop against batched gather,
#: on half-filled ledgers: ~11-edge line routes 15 vs 37 us at 8
#: candidates, 31 vs 33 at 10, batched ahead from 14; ~35-edge tree
#: routes 28 vs 38 us at 8, 37 vs 39 at 10, batched ahead from 12.  8
#: keeps the loop clearly ahead on both.  Who lands where: the online
#: policies probe one demand's candidates (1-5 on the 20k-event line
#: trace of the ``replay-line-preempt`` benchmark, all in the loop);
#: the offline engine's phase-2 groups on ``solve-tree`` are 1-63
#: (18 of 355 calls above 8, ~1 ms of a multi-second solve either
#: way); ``repro bench`` probes a whole population in one call, which
#: only the batched gather serves.
_LOOP_MAX = 8


class ConflictIndex:
    """Conflict queries over a fixed population of demand instances.

    Parameters
    ----------
    instances:
        The demand instances (tree or line; anything exposing
        ``instance_id``, ``demand_id``, ``network_id``).
    global_edges:
        ``global_edges[iid]`` is the list of global edge ids instance
        ``iid`` is active on (``(network, edge)`` or ``(resource, slot)``).
        Instance ids must be ``0 .. len(instances) - 1``.
    trees:
        Optional mapping ``network_id →``
        :class:`~repro.network.tree.TreeNetwork`.  When given (and the
        instances carry ``u``/``v`` endpoints), population-level conflict
        queries use the Euler-tour path-overlap test instead of edge
        buckets.
    """

    def __init__(
        self,
        instances: Sequence,
        global_edges: Sequence[Sequence],
        trees: Mapping[int, object] | None = None,
    ) -> None:
        if len(instances) != len(global_edges):
            raise ValueError("one edge list per instance required")
        self._instances = list(instances)
        self._edges_of: list[frozenset] = [frozenset(ge) for ge in global_edges]
        for pos, inst in enumerate(self._instances):
            iid = inst.instance_id
            if iid != pos:
                raise ValueError(
                    f"instance ids must be dense 0..N-1 in order; position "
                    f"{pos} holds id {iid}"
                )
        self._by_demand: dict[int, list[int]] | None = None
        self._by_edge: dict[object, list[int]] | None = None
        self._build_arrays(global_edges, trees)

    def _ensure_buckets(self) -> None:
        """Materialize the scalar-API activity buckets.

        Built on the first bucket-backed query (:meth:`neighbors`, and
        through it :meth:`to_networkx`), never by the constructor or
        :meth:`sliced`: the array-geometry paths — every online ledger
        and the offline engine's probes — never read them.
        """
        if self._by_demand is not None:
            return
        by_demand: dict[int, list[int]] = {}
        by_edge: dict[object, list[int]] = {}
        for pos, (inst, ge) in enumerate(zip(self._instances, self._edges_of)):
            by_demand.setdefault(inst.demand_id, []).append(pos)
            for e in ge:
                by_edge.setdefault(e, []).append(pos)
        self._by_demand = by_demand
        self._by_edge = by_edge

    def _build_arrays(
        self,
        global_edges: Sequence[Sequence],
        trees: Mapping[int, object] | None,
    ) -> None:
        """Intern edges/demands and pick the geometry for batch queries."""
        insts = self._instances
        n = len(insts)
        self._edge_index: dict[object, int] = {}
        flat: list[int] = []
        indptr = np.zeros(n + 1, dtype=np.int64)
        for pos, ge in enumerate(global_edges):
            for e in ge:
                eid = self._edge_index.setdefault(e, len(self._edge_index))
                flat.append(eid)
            indptr[pos + 1] = len(flat)
        self._flat_edges = np.asarray(flat, dtype=np.int64)
        self._indptr = indptr
        self.num_edges = len(self._edge_index)

        self._demand_index: dict[int, int] = {}
        dix = np.empty(n, dtype=np.int64)
        for pos, inst in enumerate(insts):
            dix[pos] = self._demand_index.setdefault(
                inst.demand_id, len(self._demand_index)
            )
        self._dix = dix
        self._net_arr = np.asarray([d.network_id for d in insts], dtype=np.int64)
        self._heights = np.asarray(
            [getattr(d, "height", 1.0) for d in insts], dtype=np.float64
        )

        if n and all(hasattr(d, "start") and hasattr(d, "end") for d in insts):
            self._geometry = "interval"
            self._starts = np.asarray([d.start for d in insts], dtype=np.int64)
            self._ends = np.asarray([d.end for d in insts], dtype=np.int64)
        elif (
            n
            and trees is not None
            and all(hasattr(d, "u") and hasattr(d, "v") for d in insts)
        ):
            self._geometry = "euler"
            self._us = np.asarray([d.u for d in insts], dtype=np.int64)
            self._vs = np.asarray([d.v for d in insts], dtype=np.int64)
            self._euler = {
                q: trees[q].euler_index()
                for q in np.unique(self._net_arr).tolist()
            }
        else:
            self._geometry = "buckets"

    # ------------------------------------------------------------------

    def sliced(self, instances: Sequence, gids: Sequence[int]) -> "ConflictIndex":
        """A relabeled sub-population view sharing this index's geometry.

        ``instances`` are the sub-population's instance objects with
        *dense local ids* (``instance_id == position``, demand ids
        densified — the shard-subproblem convention) and ``gids[k]`` is
        the global instance id local instance ``k`` was sliced from.

        The view reuses the parent's interned edge-id space, CSR route
        rows, route frozensets and per-network Euler-tour indexes — all
        immutable — so building it costs a few array gathers instead of
        the per-instance Python loops of a from-scratch build.  Every
        query answers exactly as a freshly built index over the same
        sub-population would: the shared edge-id space is a superset,
        which only widens the (never-loaded) zero tail no query observes.
        """
        gids_arr = np.asarray(gids, dtype=np.int64)
        k = len(gids_arr)
        if len(instances) != k:
            raise ValueError("one instance per global id required")
        out = object.__new__(ConflictIndex)
        out._instances = list(instances)
        out._edges_of = [self._edges_of[g] for g in gids_arr.tolist()]
        out._by_demand = None  # lazy — see _ensure_buckets
        out._by_edge = None
        out._edge_index = self._edge_index
        out.num_edges = self.num_edges
        starts = self._indptr[gids_arr]
        counts = self._indptr[gids_arr + 1] - starts
        indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        total = int(indptr[-1])
        if total:
            offsets = np.repeat(starts - indptr[:-1], counts)
            out._flat_edges = self._flat_edges[
                np.arange(total, dtype=np.int64) + offsets
            ]
        else:
            out._flat_edges = np.zeros(0, dtype=np.int64)
        out._indptr = indptr
        # First-appearance demand interning, exactly as the constructor
        # computes it (the identity map for densified demand ids).
        demand_index: dict[int, int] = {}
        dix = np.empty(k, dtype=np.int64)
        for pos, inst in enumerate(out._instances):
            if inst.instance_id != pos:
                raise ValueError(
                    f"instance ids must be dense 0..N-1 in order; position "
                    f"{pos} holds id {inst.instance_id}"
                )
            dix[pos] = demand_index.setdefault(
                inst.demand_id, len(demand_index)
            )
        out._demand_index = demand_index
        out._dix = dix
        out._net_arr = self._net_arr[gids_arr]
        out._heights = self._heights[gids_arr]
        out._geometry = self._geometry
        if self._geometry == "interval":
            out._starts = self._starts[gids_arr]
            out._ends = self._ends[gids_arr]
        elif self._geometry == "euler":
            out._us = self._us[gids_arr]
            out._vs = self._vs[gids_arr]
            out._euler = self._euler  # per-network tours, shared read-only
        return out

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instances)

    def instance(self, iid: int) -> Any:
        """The instance with id ``iid``."""
        return self._instances[iid]

    def edges_of(self, iid: int) -> frozenset:
        """Global edges instance ``iid`` is active on."""
        return self._edges_of[iid]

    def overlap(self, a: int, b: int) -> bool:
        """Same network and edge-intersecting routes (Section 2)."""
        ia, ib = self._instances[a], self._instances[b]
        if ia.network_id != ib.network_id:
            return False
        ea, eb = self._edges_of[a], self._edges_of[b]
        if len(ea) > len(eb):
            ea, eb = eb, ea
        return any(e in eb for e in ea)

    def conflicting(self, a: int, b: int) -> bool:
        """Same demand, or overlapping (Section 2's conflict relation)."""
        if a == b:
            return False
        ia, ib = self._instances[a], self._instances[b]
        if ia.demand_id == ib.demand_id:
            return True
        return self.overlap(a, b)

    def neighbors(self, iid: int, population: set[int] | None = None) -> set[int]:
        """All instances conflicting with ``iid``.

        Restricted to ``population`` if given.  Computed as the union of
        the sibling bucket (same demand) and the activity buckets of the
        edges on ``iid``'s route.
        """
        self._ensure_buckets()
        inst = self._instances[iid]
        out: set[int] = set()
        for other in self._by_demand[inst.demand_id]:
            if other != iid and (population is None or other in population):
                out.add(other)
        for e in self._edges_of[iid]:
            for other in self._by_edge[e]:
                if other != iid and (population is None or other in population):
                    out.add(other)
        return out

    def is_independent(self, iids: Iterable[int]) -> bool:
        """Whether the given instance ids are pairwise non-conflicting."""
        ids = list(iids)
        demands: set[int] = set()
        used_edges: set[object] = set()
        for iid in ids:
            inst = self._instances[iid]
            if inst.demand_id in demands:
                return False
            demands.add(inst.demand_id)
            for e in self._edges_of[iid]:
                if e in used_edges:
                    return False
            used_edges.update(self._edges_of[iid])
        return True

    # ------------------------------------------------------------------
    # Population-level (vectorized) queries
    # ------------------------------------------------------------------

    def conflict_matrix(self, iids: Sequence[int]) -> np.ndarray:
        """Pairwise conflict matrix of the given instance ids.

        ``M[i, j]`` = "``iids[i]`` conflicts with ``iids[j]``", diagonal
        False.  Interval-overlap tests for line instances, Euler-tour
        path-overlap tests for tree instances, edge-bucket expansion as
        the generic fallback.
        """
        arr = np.asarray(iids, dtype=np.int64)
        k = len(arr)
        dix = self._dix[arr]
        nets = self._net_arr[arr]
        one_net = len(np.unique(nets)) <= 1
        if self._geometry == "interval":
            s, e = self._starts[arr], self._ends[arr]
            M = s[:, None] <= e[None, :]
            M &= s[None, :] <= e[:, None]
            if not one_net:
                M &= nets[:, None] == nets[None, :]
            if len(np.unique(dix)) < k:
                M |= dix[:, None] == dix[None, :]
            np.fill_diagonal(M, False)
            return M
        M = dix[:, None] == dix[None, :]
        if self._geometry == "euler":
            for q in np.unique(nets).tolist():
                sel = np.nonzero(nets == q)[0]
                if len(sel) < 2:
                    continue
                sub = self._euler[q].path_overlap_matrix(
                    self._us[arr[sel]], self._vs[arr[sel]]
                )
                M[np.ix_(sel, sel)] |= sub
        else:
            flat, indptr = self._flat_edges, self._indptr
            seen: dict[int, list[int]] = {}
            for i, iid in enumerate(arr):
                for eid in flat[indptr[iid]:indptr[iid + 1]]:
                    seen.setdefault(int(eid), []).append(i)
            for members in seen.values():
                if len(members) > 1:
                    idx = np.asarray(members)
                    M[np.ix_(idx, idx)] = True
        np.fill_diagonal(M, False)
        return M

    def adjacency(self, population: Iterable[int]) -> dict[int, set[int]]:
        """Adjacency dict of the conflict graph induced on ``population``.

        Vectorized equivalent of :meth:`subgraph`: same contents, same
        key order (the iteration order of ``population``), but computed
        through :meth:`conflict_matrix` instead of per-instance bucket
        unions.
        """
        order = list(population)
        if not order:
            return {}
        arr = np.asarray(order, dtype=np.int64)
        M = self.conflict_matrix(arr)
        rows, cols = np.nonzero(M)
        splits = np.split(arr[cols], np.searchsorted(rows, np.arange(1, len(arr))))
        return {
            iid: set(splits[i].tolist()) for i, iid in enumerate(order)
        }

    def subgraph(self, population: Iterable[int]) -> dict[int, set[int]]:
        """Adjacency dict of the conflict graph induced on ``population``.

        Used to hand sub-populations to the MIS routines.
        """
        return self.adjacency(set(population))

    def active_set(self, capacities: bool = False) -> "ActiveConflictSet":
        """A fresh incremental active-set view over this population."""
        return ActiveConflictSet(self, capacities=capacities)

    def to_networkx(self, population: Iterable[int] | None = None) -> Any:
        """Export the (induced) conflict graph as :class:`networkx.Graph`."""
        import networkx as nx

        pop = set(population) if population is not None else set(range(len(self)))
        g = nx.Graph()
        g.add_nodes_from(pop)
        for iid in pop:
            for other in self.neighbors(iid, pop):
                if other > iid:
                    g.add_edge(iid, other)
        return g


class ActiveConflictSet:
    """Incremental membership structure for the second-phase greedy unwind.

    Maintains per-edge load (or occupancy) and per-demand usage for a
    growing/shrinking *active set* of instances, so "which of these
    candidates conflict with the active set" is a batched gather/segment
    reduction instead of a from-scratch rebuild per step.

    Parameters
    ----------
    index:
        The :class:`ConflictIndex` whose interned arrays are shared.
    capacities:
        ``False`` (default): unit semantics — a candidate is blocked if
        any of its edges is occupied.  ``True``: height semantics — a
        candidate is blocked if adding its height would push any edge
        load above 1 (within ``1e-9``).
    """

    def __init__(self, index: ConflictIndex, capacities: bool = False) -> None:
        self._index = index
        self.capacities = capacities
        self._load = np.zeros(index.num_edges, dtype=np.float64)
        self._demand_used = np.zeros(len(index._demand_index), dtype=bool)
        self._members: set[int] = set()

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, iid: int) -> bool:
        return iid in self._members

    def _edges(self, iid: int) -> np.ndarray:
        idx = self._index
        return idx._flat_edges[idx._indptr[iid]:idx._indptr[iid + 1]]

    def blocked_mask(self, iids: Sequence[int]) -> np.ndarray:
        """Boolean array: which candidates conflict with the active set.

        The candidates are assumed pairwise non-conflicting (they come
        from one MIS step), so the answers are independent of each other.
        """
        idx = self._index
        arr = np.asarray(iids, dtype=np.int64)
        if len(arr) == 0:
            return np.zeros(0, dtype=bool)
        if len(arr) <= _LOOP_MAX:
            # Small probes — the online policies' per-demand candidate
            # rows — go one candidate at a time: the batched
            # gather/segment machinery below has a fixed cost of ~20-40
            # us, a candidate here ~2-4 us (see _LOOP_MAX).  Same
            # comparisons, same answer, bit for bit (Python's max picks
            # an element, and the float add is the float64 one).
            used, load = self._demand_used, self._load
            dix, indptr, flat = idx._dix, idx._indptr, idx._flat_edges
            out = []
            for iid in arr.tolist():
                hit = bool(used[dix[iid]])
                if not hit:
                    row = flat[indptr[iid]:indptr[iid + 1]]
                    if len(row):
                        top = max(load[row].tolist())
                        if self.capacities:
                            hit = bool(top + idx._heights[iid] > 1.0 + 1e-9)
                        else:
                            hit = top > 0.0
                out.append(hit)
            return np.asarray(out, dtype=bool)
        blocked = self._demand_used[idx._dix[arr]].copy()
        starts = idx._indptr[arr]
        counts = idx._indptr[arr + 1] - starts
        total = int(counts.sum())
        if total:
            # Gather every candidate's edge loads into one flat array.
            offsets = np.repeat(
                starts - np.concatenate(([0], np.cumsum(counts)[:-1])),
                counts,
            )
            flat_pos = np.arange(total) + offsets
            loads = self._load[idx._flat_edges[flat_pos]]
            seg_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            nonempty = counts > 0
            seg_max = np.zeros(len(arr), dtype=np.float64)
            if nonempty.any():
                seg_max[nonempty] = np.maximum.reduceat(
                    loads, seg_starts[nonempty]
                )
            if self.capacities:
                blocked |= seg_max + idx._heights[arr] > 1.0 + 1e-9
            else:
                blocked |= seg_max > 0.0
        return blocked

    def blocked(self, iid: int) -> bool:
        """Whether one candidate conflicts with the active set."""
        return bool(self.blocked_mask(np.asarray([iid]))[0])

    def edge_loads(self, iid: int) -> np.ndarray:
        """Current load on each edge of instance ``iid``'s route.

        In the index's internal CSR order — arbitrary when the index was
        built from unordered edge sets — so the result is meant for
        aggregation (sums, maxima, the online price functions), not for
        zipping against the route's edge sequence.
        """
        return self._load[self._edges(iid)]

    def max_load(self) -> float:
        """The heaviest edge load in the active set (0.0 when empty)."""
        return float(self._load.max()) if len(self._load) else 0.0

    def add(self, iid: int) -> None:
        """Insert an instance into the active set (no feasibility check)."""
        idx = self._index
        h = idx._heights[iid] if self.capacities else 1.0
        self._load[self._edges(iid)] += h
        self._demand_used[idx._dix[iid]] = True
        self._members.add(iid)

    def add_all(self, iids: Sequence[int], *,
                _edges: np.ndarray | None = None,
                _adds: np.ndarray | None = None) -> None:
        """Batch-insert pairwise non-conflicting instances.

        ``_edges``/``_adds`` let a caller that has already gathered the
        instances' concatenated route edges (and the matching repeated
        heights) pass them in instead of re-gathering — the batch
        decision kernels' hot path.  The values must equal what the
        gather here would produce; the load update is the identical
        fancy-indexed add either way.
        """
        idx = self._index
        arr = np.asarray(iids, dtype=np.int64)
        if len(arr) == 0:
            return
        if _edges is None:
            starts = idx._indptr[arr]
            counts = idx._indptr[arr + 1] - starts
            total = int(counts.sum())
            if total:
                offsets = np.repeat(
                    starts - np.concatenate(([0], np.cumsum(counts)[:-1])),
                    counts,
                )
                _edges = idx._flat_edges[np.arange(total) + offsets]
                if self.capacities:
                    _adds = np.repeat(idx._heights[arr], counts)
            else:
                _edges = None
        if _edges is not None and len(_edges):
            if self.capacities:
                # Candidates are edge-disjoint, so the fancy-indexed add
                # touches each position at most once.
                self._load[_edges] += _adds
            else:
                self._load[_edges] += 1.0
        self._demand_used[idx._dix[arr]] = True
        self._members.update(arr.tolist())

    def remove(self, iid: int) -> None:
        """Remove an instance from the active set."""
        if iid not in self._members:
            raise KeyError(f"instance {iid} is not in the active set")
        idx = self._index
        h = idx._heights[iid] if self.capacities else 1.0
        self._load[self._edges(iid)] -= h
        self._demand_used[idx._dix[iid]] = False
        self._members.discard(iid)
