"""Assertion helpers plus the *scalar reference implementation*.

The classes below are a faithful copy of the pre-vectorization engine
core (per-pair conflict loops, per-edge dict-based duals, from-scratch
second phase).  They are retained for two purposes:

* the randomized cross-check suite (`tests/test_cross_check.py`) asserts
  the vectorized engine returns byte-identical selected sets and profits;
* the hot-path micro-benchmark (`benchmarks/bench_hot_path.py`) measures
  the vectorized speedup against this baseline.

Do not "improve" these classes — their value is being frozen.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.distributed.mis import greedy_mis, luby_mis, priority_mis


def assert_bound(profit: float, opt: float, bound: float, label: str = "") -> None:
    """Assert the approximation guarantee ``profit ≥ opt / bound``."""
    assert profit >= opt / bound - 1e-9, (
        f"{label}: profit {profit} < OPT {opt} / bound {bound}"
    )


# ----------------------------------------------------------------------
# Scalar conflict index (pre-refactor core/conflict.py)
# ----------------------------------------------------------------------


class ScalarConflictIndex:
    """Bucket-based conflict queries with per-pair Python loops."""

    def __init__(self, instances: Sequence, global_edges: Sequence[Sequence]):
        self._instances = list(instances)
        self._edges_of = [frozenset(ge) for ge in global_edges]
        self._by_demand: dict[int, list[int]] = {}
        self._by_edge: dict[object, list[int]] = {}
        for pos, (inst, ge) in enumerate(zip(self._instances, self._edges_of)):
            self._by_demand.setdefault(inst.demand_id, []).append(pos)
            for e in ge:
                self._by_edge.setdefault(e, []).append(pos)

    def __len__(self) -> int:
        return len(self._instances)

    def edges_of(self, iid: int) -> frozenset:
        return self._edges_of[iid]

    def conflicting(self, a: int, b: int) -> bool:
        if a == b:
            return False
        ia, ib = self._instances[a], self._instances[b]
        if ia.demand_id == ib.demand_id:
            return True
        if ia.network_id != ib.network_id:
            return False
        ea, eb = self._edges_of[a], self._edges_of[b]
        if len(ea) > len(eb):
            ea, eb = eb, ea
        return any(e in eb for e in ea)

    def neighbors(self, iid: int, population: set[int] | None = None) -> set[int]:
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

    def subgraph(self, population: Iterable[int]):
        pop = set(population)
        return {iid: self.neighbors(iid, pop) for iid in pop}


# ----------------------------------------------------------------------
# Scalar dual store (pre-refactor core/duals.py)
# ----------------------------------------------------------------------


class ScalarDualState:
    """Sparse dict-backed ``(alpha, beta)`` with per-edge raise loops."""

    def __init__(
        self,
        profits: Sequence[float],
        heights: Sequence[float],
        demand_of: Sequence[int],
        edges_of: Sequence[Iterable],
    ):
        self.profits = [float(p) for p in profits]
        self.heights = [float(h) for h in heights]
        self.demand_of = list(demand_of)
        self.edges_of = [tuple(e) for e in edges_of]
        self.alpha: dict[int, float] = {}
        self.beta: dict[object, float] = {}
        self.raise_log: list[tuple[int, float, tuple, float]] = []

    def lhs(self, iid: int) -> float:
        beta_sum = 0.0
        beta = self.beta
        for e in self.edges_of[iid]:
            b = beta.get(e)
            if b is not None:
                beta_sum += b
        return self.alpha.get(self.demand_of[iid], 0.0) + self.heights[iid] * beta_sum

    def slack(self, iid: int) -> float:
        return self.profits[iid] - self.lhs(iid)

    def raise_unit(self, iid: int, critical: Sequence, include_alpha: bool = True) -> float:
        s = self.slack(iid)
        if s <= 0:
            return 0.0
        denom = len(critical) + (1 if include_alpha else 0)
        delta = s / denom
        if include_alpha:
            a = self.demand_of[iid]
            self.alpha[a] = self.alpha.get(a, 0.0) + delta
        for e in critical:
            self.beta[e] = self.beta.get(e, 0.0) + delta
        self.raise_log.append((iid, delta, tuple(critical), delta))
        return delta

    def raise_narrow(self, iid: int, critical: Sequence) -> float:
        s = self.slack(iid)
        if s <= 0:
            return 0.0
        k = len(critical)
        h = self.heights[iid]
        delta = s / (1.0 + 2.0 * h * k * k)
        a = self.demand_of[iid]
        self.alpha[a] = self.alpha.get(a, 0.0) + delta
        bump = 2.0 * k * delta
        for e in critical:
            self.beta[e] = self.beta.get(e, 0.0) + bump
        self.raise_log.append((iid, delta, tuple(critical), bump))
        return delta

    def objective(self) -> float:
        return sum(self.alpha.values()) + sum(self.beta.values())

    def realized_lambda(self, population: Iterable[int] | None = None) -> float:
        iids = population if population is not None else range(len(self.profits))
        lam = 1.0
        for iid in iids:
            lam = min(lam, self.lhs(iid) / self.profits[iid])
        return lam


# ----------------------------------------------------------------------
# Scalar two-phase engine (pre-refactor algorithms/framework.py core loop)
# ----------------------------------------------------------------------

_EPS = 1e-12


class ScalarTwoPhaseEngine:
    """Reference run of the two-phase framework, entirely scalar.

    Accepts the same ``EngineInput``/``EngineConfig`` the production
    engine takes, so the cross-check can run both off one compile.
    """

    def __init__(self, inp, config):
        self.inp = inp
        self.cfg = config
        self.conflicts = ScalarConflictIndex(inp.instances, inp.edges_of)
        self.duals = ScalarDualState(
            [d.profit for d in inp.instances],
            [d.height for d in inp.instances],
            [d.demand_id for d in inp.instances],
            inp.edges_of,
        )
        self._rng = np.random.default_rng(config.seed)

    def _stage_targets(self) -> list[float]:
        from repro.algorithms.framework import narrow_xi, stage_count, unit_xi

        cfg = self.cfg
        if cfg.single_stage_target is not None:
            return [cfg.single_stage_target]
        xi = cfg.xi
        if xi is None:
            xi = (
                unit_xi(self.inp.delta)
                if cfg.rule == "unit"
                else narrow_xi(self.inp.delta, cfg.hmin)
            )
        b = stage_count(xi, cfg.epsilon)
        return [1.0 - xi**j for j in range(1, b + 1)]

    def _mis(self, population: set[int]) -> tuple[set[int], int]:
        adj = self.conflicts.subgraph(population)
        if self.cfg.mis == "greedy":
            return greedy_mis(adj)
        if self.cfg.mis == "priority":
            return priority_mis(adj)
        return luby_mis(adj, self._rng)

    def run(self) -> tuple[list, dict]:
        targets = self._stage_targets()
        stack: list[list[int]] = []
        duals = self.duals
        if self.cfg.rule == "unit":
            include_alpha = self.cfg.raise_alpha
            raise_fn = lambda iid, crit: duals.raise_unit(iid, crit, include_alpha)
        else:
            raise_fn = duals.raise_narrow
        critical = self.inp.critical
        steps = 0

        for group in self.inp.groups:
            if not group:
                continue
            for target in targets:
                while True:
                    unsat = {
                        iid
                        for iid in group
                        if duals.lhs(iid) < target * duals.profits[iid] - _EPS
                    }
                    if not unsat:
                        break
                    mis, _rounds = self._mis(unsat)
                    for iid in mis:
                        raise_fn(iid, critical[iid])
                    stack.append(sorted(mis))
                    steps += 1

        selected = self._second_phase(stack)
        stats = {
            "steps": steps,
            "dual_objective": duals.objective(),
            "realized_lambda": duals.realized_lambda(),
        }
        return selected, stats

    def _second_phase(self, stack: list[list[int]]) -> list:
        chosen: list[int] = []
        used_demands: set[int] = set()
        if self.cfg.capacity_phase2:
            load: dict[object, float] = {}
            for group in reversed(stack):
                for iid in group:
                    inst = self.inp.instances[iid]
                    if inst.demand_id in used_demands:
                        continue
                    edges = self.inp.edges_of[iid]
                    if all(
                        load.get(e, 0.0) + inst.height <= 1.0 + 1e-9 for e in edges
                    ):
                        chosen.append(iid)
                        used_demands.add(inst.demand_id)
                        for e in edges:
                            load[e] = load.get(e, 0.0) + inst.height
        else:
            used_edges: set[object] = set()
            for group in reversed(stack):
                for iid in group:
                    inst = self.inp.instances[iid]
                    if inst.demand_id in used_demands:
                        continue
                    edges = self.inp.edges_of[iid]
                    if not (edges & used_edges):
                        chosen.append(iid)
                        used_demands.add(inst.demand_id)
                        used_edges |= edges
        return [self.inp.instances[iid] for iid in chosen]


# ----------------------------------------------------------------------
# Scalar preemption geometry (pre-hot-edge-walk online/state.py and the
# pre-small-batch core/conflict.py probe)
# ----------------------------------------------------------------------

#: The ledger's load-comparison slack (online/state.py ``_EPS``).
_PLAN_EPS = 1e-9


def reference_preemption_plan(ledger, iid: int) -> list[int] | None:
    """``CapacityLedger.preemption_plan`` before the hot-edge walk: a
    numpy deficit vector, every route holder in density order, an
    ``.all()`` test before each.  Only attribute access changed (the
    removed ``_route_pos`` cache is built inline)."""
    eids = ledger._edge_ids(iid)
    deficit = ledger.active._load[eids] + ledger.index._heights[iid] - 1.0
    if (deficit <= _PLAN_EPS).all():
        return []
    pos_of = {eid: k for k, eid in enumerate(ledger._route_edge_list(iid))}
    admitted = ledger._admitted
    holders = sorted(
        ledger.holders_on_route(iid),
        key=lambda d: (ledger._density(admitted[d]), d),
    )
    victims: list[int] = []
    for d in holders:
        if (deficit <= _PLAN_EPS).all():
            break
        v_iid = admitted[d]
        shared = [
            pos_of[eid]
            for eid in ledger._route_edge_list(v_iid)
            if eid in pos_of
        ]
        if not any(deficit[k] > _PLAN_EPS for k in shared):
            continue  # only evict holders that relieve a hot edge
        height = ledger._height(v_iid)
        for k in shared:
            deficit[k] -= height
        victims.append(d)
    if (deficit <= _PLAN_EPS).all():
        return victims
    return None


def reference_route_loads_excluding(ledger, iid: int, victims) -> np.ndarray:
    """``CapacityLedger.route_loads_excluding`` before the rewrite
    (float64 array subtraction; same ``_route_pos`` inlining)."""
    eids = ledger._edge_ids(iid)
    loads = ledger.active._load[eids].copy()
    pos_of = {eid: k for k, eid in enumerate(ledger._route_edge_list(iid))}
    for d in victims:
        v_iid = ledger._admitted[d]
        height = ledger._height(v_iid)
        for eid in ledger._route_edge_list(v_iid):
            k = pos_of.get(eid)
            if k is not None:
                loads[k] -= height
    return np.maximum(loads, 0.0)


def reference_blocked_mask(active, iids) -> np.ndarray:
    """``ActiveConflictSet.blocked_mask`` before the small-batch loop:
    the scalar branch for one candidate, the batched gather/segment-max
    for every larger batch."""
    idx = active._index
    arr = np.asarray(iids, dtype=np.int64)
    if len(arr) == 0:
        return np.zeros(0, dtype=bool)
    if len(arr) == 1:
        iid = int(arr[0])
        hit = bool(active._demand_used[idx._dix[iid]])
        if not hit:
            row = idx._flat_edges[idx._indptr[iid]:idx._indptr[iid + 1]]
            if len(row):
                top = active._load[row].max()
                if active.capacities:
                    hit = bool(top + idx._heights[iid] > 1.0 + 1e-9)
                else:
                    hit = bool(top > 0.0)
        return np.asarray([hit], dtype=bool)
    blocked = active._demand_used[idx._dix[arr]].copy()
    starts = idx._indptr[arr]
    counts = idx._indptr[arr + 1] - starts
    total = int(counts.sum())
    if total:
        offsets = np.repeat(
            starts - np.concatenate(([0], np.cumsum(counts)[:-1])),
            counts,
        )
        flat_pos = np.arange(total) + offsets
        loads = active._load[idx._flat_edges[flat_pos]]
        seg_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        nonempty = counts > 0
        seg_max = np.zeros(len(arr), dtype=np.float64)
        if nonempty.any():
            seg_max[nonempty] = np.maximum.reduceat(
                loads, seg_starts[nonempty]
            )
        if active.capacities:
            blocked |= seg_max + idx._heights[arr] > 1.0 + 1e-9
        else:
            blocked |= seg_max > 0.0
    return blocked
