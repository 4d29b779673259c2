"""Tests for the shared-geometry sharded driver (``repro.sharding.driver``).

The load-bearing guarantees:

* the driver is *byte-identical* to the pinned outcomes in
  ``tests/data/sharded_expected.json`` — merged metrics, per-shard
  results, boundary result and final admitted set — at shards ∈ {1, 2,
  4} for every registered policy, inline and forked (see
  ``tests/make_sharded_expected.py``);
* the shared :class:`~repro.core.conflict.ConflictIndex` slices answer
  exactly as from-scratch per-shard builds;
* ``_split_streams`` routes every local event to its owning shard with
  densified ids, every tick to every shard, and nothing else.
"""

from __future__ import annotations

import json

import pytest

from repro.io import load_trace
from repro.online.events import Tick
from repro.online.state import CapacityLedger
from repro.sharding import ShardPlanner, SharedGeometry
from repro.sharding.driver import _split_streams
from tests.make_sharded_expected import (DATA_DIR, GRID, OUT,
                                         result_fingerprint, run_point)

#: grid key -> (trace stem, shard_by, shards, policy, params).
POINTS = {key: rest for key, *rest in GRID}


@pytest.fixture(scope="module")
def expected():
    with open(OUT) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def tree_trace():
    return load_trace(str(DATA_DIR / "trace_poisson_tree.json"))


def _check(expected, key: str, processes: int = 1) -> None:
    result = run_point(*POINTS[key], processes=processes)
    assert result_fingerprint(result) == expected[key]


class TestTwoPhaseByteIdentity:
    @pytest.mark.parametrize("policy", [
        "greedy-threshold", "dual-gated", "batch-resolve",
        "preempt-density", "preempt-dual-gated"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_tree_identical_to_sharded_driver(self, expected, shards,
                                              policy):
        _check(expected, f"tree/{policy}/{shards}")

    @pytest.mark.parametrize("shards", [2, 4])
    def test_line_identical_to_sharded_driver(self, expected, shards):
        _check(expected, f"line/greedy-threshold/{shards}")

    def test_forked_matches_inline(self, expected):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        _check(expected, "tree/preempt-density/2", processes=2)


class TestSharedGeometry:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sliced_index_matches_scratch_build(self, tree_trace, shards):
        problem = tree_trace.problem
        plan = ShardPlanner("subtree").plan(problem, shards)
        geometry = SharedGeometry(problem, plan)
        for s in range(plan.n_shards):
            view = geometry.shard_view(s)
            scratch = CapacityLedger(plan.subproblem(s))
            n = len(scratch.instances)
            assert len(view.instances) == n
            for k in range(n):
                assert (set(view.index.neighbors(k))
                        == set(scratch.index.neighbors(k)))
                assert (view.index.edges_of(k)
                        == scratch.index.edges_of(k))

    @pytest.mark.parametrize("shards", [2, 4])
    def test_relabeled_instances_match_subproblem(self, tree_trace, shards):
        problem = tree_trace.problem
        plan = ShardPlanner("subtree").plan(problem, shards)
        geometry = SharedGeometry(problem, plan)
        for s in range(plan.n_shards):
            view = geometry.shard_view(s)
            scratch = plan.subproblem(s).instances()
            assert list(view.instances) == list(scratch)

    def test_coordinator_covers_full_population(self, tree_trace):
        problem = tree_trace.problem
        plan = ShardPlanner("subtree").plan(problem, 2)
        geometry = SharedGeometry(problem, plan)
        assert (len(geometry.coordinator.instances)
                == len(problem.instances()))


class TestSplitStreams:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_routes_match_plan_subtraces(self, tree_trace, shards):
        plan = ShardPlanner("subtree").plan(tree_trace.problem, shards)
        streams = _split_streams(plan, tree_trace)
        assert len(streams) == plan.n_shards
        ticks = [ev for ev in tree_trace.events if isinstance(ev, Tick)]
        for s, ids in enumerate(plan.shard_demands):
            # Exactly the shard's local events plus every tick, in trace
            # order, with ids densified by ascending global id.
            expect = [
                ev if isinstance(ev, Tick)
                else type(ev)(ev.time, ids.index(ev.demand_id))
                for ev in tree_trace.events
                if isinstance(ev, Tick) or ev.demand_id in ids
            ]
            assert streams[s] == expect
            assert [ev for ev in streams[s] if isinstance(ev, Tick)] == ticks
        local = sum(len(ids) for ids in plan.shard_demands)
        demand_events = sum(len(st) - len(ticks) for st in streams)
        boundary = [ev for ev in plan.boundary_events(tree_trace)
                    if not isinstance(ev, Tick)]
        # Local and boundary events partition the trace's demand events.
        assert demand_events + len(boundary) == (
            len(tree_trace.events) - len(ticks))
        assert local + len(plan.boundary_demands) == (
            tree_trace.problem.num_demands)
