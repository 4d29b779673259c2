"""Tests for the online event model and trace generators."""

from __future__ import annotations

import math

import pytest

from repro.online import (
    ARRIVAL_PROCESSES,
    Arrival,
    Departure,
    EventTrace,
    Tick,
    bursty_trace,
    diurnal_trace,
    generate_trace,
    poisson_trace,
)
from repro.workloads import random_tree_problem


class TestGenerators:
    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    @pytest.mark.parametrize("kind", ["tree", "line"])
    def test_event_budget_and_validity(self, process, kind):
        tr = generate_trace(kind, events=200, process=process, seed=3,
                            departure_prob=0.4)
        # Construction already validates ordering/consistency; check the
        # budget and the arrival/problem correspondence on top.
        assert len(tr.events) == 200
        assert tr.num_arrivals == tr.problem.num_demands
        assert tr.num_arrivals + tr.num_departures == 200

    def test_times_sorted_and_arrival_before_departure(self):
        tr = poisson_trace("line", events=300, seed=1, departure_prob=0.5)
        times = [ev.time for ev in tr.events]
        assert times == sorted(times)
        arrived = set()
        for ev in tr.events:
            if isinstance(ev, Arrival):
                arrived.add(ev.demand_id)
            elif isinstance(ev, Departure):
                assert ev.demand_id in arrived

    def test_arrival_order_is_demand_order(self):
        tr = bursty_trace("line", events=150, seed=9, departure_prob=0.3)
        ids = [ev.demand_id for ev in tr.events if isinstance(ev, Arrival)]
        assert ids == list(range(len(ids)))

    def test_deterministic_under_seed(self):
        a = diurnal_trace("tree", events=120, seed=11, departure_prob=0.4)
        b = diurnal_trace("tree", events=120, seed=11, departure_prob=0.4)
        assert a.events == b.events
        assert a.meta == b.meta
        assert [(d.u, d.v, d.profit, d.height) for d in a.problem.demands] == \
               [(d.u, d.v, d.profit, d.height) for d in b.problem.demands]

    def test_seeds_differ(self):
        a = poisson_trace("line", events=100, seed=0)
        b = poisson_trace("line", events=100, seed=1)
        assert a.events != b.events

    def test_ticks_generated(self):
        tr = generate_trace("line", events=200, seed=2, tick_every=5.0,
                            departure_prob=0.2)
        ticks = [ev for ev in tr.events if isinstance(ev, Tick)]
        assert ticks
        assert all(ev.time % 5.0 == 0.0 for ev in ticks)

    def test_no_departures_when_prob_zero(self):
        tr = poisson_trace("line", events=80, seed=4, departure_prob=0.0)
        assert tr.num_departures == 0
        assert tr.num_arrivals == 80

    def test_workload_passthrough(self):
        tr = generate_trace("tree", events=50, seed=5, departure_prob=0.0,
                            workload={"n": 32, "r": 2, "topology": "star"})
        assert tr.problem.n == 32
        assert tr.problem.num_networks == 2

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="events"):
            generate_trace("line", events=0)
        with pytest.raises(ValueError, match="departure_prob"):
            generate_trace("line", events=10, departure_prob=1.5)
        with pytest.raises(ValueError, match="kind"):
            generate_trace("hypergraph", events=10)
        with pytest.raises(ValueError, match="process"):
            generate_trace("line", events=10, process="lunar")
        with pytest.raises(ValueError, match="rate"):
            generate_trace("line", events=10, rate=0.0)


class TestEventTraceValidation:
    def _problem(self, m=2):
        return random_tree_problem(n=8, m=m, r=1, seed=0)

    def test_out_of_order_rejected(self):
        p = self._problem()
        with pytest.raises(ValueError, match="out of order"):
            EventTrace(p, [Arrival(2.0, 0), Arrival(1.0, 1)])

    def test_departure_before_arrival_rejected(self):
        p = self._problem()
        with pytest.raises(ValueError, match="departs before arriving"):
            EventTrace(p, [Arrival(0.0, 0), Departure(1.0, 1),
                           Arrival(2.0, 1)])

    def test_double_arrival_rejected(self):
        p = self._problem()
        with pytest.raises(ValueError, match="arrives twice"):
            EventTrace(p, [Arrival(0.0, 0), Arrival(1.0, 0),
                           Arrival(2.0, 1)])

    def test_unknown_demand_rejected(self):
        p = self._problem()
        with pytest.raises(ValueError, match="unknown demand"):
            EventTrace(p, [Arrival(0.0, 0), Arrival(1.0, 7)])

    def test_missing_arrivals_rejected(self):
        p = self._problem(m=3)
        with pytest.raises(ValueError, match="arrivals"):
            EventTrace(p, [Arrival(0.0, 0), Arrival(1.0, 1)])

    def test_nan_led_trace_rejected(self):
        # NaN compares false against everything, so the time-order
        # check alone would let it (and the next event) through.
        p = self._problem()
        with pytest.raises(ValueError, match="finite"):
            EventTrace(p, [Arrival(math.nan, 0), Arrival(2.0, 1)])

    def test_valid_trace_accepted(self):
        p = self._problem()
        tr = EventTrace(p, [Arrival(0.0, 0), Tick(0.5), Arrival(1.0, 1),
                            Departure(2.0, 0)])
        assert len(tr) == 4
        assert tr.horizon == 2.0
