"""Event model and seeded trace generators for online admission control.

The offline problems freeze every demand up front; the online subsystem
replays the same demand populations as *streams*: demands arrive over
continuous time, may depart (releasing their bandwidth), and the
simulation clock emits periodic ticks that batching policies can hook.

A trace is self-contained: it bundles the problem (networks, access
sets, and one demand per arrival, in arrival order) with the event
sequence, so the offline optimum of the exact same workload is just
``registry.solve(name, trace.problem)`` — the denominator of every
competitive ratio in :mod:`repro.online.metrics`.

Three arrival processes are provided, all seeded and layered on the
existing :mod:`repro.workloads` generators:

* ``poisson``  — memoryless arrivals at a constant rate;
* ``bursty``   — a two-state modulated Poisson process (long quiet
  stretches punctuated by dense bursts, the classic adversary for
  threshold policies);
* ``diurnal``  — sinusoidally modulated intensity (a day/night cycle).

Serialization lives in :mod:`repro.io` (``save_trace`` / ``load_trace``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.instance import LineProblem, TreeProblem
from ..workloads import random_line_problem, random_tree_problem

__all__ = [
    "Arrival",
    "Departure",
    "Tick",
    "EventTrace",
    "StreamState",
    "check_demand",
    "check_event",
    "check_known",
    "check_time",
    "make_event",
    "ARRIVAL_PROCESSES",
    "generate_trace",
    "poisson_trace",
    "bursty_trace",
    "diurnal_trace",
]

#: The arrival processes :func:`generate_trace` understands.
ARRIVAL_PROCESSES = ("poisson", "bursty", "diurnal")


@dataclass(frozen=True, slots=True)
class Arrival:
    """Demand ``demand_id`` enters the system at ``time``."""

    time: float
    demand_id: int


@dataclass(frozen=True, slots=True)
class Departure:
    """Demand ``demand_id`` leaves at ``time``; its bandwidth frees up."""

    time: float
    demand_id: int


@dataclass(frozen=True, slots=True)
class Tick:
    """A clock edge at ``time``; batching policies may flush on it."""

    time: float


# ----------------------------------------------------------------------
# The event validity spec.  Every boundary that turns outside input into
# events (trace files, both journal codecs, service requests) applies
# these checks and no others; nothing is coerced.  Time order is not a
# stream rule: a trace MUST be sorted by time (EventTrace checks that
# itself), but the service journals interleaved clients' requests in the
# order it takes them, whatever their timestamps, and resume replays
# that journal order.
# ----------------------------------------------------------------------


def check_time(value) -> float:
    """An event time MUST be a finite int or float (never a bool or a
    string); returns it as a float."""
    try:
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value)):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise ValueError(f"event time must be a finite number, got {value!r}")


def check_demand(value) -> int:
    """A demand id MUST be an int >= 0 (never a bool)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"demand id must be an int >= 0, got {value!r}")
    return value


def make_event(etype, time, demand=None):
    """Build one event from raw record fields: the type MUST be known,
    the time pass :func:`check_time` and an arrival's or departure's id
    pass :func:`check_demand`."""
    if etype == "tick":
        return Tick(check_time(time))
    if etype == "arrival":
        return Arrival(check_time(time), check_demand(demand))
    if etype == "departure":
        return Departure(check_time(time), check_demand(demand))
    raise ValueError(f"unknown event type {etype!r}")


def check_event(ev):
    """:func:`make_event`'s record spec for a built event; returns it."""
    cls = type(ev)
    if cls is not Tick:
        if cls is not Arrival and cls is not Departure:
            raise TypeError(f"unknown event type {cls.__name__}")
        check_demand(ev.demand_id)
    check_time(ev.time)
    return ev


def check_known(demand_id: int, m: int) -> int:
    """A demand id MUST name one of the population's ``m`` demands."""
    if not 0 <= demand_id < m:
        raise ValueError(f"unknown demand {demand_id}")
    return demand_id


class StreamState:
    """The demands a stream of record-checked events has seen arrive and
    depart, and its latest time: :meth:`check` is the stream spec,
    :meth:`advance` records an event that passed it."""

    __slots__ = ("m", "arrived", "departed", "last_time")

    def __init__(self, m: int, arrived=(), departed=(),
                 last_time: float = 0.0) -> None:
        self.m = m
        self.arrived = set(arrived)
        self.departed = set(departed)
        self.last_time = last_time

    def check(self, ev) -> None:
        """Raise :class:`ValueError` unless ``ev`` may come next: a
        demand MUST be known, arrive at most once, and depart only after
        arriving and at most once."""
        if type(ev) is Tick:
            return
        d = check_known(ev.demand_id, self.m)
        if type(ev) is Arrival:
            if d in self.arrived:
                raise ValueError(f"demand {d} arrives twice")
        elif d not in self.arrived:
            raise ValueError(f"demand {d} departs before arriving")
        elif d in self.departed:
            raise ValueError(f"demand {d} departs twice")

    def advance(self, ev) -> None:
        cls = type(ev)
        if cls is Arrival:
            self.arrived.add(ev.demand_id)
        elif cls is Departure:
            self.departed.add(ev.demand_id)
        if ev.time > self.last_time:
            self.last_time = ev.time


@dataclass
class EventTrace:
    """A replayable stream of events over a frozen demand population.

    Attributes
    ----------
    problem:
        A :class:`~repro.core.instance.TreeProblem` or
        :class:`~repro.core.instance.LineProblem` holding one demand per
        arrival.  Demand ``i`` is the ``i``-th arrival in time order, so
        solving this problem offline yields the optimum over exactly the
        demands the stream carries.
    events:
        :class:`Arrival` / :class:`Departure` / :class:`Tick` records,
        sorted by time (arrivals precede equal-time departures).
    meta:
        Generator provenance (process, seed, rates, ...); free-form.
    """

    problem: TreeProblem | LineProblem
    events: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        stream = StreamState(self.problem.num_demands, last_time=-math.inf)
        for ev in self.events:
            check_event(ev)
            if ev.time < stream.last_time:
                raise ValueError(f"events out of order: {ev!r} after time "
                                 f"{stream.last_time}")
            stream.check(ev)
            stream.advance(ev)
        if len(stream.arrived) != stream.m:
            raise ValueError(f"{stream.m} demands in the problem but "
                             f"{len(stream.arrived)} arrivals")

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    @property
    def num_arrivals(self) -> int:
        """Number of :class:`Arrival` events (== demands in the problem)."""
        return self.problem.num_demands

    @property
    def num_departures(self) -> int:
        """Number of :class:`Departure` events."""
        return sum(1 for ev in self.events if isinstance(ev, Departure))

    @property
    def horizon(self) -> float:
        """Time of the last event (0.0 for an empty trace)."""
        return self.events[-1].time if self.events else 0.0


# ----------------------------------------------------------------------
# Arrival-time processes
# ----------------------------------------------------------------------


def _arrival_times(process: str, count: int, rate: float,
                   rng: np.random.Generator) -> list[float]:
    """``count`` strictly increasing arrival times for the process."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    times: list[float] = []
    t = 0.0
    if process == "poisson":
        for gap in rng.exponential(1.0 / rate, size=count):
            t += float(gap)
            times.append(t)
    elif process == "bursty":
        # Two-state modulated Poisson: bursts run ~10x the base rate,
        # quiet phases ~1/5 of it; phase lengths are geometric in events.
        in_burst = False
        remaining = 0
        for _ in range(count):
            if remaining == 0:
                in_burst = not in_burst
                remaining = int(rng.geometric(0.08 if in_burst else 0.25))
            phase_rate = rate * (10.0 if in_burst else 0.2)
            t += float(rng.exponential(1.0 / phase_rate))
            times.append(t)
            remaining -= 1
    elif process == "diurnal":
        # Sinusoidal intensity with one full "day" per ~count/4 events at
        # the base rate; sampled by local exponential gaps.
        period = max(count / (4.0 * rate), 1e-9)
        for _ in range(count):
            lam = rate * (1.0 + 0.8 * math.sin(2.0 * math.pi * t / period))
            t += float(rng.exponential(1.0 / max(lam, 0.05 * rate)))
            times.append(t)
    else:
        raise ValueError(
            f"unknown arrival process {process!r}; want one of "
            f"{ARRIVAL_PROCESSES}"
        )
    return times


def generate_trace(
    kind: str = "line",
    *,
    events: int = 1000,
    process: str = "poisson",
    seed: int = 0,
    rate: float = 1.0,
    departure_prob: float = 0.3,
    mean_hold: float | None = None,
    tick_every: float = 0.0,
    workload: dict | None = None,
) -> EventTrace:
    """Generate a seeded event trace of (almost exactly) ``events`` events.

    The schedule is drawn first — arrival times from ``process``, each
    arrival departing with probability ``departure_prob`` after an
    exponential holding time of mean ``mean_hold`` (default: 8 mean
    interarrival gaps), ticks every ``tick_every`` time units when
    positive — then truncated to ``events`` entries, and finally the
    demand population is sampled with the surviving arrival count through
    :func:`~repro.workloads.random_tree_problem` /
    :func:`~repro.workloads.random_line_problem` (extra keywords via
    ``workload``).  Everything is driven by one
    :class:`numpy.random.Generator`, so a (kind, events, process, seed,
    ...) tuple pins the trace exactly.

    Parameters
    ----------
    kind:
        ``"tree"`` or ``"line"`` — which problem family the demands use.
    events:
        Total event budget (arrivals + departures + ticks).
    """
    if events < 1:
        raise ValueError("events must be >= 1")
    if rate <= 0:
        raise ValueError("rate must be positive")
    if not (0.0 <= departure_prob <= 1.0):
        raise ValueError("departure_prob must lie in [0, 1]")
    if kind not in ("tree", "line"):
        raise ValueError(f"unknown problem kind {kind!r}")
    rng = np.random.default_rng(seed)
    if mean_hold is None:
        mean_hold = 8.0 / rate

    times = _arrival_times(process, events, rate, rng)
    # (time, priority, arrival_index); priority orders equal-time events
    # as arrival < tick < departure.
    schedule: list[tuple[float, int, int]] = [
        (t, 0, i) for i, t in enumerate(times)
    ]
    departs = rng.random(events) < departure_prob
    holds = rng.exponential(mean_hold, size=events)
    for i, t in enumerate(times):
        if departs[i]:
            schedule.append((t + float(holds[i]), 2, i))
    if tick_every > 0:
        horizon = times[-1]
        n_ticks = int(horizon / tick_every)
        schedule.extend(
            (tick_every * (k + 1), 1, -1) for k in range(n_ticks)
        )
    schedule.sort()
    schedule = schedule[:events]

    # Renumber the surviving arrivals 0.. in time order; departures of
    # truncated arrivals cannot survive (they sort strictly later), but
    # drop them defensively anyway.
    demand_of: dict[int, int] = {}
    raw_events: list[tuple[int, float, int]] = []
    for t, prio, idx in schedule:
        if prio == 0:
            demand_of[idx] = len(demand_of)
            raw_events.append((0, t, demand_of[idx]))
        elif prio == 1:
            raw_events.append((1, t, -1))
        elif idx in demand_of:
            raw_events.append((2, t, demand_of[idx]))

    m = len(demand_of)
    workload = dict(workload or {})
    wl_seed = workload.pop("seed", int(rng.integers(0, 2**31 - 1)))
    # Mixed heights by default: fractional edge loads are what make the
    # dual-gated policy's price function informative (with unit heights
    # any loaded edge is already full, so pricing reduces to first-fit).
    if kind == "tree":
        workload.setdefault("n", 256)
        workload.setdefault("r", 1)
        workload.setdefault("height_regime", "mixed")
        problem = random_tree_problem(m=m, seed=wl_seed, **workload)
    else:
        workload.setdefault("n_slots", 512)
        workload.setdefault("r", 1)
        workload.setdefault("height_regime", "mixed")
        # Small jobs and tight windows keep the per-demand placement
        # count (and hence the instance population) bounded.
        workload.setdefault("min_len", 4)
        workload.setdefault("max_len", 16)
        workload.setdefault("window_slack", 0.25)
        problem = random_line_problem(m=m, seed=wl_seed, **workload)

    evs: list = []
    for code, t, d in raw_events:
        if code == 0:
            evs.append(Arrival(t, d))
        elif code == 1:
            evs.append(Tick(t))
        else:
            evs.append(Departure(t, d))
    meta = {
        "kind": kind,
        "process": process,
        "seed": int(seed),
        "events": int(events),
        "rate": float(rate),
        "departure_prob": float(departure_prob),
        "mean_hold": float(mean_hold),
        "tick_every": float(tick_every),
        "workload_seed": int(wl_seed),
    }
    return EventTrace(problem=problem, events=evs, meta=meta)


def poisson_trace(kind: str = "line", **kw) -> EventTrace:
    """:func:`generate_trace` with memoryless constant-rate arrivals."""
    return generate_trace(kind, process="poisson", **kw)


def bursty_trace(kind: str = "line", **kw) -> EventTrace:
    """:func:`generate_trace` with on/off modulated (bursty) arrivals."""
    return generate_trace(kind, process="bursty", **kw)


def diurnal_trace(kind: str = "line", **kw) -> EventTrace:
    """:func:`generate_trace` with sinusoidally modulated arrivals."""
    return generate_trace(kind, process="diurnal", **kw)
