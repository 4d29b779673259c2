"""Regenerate the pinned preemptive-replay outcomes under ``tests/data/``.

``preempt_expected.json`` holds the fingerprint of one replay per grid
point: preempt-density at factor 1.0/1.2/2.0 × penalty 0/0.1 and
preempt-dual-gated at penalty 0/0.1, each over three generated traces
(a line trace with unit heights, the same line trace shape with mixed
heights, and a three-network tree trace with mixed heights).  The
fingerprint is the SHA-256 of the admission and eviction logs plus the
exact realized and penalty-adjusted profit (``repr`` of the float, so
a one-ulp drift is a change).  ``test_online_preemption.py`` replays
the grid and compares against the file, so any change to a preemptive
decision — who is evicted, in which order, at what profit — is
change-detected.

The traces are generated from fixed seeds rather than stored, so the
file stays small; a change to the trace generator also shows here.

Run from the repo root after an *intentional* behaviour change::

    PYTHONPATH=src python tests/make_preempt_expected.py

and commit the refreshed JSON together with the change that caused it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib

from repro.online import generate_trace, make_policy, replay

DATA_DIR = pathlib.Path(__file__).parent / "data"
OUT = DATA_DIR / "preempt_expected.json"

#: (name, generate_trace keywords) per pinned trace.
TRACES = {
    "line-unit": dict(kind="line", events=3000, seed=11,
                      departure_prob=0.35,
                      workload={"height_regime": "unit"}),
    "line-mixed": dict(kind="line", events=3000, seed=12,
                       departure_prob=0.35,
                       workload={"height_regime": "mixed"}),
    "tree-mixed": dict(kind="tree", events=2000, seed=13,
                       departure_prob=0.3,
                       workload={"n": 64, "r": 3,
                                 "height_regime": "mixed"}),
}

#: (key, policy, params) per pinned policy configuration.
POLICIES = (
    [(f"preempt-density/f{factor}/p{penalty}", "preempt-density",
      {"factor": factor, "penalty": penalty})
     for factor in (1.0, 1.2, 2.0) for penalty in (0.0, 0.1)]
    + [(f"preempt-dual-gated/p{penalty}", "preempt-dual-gated",
        {"penalty": penalty})
       for penalty in (0.0, 0.1)]
)

GRID = [(f"{trace}/{key}", trace, policy, params)
        for trace in TRACES for key, policy, params in POLICIES]


@functools.lru_cache(maxsize=None)
def trace_of(name: str):
    return generate_trace(**TRACES[name])


def fingerprint(result) -> dict:
    """The pinned outcome of one replay, JSON-shaped."""
    logs = json.dumps([result.admission_log, result.eviction_log])
    m = result.metrics
    return {
        "logs_sha256": hashlib.sha256(logs.encode()).hexdigest(),
        "admitted": len(result.admission_log),
        "evicted": len(result.eviction_log),
        "realized_profit": repr(m.realized_profit),
        "penalty_adjusted_profit": repr(m.penalty_adjusted_profit),
    }


def run_point(trace: str, policy: str, params: dict):
    return replay(trace_of(trace), make_policy(policy, **params))


def build() -> dict:
    return {key: fingerprint(run_point(trace, policy, params))
            for key, trace, policy, params in GRID}


def main() -> int:
    expected = build()
    with open(OUT, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(expected)} grid points written to {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
