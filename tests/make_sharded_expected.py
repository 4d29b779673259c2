"""Regenerate the pinned sharded-replay outcomes under ``tests/data/``.

``sharded_expected.json`` holds the deterministic fingerprint of one
:class:`~repro.sharding.ShardedDriver` run per grid point: the five
corpus policies at shards 1, 2 and 4 on the pinned poisson tree trace,
plus the bursty line trace under the ``layer`` strategy at shards 2 and
4.  The fingerprint covers the merged metrics (timing fields aside),
the plan summary, every shard's and the boundary pass's admission and
eviction logs and metrics, and the final admitted sets.
``test_streaming.py`` replays the grid inline and forked and compares
against the file, so any change to a sharded outcome is
change-detected.

Run from the repo root after an *intentional* behaviour change::

    PYTHONPATH=src python tests/make_sharded_expected.py

and commit the refreshed JSON together with the change that caused it.
"""

from __future__ import annotations

import json
import pathlib

from repro.io import load_trace
from repro.online.metrics import deterministic_metrics
from repro.sharding import ShardedDriver

DATA_DIR = pathlib.Path(__file__).parent / "data"
OUT = DATA_DIR / "sharded_expected.json"

#: The corpus policy grid (mirrors tests/make_trace_corpus.py).
POLICIES = [
    ("greedy-threshold", {}),
    ("dual-gated", {}),
    ("batch-resolve", {"solver": "greedy", "resolve_every": 32}),
    ("preempt-density", {"factor": 1.2}),
    ("preempt-dual-gated", {"penalty": 0.1}),
]

#: (key, trace stem, shard_by, shards, policy, params) per grid point.
GRID = (
    [(f"tree/{name}/{shards}", "trace_poisson_tree", "subtree", shards,
      name, params)
     for name, params in POLICIES for shards in (1, 2, 4)]
    + [(f"line/greedy-threshold/{shards}", "trace_bursty_line", "layer",
        shards, "greedy-threshold", {})
       for shards in (2, 4)]
)


def _selected(solution):
    if solution is None:
        return None
    return sorted((i.demand_id, i.instance_id) for i in solution.selected)


def result_fingerprint(result) -> dict:
    """Everything deterministic a sharded replay produced, JSON-shaped
    (tuples become lists, so it compares equal to the loaded file)."""
    boundary = result.boundary_result
    doc = {
        "merged": deterministic_metrics(result.merged),
        "plan": result.plan,
        "shards": [
            {
                "metrics": deterministic_metrics(r.metrics),
                "admissions": r.admission_log,
                "evictions": r.eviction_log,
                "selected": _selected(r.final_solution),
            }
            for r in result.shard_results
        ],
        "boundary": (
            {
                "metrics": deterministic_metrics(boundary.metrics),
                "admissions": boundary.admission_log,
                "evictions": boundary.eviction_log,
            }
            if boundary is not None else None
        ),
        "selected": _selected(result.merged_solution),
    }
    return json.loads(json.dumps(doc))


def run_point(stem: str, shard_by: str, shards: int, policy: str,
              params: dict, processes: int = 1):
    trace = load_trace(str(DATA_DIR / f"{stem}.json"))
    return ShardedDriver(shards, shard_by=shard_by,
                         processes=processes).run(trace, policy, params)


def build() -> dict:
    return {key: result_fingerprint(run_point(stem, by, shards, policy,
                                              params))
            for key, stem, by, shards, policy, params in GRID}


def main() -> int:
    expected = build()
    with open(OUT, "w") as fh:
        # One grid point per line: diffs stay readable.
        fh.write("{\n")
        keys = list(expected)
        for i, key in enumerate(keys):
            sep = "," if i + 1 < len(keys) else ""
            fh.write(f"{json.dumps(key)}: "
                     f"{json.dumps(expected[key], sort_keys=True)}{sep}\n")
        fh.write("}\n")
    print(f"{len(expected)} grid points written to {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
