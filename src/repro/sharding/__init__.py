"""Sharded admission engine: fan one trace across decomposition cut lines.

Layering (bottom-up):

* :mod:`~repro.sharding.planner` — :class:`ShardPlanner` /
  :class:`ShardPlan`: partition a problem's edges along Section-4
  decomposition cut lines (balancer subtrees or depth layers; timeline
  blocks on lines), classify demands as shard-local or cut-crossing,
  and materialize per-shard sub-problems;
* :mod:`~repro.sharding.driver` — :class:`ShardedDriver`: one shared
  conflict-index build serving every shard (:class:`SharedGeometry` +
  sliced views), phase-A replay of the local streams through unmodified
  policies (inline or one fork worker per shard), then the serialized
  phase-B pass that decides cut-crossing demands on the exact global
  coordinator view, with merged + verified metrics.
"""

from .driver import SharedGeometry, ShardedDriver, ShardedReplayResult
from .planner import SHARD_STRATEGIES, ShardPlan, ShardPlanner

__all__ = [
    "SHARD_STRATEGIES",
    "ShardPlan",
    "ShardPlanner",
    "SharedGeometry",
    "ShardedDriver",
    "ShardedReplayResult",
]
