"""Telemetry-driven autoscaling: shard-load histograms → split/merge.

The observe→remediate control loop: each evaluation reads the per-shard
``rsp.shard.histories`` gauges the maintenance cycle just set (falling
back to the stores themselves when no telemetry sink is attached),
records the load distribution into the ``rsp.reshard.load`` histogram,
and applies at most one :class:`~repro.reshard.ops.ReshardOp` per call:

* the hottest shard splits when its load exceeds ``split_above`` (ties
  break to the lowest index, so decisions are deterministic);
* otherwise the two coldest shards merge when their *combined* load
  stays under ``merge_below``.

``merge_below <= split_above`` is required: a merged shard whose load
already exceeded the split threshold would split right back, and the
deployment would oscillate.  One op per evaluation bounds migration work
per epoch and lets the next cycle's fresh gauges drive the next step.

Everything here is DEPLOYMENT-scoped observation plus deterministic
arithmetic — an autoscaled run must stay byte-identical, in reports and
AGGREGATE telemetry, to a static deployment (the autoscaler cells of
the golden grid in ``tests/scale/test_golden_digest.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.reshard.ops import ReshardOp, perform
from repro.telemetry import DEPLOYMENT
from repro.telemetry.catalog import RESHARD_LOAD_BUCKETS


@dataclass(frozen=True)
class AutoscalePolicy:
    """Thresholds (in histories per shard) with hysteresis."""

    split_above: int
    merge_below: int
    min_shards: int = 1
    max_shards: int = 64

    def __post_init__(self) -> None:
        if self.split_above <= 0:
            raise ValueError("split_above must be positive")
        if self.merge_below > self.split_above:
            raise ValueError(
                "merge_below must not exceed split_above (hysteresis band)"
            )
        if self.min_shards < 1:
            raise ValueError("min_shards must be >= 1")
        if self.max_shards < self.min_shards:
            raise ValueError("max_shards must be >= min_shards")


class Autoscaler:
    """Evaluates a policy against a live server, one op at a time."""

    def __init__(self, policy: AutoscalePolicy) -> None:
        self.policy = policy

    def loads(self, server) -> list[int]:
        """Per-shard history counts, preferring the telemetry gauges."""
        observed: list[int] = []
        for shard in server.shards:
            value = server.telemetry.value("rsp.shard.histories", shard=shard.index)
            observed.append(
                shard.store.n_histories if value is None else int(value)
            )
        return observed

    def decide(self, server) -> ReshardOp | None:
        """The next op the policy calls for, or ``None`` when balanced."""
        loads = self.loads(server)
        for load in loads:
            server.telemetry.observe(
                "rsp.reshard.load",
                load,
                buckets=RESHARD_LOAD_BUCKETS,
                scope=DEPLOYMENT,
            )
        policy = self.policy
        n_shards = len(loads)
        if n_shards < policy.max_shards:
            hottest = max(range(n_shards), key=lambda index: (loads[index], -index))
            if loads[hottest] > policy.split_above:
                return ReshardOp.split(hottest)
        if n_shards > policy.min_shards:
            coldest = sorted(range(n_shards), key=lambda index: (loads[index], index))
            first, second = sorted(coldest[:2])
            if loads[first] + loads[second] < policy.merge_below:
                return ReshardOp.merge(first, second)
        return None

    def evaluate(self, server) -> ReshardOp | None:
        """Decide and, when warranted, perform one op.  Returns it."""
        op = self.decide(server)
        if op is not None:
            perform(server, op)
        return op
