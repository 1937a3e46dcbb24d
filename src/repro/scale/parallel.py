"""Process-parallel execution of the sharded maintenance phases.

The pool model is fork-and-forget: a :class:`MaintenancePool` registers
the server in a module global, then creates a ``fork``-context
``ProcessPoolExecutor`` whose workers inherit the whole server — stores
included — as copy-on-write memory.  Task functions receive only a shard
or partition index (plus small value arguments such as the global
profiles) and read the heavy state from the inherited snapshot, so no
store is ever pickled.  Stores are never mutated during a maintenance
cycle, so the snapshot is exact.

Every task function is a pure function of the registered server's state
and its arguments, and results are consumed in task-index order — which
is what makes serial execution, pooled execution, and pooled execution
with a broken pool (the serial fallback) produce identical results.

Platforms without ``fork`` (or a pool that dies mid-cycle) degrade to
in-process serial execution of the very same task functions; the
``pool_fallbacks`` counter on the server records that it happened.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.core.aggregation import EntityOpinionSummary
from repro.fraud.detector import DetectorConfig, HistoryVerdict
from repro.fraud.profiles import TypicalProfile
from repro.scale.kernel import judge_frame, summarize_partition_frame
from repro.telemetry import DEPLOYMENT
from repro.telemetry.catalog import POOL_CHUNK_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.service.server import RSPServer

#: The server whose maintenance cycle is currently executing.  Set by
#: :class:`MaintenancePool` before any worker forks, read by the task
#: functions in whichever process runs them.
_ACTIVE: "RSPServer | None" = None


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class MaintenancePool:
    """Runs maintenance task batches serially or across forked workers."""

    def __init__(self, server: "RSPServer", workers: int) -> None:
        self.server = server
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = None

    def __enter__(self) -> "MaintenancePool":
        global _ACTIVE
        _ACTIVE = self.server
        if self.workers >= 1 and _fork_available():
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        self._close_executor()
        _ACTIVE = None

    def _close_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def map(
        self, fn: Callable[..., Any], argument_tuples: list[tuple]
    ) -> list[Any]:
        """Run ``fn`` over ``argument_tuples``, results in argument order.

        Pooled execution submits one *chunk* of consecutive argument
        tuples per worker rather than one task per tuple.  Contiguous
        chunking makes worker ``w`` the only process that walks shards
        ``w``'s object graphs, which matters under fork: every object a
        child touches dirties its refcount page, and page-level
        copy-on-write would otherwise duplicate the whole store in every
        worker.
        """
        if self._executor is not None:
            chunks = _split_chunks(argument_tuples, self.workers)
            for chunk in chunks:
                self.server.telemetry.observe(
                    "rsp.pool.chunk",
                    len(chunk),
                    buckets=POOL_CHUNK_BUCKETS,
                    scope=DEPLOYMENT,
                )
            try:
                futures = [
                    self._executor.submit(_run_chunk, fn, chunk) for chunk in chunks
                ]
                return [result for future in futures for result in future.result()]
            except (BrokenProcessPool, OSError):
                # Task functions are pure, so recomputing everything
                # serially is safe and lands on the identical result.
                self.server.pool_fallbacks += 1
                self.server.telemetry.inc("rsp.pool.fallbacks", scope=DEPLOYMENT)
                self._close_executor()
        return [fn(*arguments) for arguments in argument_tuples]


def _split_chunks(items: list[tuple], n_chunks: int) -> list[list[tuple]]:
    """Split ``items`` into up to ``n_chunks`` contiguous, ordered chunks."""
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    chunks: list[list[tuple]] = []
    start = 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def _run_chunk(fn: Callable[..., Any], chunk: list[tuple]) -> list[Any]:
    """Worker-side chunk runner; preserves per-tuple result order."""
    return [fn(*arguments) for arguments in chunk]


# ---------------------------------------------------------------- tasks
#
# Module-level so the fork pickler can pass them by qualified name.  Each
# reads shard state from the registered server snapshot.


@dataclass
class ShardJudgement:
    """The judge phase's result for one shard."""

    verdicts: list[HistoryVerdict] = field(default_factory=list)
    n_kept_opinions: int = 0


def judge_shard(
    shard_index: int,
    profiles: dict[str, TypicalProfile],
    config: DetectorConfig | None,
) -> ShardJudgement:
    """Judge phase: one shard's histories against the global profiles."""
    server = _ACTIVE
    shard = server.shards[shard_index]
    frame = shard.frame(server.entity_kinds)
    judgement = judge_frame(frame, profiles, config)
    rejected_ids = {verdict.history_id for verdict in judgement.verdicts}
    accepted_ids = {
        history_id
        for history_id in frame.hist_ids
        if history_id not in rejected_ids
    }
    # An opinion survives iff its history exists and survived; opinions
    # and histories share the record key, so both live on this shard.
    kept = sum(
        1 for history_id in shard.opinions if history_id in accepted_ids
    )
    return ShardJudgement(verdicts=judgement.verdicts, n_kept_opinions=kept)


def summarize_partition(
    partition_index: int, rejected_ids: frozenset[str]
) -> list[EntityOpinionSummary]:
    """Summarize phase: the entities routed to one partition.

    Histories and opinions are partitioned by *record* key, so one
    entity's surviving records are scattered across shards; the cached
    :class:`~repro.scale.kernel.GatherFrame` (built in the parent before
    any worker forked) regroups them columnarly, and
    :func:`~repro.scale.kernel.summarize_partition_frame` replays the
    serial engine's per-entity loop in canonical order — same sorted inputs,
    same float reductions, bit-identical summaries.
    """
    server = _ACTIVE
    return summarize_partition_frame(
        server.gather_frame(),
        partition_index,
        rejected_ids,
        server.shards[partition_index].reviews,
    )
