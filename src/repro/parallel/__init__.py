"""Multi-core sharded skyline execution (docs/parallel.md).

Partitions a :class:`~repro.transform.dataset.TransformedDataset` by
SDC+ category strata (grid fallback on the monotone transformed key)
into fine-grained tasks sized by the admission cost model, drains the
tasks through a work-stealing ``fork`` process pool whose workers
inherit the dataset and keep each task's shard index for the life of
the pool, prunes with a cross-shard filter board (Lemma 4.2
representatives prune other workers' shards *during* compute), and
merges finished shards incrementally with the paper's Lemma 4.1
restriction checks.  Each algorithm's route -- sharded or serial -- is
chosen from measured costs of both.  Entry points::

    engine.run("sdc+", parallel=ParallelConfig(workers=4))
    engine.parallel_executor(4)                   # reusable executor
    engine.serve(parallel=4)                      # server execution mode
    repro bench-parallel                          # speedup + comparison CLI
"""

from repro.parallel.config import ParallelConfig
from repro.parallel.executor import ParallelResult, ParallelSkylineExecutor
from repro.parallel.merge import IncrementalMerger, MergeOutcome
from repro.parallel.partition import (
    Partition,
    Shard,
    TaskPlan,
    partition_dataset,
    plan_tasks,
)

__all__ = [
    "ParallelConfig",
    "ParallelResult",
    "ParallelSkylineExecutor",
    "IncrementalMerger",
    "MergeOutcome",
    "Partition",
    "Shard",
    "TaskPlan",
    "partition_dataset",
    "plan_tasks",
]
