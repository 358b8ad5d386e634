"""Entry point of the pooled align path (paper §II-B).

Each subset pair of the overlap stage is one task of an
:class:`~repro.align.overlapper.AlignTasks` context.  This module runs
those tasks on :class:`~repro.parallel.backend.ProcessBackend`, the
same backend the finish stages use: fork-primed workers that inherit
the read set copy-on-write, largest-first submission, and per-task
retry, pool respawn and serial fallback under the default
:class:`~repro.faults.RetryPolicy`.  Each task ships only its pair id
out and a :class:`~repro.align.overlap.PackedOverlaps` column batch
back, and results are merged in canonical ``subset_pairs`` order, so
the output list is identical to the serial driver's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.align.overlap import Overlap
from repro.io.readset import ReadSet
from repro.parallel.backend import ProcessBackend

__all__ = ["ExecutorStats", "run_subset_pairs"]


@dataclass(frozen=True)
class ExecutorStats:
    """Accounting of one multiprocess overlap run."""

    n_workers: int
    n_tasks: int
    candidates: int
    overlaps: int


def run_subset_pairs(
    config, reads: ReadSet, n_workers: int
) -> tuple[list[Overlap], ExecutorStats]:
    """All pairwise overlaps of ``reads`` across ``n_workers`` processes.

    Returns the merged overlap list — identical, element for element,
    to ``OverlapDetector(config).find_overlaps(reads)`` — plus run
    accounting.  ``n_workers <= 1`` (or a single subset pair) runs the
    tasks in-process; no pool is spawned.
    """
    from repro.align.overlapper import ALIGN_STAGE, AlignTasks

    if n_workers < 0:
        raise ValueError("n_workers must be non-negative")
    tasks = AlignTasks(config, reads)
    workers = max(1, min(n_workers, tasks.n_tasks))
    with ProcessBackend(tasks, workers=workers) as backend:
        packed, n_candidates = backend.run_stage(ALIGN_STAGE).result
    overlaps = packed.to_overlaps()
    return overlaps, ExecutorStats(
        n_workers=workers,
        n_tasks=tasks.n_tasks,
        candidates=n_candidates,
        overlaps=len(overlaps),
    )
