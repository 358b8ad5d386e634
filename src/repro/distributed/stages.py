"""Stage specifications: pure per-task kernels plus master merges.

Every distributed graph-cleaning stage of paper §V, and the subset-pair
read alignment of §II-B, decomposes into the same two halves:

- a **kernel** — ``kernel(ctx, task, **params)`` — reads one task's
  view of a bound *task context* and returns *proposals* as plain
  picklable values (edge ids to drop, node ids to trim, packed
  sub-paths, packed overlaps).  Kernels never mutate the context and
  never communicate, so they can be executed anywhere: in-process, on
  a simulated MPI rank, or inside a forked worker process.
- a **merge** — ``merge(ctx, proposals, **params)`` — runs on the
  master, receives the proposal list indexed by task id, applies it
  (removals are idempotent, so a union suffices; sub-paths are joined
  across partition boundaries; overlaps are concatenated) and returns
  the stage result.

A task context supplies what a backend needs to run its tasks:

- ``n_tasks`` — how many tasks a stage has;
- ``task_costs()`` — estimated cost per task, for LPT scheduling;
- ``worker_factory()`` — ``(factory, args)`` with which a forked
  worker rebuilds its own copy (``factory(*args)``);
- ``state`` — the mutable state shipped with every task and
  snapshotted for rollback (a tuple of arrays, possibly empty).

:class:`~repro.distributed.dgraph.DistributedAssemblyGraph` is the
context of the finish stages (one task per partition; its alive-masks
are the state) and :class:`~repro.align.overlapper.AlignTasks` the
context of the align stage (one task per subset pair; no state).

The registry maps the finish-stage names to :class:`StageSpec` pairs;
execution backends (:mod:`repro.parallel.backend`) look stages up by
name.  Specs travel to forked workers by value (their kernels and
merges are module-level functions, pickled by reference).

Layering note: this module (and every kernel-defining module under
``repro.distributed``) must not import :mod:`repro.mpi` — enforced
statically by lint rule ARCH001.  The simulated-cluster adapter lives
on the mpi side (:mod:`repro.mpi.stage_backend`) and imports us.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "ENGINES",
    "StageSpec",
    "register_stage",
    "get_stage",
    "all_stages",
    "run_stage_on_comm",
    "union_proposals",
]

#: kernel implementations a stage may offer; every backend accepts any
#: of these names and resolves the kernel via :meth:`StageSpec.kernel_for`.
ENGINES = ("loop", "sparse")


@dataclass(frozen=True)
class StageSpec:
    """One distributed stage as a (kernel, merge) pair.

    ``kernel(ctx, task, **params)`` must be a pure, deterministic,
    module-level function returning picklable proposals;
    ``merge(ctx, proposals, **params)`` receives the proposal list
    indexed by task id and applies it on the master's context.
    ``sparse_kernel``, when present, is a drop-in vectorized kernel
    with the identical signature and proposal semantics, selected via
    the ``engine`` knob (:meth:`kernel_for`); the merge is shared.
    """

    name: str
    kernel: Callable[..., Any]
    merge: Callable[..., Any]
    sparse_kernel: Callable[..., Any] | None = None

    def kernel_for(self, engine: str) -> Callable[..., Any]:
        """The kernel implementing ``engine`` ('loop' or 'sparse').

        ``engine`` is a preference, not a demand: stages without a
        vectorized implementation (e.g. traversal) fall back to the
        loop reference, so an end-to-end sparse run never fails on a
        loop-only stage.
        """
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
        if engine == "sparse" and self.sparse_kernel is not None:
            return self.sparse_kernel
        return self.kernel

    def with_engine(self, engine: str) -> "StageSpec":
        """A spec whose primary kernel is the engine-resolved one.

        Lets engine-unaware drivers (``run_stage_on_comm``, the sim
        cluster body) run the chosen implementation without threading
        the knob through every call site.
        """
        kernel = self.kernel_for(engine)
        if kernel is self.kernel:
            return self
        return StageSpec(
            name=self.name,
            kernel=kernel,
            merge=self.merge,
            sparse_kernel=self.sparse_kernel,
        )


_STAGES: dict[str, StageSpec] = {}


def register_stage(name: str, kernel, merge, sparse_kernel=None) -> StageSpec:
    """Register a stage; returns the spec for module-level reuse."""
    if name in _STAGES:
        raise ValueError(f"duplicate stage name {name!r}")
    spec = StageSpec(
        name=name, kernel=kernel, merge=merge, sparse_kernel=sparse_kernel
    )
    _STAGES[name] = spec
    return spec


def _load_stage_modules() -> None:
    """Import every kernel-defining module (registration side effect)."""
    from repro.distributed import (  # noqa: F401 (imports register stages)
        containment,
        transitive,
        traversal,
        trimming,
    )


def get_stage(name: str) -> StageSpec:
    """Look a stage up by name, importing the stage modules on demand."""
    _load_stage_modules()
    try:
        return _STAGES[name]
    except KeyError:
        raise KeyError(
            f"unknown stage {name!r}; known: {sorted(_STAGES)}"
        ) from None


def all_stages() -> list[StageSpec]:
    """Every registered stage, sorted by name."""
    _load_stage_modules()
    return [_STAGES[name] for name in sorted(_STAGES)]


def union_proposals(proposals) -> np.ndarray:
    """Sorted unique int64 ids across per-partition proposal arrays.

    Boundary objects may be proposed by several owners (the paper notes
    removals are idempotent); the merge deduplicates so removal counts
    stay exact.
    """
    arrays = [np.asarray(p, dtype=np.int64).ravel() for p in proposals]
    if not arrays:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(arrays))


def run_stage_on_comm(
    comm, stage: StageSpec, ctx, engine: str = "loop", owner=None, **params
):
    """SPMD driver: run one stage on an MPI-style communicator.

    ``owner[t]`` is the rank that runs task ``t``; by default rank
    ``r`` runs task ``r`` (one partition per rank).  Each rank executes
    its tasks' ``engine``-selected kernels under the virtual clock,
    proposals are gathered to the root and put back in task order, the
    root merges (also timed), and the result is broadcast — the paper's
    scan-locally/apply-centrally pattern.  The communicator is
    duck-typed (anything with ``rank``/``size``/``timed``/``gather``/
    ``bcast``), so this module stays free of :mod:`repro.mpi` imports.
    """
    kernel = stage.kernel_for(engine)
    owner = np.arange(comm.size) if owner is None else np.asarray(owner)
    with comm.timed():
        local = [
            kernel(ctx, task, **params)
            for task in np.flatnonzero(owner == comm.rank).tolist()
        ]
    gathered = comm.gather(local, root=0)
    result = None
    if comm.rank == 0:
        with comm.timed():
            # Ranks report in rank order, each in task order: exactly
            # the tasks sorted stably by owner.
            proposals: list = [None] * owner.size
            flat = [p for part in gathered for p in part]
            for task, proposal in zip(np.argsort(owner, kind="stable").tolist(), flat):
                proposals[task] = proposal
            result = stage.merge(ctx, proposals, **params)
    return comm.bcast(result, root=0)
