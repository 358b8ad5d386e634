"""Execution of assembly work units: one task layer for every stage.

The simulated-MPI layer (``repro.mpi``) models a cluster on threads and
a virtual clock; this package runs the same independent work units
in-process or on actual cores via
:class:`concurrent.futures.ProcessPoolExecutor`.  Both layers share the
scheduling helpers in :mod:`repro.parallel.schedule`.

:mod:`repro.parallel.backend` holds the one backend abstraction
(``serial`` / ``sim`` / ``process``): a kernel per task of a bound
task context.  It runs the finish stages (a task per partition,
selected per run via ``AssemblyConfig.backend``) and the align stage
(a task per subset pair; :mod:`repro.parallel.executor` is the entry
point of its pooled path).
"""

from repro.parallel.backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    StageOutcome,
    create_backend,
)
from repro.parallel.executor import ExecutorStats, run_subset_pairs
from repro.parallel.schedule import (
    assignment_imbalance,
    lpt_assignment,
    round_robin_assignment,
    subset_pair_costs,
)

__all__ = [
    "subset_pair_costs",
    "lpt_assignment",
    "round_robin_assignment",
    "assignment_imbalance",
    "run_subset_pairs",
    "ExecutorStats",
    "BACKEND_NAMES",
    "StageOutcome",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "create_backend",
]
