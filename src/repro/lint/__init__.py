"""`repro lint`: a static analyzer for the simulated-MPI programming model.

The distributed algorithms in this reproduction (recursive bisection,
per-partition trimming, master-merge traversal) run as SPMD rank
functions on :class:`~repro.mpi.SimCluster`.  The classic SPMD bug
classes — collectives under rank-dependent branches, payloads mutated
after an eager send, hidden-global RNG, compute outside the virtual
clock — survive the test suite because they corrupt *timing* and
*determinism* rather than values.  This package catches them at the
AST level:

========  ========  =====================================================
rule      severity  checks
========  ========  =====================================================
MPI001    error     collective calls under ``comm.rank``-dependent branches
MPI002    error     literal message tags in the reserved space (<= -1000)
MPI003    error     payload names mutated after an eager ``send``/``isend``
DET001    warning   ``random.*`` / ``np.random.*`` global-state calls
PERF001   warning   compute loops in rank functions outside ``comm.timed()``
PERF002   warning   per-element ``.tolist()`` loops on the overlap hot path
ARCH001   error     distributed kernel modules importing ``repro.mpi``
PURE001   error     kernels mutating parameters/globals (interprocedural)
PURE002   error     kernels reaching unseeded RNG, wall clock, or I/O
ARCH002   error     ``register_stage`` kernel/merge contract violations
MEM001    warning   partition kernels materializing a whole sharded store
ROB001    error     broad ``except`` handlers that swallow the exception
ROB002    error     ``while True`` + sleep poll loops with no escape
========  ========  =====================================================

The PURE/ARCH002 rules are *whole-program*: ``repro.lint.project``
parses every linted file once, resolves imports into a package-level
symbol table, builds a call graph, and propagates per-function effect
summaries (parameter/global mutation, RNG, clock, I/O, ``repro.mpi``
use) interprocedurally — a kernel calling a helper in another module
that mutates shared state is caught, which no per-file rule can do.
Parsed files and summaries are cached by content hash
(``repro.lint.cache``), so a second run over an unchanged tree
re-parses nothing.

Run it as ``python -m repro lint [paths] [--format text|json]
[--strict] [--stats] [--baseline FILE [--write-baseline]]``, or from
code via :func:`lint_paths` / :func:`analyze_paths` /
:func:`lint_source`.  Suppress a finding with a trailing
``# noqa: RULEID`` comment; adopt a legacy tree's findings with
``--baseline`` and burn them down over time.

The static pass pairs with a *runtime* sanitizer, which is the only
check of point-to-point matching and deadlock:
``SimCluster(..., sanitize=True)`` fingerprints every payload at send
and re-verifies it at receive (raising
:class:`~repro.mpi.simcomm.PayloadMutationError` on a mutate-after-send
race) and reports unconsumed mailbox messages at shutdown as
:class:`~repro.mpi.simcomm.MessageLeakError`; a receive nobody feeds
(a cyclic wait, or a collective only some ranks reach) times out as
:class:`~repro.mpi.simcomm.DeadlockError` after ``deadlock_timeout``.
"""

from repro.lint.cache import DEFAULT_CACHE, LintCache
from repro.lint.context import FileContext
from repro.lint.driver import (
    LintRun,
    LintStats,
    UsageError,
    analyze_paths,
    format_findings,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    run,
)
from repro.lint.findings import Finding, Severity, finding_fingerprints
from repro.lint.project import SUMMARY_VERSION, ProjectContext, summarize_file
from repro.lint.registry import (
    ProjectRule,
    Rule,
    all_rules,
    file_rules,
    get_rule,
    project_rules,
    register,
    select_rules,
)

__all__ = [
    "FileContext",
    "ProjectContext",
    "SUMMARY_VERSION",
    "summarize_file",
    "Finding",
    "Severity",
    "finding_fingerprints",
    "Rule",
    "ProjectRule",
    "register",
    "all_rules",
    "file_rules",
    "project_rules",
    "get_rule",
    "select_rules",
    "lint_source",
    "lint_file",
    "lint_paths",
    "analyze_paths",
    "iter_python_files",
    "format_findings",
    "run",
    "LintCache",
    "DEFAULT_CACHE",
    "LintRun",
    "LintStats",
    "UsageError",
]
