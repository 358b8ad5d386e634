"""Perf-trajectory benchmark for the finish stages (``repro bench finish``).

Times the distributed graph stages (transitive reduction, containment
removal, dead-end/bubble trimming, traversal) across three axes:

* **dataset** — the read-simulated D1/D2 communities (full
  prepare+finish pipeline) plus the synthetic finish-scale assemblies
  S4/S5 (:mod:`repro.bench.datasets`), whose 10^4-10^5-read-equivalent
  graphs are what separate the engines;
* **backend** — ``serial`` (in-process loop), ``sim`` (simulated MPI
  cluster, virtual clocks), and ``process`` (real OS workers);
* **engine** — the ``loop`` reference kernels versus the vectorized
  ``sparse`` masked-CSR kernels (:mod:`repro.graph.sparse`).

Every (backend, engine) cell must produce byte-identical contigs, and
the machine-readable trajectory is written to ``BENCH_finish.json``
with explicit per-stage loop-vs-sparse speedup rows (the
``engine_speedups`` section).  Three gates are wired for CI:

* **Equivalence** (exit 2): all backends *and* engines must agree on
  contigs for every (dataset, partitions) cell — this is the
  correctness contract of the kernel/merge split and of the sparse
  engine, and is enforced unconditionally.
* **Process regression** (exit 1): at >= ``PROCESS_GATE_PARTITIONS``
  partitions the process backend must not be slower than the serial
  loop on the distributed stages (same engine).  Real parallel
  speedup needs real cores, so this gate is only *enforced* when the
  host has at least ``PROCESS_GATE_MIN_CORES`` CPUs; on single-core
  hosts the comparison is recorded but the gate reports itself
  skipped.
* **Sparse regression** (exit 1): on graphs with at least
  ``SPARSE_GATE_MIN_NODES`` nodes the sparse engine must not be
  slower than the loop engine on the trimming stages
  (``trim_total``).  Small graphs (D1/D2, a few hundred nodes) are
  recorded but ungated — there the vectorization constant can
  legitimately win or lose by noise.

See docs/performance.md for how to read the output.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.bench.datasets import (
    BenchDataset,
    FinishScaleAssembly,
    finish_scale_assemblies,
    standard_datasets,
)
from repro.bench.reporting import format_table
from repro.core.config import AssemblyConfig
from repro.core.focus import FocusAssembler
from repro.core.stats import AssemblyStats
from repro.distributed.dgraph import DistributedAssemblyGraph
from repro.distributed.traversal import contigs_from_paths
from repro.parallel.backend import create_backend

__all__ = [
    "FinishBenchRecord",
    "FinishBenchReport",
    "bench_dataset",
    "bench_finish_scale",
    "run_finish_bench",
    "regression_failures",
    "sparse_regression_failures",
    "process_gate_enforced",
    "main",
]

#: schema of one record in ``BENCH_finish.json``; bump when fields change.
#: v2 added the ``engine`` axis and per-record ``n_nodes``.
SCHEMA = "repro.bench.finish/v2"

DEFAULT_OUTPUT = "BENCH_finish.json"
DEFAULT_DATASETS = ("D1", "D2", "S4", "S5")
DEFAULT_PARTITIONS = (4, 8)
BACKENDS = ("serial", "sim", "process")
ENGINES = ("loop", "sparse")

#: the process-vs-serial gate kicks in at this partition count ...
PROCESS_GATE_PARTITIONS = 4
#: ... but only on hosts with at least this many cores (a fork pool on
#: one core can only ever add overhead, never speedup).
PROCESS_GATE_MIN_CORES = 2

#: the sparse-vs-loop gate only binds on graphs at least this large;
#: below it the constant factors dominate and the comparison is noise.
SPARSE_GATE_MIN_NODES = 1000

#: the finish trim sequence with AssemblyConfig's default parameters,
#: used to drive the synthetic S-datasets through the backends
#: directly (they have no reads to prepare).
_SCALE_TRIM_SEQUENCE = (
    ("transitive", {"tolerance": 2}),
    ("containment", {"min_overlap": 50, "min_identity": 0.9}),
    ("dead_ends", {"max_tip_bases": 150}),
    ("bubbles", {}),
)


@dataclass(frozen=True)
class FinishBenchRecord:
    """One (dataset, partitions, backend, engine) timing measurement."""

    dataset: str
    backend: str
    partitions: int
    #: distributed-stage seconds (trim + traversal), best of ``repeats``.
    stage_s: float
    #: clock of ``stage_s``: "wall" (serial/process) or "virtual" (sim).
    time_kind: str
    #: per-stage breakdown on the same clock.
    stages: dict[str, float]
    n_contigs: int
    n50: int
    workers: int = 1
    #: finish-kernel implementation: "loop" or "sparse".
    engine: str = "loop"
    #: hybrid-graph size the stages ran on (gates the sparse check).
    n_nodes: int = 0


@dataclass
class FinishBenchReport:
    """A full bench run: records plus environment metadata."""

    records: list[FinishBenchRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def engine_speedups(self) -> list[dict]:
        """Per-stage loop-vs-sparse rows for every cell with both engines."""
        by_cell: dict[tuple[str, int, str, str], FinishBenchRecord] = {
            (r.dataset, r.partitions, r.backend, r.engine): r
            for r in self.records
        }
        rows: list[dict] = []
        for (dataset, k, backend, engine), loop_rec in sorted(by_cell.items()):
            if engine != "loop":
                continue
            sparse_rec = by_cell.get((dataset, k, backend, "sparse"))
            if sparse_rec is None:
                continue
            for stage, loop_s in loop_rec.stages.items():
                sparse_s = sparse_rec.stages.get(stage)
                if sparse_s is None:
                    continue
                rows.append(
                    {
                        "dataset": dataset,
                        "partitions": k,
                        "backend": backend,
                        "stage": stage,
                        "loop_s": loop_s,
                        "sparse_s": sparse_s,
                        "speedup": (loop_s / sparse_s) if sparse_s > 0 else None,
                    }
                )
        return rows

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": SCHEMA,
                "metadata": self.metadata,
                "results": [asdict(r) for r in self.records],
                "engine_speedups": self.engine_speedups(),
            },
            indent=2,
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    def summary_table(self) -> str:
        serial_wall = {
            (r.dataset, r.partitions, r.engine): r.stage_s
            for r in self.records
            if r.backend == "serial"
        }
        loop_trim = {
            (r.dataset, r.partitions, r.backend): r.stages.get("trim_total")
            for r in self.records
            if r.engine == "loop"
        }
        rows = []
        for r in self.records:
            base = serial_wall.get((r.dataset, r.partitions, r.engine))
            speedup = f"{base / r.stage_s:.2f}x" if base and r.stage_s > 0 else "-"
            loop_s = loop_trim.get((r.dataset, r.partitions, r.backend))
            trim = r.stages.get("trim_total")
            vs_loop = "-"
            if r.engine == "sparse" and loop_s and trim and trim > 0:
                vs_loop = f"{loop_s / trim:.2f}x"
            rows.append(
                [
                    r.dataset,
                    r.partitions,
                    r.backend,
                    r.engine,
                    f"{r.stage_s:.3f}",
                    r.time_kind,
                    r.n_contigs,
                    r.n50,
                    speedup,
                    vs_loop,
                ]
            )
        return format_table(
            [
                "Dataset",
                "k",
                "Backend",
                "Engine",
                "Stage (s)",
                "Clock",
                "Contigs",
                "N50",
                "vs serial",
                "trim vs loop",
            ],
            rows,
        )


def _stage_total(stage_times: dict[str, float]) -> float:
    """Sum of the distributed stages, skipping the trim_total rollup."""
    return sum(v for k, v in stage_times.items() if k != "trim_total")


def _contig_key(contigs: list[np.ndarray]) -> list[bytes]:
    return sorted(c.tobytes() for c in contigs)


def _resolve_engines(engine: str) -> tuple[str, ...]:
    if engine == "both":
        return ENGINES
    if engine in ENGINES:
        return (engine,)
    raise ValueError(f"unknown engine {engine!r}")


def bench_dataset(
    dataset: BenchDataset,
    partitions: tuple[int, ...] = DEFAULT_PARTITIONS,
    workers: int = 0,
    repeats: int = 2,
    engines: tuple[str, ...] = ENGINES,
) -> tuple[list[FinishBenchRecord], bool]:
    """Time every backend x engine on one read dataset.

    ``prepare`` (preprocess/align/graph build) runs once; each
    (partitions, backend, engine) cell then re-runs ``finish``
    ``repeats`` times and reports its best distributed-stage time.
    Returns the records plus an all-cells-agree flag (byte-identical
    sorted contig sets within every partition count).
    """
    config = AssemblyConfig(backend_workers=workers)
    assembler = FocusAssembler(config)
    prep = assembler.prepare(dataset.reads)
    n_nodes = int(prep.assembly.graph.n_nodes)

    records: list[FinishBenchRecord] = []
    agree = True
    for k in partitions:
        keys: list[list[bytes]] = []
        for backend in BACKENDS:
            for engine in engines:
                best: FinishBenchRecord | None = None
                for _ in range(max(1, repeats)):
                    result = assembler.finish(
                        prep, n_partitions=k, backend=backend, engine=engine
                    )
                    stage_s = _stage_total(result.virtual_times)
                    if best is None or stage_s < best.stage_s:
                        best = FinishBenchRecord(
                            dataset=dataset.name,
                            backend=backend,
                            partitions=k,
                            stage_s=stage_s,
                            time_kind=result.time_kind,
                            stages=dict(result.virtual_times),
                            n_contigs=result.stats.n_contigs,
                            n50=result.stats.n50,
                            workers=workers if backend == "process" else 1,
                            engine=engine,
                            n_nodes=n_nodes,
                        )
                assert best is not None
                records.append(best)
                keys.append(_contig_key(result.contigs))
        agree = agree and all(key == keys[0] for key in keys[1:])
    return records, agree


def _run_scale_cell(
    scale: FinishScaleAssembly,
    labels: np.ndarray,
    backend: str,
    engine: str,
    workers: int,
) -> tuple[dict[str, float], str, list[np.ndarray]]:
    """One finish pass of a synthetic assembly on one backend/engine."""
    dag = DistributedAssemblyGraph(scale.assembly, labels)
    runner = create_backend(backend, dag, workers=workers, engine=engine)
    stage_times: dict[str, float] = {}
    try:
        for name, params in _SCALE_TRIM_SEQUENCE:
            out = runner.run_stage(name, **params)
            stage_times[name] = out.elapsed
        stage_times["trim_total"] = sum(
            stage_times[name] for name, _ in _SCALE_TRIM_SEQUENCE
        )
        out = runner.run_stage("traversal")
        stage_times["traversal"] = out.elapsed
        paths = out.result
    finally:
        runner.close()
    contigs = contigs_from_paths(dag, paths)
    return stage_times, runner.time_kind, contigs


def bench_finish_scale(
    scale: FinishScaleAssembly,
    partitions: tuple[int, ...] = DEFAULT_PARTITIONS,
    workers: int = 0,
    repeats: int = 2,
    engines: tuple[str, ...] = ENGINES,
) -> tuple[list[FinishBenchRecord], bool]:
    """Time every backend x engine on one synthetic finish-scale graph.

    The S-datasets have no reads, so the finish stages are driven
    through :func:`~repro.parallel.backend.create_backend` directly
    with block partition labels and the AssemblyConfig default stage
    parameters.  Semantics (records, best-of-repeats, agree flag)
    match :func:`bench_dataset`.
    """
    records: list[FinishBenchRecord] = []
    agree = True
    for k in partitions:
        labels = scale.labels(k)
        keys: list[list[bytes]] = []
        for backend in BACKENDS:
            for engine in engines:
                best: FinishBenchRecord | None = None
                for _ in range(max(1, repeats)):
                    stage_times, time_kind, contigs = _run_scale_cell(
                        scale, labels, backend, engine, workers
                    )
                    stage_s = _stage_total(stage_times)
                    if best is None or stage_s < best.stage_s:
                        stats = AssemblyStats.from_contigs(contigs)
                        best = FinishBenchRecord(
                            dataset=scale.name,
                            backend=backend,
                            partitions=k,
                            stage_s=stage_s,
                            time_kind=time_kind,
                            stages=stage_times,
                            n_contigs=stats.n_contigs,
                            n50=stats.n50,
                            workers=workers if backend == "process" else 1,
                            engine=engine,
                            n_nodes=scale.n_nodes,
                        )
                assert best is not None
                records.append(best)
                keys.append(_contig_key(contigs))
        agree = agree and all(key == keys[0] for key in keys[1:])
    return records, agree


def process_gate_enforced(cpu_count: int | None) -> bool:
    """Whether the process-vs-serial gate is binding on this host."""
    return (cpu_count or 1) >= PROCESS_GATE_MIN_CORES


def regression_failures(records: list[FinishBenchRecord]) -> list[str]:
    """Cells where the process backend is slower than the serial loop.

    Same-engine comparison.  Pure record inspection — callers decide
    whether the host has enough cores for the result to gate (see
    :func:`process_gate_enforced`).
    """
    walls: dict[tuple[str, int, str, str], float] = {
        (r.dataset, r.partitions, r.backend, r.engine): r.stage_s
        for r in records
    }
    failures = []
    for (dataset, k, backend, engine), wall in sorted(walls.items()):
        if backend != "process" or k < PROCESS_GATE_PARTITIONS:
            continue
        serial_wall = walls.get((dataset, k, "serial", engine))
        if serial_wall is not None and wall > serial_wall:
            failures.append(
                f"{dataset}@k={k}/{engine}: process ({wall:.3f}s) slower "
                f"than serial ({serial_wall:.3f}s)"
            )
    return failures


def sparse_regression_failures(records: list[FinishBenchRecord]) -> list[str]:
    """Cells where the sparse engine lost to the loop engine on trimming.

    Only graphs with at least ``SPARSE_GATE_MIN_NODES`` nodes gate —
    the engine's contract is asymptotic, not constant-factor.
    """
    trims: dict[tuple[str, int, str, str], tuple[float, int]] = {
        (r.dataset, r.partitions, r.backend, r.engine): (
            r.stages.get("trim_total", 0.0),
            r.n_nodes,
        )
        for r in records
    }
    failures = []
    for (dataset, k, backend, engine), (trim, n_nodes) in sorted(trims.items()):
        if engine != "sparse" or n_nodes < SPARSE_GATE_MIN_NODES:
            continue
        loop = trims.get((dataset, k, backend, "loop"))
        if loop is not None and trim > loop[0]:
            failures.append(
                f"{dataset}@k={k}/{backend}: sparse trim ({trim:.3f}s) "
                f"slower than loop ({loop[0]:.3f}s)"
            )
    return failures


def run_finish_bench(
    datasets: list[BenchDataset | FinishScaleAssembly] | None = None,
    partitions: tuple[int, ...] = DEFAULT_PARTITIONS,
    workers: int = 0,
    repeats: int = 2,
    engine: str = "both",
) -> tuple[FinishBenchReport, bool]:
    """Bench all backends/engines on all datasets; returns (report, agree)."""
    engines = _resolve_engines(engine)
    if datasets is None:
        datasets = [
            d
            for d in [*standard_datasets(), *finish_scale_assemblies()]
            if d.name in DEFAULT_DATASETS
        ]
    cpu_count = os.cpu_count()
    report = FinishBenchReport(
        metadata={
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": cpu_count,
            "workers": workers,
            "partitions": list(partitions),
            "repeats": repeats,
            "engines": list(engines),
            "process_gate_enforced": process_gate_enforced(cpu_count),
            "process_gate_min_cores": PROCESS_GATE_MIN_CORES,
            "sparse_gate_min_nodes": SPARSE_GATE_MIN_NODES,
        }
    )
    agree = True
    for dataset in datasets:
        if isinstance(dataset, FinishScaleAssembly):
            records, dataset_agree = bench_finish_scale(
                dataset,
                partitions=partitions,
                workers=workers,
                repeats=repeats,
                engines=engines,
            )
        else:
            records, dataset_agree = bench_dataset(
                dataset,
                partitions=partitions,
                workers=workers,
                repeats=repeats,
                engines=engines,
            )
        report.records.extend(records)
        agree = agree and dataset_agree
    return report, agree


def main(
    output: str = DEFAULT_OUTPUT,
    workers: int = 0,
    partitions: tuple[int, ...] = DEFAULT_PARTITIONS,
    dataset_names: list[str] | None = None,
    stream=None,
    engine: str = "both",
) -> int:
    """CLI entry point for ``repro bench finish``.

    Exit codes: 0 ok; 1 a perf gate failed (process slower than serial
    at gated partition counts on a multi-core host, or sparse slower
    than loop on a gate-sized graph); 2 backends/engines disagreed on
    contigs (results written either way).
    """
    stream = stream or sys.stdout
    available: list[BenchDataset | FinishScaleAssembly] = [
        *standard_datasets(),
        *finish_scale_assemblies(),
    ]
    wanted = set(dataset_names) if dataset_names else set(DEFAULT_DATASETS)
    unknown = wanted - {d.name for d in available}
    if unknown:
        print(f"error: unknown datasets {sorted(unknown)}", file=sys.stderr)
        return 2
    datasets = [d for d in available if d.name in wanted]
    report, agree = run_finish_bench(
        datasets, partitions=partitions, workers=workers, engine=engine
    )
    report.write(output)
    print(report.summary_table(), file=stream)
    print(f"wrote {len(report.records)} records to {output}", file=stream)
    if not agree:
        print("FAIL: backends/engines disagree on contigs", file=stream)
        return 2
    exit_code = 0
    failures = regression_failures(report.records)
    if failures:
        if process_gate_enforced(os.cpu_count()):
            print("FAIL: " + "; ".join(failures), file=stream)
            exit_code = 1
        else:
            print(
                "note: process gate skipped (single-core host): "
                + "; ".join(failures),
                file=stream,
            )
    sparse_failures = sparse_regression_failures(report.records)
    if sparse_failures:
        print("FAIL: " + "; ".join(sparse_failures), file=stream)
        exit_code = 1
    return exit_code
