"""One benchmark sample, in a fresh interpreter.

``python3 perfbench/child.py JOB.json`` runs one assembly (or one
service makespan) described by the job file and writes its result
JSON to ``job["out"]``.  Each sample gets its own process because
``ru_maxrss`` never falls: the peak of one sample must not inherit the
peak of the one before it.  Exit code 0 means a result was written;
anything else is a failed sample.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import sys
import time
import traceback
from contextlib import nullcontext

import spans as tracing
import workloads


def _usage() -> tuple:
    return (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN),
    )


def _cpu(before: tuple, after: tuple) -> float:
    return sum(
        (a.ru_utime - b.ru_utime) + (a.ru_stime - b.ru_stime)
        for b, a in zip(before, after)
    )


def _peak_mb(after: tuple) -> float:
    # Linux reports ru_maxrss in KiB.
    return max(u.ru_maxrss for u in after) / 1024.0


def run_assembly(job: dict) -> dict:
    from repro.core.focus import FocusAssembler

    workload, role = job["workload"], job["role"]
    config = workloads.assembly_config(workload, role, job.get("store"))
    reads = None
    if config.store_path is None:
        with open(job["reads_pickle"], "rb") as fh:
            reads = pickle.load(fh)
    assembler = FocusAssembler(config)
    tracer = tracing.Tracer() if job["trace"] else None
    probes = tracing.patched(tracing.probes(tracer)) if tracer else nullcontext()

    before = _usage()
    t0 = time.perf_counter()
    with probes:
        result = assembler.assemble(reads)
    elapsed = time.perf_counter() - t0
    after = _usage()

    out = {
        "assemble_s": elapsed,
        "cpu_s": _cpu(before, after),
        "peak_rss_mb": _peak_mb(after),
        "digests": [workloads.contig_digest(result.contigs)],
        "states": ["done"],
    }
    if job.get("contigs_out"):
        with open(job["contigs_out"], "wb") as fh:
            pickle.dump(list(result.contigs), fh)
    if tracer is not None:
        tracing.check_expected(tracer.spans, tracing.expected_spans(workload))
        layers = tracing.layer_metrics(tracer.spans, tracer.caches)
        if result.time_kind == "virtual":
            if "trim_total" not in result.virtual_times:
                raise tracing.MissingSpanError("sim backend reported no trim_total")
            layers["mpi.virtual_trim_s"] = float(result.virtual_times["trim_total"])
        out["layers"] = layers
        out["spans"] = tracer.spans
        out["self_s"] = tracing.self_times(tracer.spans)
    return out


def run_service(job: dict) -> dict:
    """Two clients submit one FASTQ job each; two workers drain them."""
    from repro.io.fasta import parse_fasta
    from repro.service import JobSpec, JobStore, Supervisor

    store = JobStore(job["jobstore"], create=True)
    before = _usage()
    t0 = time.perf_counter()
    ids = [
        store.submit(JobSpec(name=f"client{i}", reads_path=path)).job_id
        for i, path in enumerate(job["fastqs"])
    ]
    supervisor = Supervisor(store, max_workers=2)
    try:
        passes = supervisor.run(drain=True, max_seconds=150.0)
    finally:
        supervisor.shutdown(kill=True)
    elapsed = time.perf_counter() - t0
    after = _usage()

    states, digests = [], []
    for job_id in ids:
        state = store.load_record(job_id).state
        states.append(state)
        digest = None
        if state == "done":
            contigs = [r.codes for r in parse_fasta(store.contigs_path(job_id))]
            digest = workloads.contig_digest(contigs)
        digests.append(digest)
    out = {
        "assemble_s": elapsed,
        "cpu_s": _cpu(before, after),
        "peak_rss_mb": _peak_mb(after),
        "digests": digests,
        "states": states,
    }
    if job["trace"]:
        journals = [store.journal(job_id) for job_id in ids]
        out["layers"] = tracing.service_metrics(journals, passes)
    return out


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    try:
        if job["workload"] == "service" and job["role"] == "timed":
            out = run_service(job)
        else:
            out = run_assembly(job)
    except Exception:  # noqa: BLE001 - reported to the parent as a failed sample
        out = {"error": traceback.format_exc()}
    tmp = job["out"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    os.replace(tmp, job["out"])
    return 1 if "error" in out else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
