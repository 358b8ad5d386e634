"""End-to-end Focus assembly benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload metagenome --seed 101 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 101 --seconds 30 --trace 0

One run of a workload:

1. **Set-up** (``setup_s``): generate the workload's inputs from the
   seed and write them (pickle, FASTQ or sharded store) three times,
   then compute the reference contig digest of every input with a
   plain single-threaded in-RAM run (``backend="serial"``).
   ``setup_s`` is the median input preparation plus the reference run.
2. **Timed samples**: until ``--seconds`` have passed (at least one),
   run the workload's assembly in a fresh process and record wall
   time, CPU time and peak RSS.  Every sample's contigs must match the
   reference digest; a mismatch, an exception or a job that does not
   end ``done`` counts as a failed attempt and makes the exit code 1.
3. **Traced samples** (``--trace 1``): pairs of an untraced and a
   traced sample.  The traced one wraps the program's module
   attributes from outside (``perfbench/spans.py``) and yields the
   per-layer metrics; their difference in ``assemble_s`` is the
   tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it are a
human-readable table (metric, unit, median, sample count) and the
host metadata.  Everything the run writes stays under
``.perfbench_work/`` in the repository root; per-run results (with the
span trace of traced runs) are kept in ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import workloads as wl
from spans import FINISH_STAGES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

#: input preparations per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: seconds one sample may take before it is killed and counted failed.
SAMPLE_TIMEOUT = 150.0

#: end-to-end metrics in the result line: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "assemble_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}
#: end-to-end metrics printed in the table only: deterministic
#: functions of the contigs that vary with the input seed (see
#: perfbench/README.md, "Why quality is gated, not bounded").
TABLE_ONLY = {
    "genome_fraction": "fraction",
    "n50_bp": "bp",
    "misassembled_contigs": "count",
    "failed_frac": "fraction",
}

#: per-layer metrics of ``--trace 1``: name -> unit.  A layer a
#: workload bypasses reports 0; a layer it runs must fire its spans.
PER_LAYER = {
    "align.s": "s",
    "align.candidates": "count",
    "align.overlaps": "count",
    "align.yield": "ratio",
    "core.dedupe_s": "s",
    "core.dedupe_in": "count",
    "core.dedupe_kept": "count",
    "core.mapper_builds": "count",
    "core.mapper_builds_per_kept": "ratio",
    "graph.from_overlaps_s": "s",
    "graph.g0_edges": "count",
    "graph.coarsen_s": "s",
    "graph.levels": "count",
    "graph.hybrid_s": "s",
    "graph.hybrid_nodes": "count",
    "graph.layout_calls": "count",
    "graph.layout_s": "s",
    "distributed.enrich_s": "s",
    "distributed.contigs_from_paths_s": "s",
    "distributed.paths": "count",
    "io.preprocess_s": "s",
    "io.reads_out": "count",
    "store.open_s": "s",
    "store.derived_pack_s": "s",
    "store.cache_hits": "count",
    "store.cache_misses": "count",
    "store.cache_evictions": "count",
    "store.cache_hit_rate": "ratio",
    "parallel.create_backend_s": "s",
    **{f"parallel.stage_s.{s}": "s" for s in FINISH_STAGES},
    **{f"parallel.edges_removed.{s}": "count" for s in FINISH_STAGES},
    "parallel.align_pool_tasks": "count",
    "parallel.retries": "count",
    "parallel.fallbacks": "count",
    "service.queue_wait_s": "s",
    "service.spawn_s": "s",
    "service.prepare_s": "s",
    "service.finish_s": "s",
    "service.contigs_s": "s",
    "service.checkpoints": "count",
    "service.attempts": "count",
    "service.supervisor_passes": "count",
    "partition.s": "s",
    "partition.cut_g0": "weight",
    "mpi.virtual_trim_s": "s",
    "quality.genome_fraction": "fraction",
    "quality.n50_bp": "bp",
    "quality.misassembled_contigs": "count",
    "trace.overhead_s": "s",
}


def host_info() -> dict:
    import numpy
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "ram_gb": round(ram / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Runner:
    """Runs sample children for one workload run inside ``workdir``."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.count = 0
        self.live: set = set()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )

    def start(self, job: dict):
        self.count += 1
        base = os.path.join(self.workdir, f"sample{self.count}")
        job = dict(job, out=base + ".out.json")
        with open(base + ".job.json", "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        log = open(base + ".log", "wb")
        proc = subprocess.Popen(
            [sys.executable, CHILD, base + ".job.json"],
            env=self.env,
            cwd=ROOT,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.live.add(proc)
        return proc, log, job["out"], base + ".log"

    def wait(self, started) -> dict:
        proc, log, out, log_path = started
        try:
            proc.wait(timeout=SAMPLE_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        finally:
            self.stop(proc)
            log.close()
        try:
            with open(out, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            return {"error": f"sample exited {proc.returncode} without a result:\n{tail}"}

    def stop(self, proc) -> None:
        """Kill the sample's session (its pool or service workers too)
        and reap the sample."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        self.live.discard(proc)

    def stop_all(self) -> None:
        for proc in list(self.live):
            self.stop(proc)

    def run(self, *jobs: dict) -> list[dict]:
        """Run the jobs concurrently and wait for all of them."""
        started = [self.start(job) for job in jobs]
        return [self.wait(s) for s in started]


def evaluate(contigs, references) -> dict:
    from repro.analysis.accuracy import evaluate_assembly
    from repro.core.stats import AssemblyStats

    report = evaluate_assembly(contigs, references)
    return {
        "genome_fraction": report.genome_fraction,
        "n50_bp": AssemblyStats.from_contigs(contigs).n50,
        "misassembled_contigs": report.n_misassembled,
        "contigs": len(contigs),
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    inject_mismatch: bool = False,
) -> dict:
    """One benchmark run of one workload; returns its full record."""
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"run-{workload}-{seed}-{os.getpid()}-{time.time_ns()}")
    runner = Runner(workdir)
    errors: list[str] = []
    prep_s: list[float] = []
    prepared: list[list] = []
    reference_digests: list[str] = []
    quality: list[dict] = []
    timed: list[dict] = []
    traced: list[dict] = []
    ref_s = 0.0
    attempted = failed = 0

    def prepare() -> list:
        t0 = time.perf_counter()
        inputs = wl.make_inputs(
            workload, seed, size, os.path.join(workdir, f"inputs{len(prepared)}")
        )
        prep_s.append(time.perf_counter() - t0)
        prepared.append(inputs)
        return inputs

    started = 0

    def sample_job(with_trace: bool) -> dict:
        nonlocal started
        job = {"workload": workload, "role": "timed", "trace": with_trace}
        if workload == "store-process":
            # A fresh store per sample: derived trim/RC stores left by
            # an earlier sample would drop their build time.
            inputs = prepared[started] if started < len(prepared) else prepare()
            job["store"] = inputs[0].store
        elif workload == "service":
            job["fastqs"] = [inp.fastq for inp in prepared[0]]
            job["jobstore"] = os.path.join(workdir, f"jobs{started}")
        else:
            job["reads_pickle"] = prepared[0][0].reads_pickle
        started += 1
        return job

    def check(result: dict, sink: list) -> None:
        nonlocal attempted, failed
        if "error" in result:
            attempted += len(reference_digests)
            failed += len(reference_digests)
            errors.append(result["error"])
            return
        sink.append(result)
        for ref, got, state in zip(reference_digests, result["digests"], result["states"]):
            attempted += 1
            if state != "done" or got != ref:
                failed += 1
                errors.append(f"job ended {state!r}, digest {got} != reference {ref}")

    try:
        for _ in range(SETUP_REPS):
            prepare()
        t0 = time.perf_counter()
        refs = runner.run(*(
            {
                "workload": workload,
                "role": "reference",
                "trace": False,
                "reads_pickle": inp.reads_pickle,
                "contigs_out": os.path.join(workdir, f"{inp.label}.ref.pkl"),
            }
            for inp in prepared[0]
        ))
        ref_s = time.perf_counter() - t0
        for inp, ref in zip(prepared[0], refs):
            if "error" in ref:
                raise RuntimeError(f"reference run of {inp.label} failed:\n{ref['error']}")
            reference_digests.append("0" * 64 if inject_mismatch else ref["digests"][0])
            with open(os.path.join(workdir, f"{inp.label}.ref.pkl"), "rb") as fh:
                quality.append(evaluate(pickle.load(fh), inp.references))
            errors.extend(wl.quality_violations(workload, size, inp.label, quality[-1]))

        t_measure = time.perf_counter()
        while started == 0 or time.perf_counter() - t_measure < seconds:
            check(runner.run(sample_job(False))[0], timed)
            if trace:
                check(runner.run(sample_job(True))[0], traced)
    except Exception:  # noqa: BLE001 - the run fails with its traceback on record
        errors.append(traceback.format_exc())
    finally:
        runner.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)

    table: dict[str, tuple] = {}
    if prep_s:
        table["setup_s"] = (statistics.median(prep_s) + ref_s, "s", len(prep_s))
    for key in ("assemble_s", "cpu_s", "peak_rss_mb"):
        if timed:
            table[key] = (_median(key, timed), END_TO_END[key], len(timed))
    if quality:
        for key in ("genome_fraction", "n50_bp"):
            table[key] = (statistics.fmean(q[key] for q in quality), TABLE_ONLY[key], len(quality))
        table["misassembled_contigs"] = (
            sum(q["misassembled_contigs"] for q in quality),
            TABLE_ONLY["misassembled_contigs"],
            len(quality),
        )
    table["failed_frac"] = (
        failed / attempted if attempted else 1.0, TABLE_ONLY["failed_frac"], attempted
    )

    record = {
        "workload": workload,
        "seed": seed,
        "input_seeds": wl.input_seeds(workload, seed),
        "size": size,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "reference_digests": reference_digests,
        "quality": quality,
        "setup": {"prep_s": prep_s, "reference_s": ref_s},
        "samples": [{k: r[k] for k in ("assemble_s", "cpu_s", "peak_rss_mb")} for r in timed],
        "table": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in table.items()},
    }
    if trace:
        layers = dict.fromkeys(PER_LAYER, 0.0)
        for name in PER_LAYER:
            values = [t["layers"][name] for t in traced if name in t["layers"]]
            if values:
                layers[name] = statistics.median(values)
        if timed and traced:
            layers["trace.overhead_s"] = _median("assemble_s", traced) - _median("assemble_s", timed)
        if quality:
            for key in ("genome_fraction", "n50_bp"):
                layers[f"quality.{key}"] = table[key][0]
            layers["quality.misassembled_contigs"] = table["misassembled_contigs"][0]
        record["layers"] = layers
        if traced and "spans" in traced[0]:
            record["spans"] = traced[0]["spans"]
            record["self_s"] = traced[0]["self_s"]
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": table[k][0], "unit": u} for k, u in END_TO_END.items() if k in table}
    complete = len(metrics) == (len(PER_LAYER) if trace else len(END_TO_END))
    record["result"] = {
        "correct": not errors and failed == 0 and attempted > 0 and complete,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }
    return record


def _median(key: str, rows: list[dict]) -> float:
    return statistics.median(r[key] for r in rows)


def print_record(record: dict) -> None:
    print(
        f"== {record['workload']} seed={record['seed']} "
        f"input_seeds={record['input_seeds']} size={record['size']} "
        f"trace={int(record['trace'])} attempted={record['attempted']} "
        f"failed={record['failed']}"
    )
    print(f"{'metric':<34} {'unit':<9} {'median':>14} {'n':>4}")
    for name, row in record["table"].items():
        print(f"{name:<34} {row['unit']:<9} {row['value']:>14.6g} {row['n']:>4}")
    if record["trace"]:
        for name, value in record["layers"].items():
            print(f"{name:<34} {PER_LAYER[name]:<9} {value:>14.6g}")
        if "self_s" in record:
            print("self time per span (s):")
            for name, value in sorted(record["self_s"].items(), key=lambda kv: -kv[1]):
                print(f"  {name:<32} {value:>10.4f}")
    for err in record["errors"][:3]:
        print(f"error: {err.strip().splitlines()[-1] if err.strip() else err}")


def save_record(record: dict, host: dict) -> None:
    out_dir = os.path.join(WORK, "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{record['workload']}-s{record['seed']}-t{int(record['trace'])}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(dict(record, host=host), fh, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=wl.SIZES, default="full",
        help="'smoke' shrinks every input (for the benchmark's own tests)",
    )
    parser.add_argument(
        "--inject-mismatch", action="store_true",
        help="replace the reference digests with a wrong one (tests the gate)",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # A terminated run still stops its samples (see run_workload's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    host = host_info()
    print("host " + json.dumps(host, sort_keys=True))
    records = []
    for name in names:
        record = run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.size, args.inject_mismatch
        )
        save_record(record, host)
        print_record(record)
        records.append(record)

    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{k}": v
                for r in records
                for k, v in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
