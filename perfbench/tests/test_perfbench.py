"""Tests of the benchmark itself, on small ("smoke") inputs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest
import workloads
from conftest import BENCH, ROOT

RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, RUN, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def smoke(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    code, lines = run_bench(
        "--workload", workload, "--seed", "7", "--seconds", "0",
        "--trace", str(trace), "--size", "smoke", *extra,
    )
    return code, json.loads(lines[-1])


def test_benchmark_json_lists_the_emitted_metrics():
    import run

    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_end_to_end_metrics(workload):
    code, result = smoke(workload, 0)
    assert code == 0, result
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["metagenome", "store-process", "service"])
def test_smoke_traced_run_reports_per_layer_metrics(workload):
    code, result = smoke(workload, 1)
    assert code == 0, result
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "service":
        assert values["service.checkpoints"] > 0
        assert values["service.spawn_s"] > 0
    else:
        assert values["align.candidates"] > 0
        assert values["core.mapper_builds"] > 0
    if workload == "store-process":
        assert values["store.cache_misses"] > 0
        assert values["parallel.align_pool_tasks"] == 10


def test_wrong_reference_digest_counts_as_failure():
    code, result = smoke("metagenome", 0, "--inject-mismatch")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_missing_span_fails_the_traced_run(tmp_path, monkeypatch):
    import child
    import spans

    inputs = workloads.make_inputs("metagenome", 3, "smoke", str(tmp_path))
    job = {
        "workload": "metagenome",
        "role": "timed",
        "trace": True,
        "reads_pickle": inputs[0].reads_pickle,
    }
    assert "layers" in child.run_assembly(job)
    monkeypatch.setattr(
        spans, "expected_spans", lambda workload: ("align", "graph.never_called")
    )
    with pytest.raises(spans.MissingSpanError, match="graph.never_called"):
        child.run_assembly(job)


def test_probes_restore_the_program():
    import repro.core.focus as focus
    import spans

    before = focus.deduplicate_contigs
    with spans.patched(spans.probes(spans.Tracer())):
        assert focus.deduplicate_contigs is not before
    assert focus.deduplicate_contigs is before


def test_self_time_subtracts_child_spans():
    import spans

    records = [
        {"id": 0, "name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert spans.self_times(records) == {"a": 6.0, "b": 4.0}


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "metagenome",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
