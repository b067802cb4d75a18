"""Smoke runs of the certification benchmark.

Run from the repository root: ``python -m pytest -q perfbench/test_perfbench.py``
(about a minute).  Each test runs ``run.py`` as a command, like any caller,
with a one-second measured phase.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}


def bench(workload, trace=0, seconds=1):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    digests = [line.rsplit(" ", 1)[-1] for line in lines if "determinism digest" in line]
    return result, digests[0], lines


@pytest.mark.parametrize("workload", ["cold_serial", "cold_parallel"])
def test_cold_workloads_are_correct_and_repeat(workload):
    first, first_digest, _ = bench(workload)
    again, again_digest, _ = bench(workload)
    for result in (first, again):
        assert result["correct"], result
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == END_TO_END
        assert result["metrics"]["decided_frac"]["value"] == 1.0
    # Same seed: same verdicts and the same counters, run to run.
    assert first_digest == again_digest


def test_traced_run_attributes_wall_time():
    result, _, _ = bench("cold_serial", trace=1)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert result["correct"]
    assert set(metrics) == PER_LAYER
    assert metrics["unknown_frac"] == 0
    assert abs(metrics["trace.self_sum_s"] / metrics["trace.wall_s"] - 1) < 0.05
    assert metrics["symbex.paths_explored"] > 0 and metrics["smt.sat_core_calls"] > 0


def test_churn_stream_is_correct_and_reports_every_metric():
    result, _, lines = bench("churn_stream", seconds=2)
    assert result["correct"], [line for line in lines if line.startswith("FAIL")]
    assert set(result["metrics"]) == END_TO_END
    assert result["attempted"] >= 1
    assert result["metrics"]["pipelines_per_s"]["value"] > 0


@pytest.mark.xfail(
    strict=True,
    reason="the verdict store reuses a router's reachability verdict for its renamed "
    "copy, but the property exempts elements by name, so the renamed copy is violated",
)
def test_rename_edit_verdicts_are_correct(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import catalogs
    from oracle import Oracle
    from repro.orchestrator import QueryStore, SummaryStore, VerdictStore, recertify

    stores = {
        "store": SummaryStore(tmp_path / "summaries"),
        "verdict_store": VerdictStore(tmp_path / "verdicts"),
        "query_store": QueryStore(tmp_path / "queries"),
    }
    properties = catalogs.properties()
    fill = recertify(
        catalogs.churn_catalog(None), properties, input_lengths=catalogs.INPUT_LENGTHS, **stores
    )
    edit = catalogs.Edit("rename", 1)
    result = recertify(
        catalogs.churn_catalog(edit),
        properties,
        baseline=fill.manifest,
        input_lengths=catalogs.INPUT_LENGTHS,
        **stores,
    )
    oracle = Oracle([])
    oracle.check(
        catalogs.churn_labels(edit),
        result.report.certifications,
        lambda i: catalogs.churn_catalog(edit)[i],
    )
    assert not oracle.mismatches, oracle.mismatches


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
