#!/usr/bin/env python3
"""End-to-end certification benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload cold_serial --seed 1 --seconds 20 --trace 0

The benchmark imports the library from ``src/`` next to this directory and
drives it only through public APIs (``repro.workloads``,
``repro.dataplane.elements``, ``certify_fleet``, ``recertify``).  One
client sends requests in a closed loop: the next job or edit goes out only
after the previous one returned.  Inputs are built from ``--seed`` outside
the timed region, and every delivered verdict goes through the oracle
(``oracle.py``) outside it too.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` it carries per-layer
metrics from a separate traced run (see README.md).

Stores are created under ``.perfbench_work/`` in the repository root with
the library's default backend, and removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("cold_serial", "cold_parallel", "churn_stream")
#: Seed used while the benchmark was written; HELD_OUT_SEED was never used
#: for tuning and is the one to validate a performance claim on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
#: Churn edits whose counters are replayed for the determinism check and
#: reported as the per-layer counts.
CHURN_REFERENCE_EDITS = 16
SWEEP_PACKETS = 64
PARALLEL_WORKERS = 2
#: host_probe() time that defines reference host speed for timed metrics
#: (see at_reference_speed).
REFERENCE_PROBE_S = 0.003

#: FleetStatistics fields that must repeat exactly for a repeated request.
COUNTERS = (
    "summaries_computed",
    "paths_explored",
    "paths_merged",
    "solver_checks",
    "sat_core_calls",
    "composed_paths_checked",
    "distinct_summary_jobs",
    "element_instances",
    "verdicts_reused",
)
#: QueryCacheStatistics tiers that answer a slice question without solving.
QCACHE_HIT_TIERS = (
    "exact_hits",
    "unsat_core_hits",
    "superset_sat_hits",
    "model_reuse_hits",
    "l3_hits",
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; held-out seed for claims: {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- per-request records --------------------------------------------------------------


class Request:
    """What one certify_fleet / recertify call delivered, reduced to comparable facts."""

    def __init__(self, report, latency: float, qmetrics: Dict[str, int]) -> None:
        stats = report.statistics
        self.latency = latency
        self.certifications = report.certifications
        self.rows = [
            (c.pipeline_name, c.provenance, tuple(r.verdict for r in c.results))
            for c in report.certifications
        ]
        self.verdicts = sum(len(c.results) for c in report.certifications)
        self.undecided = sum(
            1
            for c in report.certifications
            for r in c.results
            if r.verdict not in ("proved", "violated")
        )
        self.counters = {name: getattr(stats, name) for name in COUNTERS}
        self.counters["pipelines"] = len(report.certifications)
        self.counters["qcache_slices"] = qmetrics.get("slices", 0)
        self.counters["qcache_hits"] = sum(qmetrics.get(tier, 0) for tier in QCACHE_HIT_TIERS)
        scheduler = report.scheduler
        self.scheduler = {
            "pools_forked": scheduler.pools_forked if scheduler else 0,
            "pool_lifetime_s": scheduler.pool_lifetime_seconds if scheduler else 0.0,
            "worker_busy_s": scheduler.worker_busy_seconds if scheduler else 0.0,
            "worker_idle_s": scheduler.worker_idle_seconds if scheduler else 0.0,
        }

    def facts(self) -> dict:
        """Everything a repeat of this request must reproduce exactly."""
        return {"rows": self.rows, "counters": self.counters}


def digest(requests: List[Request]) -> str:
    material = json.dumps([request.facts() for request in requests], sort_keys=True)
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def percentile_tail(latencies: List[float]):
    """Latency at the highest percentile with at least 10 samples beyond it.

    Returns (latency, percentile).  With 10 samples or fewer no percentile
    qualifies, and the maximum is returned as p100.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    index = count - 11 if count > 10 else count - 1
    return ordered[index], 100.0 * (index + 1) / count


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes: a gauge of the host's current speed."""
    started = time.perf_counter()
    total = 0
    for value in range(40000):
        total += value * value % 7
    return time.perf_counter() - started


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """A duration rescaled to REFERENCE_PROBE_S host speed.

    The host this benchmark was built on changes speed by up to 40% within
    a minute.  Each timed set-up and request is bracketed by two probes,
    and its duration is scaled by REFERENCE_PROBE_S over their mean.
    """
    return seconds * 2 * REFERENCE_PROBE_S / (before + after)


# -- the two request streams ----------------------------------------------------------
# ``catalogs`` and ``repro`` are imported inside functions: main() puts
# ../src on the path only after checking that it exists.


class ColdStream:
    """Independent cold jobs, cycling through one seeded cycle of catalogs."""

    #: Set-up runs this often and reports its median (see README.md).
    SETUP_REPEATS = 5

    def __init__(self, seed: int, workers: int, work: Path) -> None:
        self.seed = seed
        self.workers = workers
        self.work = work
        self.sent = 0

    def setup(self) -> None:
        """Build the inputs, then send one untimed warm-up job.

        The warm-up finishes the library's lazy per-process set-up, which
        users pay once per process, not once per job.  It is the cycle's job
        with the largest ``max_options``, so its cost does not vary by seed.
        """
        import catalogs
        from repro.orchestrator import certify_fleet

        self.jobs = catalogs.cold_jobs(self.seed)
        self.sweep = catalogs.sweep_packets(self.seed, SWEEP_PACKETS)
        self.properties = catalogs.properties()
        heaviest = max(range(len(self.jobs)), key=lambda i: self.jobs[i].max_options)
        self.request(heaviest, certify_fleet)

    @property
    def block(self) -> int:
        return len(self.jobs)

    def request(self, position: int, certify: Callable) -> Request:
        """Send job ``position`` (mod the cycle) against fresh stores."""
        import catalogs
        from repro.orchestrator import QueryStore

        job = self.jobs[position % len(self.jobs)]
        pipelines = [pipeline for _label, pipeline in job.catalog()]
        root = self.work / f"job-{self.sent}"
        self.sent += 1
        started = time.perf_counter()
        report = certify(
            pipelines,
            self.properties,
            input_lengths=catalogs.INPUT_LENGTHS,
            workers=self.workers,
            store=str(root / "summaries"),
            verdict_store=str(root / "verdicts"),
            query_store=str(root / "queries"),
        )
        latency = time.perf_counter() - started
        request = Request(report, latency, QueryStore(root / "queries").load_metrics())
        shutil.rmtree(root)
        return request

    def check(self, oracle, position: int, request: Request) -> None:
        job = self.jobs[position % len(self.jobs)]
        labels = [label for label, _pipeline in job.catalog()]
        oracle.check(labels, request.certifications, lambda i: job.catalog()[i][1])


class ChurnStream:
    """Single operator edits re-certified against warm persistent stores."""

    STREAM_LENGTH = 5000
    SETUP_REPEATS = 5

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.fills = 0

    def setup(self) -> None:
        import catalogs
        from repro.orchestrator import recertify

        self.edits = catalogs.churn_stream(self.seed, self.STREAM_LENGTH)
        self.properties = catalogs.properties()
        self.sweep = catalogs.sweep_packets(self.seed, SWEEP_PACKETS)
        root = self.work / f"fill-{self.fills}"
        self.fills += 1
        self._open(root)
        self.fill = recertify(
            catalogs.churn_catalog(None),
            self.properties,
            input_lengths=catalogs.INPUT_LENGTHS,
            **self.stores,
        )
        self.root = root

    @property
    def block(self) -> int:
        return CHURN_REFERENCE_EDITS

    def _open(self, root: Path) -> None:
        from repro.orchestrator import QueryStore, SummaryStore, VerdictStore

        self.stores = {
            "store": SummaryStore(root / "summaries"),
            "verdict_store": VerdictStore(root / "verdicts"),
            "query_store": QueryStore(root / "queries"),
        }
        self.manifest = None

    def freeze(self) -> None:
        """Keep a copy of the filled stores for replaying the stream's head."""
        self.snapshot = self.work / "snapshot"
        shutil.copytree(self.root, self.snapshot)

    def check_fill(self, oracle) -> None:
        import catalogs

        oracle.check(
            catalogs.churn_labels(None),
            self.fill.report.certifications,
            lambda i: catalogs.churn_catalog(None)[i],
        )

    def restart(self) -> None:
        """Re-open a copy of the freshly filled stores, at the start of the stream."""
        root = self.work / f"replay-{self.fills}"
        self.fills += 1
        shutil.copytree(self.snapshot, root)
        self._open(root)

    def request(self, position: int, recertify: Callable) -> Request:
        import catalogs

        catalog = catalogs.churn_catalog(self.edits[position])
        baseline = self.manifest or self.fill.manifest
        before = self.stores["query_store"].load_metrics()
        started = time.perf_counter()
        result = recertify(
            catalog,
            self.properties,
            baseline=baseline,
            input_lengths=catalogs.INPUT_LENGTHS,
            **self.stores,
        )
        latency = time.perf_counter() - started
        self.manifest = result.manifest
        after = self.stores["query_store"].load_metrics()
        delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
        return Request(result.report, latency, delta)

    def check(self, oracle, position: int, request: Request) -> None:
        import catalogs

        edit = self.edits[position]
        oracle.check(
            catalogs.churn_labels(edit),
            request.certifications,
            lambda i: catalogs.churn_catalog(edit)[i],
        )


# -- runs -----------------------------------------------------------------------------


class Run:
    """One benchmark run: set-up, measured phase, oracle and determinism checks."""

    def __init__(self, args: argparse.Namespace, work: Path, import_seconds: float) -> None:
        from oracle import Oracle

        self.args = args
        self.work = work
        self.failures: List[str] = []
        if args.workload == "churn_stream":
            self.stream = ChurnStream(args.seed, work)
        else:
            workers = PARALLEL_WORKERS if args.workload == "cold_parallel" else 1
            self.stream = ColdStream(args.seed, workers, work)
        raw_setups = []
        self.setups = []
        for _ in range(self.stream.SETUP_REPEATS):
            before = host_probe()
            started = time.perf_counter()
            self.stream.setup()
            raw_setups.append(time.perf_counter() - started)
            self.setups.append(at_reference_speed(raw_setups[-1], before, host_probe()))
        self.raw_setup_seconds = statistics.median(raw_setups)
        self.import_seconds = import_seconds
        self.oracle = Oracle(self.stream.sweep)
        self.failed = 0
        if self.churn:
            self.stream.freeze()
            self._checked(lambda: self.stream.check_fill(self.oracle))

    @property
    def churn(self) -> bool:
        return isinstance(self.stream, ChurnStream)

    def _checked(self, check: Callable[[], None]) -> None:
        """Run one check; a request that adds any mismatch counts as failed."""
        before = len(self.oracle.mismatches) + len(self.failures)
        check()
        if len(self.oracle.mismatches) + len(self.failures) > before:
            self.failed += 1

    def check(self, position: int, request: Request) -> None:
        self._checked(lambda: self.stream.check(self.oracle, position, request))
        request.certifications = None  # checked: keep only the comparable facts

    def compare(self, position: int, first: Request, again: Request) -> None:
        again.certifications = None

        def same() -> None:
            if first.facts() != again.facts():
                self.failures.append(
                    f"request {position} did not repeat: {first.facts()} != {again.facts()}"
                )

        self._checked(same)

    # -- end-to-end ---------------------------------------------------------------------

    def measure(self) -> dict:
        from repro import orchestrator

        certify = orchestrator.recertify if self.churn else orchestrator.certify_fleet
        requests: List[Request] = []
        normalized: List[float] = []
        elapsed = 0.0
        # At least one reference block, so every run checks and digests it.
        while elapsed < self.args.seconds or len(requests) < self.stream.block:
            position = len(requests)
            before = host_probe()
            request = self.stream.request(position, certify)
            normalized.append(at_reference_speed(request.latency, before, host_probe()))
            elapsed += request.latency
            if self.churn or position < self.stream.block:
                self.check(position, request)
            else:
                self.compare(position, requests[position % self.stream.block], request)
            requests.append(request)
        reference = requests[: self.stream.block]
        if self.churn:
            # Replay the head of the stream against a copy of the filled
            # stores: the same edits must give the same verdicts and counters.
            self.stream.restart()
            for position, first in enumerate(reference):
                self.compare(position, first, self.stream.request(position, certify))
        latencies = [request.latency for request in requests]
        tail, tail_percentile = percentile_tail(normalized)
        verdicts = sum(request.verdicts for request in requests)
        undecided = sum(request.undecided for request in requests)
        pipelines = sum(request.counters["pipelines"] for request in requests)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(
            f"requests {len(requests)}; job_tail_s is p{tail_percentile:.1f} of "
            f"{len(latencies)} samples; determinism digest {digest(reference)}"
        )
        print(
            f"raw: setup_s {self.raw_setup_seconds:.6g}, "
            f"pipelines_per_s {pipelines / elapsed:.6g}, "
            f"job_p50_s {statistics.median(latencies):.6g}, "
            f"job_tail_s {percentile_tail(latencies)[0]:.6g}; "
            f"host at {sum(latencies) / sum(normalized):.3f}x reference time; "
            f"import {self.import_seconds:.3f} s"
        )
        self.requests = requests
        return {
            "setup_s": (statistics.median(self.setups), "s"),
            "pipelines_per_s": (pipelines / sum(normalized), "1/s"),
            "job_p50_s": (statistics.median(normalized), "s"),
            "job_tail_s": (tail, "s"),
            "decided_frac": ((verdicts - undecided) / verdicts, "ratio"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }

    # -- traced -------------------------------------------------------------------------

    def measure_traced(self) -> dict:
        from repro import orchestrator
        from spans import SpanRecorder

        certify = orchestrator.recertify if self.churn else orchestrator.certify_fleet
        recorder = SpanRecorder()
        untraced: List[Request] = []
        traced: List[Request] = []

        def traced_request(position: int) -> Request:
            with recorder:
                # Look the entry point up through the patched binding.
                entry = orchestrator.recertify if self.churn else orchestrator.certify_fleet
                return self.stream.request(position, entry)

        if self.churn:
            # The stream is stateful: run a prefix untraced, then replay the
            # same prefix traced against a copy of the same filled stores.
            elapsed = 0.0
            while elapsed < self.args.seconds / 2 or len(untraced) < self.stream.block:
                request = self.stream.request(len(untraced), certify)
                self.check(len(untraced), request)
                untraced.append(request)
                elapsed += request.latency
            self.stream.restart()
            for position, first in enumerate(untraced):
                again = traced_request(position)
                self.compare(position, first, again)
                traced.append(again)
        else:
            # Interleaved pairs over whole cycles: each job untraced, then traced.
            elapsed = 0.0
            position = 0
            while elapsed < self.args.seconds or position % self.stream.block:
                first = self.stream.request(position, certify)
                if position < self.stream.block:
                    self.check(position, first)
                else:
                    self.compare(position, untraced[position % self.stream.block], first)
                again = traced_request(position)
                self.compare(position, first, again)
                untraced.append(first)
                traced.append(again)
                elapsed += first.latency + again.latency
                position += 1

        self.requests = untraced + traced
        count = len(traced)
        reference = untraced[: self.stream.block]
        selfs = recorder.self_times()
        wall = sum(request.latency for request in traced)
        attributed = sum(selfs.values())
        counts = {
            key: sum(request.counters[key] for request in reference) / len(reference)
            for key in reference[0].counters
        }
        scheduler = {
            key: sum(request.scheduler[key] for request in traced) / count
            for key in traced[0].scheduler
        }
        verdicts = sum(request.verdicts for request in reference)
        undecided = sum(request.undecided for request in reference)
        print(
            f"traced {count} requests; self times cover {attributed / wall:.4f} of "
            f"traced wall; determinism digest {digest(reference)}"
        )

        def per_job(layer: str) -> float:
            return selfs[layer] / count

        return {
            "symbex.summarize_self_s": (per_job("symbex.summarize"), "s"),
            "symbex.summaries": (counts["summaries_computed"], "count"),
            "symbex.paths_explored": (counts["paths_explored"], "count"),
            "symbex.paths_merged": (counts["paths_merged"], "count"),
            "smt.checker_self_s": (per_job("smt.checker"), "s"),
            "smt.qcache_self_s": (per_job("smt.qcache"), "s"),
            "smt.sat_solve_s": (per_job("smt.sat_solve"), "s"),
            "smt.solver_checks": (counts["solver_checks"], "count"),
            "smt.sat_core_calls": (counts["sat_core_calls"], "count"),
            "smt.qcache_slices": (counts["qcache_slices"], "count"),
            "smt.qcache_hit_ratio": (
                counts["qcache_hits"] / counts["qcache_slices"]
                if counts["qcache_slices"]
                else 0.0,
                "ratio",
            ),
            "verify.step2_self_s": (per_job("verify.step2"), "s"),
            "verify.compose_self_s": (per_job("verify.compose"), "s"),
            "verify.composed_paths": (counts["composed_paths_checked"], "count"),
            "dataplane.fingerprint_s": (per_job("dataplane.fingerprint"), "s"),
            "dataplane.replay_s": (per_job("dataplane.replay"), "s"),
            "orchestrator.manifest_s": (per_job("orchestrator.manifest"), "s"),
            "orchestrator.fleet_self_s": (per_job("orchestrator.fleet"), "s"),
            "orchestrator.verdicts_reused_ratio": (
                counts["verdicts_reused"] / counts["pipelines"],
                "ratio",
            ),
            "orchestrator.dedup_ratio": (
                counts["distinct_summary_jobs"] / counts["element_instances"],
                "ratio",
            ),
            "orchestrator.store_read_s": (per_job("orchestrator.store_read"), "s"),
            "orchestrator.store_write_s": (per_job("orchestrator.store_write"), "s"),
            "orchestrator.store_bytes_written": (recorder.bytes_written / count, "bytes"),
            "orchestrator.pools_forked": (scheduler["pools_forked"], "count"),
            "orchestrator.pool_lifetime_s": (scheduler["pool_lifetime_s"], "s"),
            "orchestrator.worker_busy_s": (scheduler["worker_busy_s"], "s"),
            "orchestrator.worker_idle_s": (scheduler["worker_idle_s"], "s"),
            "trace.wall_s": (wall / count, "s"),
            "trace.self_sum_s": (attributed / count, "s"),
            "trace.overhead_ratio": (
                wall / sum(request.latency for request in untraced[:count]),
                "ratio",
            ),
            "unknown_frac": (undecided / verdicts, "ratio"),
            "oracle.replayed": (float(self.oracle.replayed), "count"),
            "oracle.state_dependent": (float(self.oracle.state_dependent), "count"),
            "oracle.swept_packets": (float(self.oracle.swept), "count"),
        }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro.orchestrator  # noqa: F401  (timed: printed next to setup_s)
    import catalogs  # noqa: F401
    import oracle  # noqa: F401

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_seconds = time.perf_counter() - started

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)
    try:
        run = Run(args, work, import_seconds)
        metrics = run.measure_traced() if args.trace else run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    for message in run.oracle.mismatches + run.failures:
        print(f"FAIL {message}")
    correct = not run.oracle.mismatches and not run.failures
    print(
        f"oracle: {run.oracle.replayed} counterexamples replayed, "
        f"{run.oracle.state_dependent} state-dependent ones checked by element, "
        f"{run.oracle.swept} sweep packets, {len(run.oracle.mismatches)} mismatches"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(run.requests),
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
