"""E12 — the query-optimization layer: slicing + tiered query caching.

Certifies the 8-pipeline fleet catalog three ways and checks the three
claims the layer is built on:

* **fewer SAT calls** — with independence slicing and the verdict/model/
  unsat-core cache enabled (the default), the run invokes the CDCL core
  >= 2x less often than the optimization-disabled mode, with *identical*
  certification verdicts;
* **warm L3** — re-certifying the unchanged catalog against a warm
  summary store *and* query store performs zero symbolic executions and
  **zero SAT-core calls**: every solver question is answered from the
  persistent tier, the solver-level analogue of the zero-symbex warm
  path;
* **verdict stability** — all three runs certify the same pipelines;
* **the layer pays for itself in wall time** — with no stores attached,
  the ``query_opt=False`` run takes at least as long as the default
  (``wall_ratio_off_over_on`` >= 1.0, each side the minimum of
  :data:`WALL_RUNS` interleaved runs in this process, so the ratio does
  not depend on the host's speed).

The counters are deterministic for the fixed catalog (serial runs, no
randomness in the solver), so the baseline pins them tightly.  Set
``REPRO_BENCH_QUICK=1`` for the CI-smoke-sized run (same catalog, single
property — the quick numbers are the pinned ones).
"""

import os
import tempfile
import time

from repro.orchestrator import QueryStore, SummaryStore, certify_fleet
from repro.symbex.engine import SymbexOptions
from repro.verify import CrashFreedom, destination_reachability
from repro.workloads import fleet_catalog

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: The tentpole claim is stated for the 8-pipeline fleet catalog.
CATALOG_SIZE = 8
INPUT_LENGTHS = (24,)
#: Interleaved timing runs per side for the wall-time ratio.
WALL_RUNS = 3


def _properties():
    if QUICK:
        return [CrashFreedom()]
    return [
        CrashFreedom(),
        destination_reachability(
            0x0A000001, exempt_elements={"check_ip", "gw_check", "dec_ttl", "lookup"}
        ),
    ]


def run_query_cache_comparison():
    with tempfile.TemporaryDirectory(prefix="repro-bench-qcache-") as root:
        disabled = certify_fleet(
            fleet_catalog(CATALOG_SIZE),
            _properties(),
            input_lengths=INPUT_LENGTHS,
            options=SymbexOptions(query_opt=False),
        )
        optimized = certify_fleet(
            fleet_catalog(CATALOG_SIZE),
            _properties(),
            input_lengths=INPUT_LENGTHS,
            store=SummaryStore(os.path.join(root, "summaries")),
            query_store=QueryStore(os.path.join(root, "queries")),
        )
        warm = certify_fleet(
            fleet_catalog(CATALOG_SIZE),
            _properties(),
            input_lengths=INPUT_LENGTHS,
            store=SummaryStore(os.path.join(root, "summaries")),
            query_store=QueryStore(os.path.join(root, "queries")),
        )
    return disabled, optimized, warm


def _wall_seconds(options):
    started = time.perf_counter()
    certify_fleet(
        fleet_catalog(CATALOG_SIZE), _properties(), input_lengths=INPUT_LENGTHS, options=options
    )
    return time.perf_counter() - started


def measure_wall_ratio():
    """``query_opt=False`` wall time over the default's, minimum of interleaved runs."""
    off, on = [], []
    for _ in range(WALL_RUNS):
        off.append(_wall_seconds(SymbexOptions(query_opt=False)))
        on.append(_wall_seconds(SymbexOptions()))
    return min(off), min(on)


def test_query_cache(benchmark, bench_json):
    disabled, optimized, warm = benchmark.pedantic(
        run_query_cache_comparison, rounds=1, iterations=1
    )
    wall_off, wall_on = measure_wall_ratio()
    wall_ratio = wall_off / wall_on

    reduction = disabled.statistics.sat_core_calls / max(
        optimized.statistics.sat_core_calls, 1
    )
    print(f"\n--- E12: query-optimization layer ({CATALOG_SIZE} pipelines, "
          f"{len(_properties())} properties) ---")
    print(f"{'mode':>16} | {'SAT-core calls':>14} | {'qcache hits':>11} | {'time (s)':>8}")
    for label, report in (("opt disabled", disabled), ("opt enabled", optimized),
                          ("warm L3", warm)):
        stats = report.statistics
        print(f"{label:>16} | {stats.sat_core_calls:>14} | "
              f"{stats.qcache_hits:>11} | {stats.elapsed_seconds:>8.2f}")
    print(f"{'reduction':>16} | {reduction:>13.2f}x")
    print(f"wall time, min of {WALL_RUNS}: off {wall_off:.3f}s, on {wall_on:.3f}s, "
          f"off/on {wall_ratio:.2f}x")

    bench_json(
        "query_cache",
        {
            "catalog_size": CATALOG_SIZE,
            "properties": len(_properties()),
            "disabled_sat_core_calls": disabled.statistics.sat_core_calls,
            "optimized_sat_core_calls": optimized.statistics.sat_core_calls,
            "sat_core_reduction": reduction,
            "optimized_qcache_hits": optimized.statistics.qcache_hits,
            "warm_sat_core_calls": warm.statistics.sat_core_calls,
            "warm_summaries_computed": warm.statistics.summaries_computed,
            "verdicts_match": int(
                disabled.verdicts() == optimized.verdicts() == warm.verdicts()
            ),
            "disabled_seconds": disabled.statistics.elapsed_seconds,
            "optimized_seconds": optimized.statistics.elapsed_seconds,
            "warm_seconds": warm.statistics.elapsed_seconds,
            "wall_off_seconds": wall_off,
            "wall_on_seconds": wall_on,
            "wall_ratio_off_over_on": wall_ratio,
        },
    )

    # The optimization may never change what is proved — only how.
    assert optimized.verdicts() == disabled.verdicts()
    assert warm.verdicts() == disabled.verdicts()

    # >= 2x fewer CDCL invocations on the same catalog and properties.
    assert reduction >= 2.0, (
        f"query optimization reduced SAT-core calls only {reduction:.2f}x "
        f"({disabled.statistics.sat_core_calls} -> "
        f"{optimized.statistics.sat_core_calls})"
    )

    # Warm L3: zero symbolic execution and zero SAT-core calls, matching
    # the summary store's 0-symbex warm path one layer down.
    assert warm.statistics.summaries_computed == 0
    assert warm.statistics.sat_core_calls == 0

    # The layer must not cost more wall time than it saves.
    assert wall_ratio >= 1.0, (
        f"query optimization is slower than query_opt=False: "
        f"{wall_on:.3f}s vs {wall_off:.3f}s"
    )
