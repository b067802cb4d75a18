"""Worker task bodies: the Step-1 and Step-2 units the scheduler ships to processes.

:func:`repro.orchestrator.scheduler.run_scheduled` feeds two kinds of task
to its persistent pool, both module-level so they pickle by reference:

* :func:`_summarize_worker` — **Step-1 element summarization** of one
  (element, input length) job.  The summary travels back as a serialized
  DAG payload (hash-consed terms cannot cross process boundaries by
  pickling — see :mod:`repro.orchestrator.serialize`).  The worker checks
  the shared :class:`~repro.orchestrator.store.SummaryStore` first and
  writes through on compute, so a summary is computed once per *fleet*,
  not once per process.
* :func:`_certify_worker` — **Step-2 verification** of one pipeline
  against every property, hydrating its summaries from the same store.

Both ship failures and side outputs as data: an exploded budget is a
status, not an exception; new query-cache entries and observability
(spans, slow-solve records, query-tier counters) ride back with the
result for the parent to merge.  The serial fleet path calls
:func:`_certify_one` in process with one shared cache.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import List, Optional, Sequence, Tuple

from ..dataplane.element import Element
from ..dataplane.pipeline import Pipeline
from ..obs.slowlog import slow_solve_log
from ..obs.trace import enable, tracer
from ..smt.qcache import QueryCache, QueryCacheStatistics, build_query_cache
from ..symbex.engine import SymbexOptions, SymbolicEngine
from ..symbex.errors import PathExplosionError
from ..verify.cache import SummaryCache
from ..verify.pipeline_verifier import PipelineVerifier
from ..verify.properties import Property
from .serialize import dumps_summary
from .store import QueryStore, SummaryStore, summary_key
from .verdicts import PipelineCertification


def _pool_context():
    """Prefer fork (cheap, inherits the interned-term table read-only copy-on-write)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


#: Result statuses shipped back by the summarization worker.
COMPUTED = "computed"
LOADED = "loaded"
#: The job blew its path/time budget; the payload is the error message.
#: Shipped as data (not an exception) so one exploding element does not
#: tear down the whole pool — callers re-raise or degrade per pipeline.
EXPLODED = "exploded"


def worker_query_cache(options: SymbexOptions) -> Optional[QueryCache]:
    """The query cache a worker process should route through.

    Workers open the persistent L3 tier **read-only**: many forks hitting
    one directory is fine for reads (and for the atomic writes the
    parent does), but a write storm of per-slice entries from every
    worker is not.  Entries a worker could not persist accumulate in
    ``cache.new_entries`` and travel back with its result for the parent
    to merge on join (:func:`merge_query_entries`).
    """
    return build_query_cache(
        options.incremental and options.query_opt,
        options.query_cache_dir,
        readonly=True,
    )


#: Process-local shard-name override (see :func:`set_worker_shard_tag`).
_shard_override: Optional[str] = None


def set_worker_shard_tag(tag: Optional[str]) -> None:
    """Override this process's shard name (``None`` restores the pid default).

    The persistent scheduler (:mod:`repro.orchestrator.scheduler`) names
    shards per *task attempt*, not per process: the parent can then merge
    exactly the shard a finished task flushed — incrementally, while the
    same worker is already running its next task — and a crashed attempt's
    half-written shard is never the one a retry writes into.
    """
    global _shard_override
    _shard_override = tag


def worker_shard_tag() -> str:
    """The per-worker store shard name: stable within a process, unique across a pool."""
    return _shard_override or f"w{os.getpid()}"


def worker_summary_store(store_root: Optional[str]) -> Optional[SummaryStore]:
    """Open the shared summary store the way a worker process must.

    Reads hit the main store; writes land in this worker's private
    shard.  The parent folds each task's shard in as its result arrives
    — see :meth:`repro.orchestrator.store.Store.merge_shards`.
    """
    if store_root is None:
        return None
    return SummaryStore(store_root, shard=worker_shard_tag())


def merge_query_entries(
    store_root: Optional[str], entries: Sequence[Tuple[str, dict]]
) -> None:
    """Merge worker-shipped query-cache entries into the parent's L3 store."""
    if store_root is None or not entries:
        return
    store = QueryStore(store_root)
    written: set = set()
    for digest, payload in entries:
        if digest not in written:
            written.add(digest)
            store.save_payload(digest, payload)
    store.close()  # push the batched writes before the store object goes away


def drain_observability(query_cache: Optional[QueryCache] = None) -> dict:
    """Collect this process's observability output for shipping to a parent.

    Returns a JSON-able dict with up to three keys: ``spans`` (the
    tracer's drained ring buffer), ``slow`` (drained slow-solve records)
    and ``qstats`` (the worker query cache's per-tier counters).  Keys
    are omitted when empty, so a disabled run ships ``{}`` — the merged
    result payload gains no observability weight unless something was
    observed.  Fork workers call this right before returning; the spans
    travel back with the result exactly like L3 query-store entries do.
    """
    extras: dict = {}
    trace = tracer()
    if trace.enabled:
        spans = trace.drain()
        if spans:
            extras["spans"] = spans
    slow = slow_solve_log().drain()
    if slow:
        extras["slow"] = slow
    if query_cache is not None:
        stats = query_cache.statistics.to_dict()
        if any(stats.values()):
            extras["qstats"] = stats
    return extras


def merge_observability(
    extras: Optional[dict], qstats: Optional[QueryCacheStatistics] = None
) -> None:
    """Fold a worker's :func:`drain_observability` payload into this process.

    Spans land in the active tracer (dropped when tracing is off here),
    slow records append to the process slow log, and the per-tier query
    counters merge into ``qstats`` when an accumulator is provided.  A
    task run in the parent process itself drains and re-ingests the same
    buffers, which only repositions entries.
    """
    if not extras:
        return
    trace = tracer()
    spans = extras.get("spans")
    if spans and trace.enabled:
        trace.ingest(spans)
    slow = extras.get("slow")
    if slow:
        log = slow_solve_log()
        for record in slow:
            log.add(record)
    if qstats is not None and extras.get("qstats"):
        qstats.merge(QueryCacheStatistics.from_dict(extras["qstats"]))


#: (sat_core_calls, qcache_hits) a worker performed for one job.  The
#: counters are runtime accounting and deliberately not serialized with
#: the summary, so they travel alongside it and are restored on arrival —
#: parallel runs then account Step-1 solver work exactly like serial ones.
WorkerWork = Tuple[int, int]


def _summarize_worker(
    payload: Tuple[Element, int, SymbexOptions, Optional[str]],
) -> Tuple[str, str, List[Tuple[str, dict]], WorkerWork, dict]:
    """Compute (or fetch) one summary.

    Returns (status, serialized summary | message, new query-cache
    entries the parent should merge, solver work performed, drained
    observability extras — see :func:`drain_observability`).
    """
    element, input_length, options, store_root = payload
    if options.trace:
        enable()
    store = worker_summary_store(store_root)
    try:
        if store is not None:
            stored = store.load(element, input_length, options)
            if stored is not None:
                return LOADED, dumps_summary(stored), [], (0, 0), {}
        query_cache = worker_query_cache(options)
        engine = SymbolicEngine(options, query_cache=query_cache)
        try:
            summary = engine.summarize_element(
                element.program,
                input_length,
                tables=element.state.tables(),
                element_name=element.name,
                configuration_key=element.configuration_key(),
            )
        except PathExplosionError as exc:
            # A blown budget yields no summary; its partial solver work is
            # uncounted, matching the serial path (which raises the same way).
            return (
                EXPLODED,
                str(exc),
                query_cache.new_entries if query_cache else [],
                (0, 0),
                drain_observability(query_cache),
            )
        if store is not None:
            store.save(element, input_length, options, summary)
        return (
            COMPUTED,
            dumps_summary(summary),
            query_cache.new_entries if query_cache else [],
            (summary.sat_core_calls, summary.qcache_hits),
            drain_observability(query_cache),
        )
    finally:
        if store is not None:
            # Push this job's write into the worker's shard now: the pool
            # may recycle or kill the process before any destructor runs.
            store.close()


def _certify_one(
    pipeline: Pipeline,
    properties: Sequence[Property],
    input_lengths: Sequence[int],
    cache: SummaryCache,
    max_counterexamples: int,
    confirm_by_replay: bool,
    with_instruction_bound: bool,
) -> PipelineCertification:
    verifier = PipelineVerifier(pipeline, options=cache.options, cache=cache)
    certification = PipelineCertification(pipeline_name=pipeline.name)
    with tracer().span("fleet.pipeline", "fleet", pipeline=pipeline.name) as span:
        for target_property in properties:
            certification.results.append(
                verifier.verify(
                    target_property,
                    input_lengths=list(input_lengths),
                    max_counterexamples=max_counterexamples,
                    confirm_by_replay=confirm_by_replay,
                )
            )
        if with_instruction_bound:
            certification.instruction_bound = verifier.instruction_bound(
                input_lengths=list(input_lengths), find_witness=False
            )
        span.set(certified=certification.certified)
    return certification


def _certify_worker(payload) -> Tuple[PipelineCertification, int, int, list, dict]:
    """Per-pipeline Step-2 task: certify one pipeline from the shared store.

    The query cache is opened read-only (see :func:`worker_query_cache`);
    newly solved slice entries ride back with the result for the parent
    to merge, and observability output (spans, slow-solve records,
    query-tier counters) travels the same way as a fifth tuple member.
    """
    (
        pipeline,
        properties,
        input_lengths,
        options,
        store_root,
        max_counterexamples,
        confirm_by_replay,
        with_instruction_bound,
    ) = payload
    if options.trace:
        enable()
    query_cache = worker_query_cache(options)
    store = worker_summary_store(store_root)
    cache = SummaryCache(options, store=store, query_cache=query_cache)
    try:
        certification = _certify_one(
            pipeline,
            properties,
            input_lengths,
            cache,
            max_counterexamples,
            confirm_by_replay,
            with_instruction_bound,
        )
    finally:
        if store is not None:
            # Push worker-side miss writes into this worker's shard before
            # the process can be recycled (see _summarize_worker).
            store.close()
    return (
        certification,
        cache.statistics.misses,
        cache.statistics.l2_hits,
        query_cache.new_entries if query_cache is not None else [],
        drain_observability(query_cache),
    )


def job_digest(element: Element, input_length: int, options: SymbexOptions) -> str:
    """The store digest identifying a Step-1 job (used to dedupe fleet work)."""
    return summary_key(element, input_length, options)
