"""E7 — §3 Element Verification: loop decomposition into "mini-elements".

Paper: symbexing the IP-options element naively would require "millions
of segments ... months to complete"; instead each loop iteration is
verified in isolation and the results composed, like pipeline elements.
This bench compares the work of naive loop unrolling (segments of the
whole element, growing multiplicatively with the iteration bound) against
the decomposed mini-element analysis (segments of a single iteration,
reused linearly).

A second row measures loop-head joins on the unrolled engine itself:
``IPOptions`` summarized with the default options (states entering each
iteration are merged, reads at symbolic offsets only cover the offsets'
ranges) against the ``merge="off"`` reference, which gets a time budget
of :data:`OFF_BUDGET_FACTOR` times the joined run.  Full mode runs the
element's default ``max_options=10`` at length 60, which the unmerged
engine cannot finish; ``REPRO_BENCH_QUICK=1`` runs ``max_options=6`` at
length 40 (about a second joined, ~40 s unmerged) and is the pinned row.
"""

import os
import time

from repro.dataplane.elements import IPOptions
from repro.symbex import PathExplosionError, SymbexOptions, SymbolicEngine, summarize_loop
from repro.symbex.merge import MergeMode

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

INPUT_LENGTH = 24
OPTION_BOUNDS = (1, 2, 3, 4)

#: (input length, max_options) of the loop-join row.
JOIN_CASE = (40, 6) if QUICK else (60, 10)
#: The merge="off" run may take this many times the joined run's wall
#: time; past it, it stops with a PathExplosionError and the recorded
#: ratio is a lower bound.  Keeps the ratio independent of host speed.
OFF_BUDGET_FACTOR = 4.0


def measure():
    rows = []
    for max_options in OPTION_BOUNDS:
        element = IPOptions(name=f"opts{max_options}", max_options=max_options)

        engine = SymbolicEngine(SymbexOptions(max_paths=100_000))
        naive = engine.summarize_element(
            element.program,
            INPUT_LENGTH,
            tables=element.state.tables(),
            element_name=element.name,
        )

        loop = element.program.loops()[0]
        decomposed = summarize_loop(element.program, loop, input_length=INPUT_LENGTH)

        rows.append((max_options, naive, decomposed))
    return rows


def test_loop_decomposition(benchmark, bench_json):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    bench_json(
        "loop_decomposition",
        [
            {
                "loop_bound": max_options,
                "naive_segments": len(naive.segments),
                "naive_seconds": naive.elapsed_seconds,
                "mini_element_segments": decomposed.segments_per_iteration,
                "decomposed_segment_count": decomposed.decomposed_segment_count,
            }
            for max_options, naive, decomposed in rows
        ],
    )

    print("\n--- E7: loop decomposition (naive unrolling vs per-iteration mini-element) ---")
    print(f"{'loop bound':>10} | {'naive segments':>14} {'naive time (s)':>14} | "
          f"{'mini-element segments':>21} {'work (segments*t)':>17}")
    naive_counts = []
    for max_options, naive, decomposed in rows:
        naive_counts.append(len(naive.segments))
        print(f"{max_options:>10} | {len(naive.segments):>14} {naive.elapsed_seconds:>14.2f} | "
              f"{decomposed.segments_per_iteration:>21} "
              f"{decomposed.decomposed_segment_count:>17}")

    # Naive unrolling grows with the loop bound; the mini-element analysis is
    # a constant per-iteration cost reused linearly.
    assert naive_counts == sorted(naive_counts)
    assert naive_counts[-1] > naive_counts[0]
    last_decomposed = rows[-1][2]
    assert last_decomposed.segments_per_iteration < naive_counts[-1]
    # A single iteration of the option parser never crashes on its own
    # (the crash suspects come from the header-length trust, checked per path).
    assert last_decomposed.loop_instruction_bound >= last_decomposed.max_instructions_per_iteration


def _timed_summary(element, length, options):
    """Summarize ``element``; ``(summary or None on budget explosion, wall seconds)``."""
    engine = SymbolicEngine(options)
    started = time.perf_counter()
    try:
        summary = engine.summarize_element(
            element.program, length, tables=element.state.tables(), element_name=element.name
        )
    except PathExplosionError:
        summary = None
    return summary, time.perf_counter() - started


def _outcomes(summary):
    return sorted(
        {(segment.outcome, segment.crash_message) for segment in summary.segments}
    )


def measure_loop_join():
    length, max_options = JOIN_CASE
    element = IPOptions(name="opts", max_options=max_options)
    joined, joined_seconds = _timed_summary(element, length, SymbexOptions())
    off, off_seconds = _timed_summary(
        element,
        length,
        SymbexOptions(merge=MergeMode.OFF, max_seconds=OFF_BUDGET_FACTOR * joined_seconds),
    )
    return joined, joined_seconds, off, off_seconds


def test_loop_join(benchmark, bench_json):
    joined, joined_seconds, off, off_seconds = benchmark.pedantic(
        measure_loop_join, rounds=1, iterations=1
    )
    length, max_options = JOIN_CASE
    assert joined is not None, "the default engine must summarize IPOptions inside its budget"
    ratio = off_seconds / max(joined_seconds, 1e-9)
    bench_json(
        "loop_join",
        {
            "input_length": length,
            "max_options": max_options,
            "joined_completes": 1,
            "joined_seconds": joined_seconds,
            "joined_segments": len(joined.segments),
            "joined_paths_merged": joined.paths_merged,
            "joined_sat_core_calls": joined.sat_core_calls,
            "off_completes": int(off is not None),
            "off_seconds": off_seconds,
            "off_segments": len(off.segments) if off is not None else None,
            "wall_ratio_off_over_on": ratio,
        },
    )

    print(f"\n--- loop-head joins: IPOptions(max_options={max_options}) at length {length} ---")
    print(f"{'engine':>14} | {'segments':>8} | {'wall (s)':>8}")
    print(f"{'joined':>14} | {len(joined.segments):>8} | {joined_seconds:>8.2f}")
    off_segments = len(off.segments) if off is not None else "budget"
    print(f"{'merge=off':>14} | {off_segments:>8} | {off_seconds:>8.2f}")
    print(f"{'off / joined':>14} | {ratio:>8.2f}x")

    # Joins fold states, never outcomes: every kind of segment the
    # unmerged engine finds, the joined one finds too.
    if off is not None:
        assert _outcomes(joined) == _outcomes(off)
        assert len(joined.segments) <= len(off.segments)
