"""Correctness oracle, run outside the timed region.

Three independent checks on every delivered certification:

* each verdict equals the committed expected verdict for its pipeline's
  template label and property (``expected_verdicts.json``);
* every counterexample, replayed through ``PipelineDriver`` (the concrete
  interpreter, which shares no code with symbolic execution), shows the
  violation it claims: a crash, or a drop of a packet to the destination
  by an element the property does not exempt.  A counterexample that
  needs mutable-state values (``required_table_values``: a NAT pool
  already exhausted, say) cannot be replayed from a fresh pipeline; it is
  counted in ``state_dependent`` and checked only for blaming an element
  on its own recorded path that the property does not exempt;
* every crash-freedom ``proved`` verdict survives a seeded concrete packet
  sweep: no sweep packet crashes the pipeline.

Replays and sweeps are memoized by (label, packet) and label, so a stream
that delivers the same template a thousand times replays it once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Set, Tuple

from repro.dataplane import Pipeline, PipelineDriver
from repro.ir.interpreter import Outcome

from catalogs import DESTINATION, EXEMPT, PROPERTY_KEYS

EXPECTED_PATH = Path(__file__).with_name("expected_verdicts.json")


def load_expected() -> Dict[str, Dict[str, str]]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)["verdicts"]


class Oracle:
    """Checks certifications; ``mismatches`` lists every disagreement found."""

    def __init__(self, sweep: Sequence[bytes]) -> None:
        self.expected = load_expected()
        self.sweep = list(sweep)
        self.mismatches: List[str] = []
        self.replayed = 0
        self.state_dependent = 0
        self.swept = 0
        self._replays: Set[Tuple[str, str, bytes]] = set()
        self._swept: Set[str] = set()

    def check(
        self,
        labels: Sequence[str],
        certifications: Sequence,
        rebuild: Callable[[int], Pipeline],
    ) -> None:
        """Check one report; ``rebuild(i)`` returns a fresh copy of pipeline ``i``."""
        if len(labels) != len(certifications):
            self.mismatches.append(
                f"{len(certifications)} certifications for {len(labels)} pipelines"
            )
            return
        for index, (label, certification) in enumerate(zip(labels, certifications)):
            expected = self.expected.get(label)
            verdicts = [result.verdict for result in certification.results]
            if expected is None:
                self.mismatches.append(f"{label}: no expected verdicts committed")
                continue
            if verdicts != [expected[key] for key in PROPERTY_KEYS]:
                self.mismatches.append(
                    f"{certification.pipeline_name} ({label}, {certification.provenance}): "
                    f"verdicts {verdicts}, expected {[expected[k] for k in PROPERTY_KEYS]}"
                )
            for key, result in zip(PROPERTY_KEYS, certification.results):
                for counterexample in result.counterexamples:
                    self._replay(label, key, counterexample, lambda: rebuild(index))
            if verdicts and verdicts[0] == "proved" and label not in self._swept:
                self._swept.add(label)
                self._sweep(label, rebuild(index))

    def _replay(self, label: str, key: str, counterexample, build) -> None:
        memo = (label, key, counterexample.packet)
        if memo in self._replays:
            return
        self._replays.add(memo)
        if counterexample.required_table_values:
            self.state_dependent += 1
            blamed = counterexample.violating_element
            exempt = key == "reachability" and blamed in EXEMPT
            if blamed not in counterexample.element_path or exempt:
                self.mismatches.append(
                    f"{label}: {key} counterexample blames {counterexample.violating_element!r}"
                )
            return
        self.replayed += 1
        trace = PipelineDriver(build()).inject(counterexample.packet)
        if key == "crash_freedom":
            ok = trace.final_outcome == Outcome.CRASH
        else:
            destination = int.from_bytes(counterexample.packet[16:20], "big")
            dropper = trace.hops[-1].element_name if trace.hops else ""
            ok = (
                destination == DESTINATION
                and trace.final_outcome == Outcome.DROP
                and dropper not in EXEMPT
            )
        if not ok:
            self.mismatches.append(
                f"{label}: {key} counterexample {counterexample.packet.hex()} replays as "
                f"{trace.final_outcome} at {[hop.element_name for hop in trace.hops]}"
            )

    def _sweep(self, label: str, pipeline: Pipeline) -> None:
        driver = PipelineDriver(pipeline)
        for packet in self.sweep:
            self.swept += 1
            trace = driver.inject(packet)
            if trace.final_outcome == Outcome.CRASH:
                self.mismatches.append(
                    f"{label}: crash freedom proved, but {packet.hex()} crashes at "
                    f"{trace.hops[-1].element_name}"
                )
                return
