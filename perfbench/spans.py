"""Layer-boundary spans recorded from outside the program.

The traced run wraps public class methods and module functions at each
``src/repro`` layer boundary, keeps every span (name, start, end, parent)
in memory, and attributes *self* time: a span's duration minus the time
its child spans cover.  Nothing inside the program changes; the wrappers
are installed around one call and removed after it, so untraced calls in
the same process pay nothing.

Wrappers in forked worker processes record nothing: a fork inherits the
patched classes, but its spans would never reach the parent, so the
wrapper checks the process id and calls straight through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (module, class, methods, layer): public methods wrapped on their class.
METHOD_BOUNDARIES = (
    ("repro.symbex.engine", "SymbolicEngine", ("summarize_element",), "symbex.summarize"),
    ("repro.verify.pipeline_verifier", "PipelineVerifier", ("verify",), "verify.step2"),
    (
        "repro.verify.composition",
        "CompositionEngine",
        ("extend", "is_feasible", "find_violations"),
        "verify.compose",
    ),
    ("repro.smt.context", "AssumptionChecker", ("check",), "smt.checker"),
    ("repro.smt.context", "SolverContext", ("check_assumptions",), "smt.checker"),
    ("repro.smt.solver", "Solver", ("check",), "smt.checker"),
    ("repro.smt.qcache", "QueryCache", ("check",), "smt.qcache"),
    ("repro.smt.satcore", "ArraySolver", ("solve",), "smt.sat_solve"),
    ("repro.dataplane.driver", "PipelineDriver", ("inject",), "dataplane.replay"),
    ("repro.orchestrator.store", "Store", ("read_entry", "read_entries"), "orchestrator.store_read"),
    ("repro.orchestrator.store", "Store", ("write_entry", "flush"), "orchestrator.store_write"),
)

#: (module, function, layer): module functions, wrapped at every binding.
FUNCTION_BOUNDARIES = (
    ("repro.orchestrator.fleet", "certify_fleet", "orchestrator.fleet"),
    ("repro.orchestrator.impact", "recertify", "orchestrator.fleet"),
    ("repro.orchestrator.impact", "catalog_manifest", "orchestrator.manifest"),
    ("repro.orchestrator.impact", "diff_manifests", "orchestrator.manifest"),
)
#: Every ``*_fingerprint`` function of this module is a dataplane boundary.
FINGERPRINT_MODULE = "repro.dataplane.fingerprint"
FINGERPRINT_LAYER = "dataplane.fingerprint"

#: Every layer a span can be attributed to.
LAYERS = tuple(
    sorted(
        {layer for *_rest, layer in METHOD_BOUNDARIES}
        | {layer for *_rest, layer in FUNCTION_BOUNDARIES}
        | {FINGERPRINT_LAYER}
    )
)


class SpanRecorder:
    """Spans of the traced calls, plus the bytes handed to ``Store.write_entry``."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        self.stack: List[int] = []
        self.bytes_written = 0
        self.pid = os.getpid()
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------------

    def _open(self, layer: str) -> int:
        index = len(self.spans)
        self.spans.append((layer, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1))
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.stack.pop()
        layer, start, _end, parent = self.spans[index]
        self.spans[index] = (layer, start, time.perf_counter(), parent)

    def _wrap(self, function: Callable, layer: str) -> Callable:
        recorder = self
        if inspect.isgeneratorfunction(function):
            # Work happens while the consumer iterates: one span per resume.
            @functools.wraps(function)
            def generator(*args, **kwargs):
                iterator = function(*args, **kwargs)
                if os.getpid() != recorder.pid:
                    yield from iterator
                    return
                try:
                    while True:
                        index = recorder._open(layer)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            recorder._close(index)
                        yield item
                finally:
                    iterator.close()

            return generator

        counts_bytes = function.__name__ == "write_entry"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if os.getpid() != recorder.pid:
                return function(*args, **kwargs)
            if counts_bytes:
                recorder.bytes_written += len(args[2] if len(args) > 2 else kwargs["text"])
            index = recorder._open(layer)
            try:
                return function(*args, **kwargs)
            finally:
                recorder._close(index)

        return wrapper

    # -- installation -----------------------------------------------------------------

    def _patch(self, owner: object, attribute: str, value: object) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        """Wrap every boundary; functions at every ``repro`` module binding."""
        for module_name, class_name, methods, layer in METHOD_BOUNDARIES:
            owner = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                self._patch(owner, method, self._wrap(owner.__dict__[method], layer))
        targets: Dict[int, Tuple[Callable, str]] = {}
        for module_name, function_name, layer in FUNCTION_BOUNDARIES:
            function = getattr(importlib.import_module(module_name), function_name)
            targets[id(function)] = (function, layer)
        fingerprint = importlib.import_module(FINGERPRINT_MODULE)
        for name, function in vars(fingerprint).items():
            if name.endswith("_fingerprint") and inspect.isfunction(function):
                targets[id(function)] = (function, FINGERPRINT_LAYER)
        wrappers = {key: self._wrap(function, layer) for key, (function, layer) in targets.items()}
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    self._patch(module, attribute, wrappers[id(value)])

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- attribution ------------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer: duration minus child-covered time."""
        covered = [0.0] * len(self.spans)
        for _layer, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (layer, start, end, _parent) in enumerate(self.spans):
            totals[layer] += (end - start) - covered[index]
        return {layer: totals.get(layer, 0.0) for layer in LAYERS}

    def root_seconds(self) -> float:
        """Total duration of the top-level spans."""
        return sum(end - start for _layer, start, end, parent in self.spans if parent < 0)
