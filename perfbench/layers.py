"""Span recording around the LSD program's layer entry points.

The benchmark does not rely on the program's own instrumentation: it
wraps each layer's public entry point from outside (module functions
are replaced wherever a loaded ``repro`` module refers to them, methods
are replaced on their classes) and records one span per call. Spans
nest, so a layer's *self time* is its span's duration minus the spans
it caused; self times of one call add up to the outermost span.

Layer -> span name:

========================================  ======================
``repro.core.persistence.load_system``    ``load``
``repro.core.persistence.save_system``    ``save``
``repro.resilience.ingest_fragments``     ``ingest``
``repro.xmlio.parse_dtd``                 ``dtd``
``repro.core.instance.extract_columns``   ``extract``
``repro.core.training.train_meta_learner``  ``cv``
``LSDSystem.match``                       ``match``
``StackingMetaLearner.combine``           ``combine``
``PredictionConverter.convert_slices``    ``convert``
``ConstraintHandler.find_mapping``        ``search``
``<learner>.predict_scores``              ``predict.<name>``
``<learner>.fit``                         ``fit.<name>``
========================================  ======================

Only the thread that installed the wrappers records spans; the program
runs serially at its default ``workers=1``, so no call is lost.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
from typing import Callable

#: Spans of this phase are the timed calls; "setup" spans belong to
#: preparation; anything else (model reloads between passes, explicit
#: collections) is recorded nowhere.
CALL, SETUP, IDLE = "call", "setup", "idle"


class Tracer:
    """In-memory span recorder plus garbage-collector accounting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Closed and open spans, in start order: dicts with name,
        #: start, end, parent (index or None), phase and counts.
        self.spans: list[dict] = []
        self.phase = IDLE
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._owner = threading.get_ident()
        #: phase -> [seconds, collections] spent in the collector.
        self.gc: dict[str, list] = {}
        self._gc_started: float | None = None

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append({
            "name": name, "start": self.clock(), "end": None,
            "parent": self._open[-1] if self._open else None,
            "phase": self.phase, "counts": {}})
        self._open.append(index)
        return index

    def end(self, index: int, **counts: float) -> None:
        span = self.spans[index]
        span["end"] = self.clock()
        span["counts"].update(counts)
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def innermost(self) -> str | None:
        return self.spans[self._open[-1]]["name"] if self._open else None

    def _wrapper(self, original, name_of, counts_of):
        tracer = self

        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._owner:
                return original(*args, **kwargs)
            name = name_of(args)
            # A subclass calling super() into the same layer is one call.
            if name == tracer.innermost():
                return original(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.end(index)
                raise
            tracer.end(index, **(counts_of(args, result)
                                 if counts_of else {}))
            return result

        traced.__wrapped__ = original
        return traced

    # -- patching ------------------------------------------------------
    def wrap_function(self, module, attr: str, name: str,
                      counts_of=None) -> None:
        """Replace ``module.attr`` in every loaded ``repro`` module that
        refers to the same function object."""
        original = getattr(module, attr)
        traced = self._wrapper(original, lambda args: name, counts_of)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def wrap_method(self, cls, attr: str, name_of, counts_of=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name_of, counts_of))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- garbage collector ---------------------------------------------
    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = self.clock()
        elif self._gc_started is not None:
            entry = self.gc.setdefault(self.phase, [0.0, 0])
            entry[0] += self.clock() - self._gc_started
            entry[1] += 1
            self._gc_started = None

    def watch_gc(self) -> None:
        if self._gc_callback not in gc.callbacks:
            gc.callbacks.append(self._gc_callback)

    # -- export --------------------------------------------------------
    def closed_spans(self) -> list[dict]:
        return [span for span in self.spans if span["end"] is not None]


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point of the program. Import the modules
    that call them first: a module loaded later keeps the originals."""
    from repro.constraints.handler import ConstraintHandler
    from repro.core import instance, persistence, training
    from repro.core.converter import PredictionConverter
    from repro.core.system import LSDSystem
    from repro.learners.base import BaseLearner
    from repro.learners.meta import StackingMetaLearner
    from repro.resilience import ingest
    from repro.xmlio import dtd

    tracer.wrap_function(persistence, "load_system", "load",
                         lambda args, result: {
                             "model_bytes": os.path.getsize(args[0])})
    tracer.wrap_function(persistence, "save_system", "save")
    tracer.wrap_function(ingest, "ingest_fragments", "ingest",
                         lambda args, result: {
                             "bytes": len(args[0].encode())})
    tracer.wrap_function(dtd, "parse_dtd", "dtd")
    tracer.wrap_function(instance, "extract_columns", "extract",
                         lambda args, result: {"instances": sum(
                             len(column.instances)
                             for column in result.values())})
    tracer.wrap_function(training, "train_meta_learner", "cv")
    tracer.wrap_method(LSDSystem, "match", lambda args: "match")
    tracer.wrap_method(StackingMetaLearner, "combine",
                       lambda args: "combine")
    tracer.wrap_method(PredictionConverter, "convert_slices",
                       lambda args: "convert")
    tracer.wrap_method(
        ConstraintHandler, "find_mapping", lambda args: "search",
        lambda args, result: {
            "nodes_expanded": args[0].last_stats.get("nodes_expanded", 0),
            "unproven": int(bool(args[0].last_stats.get("anytime")))})
    for cls in _subclasses(BaseLearner):
        if "predict_scores" in cls.__dict__:
            tracer.wrap_method(
                cls, "predict_scores",
                lambda args: f"predict.{args[0].name}",
                lambda args, result: {"rows": len(args[1])})
        if "fit" in cls.__dict__:
            tracer.wrap_method(cls, "fit",
                               lambda args: f"fit.{args[0].name}")
    tracer.watch_gc()


def _subclasses(cls) -> list[type]:
    found, stack = [], [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return found


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children
    (children of one single-threaded span never overlap). ``parent``
    fields index into ``spans`` itself."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def aggregate(spans: list[dict], phase: str) -> dict[str, dict]:
    """Per span name: summed self seconds, call count and summed counts
    over the spans of ``phase``."""
    totals: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        if span["phase"] != phase:
            continue
        entry = totals.setdefault(span["name"],
                                  {"self_s": 0.0, "calls": 0,
                                   "counts": {}})
        entry["self_s"] += own
        entry["calls"] += 1
        for key, value in span["counts"].items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return totals


def merge(into: dict[str, dict], more: dict[str, dict]) -> None:
    """Add one :func:`aggregate` result to another."""
    for name, entry in more.items():
        target = into.setdefault(name, {"self_s": 0.0, "calls": 0,
                                        "counts": {}})
        target["self_s"] += entry["self_s"]
        target["calls"] += entry["calls"]
        for key, value in entry["counts"].items():
            target["counts"][key] = target["counts"].get(key, 0) + value
