"""Dynamic sanitizers: cache-race shaking and a determinism differ.

The static rules (:mod:`repro.analysis.rules_concurrency`) allowlist the
featurize caches as *documented benign races* — concurrent fillers
compute identical values from immutable inputs, so last-write-wins is
claimed correct. That claim is dynamic, so it gets a dynamic check:

* :func:`shake_caches` hammers ``pipeline_tokens`` / ``content_tokens``
  from many threads under a tiny cache capacity (forcing the
  clear-on-full path on nearly every insert) and asserts that no thread
  ever observes a torn or divergent token list — every lookup must
  equal the single-threaded reference pipeline, on every iteration.

* :func:`diff_determinism` runs the full matching pipeline at
  ``--workers 1`` and ``--workers N`` over a synthetic domain and diffs
  what the repo promises is identical: the final mapping, every tag's
  score row, the trace's span-id structure, and the per-column quality
  records.

* :func:`diff_chaos_determinism` repeats the same diff under a fixed
  :class:`~repro.resilience.FaultPlan` — a learner crashing
  mid-predict, one task raising once (retried), the predict pool dying
  — and asserts the *degraded* mapping, quality records and the
  degradation report itself are still byte-identical at any worker
  count. This is the determinism contract the resilience layer adds on
  top of the healthy-path one. At ``--workers N`` > 1 both differs run
  the worker-process pool, so they pin that the pool keeps it too.

All return plain-data reports (``ok`` + human-readable ``failures``)
so the CLI, tests and CI can share one harness.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SanitizerReport:
    """Outcome of one sanitizer run."""

    name: str
    iterations: int = 0
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        status = "ok" if self.ok else \
            f"FAILED ({len(self.failures)} divergence(s))"
        lines = [f"sanitize[{self.name}]: {status} "
                 f"({self.iterations} iterations)"]
        lines.extend(f"  - {failure}" for failure in self.failures[:20])
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# cache-race shaker
# ---------------------------------------------------------------------------

#: Duplicate-heavy value pool mimicking real columns (cities, prices,
#: agents repeat across listings).
_SHAKE_TEXTS = tuple(
    f"{city}, fantastic {kind} near the {place} listed at ${price}000"
    for city in ("Miami", "Boston", "Seattle", "Austin", "Denver",
                 "Portland")
    for kind, place, price in (("house", "river", 120),
                               ("condo", "beach", 240),
                               ("cottage", "park", 360)))


def shake_caches(iterations: int = 50, threads: int = 8,
                 cache_capacity: int = 8) -> SanitizerReport:
    """Hammer the featurize caches from many threads; every observed
    token list must equal the uncached reference on every iteration.

    ``cache_capacity`` shrinks the text-level memo so the clear-on-full
    eviction path runs constantly — that is where a torn or dropped
    entry would surface. One thread also calls ``clear_text_cache``
    mid-flight each iteration to shake the explicit-clear path.
    """
    from ..core import featurize
    from ..core.instance import ElementInstance
    from ..xmlio import Element

    report = SanitizerReport("cache-race", iterations=iterations)
    reference = {text: featurize._pipeline(text) for text in _SHAKE_TEXTS}

    def make_instances() -> list[ElementInstance]:
        instances = []
        for index, text in enumerate(_SHAKE_TEXTS):
            element = Element(f"tag{index}")
            element.append_text(text)
            instances.append(ElementInstance(
                element, f"tag{index}", ("root",), {}))
        return instances

    original_capacity = featurize._TEXT_CACHE_MAX
    featurize._TEXT_CACHE_MAX = cache_capacity
    try:
        for iteration in range(iterations):
            featurize.clear_text_cache()
            instances = make_instances()
            start = threading.Barrier(threads)
            observed: list[list[tuple[str, list[str]]]] = \
                [[] for _ in range(threads)]
            errors: list[str] = []

            def worker(worker_id: int) -> None:
                # Per-thread deterministic order: stride through the
                # text pool so threads collide on different keys at
                # different times.
                try:
                    start.wait()
                    count = len(_SHAKE_TEXTS)
                    for step in range(count * 3):
                        index = (worker_id + step * (worker_id + 1)) \
                            % count
                        text = _SHAKE_TEXTS[index]
                        observed[worker_id].append(
                            (text, featurize.pipeline_tokens(text)))
                        instance = instances[index]
                        observed[worker_id].append(
                            (text, featurize.content_tokens(instance)))
                        if worker_id == 0 and step % 7 == 3:
                            featurize.clear_text_cache()
                except Exception as exc:  # lsd: ignore[blind-except]
                    errors.append(f"worker {worker_id} crashed: {exc!r}")

            pool = [threading.Thread(target=worker, args=(worker_id,))
                    for worker_id in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()

            report.failures.extend(errors)
            for worker_id, lookups in enumerate(observed):
                for text, tokens in lookups:
                    if tokens != reference[text]:
                        report.failures.append(
                            f"iteration {iteration}, worker "
                            f"{worker_id}: {text!r} -> {tokens!r} != "
                            f"reference {reference[text]!r}")
            if report.failures:
                break
    finally:
        featurize._TEXT_CACHE_MAX = original_capacity
        featurize.clear_text_cache()
    report.details["threads"] = threads
    report.details["texts"] = len(_SHAKE_TEXTS)
    report.details["cache_capacity"] = cache_capacity
    return report


# ---------------------------------------------------------------------------
# workers-1-vs-N determinism differ
# ---------------------------------------------------------------------------

def _build_trained_system(domain_name: str, n_listings: int,
                          workers: int):
    from ..core import LSDSystem
    from ..datasets import load_domain

    domain = load_domain(domain_name)
    system = LSDSystem.with_default_learners(
        domain.mediated_schema, constraints=domain.constraints,
        extra_learners=domain.recognizers(), workers=workers)
    for source in domain.sources[:2]:
        system.add_training_source(source.schema,
                                   source.listings(n_listings),
                                   source.mapping)
    system.train()
    return system, domain


def _run_match(system, domain, n_listings: int):
    from ..observability import Observer

    observer = Observer.full()
    source = domain.sources[2]
    result = system.match(source.schema, source.listings(n_listings),
                          observer=observer)
    return result, observer


def diff_determinism(workers: int = 4, repeats: int = 3,
                     domain_name: str = "real_estate_1",
                     n_listings: int = 20) -> SanitizerReport:
    """Match the same source at ``--workers 1`` and ``--workers N``
    ``repeats`` times and diff everything the repo pins as identical:
    final mapping, tag score rows, trace span-id structure, and quality
    records."""
    report = SanitizerReport("determinism", iterations=repeats)
    system, domain = _build_trained_system(domain_name, n_listings,
                                           workers=1)
    serial_result, serial_obs = _run_match(system, domain, n_listings)
    serial_spans = [(span.span_id, span.parent_id)
                    for span in serial_obs.trace.spans]
    serial_quality = [record.as_dict()
                      for record in serial_result.quality]
    serial_mapping = dict(serial_result.mapping.items())

    for repeat in range(repeats):
        system.workers = workers
        try:
            parallel_result, parallel_obs = _run_match(system, domain,
                                                       n_listings)
        finally:
            system.workers = 1
            system.close_pool()
        prefix = f"repeat {repeat} (workers {workers} vs 1)"

        parallel_mapping = dict(parallel_result.mapping.items())
        if parallel_mapping != serial_mapping:
            changed = sorted(
                tag for tag in set(serial_mapping)
                | set(parallel_mapping)
                if serial_mapping.get(tag) != parallel_mapping.get(tag))
            report.failures.append(
                f"{prefix}: final mapping differs on tags {changed}")

        for tag in sorted(serial_result.tag_scores):
            serial_row = serial_result.tag_scores[tag]
            parallel_row = parallel_result.tag_scores.get(tag)
            if parallel_row is None or not np.array_equal(serial_row,
                                                          parallel_row):
                report.failures.append(
                    f"{prefix}: score row for tag {tag!r} differs")

        parallel_spans = [(span.span_id, span.parent_id)
                          for span in parallel_obs.trace.spans]
        if parallel_spans != serial_spans:
            missing = sorted(set(serial_spans) - set(parallel_spans))
            extra = sorted(set(parallel_spans) - set(serial_spans))
            report.failures.append(
                f"{prefix}: trace structure differs "
                f"(missing={missing[:5]}, extra={extra[:5]})")

        parallel_quality = [record.as_dict()
                            for record in parallel_result.quality]
        if parallel_quality != serial_quality:
            report.failures.append(
                f"{prefix}: quality records differ")

    report.details["domain"] = domain_name
    report.details["n_listings"] = n_listings
    report.details["workers"] = workers
    report.details["tags"] = len(serial_mapping)
    report.details["spans"] = len(serial_spans)
    return report


# ---------------------------------------------------------------------------
# chaos determinism differ (same diff, under a fixed fault plan)
# ---------------------------------------------------------------------------

#: The fixed chaos plan the sanitizer replays per run: one learner
#: crashes mid-predict (quarantine + weight renormalization), the
#: predict pool dies (serial fallback), and the first executor task
#: fails once (recovered by the 1-retry budget). All raise-style —
#: no delays, no deadlines — so the degraded output is a pure
#: function of the plan, never of timing.
_CHAOS_PLAN = {
    "seed": 13,
    "faults": [
        {"site": "learner.predict", "key": "name_matcher",
         "action": "raise", "message": "chaos: learner crash"},
        {"site": "executor.pool", "key": "predict", "action": "raise"},
        {"site": "executor.task", "key": "0", "action": "raise",
         "count": 1},
    ],
}


def _chaos_policy():
    from ..resilience import FaultPlan, ResiliencePolicy

    # Hit counters and the degradation report are stateful: every run
    # must get a fresh plan + policy or the second run sees spent specs.
    return ResiliencePolicy(retries=1, backoff=0.0,
                            fault_plan=FaultPlan.from_dict(_CHAOS_PLAN))


def diff_chaos_determinism(workers: int = 4, repeats: int = 2,
                           domain_name: str = "real_estate_1",
                           n_listings: int = 20) -> SanitizerReport:
    """:func:`diff_determinism` under fire: match the same source at
    ``--workers 1`` and ``--workers N`` with the fixed
    :data:`_CHAOS_PLAN` armed, and diff the *degraded* mapping, tag
    score rows, quality records and the degradation report itself.

    Also asserts the plan actually bit — a chaos run whose degradation
    report is empty means a fault site silently stopped firing, which
    would turn this whole check into a vacuous pass.

    At ``--workers N`` > 1 the ``executor.pool`` fault exercises the
    pool-site serial fallback of the worker-process pool, and the
    degraded output must still be byte-identical to ``--workers 1``.
    """
    report = SanitizerReport("chaos-determinism", iterations=repeats)
    system, domain = _build_trained_system(domain_name, n_listings,
                                           workers=1)

    def run(worker_count: int):
        system.workers = worker_count
        system.policy = _chaos_policy()
        try:
            result, _ = _run_match(system, domain, n_listings)
        finally:
            system.policy = None
            system.workers = 1
            system.close_pool()
        return result

    serial = run(1)
    serial_mapping = dict(serial.mapping.items())
    serial_quality = [record.as_dict() for record in serial.quality]
    degradation = serial.degradation
    serial_degradation = degradation.as_dict() \
        if degradation is not None else {}

    if degradation is None or not degradation.degraded:
        report.failures.append(
            "chaos plan fired no faults — degradation report is empty")
    else:
        if "name_matcher" not in degradation.quarantined_learners:
            report.failures.append(
                "learner.predict fault did not quarantine "
                "'name_matcher'")
        if "predict" not in degradation.pool_failures:
            report.failures.append(
                "executor.pool fault did not force the serial "
                "fallback for stage 'predict'")
        if not any(entry["recovered"] for entry in degradation.retries):
            report.failures.append(
                "executor.task fault was not recovered by the retry "
                "budget")

    for repeat in range(repeats):
        parallel = run(workers)
        prefix = f"repeat {repeat} (workers {workers} vs 1)"

        parallel_mapping = dict(parallel.mapping.items())
        if parallel_mapping != serial_mapping:
            changed = sorted(
                tag for tag in set(serial_mapping)
                | set(parallel_mapping)
                if serial_mapping.get(tag) != parallel_mapping.get(tag))
            report.failures.append(
                f"{prefix}: degraded mapping differs on tags {changed}")

        for tag in sorted(serial.tag_scores):
            serial_row = serial.tag_scores[tag]
            parallel_row = parallel.tag_scores.get(tag)
            if parallel_row is None or not np.array_equal(serial_row,
                                                          parallel_row):
                report.failures.append(
                    f"{prefix}: degraded score row for tag {tag!r} "
                    f"differs")

        parallel_quality = [record.as_dict()
                            for record in parallel.quality]
        if parallel_quality != serial_quality:
            report.failures.append(
                f"{prefix}: degraded quality records differ")

        parallel_degradation = parallel.degradation.as_dict() \
            if parallel.degradation is not None else {}
        if parallel_degradation != serial_degradation:
            diverging = sorted(
                key for key in set(serial_degradation)
                | set(parallel_degradation)
                if serial_degradation.get(key)
                != parallel_degradation.get(key))
            report.failures.append(
                f"{prefix}: degradation report differs in sections "
                f"{diverging}")

    report.details["domain"] = domain_name
    report.details["n_listings"] = n_listings
    report.details["workers"] = workers
    report.details["quarantined"] = degradation.quarantined_learners \
        if degradation is not None else []
    report.details["fired_faults"] = len(serial_degradation.get(
        "fired_faults", []))
    return report


def run_all(shake_iterations: int = 50, workers: int = 4,
            repeats: int = 3) -> list[SanitizerReport]:
    """The full sanitizer suite, as run by ``lsd-lint --sanitize``."""
    return [
        shake_caches(iterations=shake_iterations),
        diff_determinism(workers=workers, repeats=repeats),
        diff_chaos_determinism(workers=workers,
                               repeats=min(repeats, 2)),
    ]
