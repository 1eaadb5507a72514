"""Pipeline-level telemetry: exposition determinism across worker
counts, per-worker resource reporting on the process pool, and the
progress events a real match emits."""

import pytest

from repro.observability import (Observer, parse_openmetrics,
                                 render_openmetrics)
from repro.observability.events import EventStream, validate_file
from repro.observability.expo import samples_for
from repro.observability.metrics import (M_POOL_QUEUE_WAIT, M_POOL_TASKS,
                                         M_POOL_WORKER_CPU,
                                         M_POOL_WORKER_RSS,
                                         M_POOL_WORKERS)

from .test_core_system import (GREATHOMES_LISTINGS, GREATHOMES_SCHEMA,
                               trained_system)

#: Metric families whose values are a pure function of the input —
#: identical at any worker count. Timing
#: histograms, cache hit/miss counters (racy across workers), and the
#: pool.*/proc.* resource families are deliberately absent.
DETERMINISTIC = ("match.instances", "match.tags", "match.column_size",
                 "predict.structure_passes")


@pytest.fixture(scope="module")
def system():
    return trained_system()


def _exposition(system, workers: int) -> str:
    system.workers = workers
    observer = Observer.full()
    try:
        system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                     observer=observer)
    finally:
        system.close_pool()
        system.workers = 1
    full = render_openmetrics(observer.metrics,
                              labels={"command": "match"})
    deterministic = {
        line for line in full.splitlines()
        for name in DETERMINISTIC
        if f"lsd_{name.replace('.', '_')}" in line}
    return full, "\n".join(sorted(deterministic))


class TestExpositionDeterminism:
    def test_byte_identical_across_worker_counts_and_backends(self,
                                                              system):
        full_serial, baseline = _exposition(system, 1)
        for workers in (2, 4):
            _, lines = _exposition(system, workers)
            assert lines == baseline, workers
        assert baseline  # the filter actually selected families
        parse_openmetrics(full_serial)  # and the full text stays valid


class TestProcessPoolResources:
    def test_match_reports_per_worker_rss_cpu_and_queue_wait(self,
                                                             system):
        system.workers = 2
        observer = Observer.full()
        try:
            system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                         observer=observer)
        finally:
            system.close_pool()
            system.workers = 1
        summary = observer.metrics.summary()
        rss = summary["histograms"][M_POOL_WORKER_RSS]
        cpu = summary["histograms"][M_POOL_WORKER_CPU]
        assert 1 <= rss["count"] <= 2  # one sample per worker that ran
        assert rss["min"] > 0  # a live worker has a nonzero RSS
        assert cpu["count"] == rss["count"]
        assert summary["gauges"][M_POOL_WORKERS] >= 1.0
        wait = summary["histograms"][M_POOL_QUEUE_WAIT]
        tasks = summary["counters"][M_POOL_TASKS]
        assert tasks >= 1
        assert wait["count"] == tasks  # every dispatch measured a wait

    def test_serial_run_has_no_pool_families(self, system):
        observer = Observer.full()
        system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                     observer=observer)
        summary = observer.metrics.summary()
        assert M_POOL_WORKER_RSS not in summary["histograms"]
        assert M_POOL_WORKERS not in summary["gauges"]


class TestMatchEvents:
    def test_match_emits_a_valid_stage_narrative(self, system, tmp_path):
        path = tmp_path / "events.jsonl"
        events = EventStream(path)
        observer = Observer.full(events=events)
        system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                     observer=observer)
        events.close()
        assert validate_file(path) == []
        kinds = [event["kind"] for event in events.events]
        for stage in ("extract", "predict", "constrain"):
            starts = [e for e in events.events
                      if e["kind"] == "stage_start"
                      and e.get("stage") == stage]
            ends = [e for e in events.events
                    if e["kind"] == "stage_end" and e.get("stage") == stage]
            assert len(starts) == 1 and len(ends) == 1, stage
        assert kinds.index("stage_start") < kinds.index("shard_complete")

    def test_shard_heartbeats_cover_the_task_grid(self, system, tmp_path):
        system.workers = 4
        events = EventStream(tmp_path / "events.jsonl")
        observer = Observer.full(events=events)
        try:
            system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                         observer=observer)
        finally:
            system.workers = 1
            system.close_pool()
        events.close()
        shards = [e for e in events.events
                  if e["kind"] == "shard_complete"]
        assert shards
        grid_size = shards[0]["shards"]
        assert [s["index"] for s in shards[:grid_size]] == \
            list(range(grid_size))
        assert all(s["rows"] >= 1 for s in shards)

    def test_shard_heartbeats_identical_across_worker_counts(
            self, system, tmp_path):
        def heartbeat_set(workers):
            system.workers = workers
            events = EventStream(tmp_path / f"w{workers}.jsonl")
            try:
                system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                             observer=Observer.full(events=events))
            finally:
                system.workers = 1
                system.close_pool()
            events.close()
            return [{k: e[k] for k in ("label", "index", "shards",
                                       "rows", "stage")}
                    for e in events.events
                    if e["kind"] == "shard_complete"]

        assert heartbeat_set(1) == heartbeat_set(4)
