"""Tests for the process execution backend and its shared-array plumbing.

Three layers, bottom up: the hoisting pickler and shared-memory store
(:mod:`repro.core.shared_arrays`), the persistent :class:`WorkerPool`
(once-per-pool model reconstruction, batch broadcast, the wire
protocol's ok/failure/error replies), and :func:`run_process_map`'s
crash handling. Byte-identity of full matches across backends lives in
``test_golden_equivalence.py``; segment hygiene — nothing leaked after
normal shutdown, worker crashes, or abandonment — is pinned here.
"""

import gc
import pickle

import numpy as np
import pytest
from scipy import sparse

from repro.core.instance import ElementInstance
from repro.core.parallel import ParallelExecutor
from repro.core.procpool import (ProcessTask, RemoteTaskError, TaskFailure,
                                 WorkerPool, run_process_map)
from repro.core.shared_arrays import (SharedArrayStore, extract_arrays,
                                      layout, restore, segment_exists)
from repro.learners import NameMatcher
from repro.observability import StageProfile

from .helpers import make_instance, space_of, training_set

BIG = np.arange(512, dtype=np.float64)          # 4096 bytes: hoisted
SMALL = np.arange(4, dtype=np.float64)          # 32 bytes: stays inline


class TestExtractRestore:
    def test_roundtrip_is_identity(self):
        obj = {"big": BIG.copy(), "small": SMALL.copy(),
               "nested": [1, "two", (3.0,)]}
        payload, arrays = extract_arrays(obj)
        back = restore(payload, arrays)
        assert np.array_equal(back["big"], obj["big"])
        assert np.array_equal(back["small"], obj["small"])
        assert back["nested"] == obj["nested"]

    def test_only_large_plain_ndarrays_hoist(self):
        memmap_free = {"big": BIG.copy(), "small": SMALL.copy(),
                       "objects": np.array([{"a": 1}] * 200)}
        _, arrays = extract_arrays(memmap_free)
        assert len(arrays) == 1
        assert np.array_equal(arrays[0], BIG)

    def test_repeated_references_share_one_slot(self):
        array = BIG.copy()
        payload, arrays = extract_arrays([array, array])
        assert len(arrays) == 1
        first, second = restore(payload, arrays)
        assert first is second

    def test_csr_matrix_roundtrips_through_hoisted_triplets(self):
        rng = np.random.default_rng(7)
        dense = rng.random((64, 64)) * (rng.random((64, 64)) < 0.3)
        matrix = sparse.csr_matrix(dense)
        payload, arrays = extract_arrays(matrix)
        assert arrays, "CSR triplets should be large enough to hoist"
        back = restore(payload, arrays)
        assert (back != matrix).nnz == 0

    def test_restore_rejects_foreign_persistent_ids(self):
        class Alien(pickle.Pickler):
            def persistent_id(self, obj):
                return "alien" if obj is Ellipsis else None

        import io
        buffer = io.BytesIO()
        Alien(buffer).dump([Ellipsis])
        with pytest.raises(pickle.UnpicklingError):
            restore(buffer.getvalue(), [])


class TestSharedArrayStore:
    def test_layout_aligns_every_offset(self):
        arrays = [np.zeros(3, dtype=np.int8), np.zeros(5, dtype=np.int8),
                  np.zeros(100, dtype=np.float64)]
        specs, total = layout(arrays)
        assert all(spec.offset % 64 == 0 for spec in specs)
        assert total >= specs[-1].offset + specs[-1].nbytes

    def test_create_attach_views_release(self):
        store = SharedArrayStore.create([BIG, SMALL])
        name = store.name
        try:
            attached = SharedArrayStore.attach(store.handle)
            views = attached.views()
            assert np.array_equal(views[0], BIG)
            assert np.array_equal(views[1], SMALL)
            assert not views[0].flags.writeable
            with pytest.raises(ValueError):
                views[0][0] = -1.0
            del views
            attached.close()
        finally:
            store.release()
        assert not segment_exists(name)

    def test_attacher_close_never_frees_the_name(self):
        store = SharedArrayStore.create([BIG])
        name = store.name
        try:
            attached = SharedArrayStore.attach(store.handle)
            attached.close()
            assert segment_exists(name)
        finally:
            store.release()
        assert not segment_exists(name)

    def test_restore_around_memmap_views(self, tmp_path):
        """Memmap-backed views splice in fine, and a later extract of
        the restored object leaves them inline (only exactly-ndarray
        objects hoist) — the property the persistence mmap fast path
        rests on."""
        payload, arrays = extract_arrays({"big": BIG.copy()})
        file = tmp_path / "0000.npy"
        np.save(file, arrays[0])
        views = [np.load(file, mmap_mode="r")]
        back = restore(payload, views)
        assert isinstance(back["big"], np.memmap)
        assert np.array_equal(back["big"], BIG)
        assert extract_arrays(back)[1] == []


def _fitted_name_matcher() -> NameMatcher:
    pairs = [(make_instance("price", "$ 100"), "PRICE"),
             (make_instance("cost", "$ 200"), "PRICE"),
             (make_instance("location", "Miami, FL"), "ADDRESS"),
             (make_instance("address", "Kent, WA"), "ADDRESS"),
             (make_instance("phone", "(206) 555 0100"), "PHONE")]
    learner = NameMatcher()
    instances, labels = training_set(pairs)
    learner.fit(instances, labels, space_of("PRICE", "ADDRESS", "PHONE"))
    return learner


def _query_instances() -> list[ElementInstance]:
    return [make_instance("price", "$ 42"),
            make_instance("location", "Boston, MA"),
            make_instance("phone", "(617) 555 0123"),
            make_instance("listing", "misc")]


class _SuicideLearner:
    """Hard-exits the worker mid-predict — the genuine crash path."""

    name = "suicide"

    def predict_scores(self, instances):
        import os
        os._exit(1)


class TestWorkerPool:
    @pytest.fixture()
    def pool(self):
        pool = WorkerPool([_fitted_name_matcher()], workers=2)
        yield pool
        pool.shutdown()

    def test_workers_answer_predict_tasks(self, pool):
        learner = _fitted_name_matcher()
        batch = _query_instances()
        expected = learner.predict_scores(batch)
        token = pool.ship_batch(batch)
        worker_id = pool.worker_ids()[0]
        pool.submit(worker_id, 0,
                    {"kind": "predict", "learner": "name_matcher",
                     "batch": token, "start": 0, "stop": len(batch)})
        events = pool.wait()
        assert events and events[0][0] == "result"
        reply = events[0][2]
        assert reply[0] == "ok" and reply[1] == 0
        assert np.array_equal(reply[2], expected)
        assert isinstance(reply[3], StageProfile)

    def test_armed_failure_travels_as_value(self, pool):
        token = pool.ship_batch(_query_instances())
        worker_id = pool.worker_ids()[0]
        pool.submit(worker_id, 1,
                    {"kind": "predict", "learner": "missing_learner",
                     "batch": token, "start": 0, "stop": 1,
                     "catch": True})
        reply = pool.wait()[0][2]
        # The lookup happens before the catch boundary, so this is an
        # uncaught worker-side error with the original KeyError shipped
        # home (picklable), never a crash.
        assert reply[0] == "error" and reply[1] == 1
        assert isinstance(reply[2], KeyError)
        assert reply[3] == "KeyError"

    def test_normal_shutdown_frees_the_segment(self):
        pool = WorkerPool([_fitted_name_matcher()], workers=2)
        name = pool.segment_name
        assert segment_exists(name)
        pool.shutdown()
        assert not segment_exists(name)
        assert not pool.alive

    def test_shutdown_is_idempotent(self, pool):
        pool.shutdown()
        pool.shutdown()
        assert not segment_exists(pool.segment_name)

    def test_crash_then_retire_frees_the_segment(self):
        pool = WorkerPool([_fitted_name_matcher()], workers=2)
        name = pool.segment_name
        pool.crash_worker(0)
        assert pool.broken and not pool.alive
        assert pool.worker_ids() == [1]
        pool.retire()
        assert not segment_exists(name)

    def test_abandoned_pool_is_finalized(self):
        pool = WorkerPool([_fitted_name_matcher()], workers=1)
        name = pool.segment_name
        del pool
        gc.collect()
        assert not segment_exists(name)


class TestRunProcessMap:
    @staticmethod
    def _tasks(batch, learner_name="name_matcher", fallbacks=None):
        tasks = []
        for index in range(len(batch)):
            value = None if fallbacks is None else fallbacks[index]
            tasks.append(ProcessTask(
                payload={"kind": "predict", "learner": learner_name,
                         "start": index, "stop": index + 1},
                batch=batch,
                fallback=(lambda profile, v=value, i=index:
                          f"fallback-{i}" if v is None else v)))
        return tasks

    def test_dead_pool_falls_back_to_serial(self):
        pool = WorkerPool([_fitted_name_matcher()], workers=1)
        try:
            pool.crash_worker(0)
            executor = ParallelExecutor(workers=2, pool=pool)
            batch = _query_instances()
            results = run_process_map(executor, self._tasks(batch),
                                      StageProfile(), "predict")
            assert results == [f"fallback-{i}" for i in range(len(batch))]
        finally:
            pool.shutdown()

    def test_mid_map_worker_death_retires_pool_and_finishes_serially(self):
        """A worker dying with tasks in flight: the map raises
        ``PoolBrokenError`` internally, retires the pool (segment
        released immediately — hygiene never waits for the system), and
        finishes every unfinished task through its local fallback."""
        pool = WorkerPool([_fitted_name_matcher(), _SuicideLearner()],
                          workers=1)
        name = pool.segment_name
        try:
            executor = ParallelExecutor(workers=2, pool=pool)
            batch = _query_instances()
            results = run_process_map(
                executor, self._tasks(batch, learner_name="suicide"),
                StageProfile(), "predict")
            assert results == [f"fallback-{i}" for i in range(len(batch))]
            assert pool.broken
            assert not segment_exists(name)
        finally:
            pool.shutdown()


class TestTaskFailure:
    def test_from_exception_keeps_both_strings(self):
        failure = TaskFailure.from_exception(ValueError("bad rows"))
        assert failure.error_type == "ValueError"
        assert failure.message == "bad rows"
        assert failure.cause == "bad rows"

    def test_cause_falls_back_to_type_on_empty_message(self):
        assert TaskFailure("TimeoutError", "").cause == "TimeoutError"

    def test_remote_task_error_message(self):
        error = RemoteTaskError("WeirdError", "unpicklable state")
        assert "WeirdError" in str(error)
        assert "unpicklable state" in str(error)
        assert RemoteTaskError("Bare", "").args[0] == "Bare"
