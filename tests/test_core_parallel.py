"""Tests for the deterministic parallel executor.

Generic closures always run serially; only ``ProcessTask`` maps reach a
worker pool (see ``tests/test_core_procpool.py``)."""

import pytest

from repro.core.parallel import SERIAL, ParallelExecutor, resolve


class TestMap:
    def test_serial_preserves_order(self):
        executor = ParallelExecutor(1)
        assert executor.map(lambda x: x * 2, range(10)) == \
            [x * 2 for x in range(10)]

    def test_parallel_preserves_order(self):
        executor = ParallelExecutor(4)
        items = list(range(200))
        assert executor.map(lambda x: x * x, items) == \
            [x * x for x in items]

    def test_parallel_matches_serial_exactly(self):
        items = [[i, i + 1] for i in range(50)]
        fn = lambda pair: sum(pair) / 7.0  # noqa: E731
        assert ParallelExecutor(4).map(fn, items) == \
            ParallelExecutor(1).map(fn, items)

    def test_single_item_skips_pool(self):
        # len(items) <= 1 takes the serial path even when parallel.
        assert ParallelExecutor(8).map(lambda x: x + 1, [41]) == [42]

    def test_empty_items(self):
        assert ParallelExecutor(4).map(lambda x: x, []) == []

    def test_exception_propagates_serial(self):
        def boom(x):
            raise ValueError(f"bad item {x}")
        with pytest.raises(ValueError, match="bad item 0"):
            ParallelExecutor(1).map(boom, [0, 1])

    def test_exception_propagates_parallel(self):
        def boom(x):
            if x == 3:
                raise ValueError("bad item 3")
            return x
        with pytest.raises(ValueError, match="bad item 3"):
            ParallelExecutor(4).map(boom, range(8))

    def test_first_failure_in_submission_order_wins(self):
        """When several items fail, the earliest *submitted* failure
        raises, at any worker count."""
        def boom(x):
            if x == 0:
                raise KeyError("submitted first")
            if x == 5:
                raise IndexError("submitted later")
            return x

        with pytest.raises(KeyError, match="submitted first"):
            ParallelExecutor(8).map(boom, range(8))


class TestMapProfiled:
    @staticmethod
    def _timed(x, profile):
        with profile.stage(f"task.{x % 2}"):
            profile.count("tasks")
        return x * 2

    def test_serial_shares_the_profile(self):
        from repro.observability import StageProfile
        profile = StageProfile()
        results = ParallelExecutor(1).map_profiled(
            self._timed, range(4), profile)
        assert results == [0, 2, 4, 6]
        assert profile.counters["tasks"] == 4

    def test_parallel_merges_worker_profiles(self):
        from repro.observability import StageProfile
        profile = StageProfile()
        results = ParallelExecutor(4).map_profiled(
            self._timed, range(8), profile)
        assert results == [x * 2 for x in range(8)]
        assert profile.counters["tasks"] == 8
        assert set(profile.timings) == {"task.0", "task.1"}

    def test_parallel_matches_serial(self):
        from repro.observability import StageProfile
        serial, parallel = StageProfile(), StageProfile()
        a = ParallelExecutor(1).map_profiled(self._timed, range(10),
                                             serial)
        b = ParallelExecutor(4).map_profiled(self._timed, range(10),
                                             parallel)
        assert a == b
        assert serial.counters == parallel.counters


class TestConstruction:
    def test_workers_floor_is_one(self):
        assert ParallelExecutor(0).workers == 1
        assert ParallelExecutor(-3).workers == 1

    def test_is_parallel(self):
        """Parallel means a live pool and more than one worker."""
        class Pool:
            alive = True

        pool = Pool()
        assert not ParallelExecutor(1, pool=pool).is_parallel
        assert not ParallelExecutor(2).is_parallel
        assert ParallelExecutor(2, pool=pool).is_parallel
        pool.alive = False
        assert not ParallelExecutor(2, pool=pool).is_parallel

    def test_resolve_defaults_to_serial(self):
        assert resolve(None) is SERIAL
        custom = ParallelExecutor(3)
        assert resolve(custom) is custom
        assert not SERIAL.is_parallel
