"""Deterministic fan-out for learner prediction.

:class:`ParallelExecutor` is the one concurrency primitive the pipelines
use: an order-preserving ``map``. It runs in one of two ways, picked by
the worker count alone:

* serially, in-process and in order — the reference semantics, used at
  ``workers <= 1``, for any map that is not made of
  :class:`~repro.core.procpool.ProcessTask` descriptors, and for every
  map once the pool has died;
* on a persistent :class:`~repro.core.procpool.WorkerPool` when the
  executor holds a live pool and ``workers > 1``. Its workers hold the
  trained model, reconstructed once around a shared-memory segment
  (:mod:`repro.core.shared_arrays`), so the GIL-bound score kernels run
  in parallel. :meth:`ParallelExecutor.map_profiled` sends
  ``ProcessTask`` maps there; each descriptor carries a local
  ``fallback`` closure running the identical computation, which is how
  one code path serves serial execution and pool-death recovery.

Results always come back in submission order, so a pipeline wired
through an executor produces byte-identical output at any worker count —
the determinism tests pin this. Cross-validation folds stay serial: on
Real Estate I and II a thread fan-out of them measured 0.98-1.00x
serial (2 cores), and they capture live object graphs that have no
business being pickled per call. The pool is expensive to build and
cheap to keep, so it lives on the system (see ``LSDSystem.close_pool``)
and is merely borrowed here.

Resilience: an executor built with a :class:`~repro.resilience.policy.
ResiliencePolicy` retries failing tasks with seeded exponential backoff,
falls back to serial execution when the worker pool cannot be used, and
hits the ``executor.task`` / ``executor.pool`` fault sites (plus
``worker.process`` on the pool) so the chaos suite can exercise every
path deterministically. The default (no policy) executor behaves
exactly as before.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Iterable, TypeVar

from ..observability import StageProfile
from ..resilience.faults import FaultInjected
from ..resilience.sites import SITE_EXECUTOR_POOL, SITE_EXECUTOR_TASK
from .procpool import ProcessTask, run_process_map

T = TypeVar("T")
R = TypeVar("R")

#: Ceiling on a single backoff sleep, seconds.
_MAX_BACKOFF = 5.0


class ParallelExecutor:
    """Order-preserving ``map``: serial, or on a worker-process pool."""

    def __init__(self, workers: int = 1, policy=None, pool=None) -> None:
        """``workers <= 1`` selects the deterministic serial path.

        ``policy`` (a :class:`repro.resilience.ResiliencePolicy`) arms
        per-task retries and the executor fault sites; ``None`` keeps
        the executor inert. ``pool`` is a live
        :class:`~repro.core.procpool.WorkerPool`; without one (or once
        it breaks) every map runs serially.
        """
        self.workers = max(1, int(workers))
        self.policy = policy
        self.pool = pool

    @property
    def is_parallel(self) -> bool:
        """True when :class:`~repro.core.procpool.ProcessTask` maps run
        on the worker pool: ``workers > 1`` and the pool is alive."""
        return (self.workers > 1 and self.pool is not None
                and self.pool.alive)

    def map(self, fn: Callable[[T], R], items: Iterable[T],
            label: str = "map") -> list[R]:
        """Apply ``fn`` to every item, serially and in order.

        The first failing item raises — after the policy's retry budget
        (if any) is exhausted for that item.
        """
        # Serial either way; the pool fault site still fires so its hit
        # count matches a pooled map's.
        self._force_serial(label)
        task = self._task_runner(lambda index, item: fn(item), label)
        return [task(index, item) for index, item in enumerate(items)]

    def map_profiled(self, fn: Callable[[T, StageProfile], R],
                     items: Iterable[T],
                     profile: StageProfile,
                     label: str = "map", observer=None) -> list[R]:
        """``map`` where each call records stage timings.

        ``fn(item, profile)`` receives the shared ``profile`` directly.
        When the pool is live and every item is a
        :class:`~repro.core.procpool.ProcessTask`, the map runs on the
        worker pool instead (``fn`` is bypassed; each task's payload is
        dispatched and its ``fallback`` serves any serial rerun), and
        worker profiles merge into ``profile`` in submission order.
        ``observer`` carries the run's trace collector so worker-side
        spans replay into the same tree; the serial path opens its spans
        inline and ignores it.
        """
        items = list(items)
        if self.is_parallel and len(items) > 1 and all(
                isinstance(item, ProcessTask) for item in items):
            return run_process_map(self, items, profile, label,
                                   observer)
        return self.map(lambda item: fn(item, profile), items, label)

    # ------------------------------------------------------------------
    # resilience plumbing
    # ------------------------------------------------------------------
    def _force_serial(self, label: str) -> bool:
        """Hit the pool fault site; True = run this call serially.

        Fired on every map, whatever its size or the worker count, so
        the hit count — and therefore the recorded degradation — is
        identical at any ``--workers`` setting.
        """
        policy = self.policy
        if policy is None or policy.fault_plan is None:
            return False
        try:
            policy.fault_plan.fire(SITE_EXECUTOR_POOL, label)
        except FaultInjected:
            self._note_pool_failure(label)
            return True
        return False

    def _note_pool_failure(self, label: str) -> None:
        if self.policy is not None:
            self.policy.report.pool_failed(label)

    def _task_runner(self, call, label: str):
        """Wrap ``call(index, item)`` with fault-site hits and retries."""
        policy = self.policy
        if policy is None:
            return call
        plan = policy.fault_plan
        retries = policy.retries
        if plan is None and retries == 0:
            return call

        def task(index: int, item):
            for attempt in range(retries + 1):
                try:
                    if plan is not None:
                        plan.fire(SITE_EXECUTOR_TASK, str(index))
                    result = call(index, item)
                except Exception:
                    if attempt >= retries:
                        if retries:
                            policy.report.retried(
                                label, index, attempt + 1, False)
                        raise
                    self._backoff(label, index, attempt)
                    continue
                if attempt:
                    policy.report.retried(label, index, attempt + 1,
                                          True)
                return result
            raise AssertionError("unreachable")  # pragma: no cover

        return task

    def _backoff(self, label: str, index: int, attempt: int) -> None:
        """Sleep before a retry: seeded exponential backoff with jitter."""
        policy = self.policy
        base = 0.0 if policy is None else policy.backoff
        if base <= 0:
            return
        rng = random.Random(
            f"{policy.backoff_seed}|{label}|{index}|{attempt}")
        time.sleep(min(base * (2 ** attempt) * (0.5 + rng.random()),
                       _MAX_BACKOFF))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "parallel" if self.is_parallel else "serial"
        return f"<ParallelExecutor {mode} workers={self.workers}>"


#: Default target rows per prediction shard; see :func:`shard_bounds`.
#: Sized so small batches stay single-shard — per-shard spans/profiles
#: and the split's dedup bookkeeping only amortize on genuinely large
#: columns. Learners whose prediction cost is per-row (no per-call
#: amortized work) override
#: :attr:`repro.learners.base.BaseLearner.shard_rows` with a finer
#: grain so a parallel map can split them instead of letting one
#: whole-batch task bound the makespan.
SHARD_TARGET_ROWS = 2048
#: Ceiling on prediction shards per batch.
MAX_SHARDS = 8


class ShardScale:
    """Memory-pressure shard-grain scale (thread-safe).

    The pressure monitor (:mod:`repro.runtime.pressure`) halves the
    effective shard grain — doubling this factor — so per-task peak
    memory shrinks under RSS pressure. Learner scoring is row-wise by
    the :class:`~repro.learners.base.BaseLearner` contract, so a finer
    shard plan changes concatenation boundaries and trace shape only,
    never pipeline output. Registered in
    :data:`repro.runtime.checkpoint.REGISTERED_MUTABLE_STATE`: a
    resumed run safely starts back at factor 1.
    """

    __slots__ = ("_factor", "_lock")

    _MAX_FACTOR = 16

    def __init__(self) -> None:
        self._factor = 1
        self._lock = threading.Lock()

    @property
    def factor(self) -> int:
        return self._factor

    def halve(self) -> int:
        """Halve the shard grain once more; returns the new factor."""
        with self._lock:
            self._factor = min(self._factor * 2, self._MAX_FACTOR)
            return self._factor

    def reset(self) -> None:
        with self._lock:
            self._factor = 1


#: The process-wide shard-grain scale; factor 1 (the default) keeps
#: :func:`shard_bounds` the documented pure function of the batch size.
SHARD_SCALE = ShardScale()


def shard_bounds(n: int, target: int = SHARD_TARGET_ROWS,
                 max_shards: int = MAX_SHARDS) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` shards covering an ``n``-row batch.

    The plan is a pure function of ``n`` — never of the worker count —
    so a sharded fan-out stays byte-identical at any parallelism (the
    determinism sanitizer diffs workers 1 vs N, including the trace
    shape). Shards are near-equal, earlier shards taking the remainder,
    and an empty batch yields the single empty shard ``[(0, 0)]`` so
    callers still fan out one task per unit of work.

    Exception to purity: under memory pressure :data:`SHARD_SCALE`
    tightens the grain (see :class:`ShardScale`) — outputs stay
    byte-identical, only task granularity and trace shape change.
    """
    if n <= 0:
        return [(0, 0)]
    scale = SHARD_SCALE.factor
    if scale > 1:
        target = max(1, target // scale)
        max_shards = max_shards * scale
    shards = min(max_shards, max(1, -(-n // target)))
    base, remainder = divmod(n, shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < remainder else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


#: The shared serial executor — the default everywhere an executor is
#: optional, so existing call sites keep their exact behaviour.
SERIAL = ParallelExecutor(1)


def resolve(executor: ParallelExecutor | None) -> ParallelExecutor:
    """``executor`` or the serial default."""
    return executor if executor is not None else SERIAL
