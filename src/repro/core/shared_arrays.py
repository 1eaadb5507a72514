"""Zero-copy export of a model's large arrays into shared storage.

The worker-process pool (:mod:`repro.core.procpool`) and the
array-store persistence format (:mod:`repro.core.persistence`) share one
problem: a trained :class:`~repro.core.system.LSDSystem` is mostly a
handful of big read-only numpy arrays — the TF-IDF CSR ``data`` /
``indices`` / ``indptr`` triplets behind the WHIRL indexes, the
meta-learner's weight matrix, one-hot label matrices — wrapped in a thin
object graph. Pickling the whole system per worker (or loading it with
a full deserialize-copy) duplicates exactly the bytes that never change.

This module splits the two: :func:`extract_arrays` pickles an object
graph while *hoisting* every qualifying ndarray out of the stream
(``pickle``'s ``persistent_id`` hook), returning the array-free payload
plus the hoisted arrays; :func:`restore` re-inflates the payload with
externally supplied array views spliced back in. The views can live
anywhere — a :class:`SharedArrayStore` segment
(``multiprocessing.shared_memory``), ``np.load(..., mmap_mode="r")``
memmaps of ``.npy`` sidecar files, or plain copies — the payload never
knows. scipy sparse matrices need no special casing: their pickle state
contains the three CSR arrays, which flow through the same hook (the
``has_sorted_indices`` flag rides along in the state dict).

Restored views are **read-only** by contract: every consumer of fitted
model state sees the same physical bytes, so a write anywhere would be
a cross-process data race. The fitted pipeline never writes its model
arrays (:class:`~repro.text.tfidf.TfidfVectorSpace` and
:class:`~repro.learners.meta.StackingMetaLearner` freeze theirs at fit
time to prove it); a consumer that genuinely needs a scratch copy must
``np.array(view)`` explicitly.

Store lifecycle (the "who unlinks what" contract):

* the process that *creates* a :class:`SharedArrayStore` owns the
  segment and must :meth:`~SharedArrayStore.unlink` it (pool shutdown
  does; a ``weakref.finalize`` safety net covers abandonment);
* attachers only ever :meth:`~SharedArrayStore.close` their mapping —
  never unlink — and a worker that dies without closing costs nothing:
  the OS drops its mapping and the owner's unlink still frees the name.
"""

from __future__ import annotations

import io
import itertools
import os
import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

#: Arrays at or above this many bytes are hoisted out of the pickle
#: stream. Sized to catch every model-scale array (TF-IDF triplets,
#: label matrices, the meta weight table) while leaving tiny tuples of
#: bounds and the like inline where a handle would cost more than the
#: bytes it saves.
MIN_SHARED_BYTES = 1024

#: Tag for hoisted-array persistent ids; anything else in a payload's
#: persistent-id stream is rejected at load time.
_PID_TAG = "repro.shared-array"

#: Offsets inside a segment are aligned to this many bytes so every
#: view is at least cache-line aligned regardless of preceding dtypes.
_ALIGN = 64


@dataclass(frozen=True)
class ArraySpec:
    """Placement of one hoisted array inside a backing store."""

    dtype: str
    shape: tuple[int, ...]
    offset: int
    nbytes: int


class _HoistingPickler(pickle.Pickler):
    """Pickler that lifts large ndarrays out of the stream.

    ``persistent_id`` runs before memoisation, so repeated references to
    the same array object are deduplicated by ``id`` here — they share
    one hoisted slot exactly as vanilla pickle would share one memo
    entry.
    """

    def __init__(self, buffer, min_bytes: int) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays: list[np.ndarray] = []
        self._min_bytes = min_bytes
        self._slot_by_id: dict[int, int] = {}

    def persistent_id(self, obj):
        # Exactly np.ndarray: subclasses (np.memmap, masked arrays)
        # carry semantics a flat byte copy would drop, and object
        # dtypes hold references that cannot live in shared memory.
        if (type(obj) is np.ndarray and not obj.dtype.hasobject
                and obj.nbytes >= self._min_bytes):
            slot = self._slot_by_id.get(id(obj))
            if slot is None:
                slot = self._slot_by_id[id(obj)] = len(self.arrays)
                self.arrays.append(np.ascontiguousarray(obj))
            return (_PID_TAG, slot)
        return None


class _AttachingUnpickler(pickle.Unpickler):
    """Unpickler that splices externally stored arrays back in."""

    def __init__(self, buffer, views) -> None:
        super().__init__(buffer)
        self._views = views

    def persistent_load(self, pid):
        if (not isinstance(pid, tuple) or len(pid) != 2
                or pid[0] != _PID_TAG):
            raise pickle.UnpicklingError(
                f"unsupported persistent id {pid!r}")
        return self._views[pid[1]]


def extract_arrays(obj, min_bytes: int = MIN_SHARED_BYTES
                   ) -> tuple[bytes, list[np.ndarray]]:
    """Pickle ``obj`` with its large arrays hoisted out.

    Returns ``(payload, arrays)``: the array-free pickle bytes and the
    hoisted arrays in slot order (contiguous copies where the originals
    were not). ``restore(payload, arrays)`` is the identity; storing
    the arrays elsewhere and restoring with views is the point.
    """
    buffer = io.BytesIO()
    pickler = _HoistingPickler(buffer, min_bytes)
    pickler.dump(obj)
    return buffer.getvalue(), pickler.arrays


def restore(payload: bytes, views) -> object:
    """Re-inflate an :func:`extract_arrays` payload around ``views``.

    ``views`` supplies the hoisted arrays by slot — any sequence of
    ndarray-compatible objects (shared-memory views, memmaps, copies).
    """
    return _AttachingUnpickler(io.BytesIO(payload), list(views)).load()


def layout(arrays) -> tuple[list[ArraySpec], int]:
    """Aligned placement of ``arrays`` in one flat buffer.

    Returns the per-array specs plus the total byte size (at least 1,
    so an empty layout still backs a creatable segment).
    """
    specs: list[ArraySpec] = []
    offset = 0
    for array in arrays:
        offset = -(-offset // _ALIGN) * _ALIGN
        specs.append(ArraySpec(array.dtype.str, tuple(array.shape),
                               offset, array.nbytes))
        offset += array.nbytes
    return specs, max(offset, 1)


_SEGMENT_COUNTER = itertools.count()


def _segment_name() -> str:
    """Deterministic-per-process segment name: ``lsd_<pid>_<seq>``.

    The pid keeps concurrent test runs apart; the sequence number makes
    leak hunting trivial (``ls /dev/shm | grep lsd_``) and reproducible
    within a process.
    """
    return f"lsd_{os.getpid()}_{next(_SEGMENT_COUNTER)}"


class SharedArrayStore:
    """One shared-memory segment holding a set of hoisted arrays.

    Created by the pool owner (copying the arrays in once), attached by
    workers via the picklable :attr:`handle`. See the module docstring
    for the close/unlink ownership contract.
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 specs: list[ArraySpec], owner: bool) -> None:
        self._shm = shm
        self._specs = specs
        self._owner = owner
        self._released = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, arrays) -> "SharedArrayStore":
        """Allocate a segment and copy ``arrays`` into it (owner side)."""
        arrays = [np.ascontiguousarray(array) for array in arrays]
        specs, total = layout(arrays)
        while True:
            try:
                shm = shared_memory.SharedMemory(
                    name=_segment_name(), create=True, size=total)
                break
            except FileExistsError:
                continue  # stale name from a recycled pid; next seq
        for array, spec in zip(arrays, specs):
            view = np.ndarray(spec.shape, dtype=spec.dtype,
                              buffer=shm.buf, offset=spec.offset)
            view[...] = array
        return cls(shm, specs, owner=True)

    @classmethod
    def attach(cls, handle: tuple) -> "SharedArrayStore":
        """Map an existing segment from its :attr:`handle` (worker side)."""
        name, specs = handle
        shm = shared_memory.SharedMemory(name=name, create=False)
        return cls(shm, list(specs), owner=False)

    @property
    def handle(self) -> tuple:
        """Picklable ``(segment name, specs)`` pair for attachers."""
        return (self._shm.name, list(self._specs))

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Allocated size of the segment in bytes (telemetry; the OS
        may round the request up to a page multiple)."""
        return self._shm.size

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def views(self) -> list[np.ndarray]:
        """Read-only ndarray views over the segment, in slot order."""
        out: list[np.ndarray] = []
        for spec in self._specs:
            view = np.ndarray(spec.shape, dtype=spec.dtype,
                              buffer=self._shm.buf, offset=spec.offset)
            view.setflags(write=False)
            out.append(view)
        return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (attacher obligation).

        Live ndarray views may still export the segment's buffer — the
        interpreter refuses to unmap under them (``BufferError``); that
        is fine for a process about to exit, whose mapping dies with it
        either way, so the error is absorbed rather than propagated.
        """
        if self._released:
            return
        self._released = True
        try:
            self._shm.close()
        except BufferError:  # views outlive the close; see docstring
            pass

    def unlink(self) -> None:
        """Free the segment name (owner obligation, exactly once)."""
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked (idempotent)
            pass

    def release(self) -> None:
        """Owner teardown: close the mapping and unlink the name."""
        self.close()
        self.unlink()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "owner" if self._owner else "attached"
        return (f"<SharedArrayStore {self._shm.name} {role} "
                f"{len(self._specs)} arrays>")


def segment_exists(name: str) -> bool:
    """True if a shared-memory segment called ``name`` still exists.

    The leak tests poll this after pool shutdown / crashes; implemented
    by probing an attach so it works on every platform the stdlib
    supports, not just /dev/shm hosts.
    """
    try:
        probe = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return False
    probe.close()
    return True
