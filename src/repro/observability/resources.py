"""Process-resource sampling from ``/proc/self``.

:func:`read_proc_self` reads one point-in-time snapshot of the calling
process — resident set size, cumulative CPU time, open file
descriptors, live threads — straight from procfs with no third-party
dependencies. Workers of the worker-process pool call it to ship
resource snapshots back over the pool's wire protocol; the driver calls
it through :class:`ResourceSampler` to keep the ``proc.*`` gauges live
while ``--serve-metrics`` is scraping.

Everything degrades to zeros on platforms without procfs (the sampler
never makes a run fail), and both the reader and the clock are
injectable so tests drive the sampler deterministically instead of
sleeping.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from .metrics import (M_PROC_CPU, M_PROC_FDS, M_PROC_RSS,
                      M_PROC_THREADS)

_PROC = "/proc/self"


@dataclass(frozen=True)
class ProcSample:
    """One point-in-time resource snapshot of a process."""

    rss_bytes: int = 0
    cpu_seconds: float = 0.0
    open_fds: int = 0
    threads: int = 0

    def as_dict(self) -> dict:
        return {"rss_bytes": self.rss_bytes,
                "cpu_seconds": self.cpu_seconds,
                "open_fds": self.open_fds,
                "threads": self.threads}

    @classmethod
    def from_dict(cls, data: dict) -> "ProcSample":
        return cls(rss_bytes=int(data.get("rss_bytes", 0)),
                   cpu_seconds=float(data.get("cpu_seconds", 0.0)),
                   open_fds=int(data.get("open_fds", 0)),
                   threads=int(data.get("threads", 0)))


def _read_status() -> tuple[int, int]:
    """(rss_bytes, threads) from ``/proc/self/status``."""
    rss = threads = 0
    with open(f"{_PROC}/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                rss = int(line.split()[1]) * 1024  # reported in kB
            elif line.startswith("Threads:"):
                threads = int(line.split()[1])
    return rss, threads


def _read_cpu_seconds() -> float:
    """utime+stime from ``/proc/self/stat`` in seconds."""
    with open(f"{_PROC}/stat") as handle:
        stat = handle.read()
    # comm may contain spaces/parens; fields resume after the last ')'.
    fields = stat[stat.rfind(")") + 2:].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")


def read_proc_self() -> ProcSample:
    """A snapshot of the calling process, zeros where procfs is
    unavailable."""
    try:
        rss, threads = _read_status()
    except OSError:
        rss = threads = 0
    try:
        cpu = _read_cpu_seconds()
    except (OSError, ValueError, IndexError):
        cpu = 0.0
    try:
        fds = len(os.listdir(f"{_PROC}/fd"))
    except OSError:
        fds = 0
    return ProcSample(rss_bytes=rss, cpu_seconds=cpu, open_fds=fds,
                      threads=threads)


def sample_into(registry, sample: ProcSample | None = None) -> None:
    """Publish one snapshot to the ``proc.*`` gauges."""
    if not registry.enabled:
        return
    if sample is None:
        sample = read_proc_self()
    registry.gauge(M_PROC_RSS).set(float(sample.rss_bytes))
    registry.gauge(M_PROC_CPU).set(sample.cpu_seconds)
    registry.gauge(M_PROC_FDS).set(float(sample.open_fds))
    registry.gauge(M_PROC_THREADS).set(float(sample.threads))


class ResourceSampler:
    """A background thread refreshing the ``proc.*`` gauges on an
    interval.

    Started by ``--serve-metrics`` so scrapes see live resource
    figures. The reader and the wait primitive are injectable: tests
    pass a canned reader and drive :meth:`sample_once` directly (or a
    zero interval with a bounded ``max_samples``), so sampler behaviour
    is deterministic without wall-clock sleeps.
    """

    def __init__(self, registry, interval: float = 1.0, reader=None,
                 max_samples: int | None = None) -> None:
        self._registry = registry
        self._interval = max(0.0, float(interval))
        self._reader = reader if reader is not None else read_proc_self
        self._max_samples = max_samples
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.samples_taken = 0

    def sample_once(self) -> ProcSample | None:
        """Take and publish one sample; also the loop body.

        A disabled registry makes the whole sampler inert — no read,
        no count — so a null observer never pays for /proc traffic.
        """
        if not self._registry.enabled:
            return None
        sample = self._reader()
        sample_into(self._registry, sample)
        self.samples_taken += 1
        return sample

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sample_once()
            if (self._max_samples is not None
                    and self.samples_taken >= self._max_samples):
                return
            if self._stop.wait(self._interval):
                return

    def start(self) -> "ResourceSampler":
        if self._thread is None and self._registry.enabled:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="lsd-resource-sampler",
                daemon=True)
            self._thread.start()
        return self

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# Re-exported for procpool's wire-protocol use without a metrics import.
__all__ = ["ProcSample", "read_proc_self", "sample_into",
           "ResourceSampler"]
