"""The benchmark's workloads: closed loops, one client, serial.

Each workload has a set-up (corpus generation, training with the
program's own code, loading) and a *pass*: a fixed sequence of timed
calls whose inputs derive from the workload seed only. A pass returns a
:class:`Pass`; with ``traced=True`` the layer entry points are wrapped
(layers.py) and the pass also carries the per-layer aggregates.

* ``cli_cold`` -- one fresh ``python -m repro match`` process per call,
  default flags, rotating over the two held-out sources of the four
  domains (300 listings each). Interpreter start, imports, XML
  ingestion and model load dominate; nothing else measures them.
* ``stream_warm`` -- the four domain models are loaded once; each call
  is ``LSDSystem.match`` on a freshly generated 100-listing sample of a
  held-out source, domains rotating per call. Prediction and constraint
  search are the call; fresh samples keep the featurize memo at a
  realistic hit ratio. Runnable and traceable, but not gated: its
  short interpreter-bound calls follow the host's speed drift.
* ``feedback_re2`` -- the Real Estate II splits whose held-out sources
  include ``assessor-feed.gov`` (2, 4 and 7 in ``train_test_splits``
  order), 100 listings per source. A simulated user corrects the first
  wrong tag in ``review_order()`` until the mapping is perfect; every
  session match is a call. The only workload where constraint search
  carries real weight and where the same listings are re-matched.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from child import HELD_OUT_LISTINGS, held_out_split

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
DOMAINS = ("real_estate_1", "time_schedule", "faculty", "real_estate_2")
#: Listings per fresh ``stream_warm`` sample: the per-tag instance cap.
SAMPLE_LISTINGS = 100
#: ``feedback_re2``: splits holding out assessor-feed.gov, and listings
#: per source.
FEEDBACK_SPLITS = (2, 4, 7)
FEEDBACK_LISTINGS = 100
#: Safety stop for the simulated user (a perfect mapping needs at most
#: one correction per tag; Real Estate II sources have <= 47 tags).
MAX_CORRECTIONS = 200
#: Seconds of ``--seconds`` that buy one unit of work: a run makes
#: round(seconds / unit) units, at least one, so the work is fixed by
#: the arguments, never by the clock, and every run of one seed makes
#: exactly the same calls. At ``--seconds 40`` that is 3, 2 and 5
#: units, about 37, 40 and 22 s of calls on the reference host.
CLI_ROTATION_S = 13.0      # 8 CLI calls, one per held-out source
FEEDBACK_ROUND_S = 20.0    # the six sessions, each on a new sample
STREAM_ROTATION_S = 8.0    # 8 in-process matches


def reference_kernel_ms() -> float:
    """A fixed pure-Python loop, timed. Interleaved with the calls it
    shows how fast the host was; no metric is ever scaled by it."""
    started = time.perf_counter()
    total = 0
    for i in range(60000):
        total += (i * i) % 7
    return (time.perf_counter() - started) * 1000


def reset_peak_rss() -> None:
    """Reset VmHWM to the current RSS, so the peak covers what follows."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def reset_featurize() -> None:
    """Empty the process-wide featurize memo and zero its counters, so
    every pass starts from the same cache state."""
    from repro.core import featurize

    featurize.clear_text_cache()
    featurize.stats.reset()


@dataclass
class Pass:
    """What one pass of timed calls produced."""

    latencies: list[float] = field(default_factory=list)   # seconds
    listings: int = 0
    accuracies: list[float] = field(default_factory=list)
    errors: int = 0
    handler_runs: int = 0
    unproven: int = 0
    corrections: int = 0
    sources: int = 0
    ref_ms: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Traced passes only: layers.aggregate() of the call phase,
    #: collector [seconds, collections], featurize (hits, misses),
    #: summed ``import repro.cli`` seconds and summed seconds spent
    #: installing the wrappers (cli_cold).
    layers: dict = field(default_factory=dict)
    gc: list = field(default_factory=lambda: [0.0, 0])
    featurize: tuple = (0, 0)
    import_s: float = 0.0
    install_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def outputs(self) -> tuple:
        """The results that must not depend on tracing."""
        return (tuple(self.accuracies), self.errors, self.handler_runs,
                self.unproven, self.corrections)


class Workload:
    """Set-up plus a repeatable pass of timed calls."""

    name = ""

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.env = dict(os.environ)
        src = str(HERE.parent / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        #: Set by a traced set-up that ran in a child process:
        #: (layers.aggregate() of its spans, collector [seconds, runs]).
        self.child_setup: tuple[dict, list] = ({}, [0.0, 0])
        #: True when the run makes several passes of one unit of work
        #: each (traced runs).
        self.repeat_passes = False

    def units(self, unit_s: float) -> int:
        if self.repeat_passes:
            return 1  # a traced run's passes make one unit each
        return max(1, round(self.seconds / unit_s))

    def setup(self, traced: bool) -> None:
        raise NotImplementedError

    def run_pass(self, traced: bool) -> Pass:
        raise NotImplementedError

    def child(self, args: list[str]) -> None:
        subprocess.run([sys.executable, str(CHILD), *args], env=self.env,
                       check=True)

    def prepare_models(self, traced: bool) -> None:
        """Generate the corpora and train the four domain models through
        ``lsd train`` in a fresh process (so set-up never warms this
        process's caches)."""
        shutil.rmtree(self.workdir / "corpus", ignore_errors=True)
        args = ["prepare", "--seed", str(self.seed),
                "--out", str(self.workdir / "corpus")]
        if traced:
            args += ["--trace-out", str(self.workdir / "prepare.json")]
        self.child(args)
        if traced:
            data = json.loads((self.workdir / "prepare.json").read_text())
            self.child_setup = (layers.aggregate(data["spans"],
                                                 layers.SETUP),
                                data["gc"].get(layers.SETUP, [0.0, 0]))

    def rotation(self):
        """(domain, held-out source) in call order: domains rotate per
        call, then the domain's second held-out source."""
        from repro.datasets import load_domain

        domains = [load_domain(name, seed=self.seed) for name in DOMAINS]
        tests = [held_out_split(domain)[1] for domain in domains]
        return [(domains[d], tests[d][s]) for s in range(2)
                for d in range(len(domains))]


class CliCold(Workload):
    name = "cli_cold"

    def setup(self, traced):
        self.prepare_models(traced)
        self.order = self.rotation()
        # One untimed call compiles the program's bytecode, so the
        # first timed call does not pay for it.
        self.call(0, traced=False, record=None)

    def call(self, index: int, traced: bool, record: Pass | None,
             extra: list[str] = ()) -> dict:
        domain, source = self.order[index % len(self.order)]
        model = self.workdir / "corpus" / f"{domain.name}.lsd"
        directory = self.workdir / "corpus" / domain.name / source.name
        out = self.workdir / "mapping.txt"
        stats_out = self.workdir / "call.json"
        err_path = self.workdir / "stderr.txt"
        for stale in (out, stats_out):
            if stale.exists():
                stale.unlink()
        args = [sys.executable, str(CHILD), "cli",
                "--stats-out", str(stats_out)]
        if traced:
            args.append("--trace")
        args += ["--", "match", "--model", str(model),
                 "--schema", str(directory / "schema.dtd"),
                 "--listings", str(directory / "listings.xml"),
                 "--out", str(out), *extra]
        gc.collect()
        if record is not None:
            record.ref_ms.append(reference_kernel_ms())
        with open(err_path, "w+b") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(args, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        stats = (json.loads(stats_out.read_text())
                 if stats_out.exists() else {"anytime": []})
        if record is None:
            if proc.returncode != 0:
                raise RuntimeError(f"untimed CLI call failed: {stderr}")
            return stats
        from repro.core.mapping import Mapping

        record.latencies.append(elapsed)
        record.listings += min(HELD_OUT_LISTINGS, source.n_listings)
        record.peak_rss_mb = max(record.peak_rss_mb,
                                 usage.ru_maxrss / 1024)
        record.handler_runs += len(stats["anytime"])
        record.unproven += sum(stats["anytime"])
        mapping = Mapping(read_mapping(out)) if out.exists() else None
        if (proc.returncode != 0 or mapping is None
                or degradations(stderr)
                or not set(source.mapping.tags()) <= set(mapping.tags())):
            record.errors += 1
            print(f"{self.name}: call {index} failed "
                  f"(exit {proc.returncode}): {stderr.strip()[-300:]}",
                  file=sys.stderr)
            record.accuracies.append(0.0)
        else:
            record.accuracies.append(mapping.accuracy_against(
                source.mapping))
        if traced and "spans" in stats:  # absent when the child crashed
            layers.merge(record.layers,
                         layers.aggregate(stats["spans"], layers.CALL))
            gc_call = stats["gc"].get(layers.CALL, [0.0, 0])
            record.gc[0] += gc_call[0]
            record.gc[1] += gc_call[1]
            record.featurize = tuple(
                a + b for a, b in zip(record.featurize, stats["featurize"]))
            record.import_s += stats["import_s"]
            record.install_s += stats["install_s"]
        return stats

    def run_pass(self, traced):
        record = Pass()
        for index in range(8 * self.units(CLI_ROTATION_S)):
            self.call(index, traced, record)
        return record

    def crosscheck(self) -> float:
        """One traced call that also writes the program's own trace:
        the largest gap, in percent, between a wrapped layer and the
        program's span for the same step."""
        program_trace = self.workdir / "program-trace.jsonl"
        stats = self.call(0, traced=True, record=None,
                          extra=["--trace-out", str(program_trace)])
        program = {}
        for line in program_trace.read_text().splitlines():
            if line.strip():
                span = json.loads(line)
                program[span["span_id"]] = span["elapsed"]
        ours = layers.aggregate(stats["spans"], layers.CALL)

        def own(*names):
            return sum(ours[n]["self_s"] for n in names if n in ours)

        inside_match = [n for n in ours if n.startswith("predict.")] + [
            "match", "extract", "combine", "convert", "search"]
        pairs = [("run/load_model", own("load")),
                 ("run/parse_inputs", own("ingest", "dtd")),
                 ("run/match", own(*inside_match))]
        gaps = []
        for span_id, mine in pairs:
            theirs = program[span_id]
            gaps.append(abs(mine - theirs) / theirs * 100)
            print(f"crosscheck {span_id:<18} program {theirs * 1000:9.1f} ms"
                  f"  wrapped {mine * 1000:9.1f} ms", file=sys.stderr)
        return max(gaps)


def degradations(stderr: str) -> set[str]:
    """What a ``DEGRADED RUN: a; b`` line on the CLI's stderr names,
    less the anytime search exit, which counts as unproven instead."""
    named = set()
    for line in stderr.splitlines():
        if line.startswith("DEGRADED RUN:"):
            named.update(part.strip() for part in
                         line.split(":", 1)[1].split(";"))
    return named - {"anytime search exit"}


def accuracy(result, source) -> float:
    """§6 accuracy of a match result (0 when the call raised)."""
    if result is None:
        return 0.0
    return result.mapping.accuracy_against(source.mapping)


def read_mapping(path: Path) -> dict[str, str]:
    """Parse the ``tag = LABEL`` lines ``lsd match --out`` writes."""
    pairs = {}
    for line in path.read_text().splitlines():
        if "=" in line:
            tag, label = (part.strip() for part in line.split("=", 1))
            pairs[tag] = label
    return pairs


class InProcess(Workload):
    """Shared loop of the two in-process workloads."""

    def timed(self, record: Pass, tracer: layers.Tracer | None,
              fn, *args):
        """Run one call under the clock; returns its result or None."""
        gc.collect()
        record.ref_ms.append(reference_kernel_ms())
        if tracer is not None:
            tracer.phase = layers.CALL
        started = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # counted, reported, and the run goes on
            result = None
            record.errors += 1
            print(f"{self.name}: call raised {exc!r}", file=sys.stderr)
        record.latencies.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.phase = layers.IDLE
        return result

    def check(self, record: Pass, result, handler, source) -> bool:
        """Count one constraint-handler run and validate its result
        (None when the call raised); False when the call failed."""
        record.handler_runs += 1
        if result is None:
            return False
        record.unproven += int(bool(handler.last_stats.get("anytime")))
        degraded = (result.degradation is not None
                    and result.degradation.degraded)
        if degraded or not set(source.mapping.tags()) <= set(
                result.mapping.tags()):
            record.errors += 1
            print(f"{self.name}: degraded or incomplete mapping for "
                  f"{source.name}", file=sys.stderr)
            return False
        return True

    def run_pass(self, traced):
        record = Pass()
        tracer = None
        self.restore()
        reset_featurize()
        gc.collect()
        reset_peak_rss()
        if traced:
            tracer = layers.Tracer()
            layers.install(tracer)
        try:
            self.calls(record, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        record.peak_rss_mb = peak_rss_mb()
        if tracer is not None:
            from repro.core import featurize

            record.layers = layers.aggregate(tracer.closed_spans(),
                                             layers.CALL)
            record.gc = tracer.gc.get(layers.CALL, [0.0, 0])
            record.featurize = featurize.stats.snapshot()
        return record

    def restore(self) -> None:
        """Give the next pass systems in their just-set-up state."""

    def calls(self, record: Pass, tracer) -> None:
        raise NotImplementedError


class StreamWarm(InProcess):
    name = "stream_warm"

    def setup(self, traced):
        self.prepare_models(traced)
        self.order = self.rotation()
        self.load()
        self.fresh = True

    def load(self):
        from repro.core.persistence import load_system

        corpus = self.workdir / "corpus"
        self.systems = {name: load_system(corpus / f"{name}.lsd")
                        for name in DOMAINS}

    def restore(self):
        # The first pass gets the systems set-up loaded; later passes
        # (traced runs make three) reload them from the model files.
        if not self.fresh:
            self.systems = None
            gc.collect()
            self.load()
        self.fresh = False

    def calls(self, record, tracer):
        count = 8 * self.units(STREAM_ROTATION_S)
        for index in range(count):
            domain, source = self.order[index % len(self.order)]
            listings = source.listings(SAMPLE_LISTINGS,
                                       sample_seed=1 + index)
            system = self.systems[domain.name]
            result = self.timed(record, tracer, system.match,
                                source.schema, listings)
            record.listings += len(listings)
            self.check(record, result, system.handler, source)
            record.accuracies.append(accuracy(result, source))


class FeedbackRe2(InProcess):
    name = "feedback_re2"

    def setup(self, traced):
        from repro.datasets import load_domain
        from repro.evaluation.configurations import (SystemConfig,
                                                     build_system)
        from repro.evaluation.experiment import train_test_splits

        domain = load_domain("real_estate_2", seed=self.seed)
        splits = train_test_splits(domain.sources)
        self.rounds = []
        for index in FEEDBACK_SPLITS:
            train, test = splits[index]
            system = build_system(domain, SystemConfig("complete"),
                                  max_instances_per_tag=100, seed=0)
            for source in train:
                system.add_training_source(
                    source.schema, source.listings(FEEDBACK_LISTINGS),
                    source.mapping)
            system.train()
            self.rounds.append((system, test))
        self.frozen = None

    def restore(self):
        # With several passes (traced runs make three) each starts from
        # a copy of the trained systems: sessions leave state behind in
        # them. A single pass uses the trained systems directly.
        if not self.repeat_passes:
            return
        if self.frozen is None:
            self.frozen = [pickle.dumps(system) for system, _ in self.rounds]
            return
        self.rounds = [(pickle.loads(blob), test) for blob, (_, test)
                       in zip(self.frozen, self.rounds)]

    def calls(self, record, tracer):
        for sample in range(self.units(FEEDBACK_ROUND_S)):
            for system, test in self.rounds:
                for source in test:
                    self.session(record, tracer, system, source, sample)

    def session(self, record, tracer, system, source, sample):
        """Open one session and correct it until it is perfect."""
        from repro.core.feedback import FeedbackSession
        from repro.core.labels import OTHER

        listings = source.listings(FEEDBACK_LISTINGS, sample_seed=sample)
        truth = source.mapping
        session = self.timed(record, tracer, FeedbackSession, system,
                             source.schema, listings)
        result = session.result if session is not None else None
        record.listings += len(listings)
        record.sources += 1
        ok = self.check(record, result, system.handler, source)
        record.accuracies.append(accuracy(result, source))
        for _ in range(MAX_CORRECTIONS):
            if not ok:
                return
            wrong = next((tag for tag in session.review_order()
                          if session.mapping[tag] != truth.get(tag, OTHER)),
                         None)
            if wrong is None:
                return
            result = self.timed(record, tracer, session.assert_match,
                                wrong, truth.get(wrong, OTHER))
            record.listings += len(listings)
            record.corrections += 1
            ok = self.check(record, result, system.handler, source)
        record.errors += 1
        print(f"{self.name}: {source.name} not perfect after "
              f"{MAX_CORRECTIONS} corrections", file=sys.stderr)


WORKLOADS = {cls.name: cls for cls in (CliCold, StreamWarm, FeedbackRe2)}
