#!/usr/bin/env python3
"""End-to-end benchmark of the LSD schema matcher.

    python3 perfbench/run.py --workload cli_cold|stream_warm|feedback_re2
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``
and every file the run writes lives under ``.perfbench_work/``, which
is removed at exit. ``--seed`` fixes every input (corpora, fresh
samples); ``--seconds`` fixes how much work the run does (see
workloads.py); the work never depends on the clock.

``--trace 0`` times one pass of calls and prints the end-to-end
metrics. ``--trace 1`` sets up once with the layer entry points
wrapped, then makes three passes -- untraced, traced, traced -- and
prints the per-layer metrics; it fails unless the two traced passes
repeat every work count exactly and all three passes give identical
outputs. Either way a human-readable report precedes the last line,
which is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads
from stats import percentile, quartiles, samples_beyond

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
#: Set-ups per untraced run; setup_s is their median. Each set-up
#: trains four (or three) models from scratch, which is most of a run's
#: time, so the repeat count is what the run budget allows (README.md).
SETUP_REPEATS = 1
#: Sanity floor for mean accuracy; the paper reports 71-92 % and this
#: program scores higher on its synthetic domains.
ACCURACY_FLOOR = 0.5
LEARNERS = ("name_matcher", "content_matcher", "naive_bayes",
            "xml_learner", "county_recognizer", "phone_recognizer")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="End-to-end benchmark of the LSD schema matcher.")
    parser.add_argument("--workload", required=True,
                        choices=("cli_cold", "stream_warm", "feedback_re2"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run "
              f"from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing must not vary between runs: set iteration order
        # can steer tie-breaks, and the work counts must repeat exactly.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path.insert(0, str(ROOT / "src"))
    # Import the program before anything is timed: the benchmark's own
    # imports are not set-up work.
    import repro.cli  # noqa: F401
    import repro.core.feedback  # noqa: F401
    import repro.evaluation.configurations  # noqa: F401

    # Turn a termination request into an exception, so the cleanup
    # below runs and the child process of the moment is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                  workdir)
        result = (traced_run(work) if args.trace else timed_run(work))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def timed_run(work) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        workloads.reset_featurize()
        gc.collect()
        started = time.perf_counter()
        work.setup(traced=False)
        setups.append(time.perf_counter() - started)
    record = work.run_pass(traced=False)
    latencies_ms = [seconds * 1000 for seconds in record.latencies]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "call_p50_ms": (statistics.median(latencies_ms), "ms"),
        "listings_per_s": (record.listings / sum(record.latencies), "1/s"),
        "accuracy": (statistics.fmean(record.accuracies), "ratio"),
        "peak_rss_mb": (record.peak_rss_mb, "MB"),
        "ok_share": (1 - record.errors / record.attempted, "ratio"),
        "proven_share": (1 - record.unproven / record.handler_runs,
                         "ratio"),
    }
    report_header(work, record)
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "call_p50_ms":
            note = timing_note(latencies_ms)
        elif name == "setup_s":
            note = f"median of {len(setups)} set-up(s)"
        print(f"  {name:<16} {value:12.4f} {unit:<6} {note}")
    report_extras(record)
    correct = (record.errors == 0
               and metrics["accuracy"][0] >= ACCURACY_FLOOR)
    return result_line(correct, record.attempted, record.errors, metrics)


def traced_run(work) -> dict:
    tracer = layers.Tracer()
    layers.install(tracer)
    tracer.phase = layers.SETUP
    try:
        work.setup(traced=True)
    finally:
        tracer.phase = layers.IDLE
        tracer.uninstall()
    setup_layers = layers.aggregate(tracer.closed_spans(), layers.SETUP)
    layers.merge(setup_layers, work.child_setup[0])
    setup_gc_s = (tracer.gc.get(layers.SETUP, [0.0, 0])[0]
                  + work.child_setup[1][0])
    work.repeat_passes = True
    plain = work.run_pass(traced=False)
    first = work.run_pass(traced=True)
    second = work.run_pass(traced=True)
    passes = (plain, first, second)

    problems = []
    if not plain.outputs() == first.outputs() == second.outputs():
        problems.append("outputs differ between untraced and traced passes")
    counts = [work_counts(p) for p in (first, second)]
    for key in sorted(set(counts[0]) | set(counts[1])):
        if counts[0].get(key) != counts[1].get(key):
            problems.append(f"{key}: {counts[0].get(key)} then "
                            f"{counts[1].get(key)}")
    for problem in problems:
        print(f"determinism: {problem}", file=sys.stderr)

    crosscheck = (work.crosscheck() if work.name == "cli_cold" else 0.0)
    metrics = layer_metrics(work, first, plain, setup_layers, setup_gc_s,
                            crosscheck, import_probe_ms(work))
    report_header(work, first)
    print_layer_table(work, first)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.4f} {unit}")
    errors = sum(p.errors for p in passes)
    correct = errors == 0 and not problems and statistics.fmean(
        first.accuracies) >= ACCURACY_FLOOR
    return result_line(correct, sum(p.attempted for p in passes), errors,
                       metrics)


def work_counts(record) -> dict:
    """Every count a traced pass recorded; these must repeat exactly."""
    counts = {"featurize.hits": record.featurize[0],
              "featurize.misses": record.featurize[1]}
    for name, entry in record.layers.items():
        counts[f"{name}.calls"] = entry["calls"]
        for key, value in entry["counts"].items():
            counts[f"{name}.{key}"] = value
    return counts


def layer_metrics(work, record, plain, setup_layers, setup_gc_s,
                  crosscheck, import_ms) -> dict:
    calls = record.attempted
    spans = record.layers

    def self_ms(name, table=spans):
        return table.get(name, {}).get("self_s", 0.0) * 1000

    def per_call(name):
        return self_ms(name) / calls

    def count(name, key, table=spans):
        return table.get(name, {}).get("counts", {}).get(key, 0)

    attributed_s = sum(entry["self_s"] for entry in spans.values())
    wall_s = sum(record.latencies)
    ingest_s = spans.get("ingest", {}).get("self_s", 0.0)
    hits, misses = record.featurize
    in_calls = "load" in spans
    load_table = spans if in_calls else setup_layers
    metrics = {
        "startup.import_ms": (import_ms, "ms"),
        "ingest.ms": (per_call("ingest"), "ms"),
        "ingest.bytes": (count("ingest", "bytes"), "count"),
        "ingest.mb_per_s": (count("ingest", "bytes") / 1e6 / ingest_s
                            if ingest_s else 0.0, "MB/s"),
        "dtd.ms": (per_call("dtd"), "ms"),
        "persistence.load_ms": (self_ms("load", load_table)
                                / (calls if in_calls else 1), "ms"),
        "persistence.model_bytes": (count("load", "model_bytes",
                                          load_table), "count"),
        "persistence.save_ms": (self_ms("save", setup_layers), "ms"),
        "instance.extract_ms": (per_call("extract"), "ms"),
        "instance.instances": (count("extract", "instances"), "count"),
        "featurize.hits": (hits, "count"),
        "featurize.misses": (misses, "count"),
        "featurize.hit_ratio": (hits / (hits + misses)
                                if hits + misses else 0.0, "ratio"),
    }
    for learner in LEARNERS:
        metrics[f"learners.{learner}.predict_ms"] = (
            per_call(f"predict.{learner}"), "ms")
        metrics[f"learners.{learner}.rows"] = (
            count(f"predict.{learner}", "rows"), "count")
        metrics[f"learners.{learner}.fit_ms"] = (
            self_ms(f"fit.{learner}", setup_layers), "ms")
    # Cross-validation: the CV span's own time plus the fold
    # predictions made inside it (set-up predicts nowhere else).
    cv_ms = self_ms("cv", setup_layers) + sum(
        self_ms(name, setup_layers) for name in setup_layers
        if name.startswith("predict."))
    cli_other_ms = 0.0
    if work.name == "cli_cold":
        cli_other_ms = (wall_s - record.import_s - record.install_s
                        - attributed_s) * 1000 / calls
        attributed_s = wall_s
    metrics.update({
        "meta.cv_ms": (cv_ms, "ms"),
        "meta.combine_ms": (per_call("combine"), "ms"),
        "converter.convert_ms": (per_call("convert"), "ms"),
        "matching.other_ms": (per_call("match"), "ms"),
        "constraints.search_ms": (per_call("search"), "ms"),
        "constraints.nodes_expanded": (count("search", "nodes_expanded"),
                                       "count"),
        "constraints.unproven": (count("search", "unproven"), "count"),
        "cli.other_ms": (cli_other_ms, "ms"),
        "runtime.gc_ms": (record.gc[0] * 1000 / calls, "ms"),
        "runtime.gc_collections": (record.gc[1], "count"),
        "runtime.setup_gc_ms": (setup_gc_s * 1000, "ms"),
        "host.ref_ms": (statistics.median(plain.ref_ms + record.ref_ms),
                        "ms"),
        "trace.calls": (calls, "count"),
        "trace.overhead_pct": (
            (statistics.median(record.latencies)
             / statistics.median(plain.latencies) - 1) * 100, "%"),
        "trace.unattributed_pct": ((wall_s - attributed_s) / wall_s * 100,
                                   "%"),
        "trace.crosscheck_gap_pct": (crosscheck, "%"),
        "feedback.corrections_per_source": (
            record.corrections / record.sources if record.sources else 0.0,
            "count"),
    })
    return metrics


def import_probe_ms(work, probes: int = 3) -> float:
    """``import repro.cli`` in a fresh interpreter, median of a few."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(probes):
        out = subprocess.run([sys.executable, "-c", code], env=work.env,
                             check=True, capture_output=True, text=True)
        times.append(float(out.stdout) * 1000)
    return statistics.median(times)


def print_layer_table(work, record) -> None:
    """Self time per call of every layer the calls entered; the rows add
    up to the call's wall time."""
    calls = record.attempted
    wall_ms = sum(record.latencies) * 1000 / calls
    rows = [(name, entry["self_s"] * 1000 / calls)
            for name, entry in record.layers.items()]
    if work.name == "cli_cold":
        rows.append(("startup.import", record.import_s * 1000 / calls))
        rows.append(("trace.install", record.install_s * 1000 / calls))
        rows.append(("cli.other", wall_ms - sum(ms for _, ms in rows)))
    else:
        rows.append(("unattributed", wall_ms - sum(ms for _, ms in rows)))
    print(f"  layer table: {calls} traced calls, {wall_ms:.1f} ms per call")
    for name, ms in sorted(rows, key=lambda row: -row[1]):
        print(f"    {name:<32} {ms:10.2f} ms  {ms / wall_ms * 100:6.1f} %")


def report_header(work, record) -> None:
    print(f"{work.name} seed={work.seed}: {record.attempted} calls, "
          f"{record.errors} failed, {record.listings} listings")


def report_extras(record) -> None:
    q1, median, q3 = quartiles(record.ref_ms)
    print(f"  host.ref_ms      {median:12.4f} ms     (q1 {q1:.2f}, "
          f"q3 {q3:.2f}; diagnostic only)")
    if record.sources:
        print(f"  corrections_per_source {record.corrections / record.sources:.4f}"
              f" ({record.corrections} corrections, {record.sources} "
              f"sources)")


def timing_note(values) -> str:
    """Sample count, quartiles and the 90th percentile, which is printed
    but not a gated metric: at the call counts the run budget allows it
    has fewer than 10 samples beyond it."""
    q1, _, q3 = quartiles(values)
    return (f"n={len(values)} q1={q1:.2f} q3={q3:.2f} "
            f"p90={percentile(values, 90):.2f} "
            f"({samples_beyond(len(values), 90)} beyond)")


def result_line(correct, attempted, failed, metrics) -> dict:
    return {"correct": bool(correct), "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
