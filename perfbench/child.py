"""Child-process entry points of the benchmark.

    python perfbench/child.py prepare --seed N --out DIR [--trace-out F]
        Write the four domains' corpora under DIR and train one model
        per domain through ``lsd train`` (``repro.cli.main``).

    python perfbench/child.py cli --stats-out F [--trace] -- ARGS...
        Run ``repro.cli.main(ARGS)`` exactly as ``python -m repro ARGS``
        would, then write F: the exit code and, for every constraint
        handler run, whether the search was cut off (``last_stats
        ["anytime"]``). With --trace the layer entry points are
        wrapped (see layers.py) and F also holds the spans, the time
        ``import repro.cli`` took, collector time and featurize counts.

The program is found through PYTHONPATH, which the parent sets.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

DOMAINS = ("real_estate_1", "time_schedule", "faculty", "real_estate_2")
#: Listings per held-out source: the paper's source size (§6).
HELD_OUT_LISTINGS = 300
#: Listings per training source: the models' per-tag instance cap, so
#: a larger file would be parsed only to be cut off in extraction.
TRAIN_LISTINGS = 100


def held_out_split(domain):
    """(training sources, held-out sources): the first split in
    ``train_test_splits`` order, the same for every seed."""
    from repro.evaluation.experiment import train_test_splits

    return train_test_splits(domain.sources)[0]


def write_corpus(domain, root: Path) -> None:
    """Materialise one domain the way ``lsd generate`` lays it out."""
    from repro.datasets import faculty, real_estate, real_estate2, \
        time_schedule
    from repro.xmlio import write_dtd, write_element

    constraints = {"real_estate_1": real_estate.CONSTRAINTS,
                   "time_schedule": time_schedule.CONSTRAINTS,
                   "faculty": faculty.CONSTRAINTS,
                   "real_estate_2": real_estate2.CONSTRAINTS}
    root.mkdir(parents=True, exist_ok=True)
    (root / "mediated.dtd").write_text(
        write_dtd(domain.mediated_schema.dtd))
    (root / "constraints.txt").write_text(
        constraints[domain.name].strip() + "\n")
    train, test = held_out_split(domain)
    for source in domain.sources:
        count = TRAIN_LISTINGS if source in train else HELD_OUT_LISTINGS
        directory = root / source.name
        directory.mkdir(exist_ok=True)
        (directory / "schema.dtd").write_text(write_dtd(source.schema.dtd))
        body = "\n".join(write_element(listing, indent=2)
                         for listing in source.listings(count))
        (directory / "listings.xml").write_text(body + "\n")
        (directory / "mapping.txt").write_text("".join(
            f"{tag} = {label}\n"
            for tag, label in sorted(source.mapping.items())))


def prepare(seed: int, out: Path) -> None:
    from repro import cli
    from repro.datasets import load_domain

    for name in DOMAINS:
        domain = load_domain(name, seed=seed)
        root = out / name
        write_corpus(domain, root)
        train, _ = held_out_split(domain)
        argv = ["train", "--mediated", str(root / "mediated.dtd"),
                "--constraints", str(root / "constraints.txt"),
                "--model", str(out / f"{name}.lsd"),
                "--train", *[str(root / s.name) for s in train]]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"lsd train failed for {name}")


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    modes = parser.add_subparsers(dest="mode", required=True)
    prep = modes.add_parser("prepare")
    prep.add_argument("--seed", type=int, required=True)
    prep.add_argument("--out", type=Path, required=True)
    prep.add_argument("--trace-out", type=Path)
    run = modes.add_parser("cli")
    run.add_argument("--stats-out", type=Path, required=True)
    run.add_argument("--trace", action="store_true")
    run.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    if args.mode == "prepare":
        tracer = None
        if args.trace_out:
            import layers

            tracer = layers.Tracer()
            layers.install(tracer)
            tracer.phase = layers.SETUP
        prepare(args.seed, args.out)
        if tracer is not None:
            tracer.uninstall()
            args.trace_out.write_text(json.dumps(
                {"spans": tracer.closed_spans(), "gc": tracer.gc}))
        return 0

    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.phase = layers.CALL
        tracer.watch_gc()
    import_started = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - import_started
    from repro.constraints.handler import ConstraintHandler
    from repro.core import featurize

    install_s = 0.0
    if tracer is not None:
        install_started = time.perf_counter()
        layers.install(tracer)
        install_s = time.perf_counter() - install_started
    anytime: list[bool] = []
    search = ConstraintHandler.find_mapping

    def find_mapping(handler, *rest, **kwargs):
        mapping = search(handler, *rest, **kwargs)
        anytime.append(bool(handler.last_stats.get("anytime")))
        return mapping

    ConstraintHandler.find_mapping = find_mapping
    try:
        code = repro.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    stats = {"code": code, "anytime": anytime}
    if tracer is not None:
        tracer.uninstall()
        stats.update(spans=tracer.closed_spans(), gc=tracer.gc,
                     import_s=import_s, install_s=install_s,
                     child_s=time.perf_counter() - STARTED,
                     featurize=list(featurize.stats.snapshot()))
    args.stats_out.write_text(json.dumps(stats))
    return code


if __name__ == "__main__":
    sys.exit(main())
