"""Crash-safe checkpoint/resume, end to end.

The durability contract: a run killed at any stage boundary resumes to
a byte-identical mapping. Proven two ways — in-process against the
matching pipeline directly (fast, covers partial-manifest resume), and
through the real CLI with an injected ``SIGKILL``
(``LSD_CHECKPOINT_CRASH``) followed by ``--resume``.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _graceful_shutdown, main
from repro.observability import dataset_fingerprint
from repro.resilience import ResiliencePolicy
from repro.runtime import Checkpointer, run_key

from .test_core_system import (GREATHOMES_LISTINGS, GREATHOMES_SCHEMA,
                               trained_system)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def system():
    return trained_system()


def _match(system, checkpoint=None):
    return system.match(GREATHOMES_SCHEMA, GREATHOMES_LISTINGS,
                        checkpoint=checkpoint)


def _open_checkpoint(tmp_path, resume=False):
    fingerprint = dataset_fingerprint(
        GREATHOMES_SCHEMA.tags,
        [listing.text_content() for listing in GREATHOMES_LISTINGS])
    checkpoint = Checkpointer(tmp_path / "ck", run_key(fingerprint))
    checkpoint.open(resume=resume)
    return checkpoint


class TestInProcessResume:
    def test_checkpointed_run_matches_the_baseline(self, system,
                                                   tmp_path):
        baseline = _match(system)
        checkpointed = _match(system,
                              checkpoint=_open_checkpoint(tmp_path))
        assert checkpointed.mapping == baseline.mapping

    def test_full_resume_replays_the_identical_mapping(self, system,
                                                       tmp_path):
        baseline = _match(system, checkpoint=_open_checkpoint(tmp_path))
        resumed_ck = _open_checkpoint(tmp_path, resume=True)
        assert resumed_ck.resumed_from is not None
        assert resumed_ck.has("constrain")
        resumed = _match(system, checkpoint=resumed_ck)
        assert resumed.mapping == baseline.mapping

    def test_resume_from_extract_only_is_byte_identical(self, system,
                                                        tmp_path):
        """Simulate a crash right after the extract stage committed:
        the resumed run must re-predict and re-search to the same
        mapping the uninterrupted run produced."""
        baseline = _match(system, checkpoint=_open_checkpoint(tmp_path))
        partial = _open_checkpoint(tmp_path, resume=True)
        partial.manifest["stages"] = ["extract"]
        partial.manifest["scores"] = {}
        resumed = _match(system, checkpoint=partial)
        assert resumed.mapping == baseline.mapping
        assert partial.has("predict") and partial.has("constrain")

    def test_resume_from_predict_skips_rescoring(self, system,
                                                 tmp_path):
        baseline = _match(system, checkpoint=_open_checkpoint(tmp_path))
        partial = _open_checkpoint(tmp_path, resume=True)
        partial.manifest["stages"] = ["extract", "predict"]
        resumed = _match(system, checkpoint=partial)
        assert resumed.mapping == baseline.mapping


class TestGracefulShutdown:
    def test_sigterm_trips_the_deadline_and_is_recorded(self):
        policy = ResiliencePolicy()
        deadline = policy.start_deadline()
        before = signal.getsignal(signal.SIGTERM)
        with _graceful_shutdown(policy):
            os.kill(os.getpid(), signal.SIGTERM)
            # The handler converts the signal into a deadline trip; the
            # run then finishes through its normal artifact writers.
            assert deadline.expired()
        shutdowns = [event for event in policy.report.watchdog
                     if event["kind"] == "shutdown"]
        assert len(shutdowns) == 1
        assert "SIGTERM" in shutdowns[0]["detail"]
        assert signal.getsignal(signal.SIGTERM) is before

    def test_flag_validation(self, tmp_path):
        base = ["match", "--model", str(tmp_path / "m"), "--schema",
                str(tmp_path / "s"), "--listings", str(tmp_path / "l")]
        assert main(base + ["--resume"]) == 2
        assert main(base + ["--checkpoint-dir", str(tmp_path),
                            "--watchdog", "0"]) == 2
        assert main(base + ["--rss-limit", "-1"]) == 2


# ---------------------------------------------------------------------------
# CLI SIGKILL matrix
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """A generated domain plus a trained model, built once through the
    real CLI entry point."""
    root = tmp_path_factory.mktemp("cli-durability")
    data = root / "data"
    model = root / "model.lsd"
    assert main(["generate", "--domain", "real_estate_1",
                 "--out", str(data), "--listings", "20",
                 "--seed", "7"]) == 0
    assert main(["train", "--mediated", str(data / "mediated.dtd"),
                 "--train", str(data / "homeseekers.com"),
                 str(data / "yahoo-homes.com"),
                 "--constraints", str(data / "constraints.txt"),
                 "--model", str(model), "--max-instances", "20"]) == 0
    return root


def _match_argv(workspace: Path, out: Path, *extra: str) -> list[str]:
    source = workspace / "data" / "greathomes.com"
    return ["match", "--model", str(workspace / "model.lsd"),
            "--schema", str(source / "schema.dtd"),
            "--listings", str(source / "listings.xml"),
            "--out", str(out), *extra]


def _run_cli(argv: list[str], crash_stage: str | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if crash_stage is not None:
        env["LSD_CHECKPOINT_CRASH"] = crash_stage
    else:
        env.pop("LSD_CHECKPOINT_CRASH", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], env=env,
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)


class TestCliCrashResume:
    @pytest.mark.parametrize("stage", ["extract", "predict",
                                       "constrain"])
    def test_sigkill_then_resume_is_byte_identical(
            self, cli_workspace, tmp_path, stage):
        baseline = tmp_path / "baseline.txt"
        assert main(_match_argv(cli_workspace, baseline)) == 0

        ck_dir = tmp_path / "ck"
        out = tmp_path / "mapping.txt"
        killed = _run_cli(
            _match_argv(cli_workspace, out,
                        "--checkpoint-dir", str(ck_dir)),
            crash_stage=stage)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert not out.exists()

        resumed = _run_cli(
            _match_argv(cli_workspace, out, "--checkpoint-dir",
                        str(ck_dir), "--resume"))
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming run" in resumed.stdout
        assert out.read_bytes() == baseline.read_bytes()

    def test_sigkilled_parallel_run_leaves_no_process_behind(
            self, cli_workspace, tmp_path):
        # Every process the run forks (workers, the shared-memory
        # resource tracker) inherits its stdout/stderr, so the pipes
        # reach EOF only once the last of them has exited.
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                   LSD_CHECKPOINT_CRASH="predict")
        argv = _match_argv(cli_workspace, tmp_path / "mapping.txt",
                           "--workers", "2",
                           "--checkpoint-dir", str(tmp_path / "ck"))
        run = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], env=env,
            cwd=REPO_ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, start_new_session=True)
        try:
            assert run.wait(timeout=300) == -signal.SIGKILL
            run.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            run.communicate()
            pytest.fail("processes of the killed run outlived it")

    def test_constraints_source_exists(self, cli_workspace):
        source = cli_workspace / "data" / "greathomes.com"
        assert (source / "schema.dtd").exists()
        assert (source / "listings.xml").exists()
