"""The §6.3 user-feedback experiment, with an oracle playing the user.

Protocol (quoted from the paper): tags of the testing source are scored
by "the number of distinct tags that can be nested within that tag" and
reviewed in decreasing score order; on the first incorrect label the user
supplies the correct one and LSD re-runs the constraint handler; the loop
repeats until every tag is matched correctly. The measurement is how many
corrections were needed.

Predictions are computed once per session, when it opens; each correction
re-runs only the handler on them (see :mod:`repro.core.feedback`). The
system must not be retrained while a session is open — a retrained system
needs a new session.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.feedback import FeedbackSession
from ..core.labels import OTHER
from ..core.system import LSDSystem
from ..datasets.base import Domain, Source
from .configurations import SystemConfig, build_system
from .experiment import ExperimentSettings
from .metrics import Accumulator


@dataclass
class FeedbackOutcome:
    """Result of driving one source to a perfect matching."""

    source_name: str
    corrections: int
    initial_accuracy: float
    final_accuracy: float
    total_tags: int


def corrections_to_perfect(system: LSDSystem, source: Source,
                           n_listings: int,
                           sample_seed: int = 0,
                           max_rounds: int = 200) -> FeedbackOutcome:
    """Drive the feedback loop until the mapping is perfect."""
    listings = source.listings(n_listings, sample_seed=sample_seed)
    session = FeedbackSession(system, source.schema, listings)
    truth = source.mapping
    initial = session.mapping.accuracy_against(truth,
                                               matchable_only=False)
    for __ in range(max_rounds):
        wrong = _first_wrong_tag(session, truth)
        if wrong is None:
            break
        session.assert_match(wrong, truth.get(wrong, OTHER))
    final = session.mapping.accuracy_against(truth, matchable_only=False)
    return FeedbackOutcome(
        source_name=source.name,
        corrections=session.corrections,
        initial_accuracy=initial,
        final_accuracy=final,
        total_tags=len(source.schema.tags))


def _first_wrong_tag(session: FeedbackSession, truth) -> str | None:
    """The first incorrectly labelled tag in §6.3 review order."""
    for tag in session.review_order():
        if session.mapping[tag] != truth.get(tag, OTHER):
            return tag
    return None


@dataclass
class FeedbackStudyResult:
    """Aggregated §6.3 numbers for one domain."""

    domain_name: str
    corrections: Accumulator
    tags: Accumulator
    outcomes: list[FeedbackOutcome]


def run_feedback_study(domain: Domain, settings: ExperimentSettings,
                       runs: int = 3) -> FeedbackStudyResult:
    """§6.3: several runs of train-on-3 / drive-1-to-perfect.

    Run ``r`` trains on sources ``r, r+1, r+2`` (mod 5) and tests on
    source ``r+3`` (mod 5) — a deterministic stand-in for the paper's
    random choices that still varies both sets across runs.
    """
    corrections = Accumulator()
    tags = Accumulator()
    outcomes: list[FeedbackOutcome] = []
    n = len(domain.sources)
    for run in range(runs):
        train = [domain.sources[(run + offset) % n] for offset in range(3)]
        test = domain.sources[(run + 3) % n]
        system = build_system(
            domain, SystemConfig("complete"),
            max_instances_per_tag=settings.max_instances_per_tag,
            seed=settings.seed + run)
        for source in train:
            system.add_training_source(
                source.schema,
                source.listings(settings.n_listings, sample_seed=run),
                source.mapping)
        system.train()
        outcome = corrections_to_perfect(system, test,
                                         settings.n_listings,
                                         sample_seed=run)
        outcomes.append(outcome)
        corrections.add(outcome.corrections)
        tags.add(outcome.total_tags)
    return FeedbackStudyResult(domain.name, corrections, tags, outcomes)
