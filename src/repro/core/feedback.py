"""Interactive feedback sessions (§4.3, evaluated in §6.3).

A :class:`FeedbackSession` holds LSD's current mappings for one source.
The user reviews tags — in decreasing order of their structure score, the
same order the paper's experiments use — and corrects wrong labels; each
correction becomes an :class:`AssignmentConstraint` (or, for a rejection,
an :class:`ExclusionConstraint`) and the constraint handler re-runs,
possibly repairing further tags for free.

The predictions are computed once, when the session opens: the learners
never see a correction (§4.3), so each correction re-runs only the
constraint handler on the opening match's predictions
(:meth:`LSDSystem.rematch`). The result is the one a full re-match under
the same constraints would give. A correction therefore fires only the
constrain stage's fault site; learner faults from the opening match stay
in the policy's accumulated degradation report. Retraining the system
mid-session invalidates those predictions — open a new session.
"""

from __future__ import annotations

from typing import Sequence

from ..constraints.base import Constraint
from ..constraints.feedback import AssignmentConstraint, ExclusionConstraint
from ..xmlio import Element
from .mapping import Mapping
from .matching import MatchResult
from .schema import SourceSchema
from .system import LSDSystem


class FeedbackSession:
    """Drives repeated constraint handling of one source under user
    corrections; the source is matched once, when the session opens."""

    def __init__(self, system: LSDSystem, schema: SourceSchema | str,
                 listings: Sequence[Element],
                 extra_constraints: Sequence[Constraint] = ()) -> None:
        if isinstance(schema, str):
            schema = SourceSchema(schema)
        self.system = system
        self.schema = schema
        self.listings = list(listings)
        self.base_constraints = list(extra_constraints)
        self.feedback: list[Constraint] = []
        self.corrections = 0
        self.result: MatchResult = system.match(
            schema, self.listings, extra_constraints=self.base_constraints)

    # ------------------------------------------------------------------
    @property
    def mapping(self) -> Mapping:
        """LSD's current proposal for the source."""
        return self.result.mapping

    def review_order(self) -> list[str]:
        """Tags in the order the user should review them (§6.3): by
        decreasing number of distinct tags nestable within them, ties
        broken by prediction ambiguity (smallest margin first)."""
        return sorted(
            self.result.tag_scores,
            key=lambda tag: (
                -self.schema.descendant_count(tag),
                self.result.prediction_for(tag).margin(),
                tag))

    # ------------------------------------------------------------------
    def assert_match(self, tag: str, label: str) -> MatchResult:
        """User says: ``tag`` matches ``label``. Re-runs the handler."""
        return self._correct(AssignmentConstraint(tag, label))

    def reject_match(self, tag: str, label: str) -> MatchResult:
        """User says: ``tag`` does NOT match ``label``. Re-runs the
        handler."""
        return self._correct(ExclusionConstraint(tag, label))

    # ------------------------------------------------------------------
    def _correct(self, constraint: AssignmentConstraint
                 | ExclusionConstraint) -> MatchResult:
        if constraint.tag not in self.schema.tags:
            raise KeyError(f"source has no tag {constraint.tag!r}")
        if constraint.label not in self.system.space:
            raise KeyError(f"unknown label {constraint.label!r}")
        self.feedback.append(constraint)
        self.corrections += 1
        self.result = self.system.rematch(
            self.result,
            extra_constraints=[*self.base_constraints, *self.feedback])
        return self.result
