"""The constraint handler: search for the least-cost mapping (§4.2).

Given per-tag label score distributions (from the prediction converter)
and the domain constraints, the handler searches the space of complete
label assignments for the candidate mapping ``m`` minimising

    cost(m) = sum_i alpha_i * cost(m, T_i)  -  a * log prob(m)

where ``prob(m)`` is the product of the per-tag confidence scores
(independence approximation, as in the paper) and ``cost(m, T_i)`` the
violation costs per constraint type. Hard constraint violations make the
cost infinite and prune the search; soft costs are tracked incrementally
during the descent and settled exactly at complete assignments.

Search details (mirroring §6.3): tags are assigned in decreasing order of
their structure score (number of distinct tags nestable within them), the
admissible heuristic is the sum of each unassigned tag's best achievable
score cost plus the soft constraints' incremental lower bounds, and
branching is limited to each tag's top-k candidate labels plus OTHER plus
any label a constraint could *require*.

Engine (the incremental rebuild):

* **O(delta) node cost** — each constraint supplies a push/pop evaluator
  (:mod:`repro.constraints.base`) holding per-label counters or watched
  tags, so assigning one tag never re-scans the partial assignment;
* **soft-cost-aware pruning** — soft evaluators maintain admissible
  lower bounds that fold into the branch-and-bound heuristic, so
  subtrees whose soft violations alone exceed the incumbent are cut
  mid-descent instead of surviving to the leaves;
* **deterministic tie-break** — one serial depth-first search. The
  incumbent orders complete assignments by ``(cost, path)`` where
  ``path`` is the per-level candidate-index tuple, and pruning spares
  equal-cost subtrees that could still win that tie-break, so the
  returned mapping is the *lexicographically first minimum-cost*
  assignment. The search never depends on the worker count, so its
  mapping, its anytime cut-off point and every counter in
  ``last_stats`` are identical at any ``--workers``;
* **instrumentation** — nodes expanded and prunes by reason (score
  bound / hard violation / soft bound) accumulate into
  ``handler.last_stats`` and, when a profile is passed, into
  ``constraint_*`` counters shown by ``--profile``.

Two strategies are selectable via ``ConstraintHandler(search=...)``:
``"bnb"`` (default) is the depth-first branch-and-bound above, seeded
with a constrained-greedy upper bound so the search is anytime;
``"astar"`` drives :func:`repro.constraints.search.astar` over the same
space with the same admissible heuristic — memory-hungrier (the paper
reports handler runtimes "up to 20 minutes" for its A* formulation) but
kept as a selectable baseline; the benchmark compares both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.labels import OTHER, LabelSpace
from ..core.mapping import Mapping
from ..observability import Observer, StageProfile, resolve_observer
from ..observability.metrics import (M_CONSTRAINT_LEAF_REJECTS,
                                     M_CONSTRAINT_NODES,
                                     M_CONSTRAINT_PRUNE_BOUND,
                                     M_CONSTRAINT_PRUNE_HARD,
                                     M_CONSTRAINT_PRUNE_SOFT)
from .base import (Constraint, HardConstraint, HardEvaluator, MatchContext,
                   SoftConstraint, SoftEvaluator, split_constraints)
from .feedback import AssignmentConstraint, ExclusionConstraint
from .schema_constraints import FrequencyConstraint
from .search import astar

#: Default trade-off coefficients per soft-constraint kind (the paper's
#: alpha_i scaling coefficients).
DEFAULT_SOFT_WEIGHTS = {"binary": 1.0, "numeric": 0.5}

#: Selectable search strategies.
SEARCH_STRATEGIES = ("bnb", "astar")

_STAT_NAMES = ("nodes_expanded", "prune_bound", "prune_hard",
               "prune_soft_bound", "leaf_hard_rejects")

#: last_stats key -> metric name in the observability catalogue.
_STAT_METRICS = {
    "nodes_expanded": M_CONSTRAINT_NODES,
    "prune_bound": M_CONSTRAINT_PRUNE_BOUND,
    "prune_hard": M_CONSTRAINT_PRUNE_HARD,
    "prune_soft_bound": M_CONSTRAINT_PRUNE_SOFT,
    "leaf_hard_rejects": M_CONSTRAINT_LEAF_REJECTS,
}


def _zero_stats() -> dict:
    return {name: 0 for name in _STAT_NAMES}


@dataclass
class _Problem:
    """Read-only search description."""

    tags: list[str]
    cands: dict[str, list[str]]          # cheapest-first per tag
    log_cost: dict[str, dict[str, float]]
    suffix_best: list[float]
    hard: list[HardConstraint]
    soft: list[SoftConstraint]
    soft_weights: list[float]            # aligned with ``soft``
    ctx: MatchContext


class _Incumbent:
    """The best complete assignment so far.

    Assignments are ordered by ``(cost, path)``: equal-cost solutions
    are tie-broken by the candidate-index path, which makes the final
    winner independent of exploration order — so a warm-start
    pre-offer settles exactly what exploring that leaf would.
    """

    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best: tuple[float, tuple[int, ...], dict[str, str] | None] = \
            (math.inf, (), None)

    def offer(self, cost: float, path: tuple[int, ...],
              assignment: dict[str, str]) -> None:
        held_cost, held_path, _ = self.best
        if (cost, path) < (held_cost, held_path):
            self.best = (cost, path, dict(assignment))


class _Budget:
    """Expansion budget, optionally deadline-capped.

    The count is exact: one search spends it. The deadline is polled
    amortized — every 256 expansions — so the hot path normally pays
    two attribute reads.
    ``stopped`` latches once any expansion is refused, which is
    exactly the "search was cut short, result is best-so-far" signal
    the anytime flag reports.

    An *inert* deadline is kept rather than dropped: the runtime
    watchdog and memory-pressure guardrails may ``trip()`` it from
    another thread mid-search, and that must be visible at the poll.
    ``snapshot``, when set, fires every :data:`_SNAPSHOT_MASK` + 1
    expansions — the checkpointer's incumbent-persistence hook.
    """

    __slots__ = ("limit", "spent", "deadline", "stopped", "snapshot")

    def __init__(self, limit: int, deadline=None) -> None:
        self.limit = limit
        self.spent = 0
        self.deadline = deadline
        self.stopped = False
        self.snapshot = None

    def exhausted(self) -> bool:
        if self.stopped:
            return True
        if self.spent >= self.limit:
            self.stopped = True
            return True
        if self.deadline is not None and not (self.spent & 0xFF) \
                and self.deadline.expired():
            self.stopped = True
            return True
        return False


#: ``spent & _SNAPSHOT_MASK == 0`` gates incumbent snapshots — every
#: 4096 expansions, matching ``runtime.checkpoint.SNAPSHOT_EVERY``.
_SNAPSHOT_MASK = 0xFFF


class _DfsEngine:
    """The incremental depth-first branch-and-bound.

    Owns private evaluator instances (constraints themselves stay
    immutable), a mutable assignment dict, and the candidate index
    path. Hard evaluators are indexed by ``relevant_labels`` so a
    push touches only the constraints the new label can trip.
    """

    def __init__(self, problem: _Problem, incumbent: _Incumbent,
                 budget: _Budget) -> None:
        self.p = problem
        self.ctx = problem.ctx
        self.incumbent = incumbent
        self.budget = budget
        self.assignment: dict[str, str] = {}
        self.path: list[int] = []
        self.stats = _zero_stats()
        self._nodes = 0
        self._prunes_bound = 0
        self._prunes_hard = 0
        self._prunes_soft = 0
        self._leaf_rejects = 0

        by_label: dict[str, list[HardEvaluator]] = {}
        always: list[HardEvaluator] = []
        self.hard_evaluators: list[HardEvaluator] = []
        for constraint in problem.hard:
            ev = constraint.evaluator(problem.ctx)
            self.hard_evaluators.append(ev)
            labels = constraint.relevant_labels()
            if labels is None:
                always.append(ev)
            else:
                for label in labels:
                    by_label.setdefault(label, []).append(ev)
        self._by_label = by_label
        self._always = tuple(always)

        # All soft evaluators settle exact costs at leaves; only the
        # *stateful* ones (push or pop overridden) need to see pushes,
        # and of those only when the label concerns them.
        self.soft_evaluators: list[tuple[float, SoftEvaluator]] = []
        soft_by_label: dict[str, list[tuple[float, SoftEvaluator]]] = {}
        soft_always: list[tuple[float, SoftEvaluator]] = []
        for weight, constraint in zip(problem.soft_weights,
                                      problem.soft):
            ev = constraint.evaluator(problem.ctx)
            self.soft_evaluators.append((weight, ev))
            cls = type(ev)
            if cls.push is SoftEvaluator.push \
                    and cls.pop is SoftEvaluator.pop:
                continue  # stateless: bound stays 0 for ever
            labels = constraint.relevant_labels()
            if labels is None:
                soft_always.append((weight, ev))
            else:
                for label in labels:
                    soft_by_label.setdefault(label, []).append(
                        (weight, ev))
        self._soft_by_label = soft_by_label
        self._soft_always = tuple(soft_always)
        #: Per-label push plan: (hard evaluators, stateful soft
        #: evaluators) that must see an assignment of this label.
        self._plan: dict[str, tuple] = {}

        tags = problem.tags
        self._n = len(tags)
        self._cand_lists = [problem.cands[tag] for tag in tags]
        self._cost_lists = [
            [problem.log_cost[tag][label] for label in problem.cands[tag]]
            for tag in tags]
        self._ranges = [range(len(cands)) for cands in self._cand_lists]

    # ------------------------------------------------------------------
    # push / pop
    # ------------------------------------------------------------------
    def _plan_for(self, label: str) -> tuple:
        plan = self._plan.get(label)
        if plan is None:
            plan = ((*self._by_label.get(label, ()), *self._always),
                    (*self._soft_by_label.get(label, ()),
                     *self._soft_always))
            self._plan[label] = plan
        return plan

    def _try_push(self, tag: str, label: str) -> float | None:
        """Place ``tag -> label``; the soft-bound delta, or None on a
        hard violation (state fully rolled back)."""
        ctx, assignment = self.ctx, self.assignment
        assignment[tag] = label
        hard_evs, soft_evs = self._plan_for(label)
        for i, ev in enumerate(hard_evs):
            if ev.push(tag, label, assignment, ctx):
                while i >= 0:
                    hard_evs[i].pop(tag, label, assignment, ctx)
                    i -= 1
                del assignment[tag]
                return None
        delta = 0.0
        for weight, ev in soft_evs:
            before = ev.bound
            ev.push(tag, label, assignment, ctx)
            delta += weight * (ev.bound - before)
        return delta

    def _pop(self, tag: str, label: str) -> None:
        ctx, assignment = self.ctx, self.assignment
        hard_evs, soft_evs = self._plan[label]
        for weight, ev in reversed(soft_evs):
            ev.pop(tag, label, assignment, ctx)
        for ev in reversed(hard_evs):
            ev.pop(tag, label, assignment, ctx)
        del assignment[tag]

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Search the whole tree, first-level candidates in cost
        order."""
        if self._enter():
            self._descend()
        self._flush_counters()

    def greedy_seed(self) -> None:
        """Cheapest non-violating candidate per tag, in order; offers
        the completed assignment to the incumbent (the anytime upper
        bound). Leaves evaluator state clean."""
        p = self.p
        cost = 0.0
        pushed: list[tuple[str, str]] = []
        try:
            for level, tag in enumerate(p.tags):
                for idx, label in enumerate(self._cand_lists[level]):
                    if self._try_push(tag, label) is not None:
                        pushed.append((tag, label))
                        self.path.append(idx)
                        cost += self._cost_lists[level][idx]
                        break
                else:
                    return  # stuck: no feasible seed
            self._offer_leaf(cost)
        finally:
            for tag, label in reversed(pushed):
                self._pop(tag, label)
            self.path.clear()
            self._flush_counters()

    def _flush_counters(self) -> None:
        stats = self.stats
        stats["nodes_expanded"] += self._nodes
        stats["prune_bound"] += self._prunes_bound
        stats["prune_hard"] += self._prunes_hard
        stats["prune_soft_bound"] += self._prunes_soft
        stats["leaf_hard_rejects"] += self._leaf_rejects
        self._nodes = self._prunes_bound = self._prunes_hard = 0
        self._prunes_soft = self._leaf_rejects = 0

    def _enter(self) -> bool:
        """Spend one expansion on a node; False when the budget (or the
        deadline) refuses it, and the node is then left unvisited."""
        budget = self.budget
        if budget.exhausted():
            return False
        budget.spent += 1
        snap = budget.snapshot
        if snap is not None and not (budget.spent & _SNAPSHOT_MASK):
            # The checkpoint snapshot callback; it only reads the
            # incumbent and writes through the atomic artifact layer,
            # so it cannot perturb the search.
            snap()  # lsd: ignore[flow-unresolved-hot-call]
        self._nodes += 1
        return True

    def _descend(self) -> None:
        """Depth-first visit of the entered root: at each level, the
        candidates of ``tags[level]`` in cost order.

        The descent keeps its own stack of open levels instead of
        recursing: CPython 3.11 frees a frame-stack chunk as soon as the
        call depth falls back across its boundary, so a recursion
        oscillating there pays an mmap/munmap per node — half the wall
        time of a budget-capped Real Estate II search, varying with the
        caller's depth. The candidate loop is deliberately flat — prune
        tests inlined, per-level lists precomputed — because this is the
        engine's one hot path."""
        inc = self.incumbent
        path = self.path
        tags = self.p.tags
        suffix_best = self.p.suffix_best
        cand_lists = self._cand_lists
        cost_lists = self._cost_lists
        ranges = self._ranges
        n = self._n
        # One entry per open ancestor: where its candidate loop resumes.
        stack: list[tuple] = []
        level, cost_so_far, soft_lower, pos = 0, 0.0, 0.0, 0
        while True:
            tag = tags[level]
            cands = cand_lists[level]
            costs = cost_lists[level]
            indices = ranges[level]
            remaining = suffix_best[level + 1]
            next_level = level + 1
            is_leaf = next_level == n
            n_indices = len(indices)
            descended = False
            while pos < n_indices:
                idx = indices[pos]
                new_cost = cost_so_far + costs[idx]
                bound = new_cost + remaining + soft_lower
                best_cost, best_path, best_assignment = inc.best
                if bound > best_cost or (
                        bound == best_cost and best_assignment is not None
                        and (*path, idx) > best_path[:next_level]):
                    # Candidates are cost-sorted: the rest cost more, so
                    # the whole remaining sibling run is cut in one go.
                    n_cut = n_indices - pos
                    if new_cost + remaining <= best_cost < bound:
                        self._prunes_soft += n_cut
                    else:
                        self._prunes_bound += n_cut
                    break
                pos += 1
                label = cands[idx]
                delta = self._try_push(tag, label)
                if delta is None:
                    self._prunes_hard += 1
                    continue
                new_soft = soft_lower + delta
                if delta > 0.0:
                    bound = new_cost + remaining + new_soft
                    best_cost, best_path, best_assignment = inc.best
                    if bound > best_cost or (
                            bound == best_cost
                            and best_assignment is not None
                            and (*path, idx) > best_path[:next_level]):
                        self._prunes_soft += 1
                        self._pop(tag, label)
                        continue
                path.append(idx)
                if is_leaf:
                    # The running soft bound is a lower bound only; the
                    # leaf re-settles soft costs exactly via the
                    # evaluators.
                    self._offer_leaf(new_cost)
                elif self._enter():
                    stack.append((level, cost_so_far, soft_lower, pos,
                                  label))
                    level, cost_so_far, soft_lower, pos = \
                        next_level, new_cost, new_soft, 0
                    descended = True
                    break
                path.pop()
                self._pop(tag, label)
            if descended:
                continue
            if not stack:
                return
            level, cost_so_far, soft_lower, pos, label = stack.pop()
            path.pop()
            self._pop(tags[level], label)

    def _offer_leaf(self, score_cost: float) -> None:
        """Settle exact soft costs and hard completeness at a leaf."""
        ctx, assignment = self.ctx, self.assignment
        for ev in self.hard_evaluators:
            if ev.complete_violation(assignment, ctx):
                self._leaf_rejects += 1
                return
        total = score_cost
        for weight, ev in self.soft_evaluators:
            total += weight * ev.complete_cost(assignment, ctx)
        self.incumbent.offer(total, tuple(self.path), assignment)


class ConstraintHandler:
    """Searches for the least-cost complete mapping under constraints."""

    def __init__(self, constraints: Sequence[Constraint] = (),
                 prob_weight: float = 1.0,
                 soft_weights: dict[str, float] | None = None,
                 candidates_per_tag: int = 8,
                 max_expansions: int = 100_000,
                 epsilon: float = 1e-6,
                 search: str = "bnb") -> None:
        """
        Parameters
        ----------
        constraints:
            The domain constraints (hard and soft, mixed).
        prob_weight:
            The paper's ``a`` coefficient on ``-log prob(m)``.
        soft_weights:
            ``alpha_i`` per soft-constraint ``kind``.
        candidates_per_tag:
            Branching limit: only this many top-scoring labels (plus OTHER
            plus constraint-required labels) are considered per tag.
        max_expansions:
            Node budget; when exhausted the best complete mapping seen
            so far (or a greedy completion) is returned.
        epsilon:
            Floor under confidence scores before taking logs.
        search:
            ``"bnb"`` (incremental branch-and-bound, the default) or
            ``"astar"`` (best-first via :func:`~repro.constraints.
            search.astar`, same cost model and heuristic).
        """
        if search not in SEARCH_STRATEGIES:
            raise ValueError(
                f"unknown search strategy {search!r}; "
                f"choose from {SEARCH_STRATEGIES}")
        self.constraints = list(constraints)
        self.prob_weight = prob_weight
        self.soft_weights = dict(DEFAULT_SOFT_WEIGHTS)
        if soft_weights:
            self.soft_weights.update(soft_weights)
        self.candidates_per_tag = candidates_per_tag
        self.max_expansions = max_expansions
        self.epsilon = epsilon
        self.search = search
        #: Counters from the most recent :meth:`find_mapping` call
        #: (nodes expanded, prunes by reason, strategy, best cost).
        self.last_stats: dict = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def find_mapping(self, scores: dict[str, np.ndarray],
                     space: LabelSpace, ctx: MatchContext,
                     extra_constraints: Sequence[Constraint] = (),
                     profile: StageProfile | None = None,
                     observer: Observer | None = None,
                     deadline=None, report=None, warm_start=None,
                     snapshot=None) -> Mapping:
        """The least-cost mapping for the given per-tag score rows.

        ``scores[tag]`` is the prediction converter's normalised score
        vector for that tag. ``extra_constraints`` carries user feedback
        for the current source only (§4.3). The search is one serial
        depth-first pass, so the mapping and ``last_stats`` never depend
        on the run's worker count. ``profile`` receives
        ``constraint_*`` counters when given; ``observer`` records a
        ``search`` span and the ``constraint.*`` metrics.

        ``deadline`` (a :class:`repro.resilience.Deadline`) caps the
        search by wall clock on top of the expansion budget; when either
        cuts the search short the best complete mapping found so far is
        returned and ``report`` (a :class:`~repro.resilience.
        DegradationReport`), when given, is flagged *anytime*.

        ``warm_start`` is a checkpointed ``(cost, path, assignment)``
        incumbent pre-offered to the search before any expansion.
        Because incumbents order by ``(cost, path)`` — the same total
        order exploration itself settles — pre-offering is equivalent
        to having explored that leaf first, so a warm-started search
        returns exactly what an uninterrupted one would. ``snapshot``
        is a ``(cost, path, assignment)`` callback invoked with the
        current incumbent every few thousand expansions (and once at
        the end of the search) — the crash-safe persistence hook.
        """
        obs = resolve_observer(observer)
        with obs.trace.span("search", strategy=self.search) as span:
            mapping = self._find_mapping(scores, space, ctx,
                                         extra_constraints, profile,
                                         deadline, warm_start, snapshot)
            span.set_attribute(
                "nodes_expanded", self.last_stats["nodes_expanded"])
        for stat, metric in _STAT_METRICS.items():
            obs.metrics.counter(metric).inc(self.last_stats[stat])
        if report is not None and self.last_stats.get("anytime"):
            report.mark_anytime()
        return mapping

    def _find_mapping(self, scores: dict[str, np.ndarray],
                      space: LabelSpace, ctx: MatchContext,
                      extra_constraints: Sequence[Constraint],
                      profile: StageProfile | None,
                      deadline=None, warm_start=None,
                      snapshot=None) -> Mapping:
        hard, soft = split_constraints(
            [*self.constraints, *extra_constraints])
        tags = self._tag_order(list(scores), ctx)
        if not tags:
            self.last_stats = {**_zero_stats(), "strategy": self.search}
            return Mapping({})

        candidate_labels = self._candidates(tags, scores, space, hard)
        log_cost = {
            tag: {
                label: -self.prob_weight * math.log(
                    max(float(scores[tag][space.index_of(label)]),
                        self.epsilon))
                for label in candidate_labels[tag]
            }
            for tag in tags
        }
        # Candidates cheapest-first: lets branch-and-bound cut a whole
        # sibling group as soon as one candidate exceeds the bound.
        ordered_candidates = {
            tag: sorted(candidate_labels[tag],
                        key=lambda label: log_cost[tag][label])
            for tag in tags
        }
        suffix_best = self._suffix_best(tags, ordered_candidates,
                                        log_cost, hard)

        problem = _Problem(
            tags, ordered_candidates, log_cost, suffix_best, hard, soft,
            [self.soft_weights.get(c.kind, 1.0) for c in soft], ctx)

        if self.search == "astar":
            best, stats = self._astar_search(problem, deadline)
            if warm_start is not None and stats.get("anytime"):
                # Best-first search has no shared incumbent to seed, so
                # the checkpointed leaf competes with the result here:
                # on a cut-short search the cheaper of the two wins
                # (ties keep the fresh result).
                warm_cost, _, warm_assignment = warm_start
                if best is None or warm_cost < stats["best_cost"]:
                    best = dict(warm_assignment)
                    stats["best_cost"] = float(warm_cost)
        else:
            best, stats = self._branch_and_bound(problem, deadline,
                                                 warm_start, snapshot)
        stats["strategy"] = self.search
        self.last_stats = stats
        if profile is not None:
            for name in _STAT_NAMES:
                profile.count(f"constraint_{name}", stats[name])

        if best is not None:
            return Mapping(best)
        # No complete assignment satisfies the hard constraints within
        # budget (possibly they are jointly unsatisfiable on this source):
        # fall back to the unconstrained greedy mapping.
        return self.greedy_mapping(scores, space)

    # ------------------------------------------------------------------
    # strategies
    # ------------------------------------------------------------------
    def _branch_and_bound(self, problem: _Problem, deadline=None,
                          warm_start=None, snapshot=None
                          ) -> tuple[dict[str, str] | None, dict]:
        """Incremental DFS branch-and-bound from a greedy seed."""
        incumbent = _Incumbent()
        budget = _Budget(self.max_expansions, deadline)
        if warm_start is not None:
            warm_cost, warm_path, warm_assignment = warm_start
            incumbent.offer(float(warm_cost), tuple(warm_path),
                            dict(warm_assignment))
        if snapshot is not None:
            def snap() -> None:
                cost, path, assignment = incumbent.best
                if assignment is not None:
                    snapshot(cost, path, assignment)
            budget.snapshot = snap

        engine = _DfsEngine(problem, incumbent, budget)
        engine.greedy_seed()
        engine.run()
        stats = engine.stats
        stats["anytime"] = int(budget.stopped)

        if budget.snapshot is not None:
            budget.snapshot()  # final flush: persist the winner too
        cost, _, assignment = incumbent.best
        stats["best_cost"] = cost
        return assignment, stats

    def _astar_search(self, problem: _Problem, deadline=None
                      ) -> tuple[dict[str, str] | None, dict]:
        """Best-first search over the same space and cost model.

        States are tuples of candidate indices, one per assigned tag; a
        final closing transition adds the exact soft cost (and checks
        hard completeness), so the goal's ``g`` equals the paper's
        ``cost(m)`` exactly as branch-and-bound computes it. An armed
        ``deadline`` is polled every 256 expansions; on expiry the
        expander yields nothing more, the frontier drains, and the best
        goal seen so far is returned (flagged anytime).
        """
        p = problem
        clock = _Budget(self.max_expansions, deadline)
        n = len(p.tags)
        cand_lists = [p.cands[tag] for tag in p.tags]
        cost_lists = [[p.log_cost[tag][label] for label in p.cands[tag]]
                      for tag in p.tags]

        by_label: dict[str, list[HardConstraint]] = {}
        always: list[HardConstraint] = []
        for constraint in p.hard:
            labels = constraint.relevant_labels()
            if labels is None:
                always.append(constraint)
            else:
                for label in labels:
                    by_label.setdefault(label, []).append(constraint)

        def assignment_of(state: tuple[int, ...]) -> dict[str, str]:
            return {p.tags[i]: cand_lists[i][ci]
                    for i, ci in enumerate(state)}

        def expand(state: tuple[int, ...]):
            level = len(state)
            if level > n:
                return
            if clock.exhausted():
                # Deadline hit: yield nothing so the frontier drains and
                # astar returns the best goal recorded so far.
                return
            clock.spent += 1
            assignment = assignment_of(state)
            if level == n:
                if any(c.check_complete(assignment, p.ctx)
                       for c in p.hard):
                    return
                soft_cost = sum(
                    weight * c.cost(assignment, p.ctx)
                    for weight, c in zip(p.soft_weights, p.soft))
                yield state + (-1,), soft_cost
                return
            tag = p.tags[level]
            for i, label in enumerate(cand_lists[level]):
                assignment[tag] = label
                ok = not any(
                    c.check_partial(assignment, p.ctx)
                    for c in by_label.get(label, ()))
                ok = ok and not any(
                    c.check_partial(assignment, p.ctx) for c in always)
                if ok:
                    yield state + (i,), cost_lists[level][i]
            del assignment[tag]

        def heuristic(state: tuple[int, ...]) -> float:
            return p.suffix_best[min(len(state), n)]

        result = astar((), expand, lambda s: len(s) == n + 1, heuristic,
                       max_expansions=self.max_expansions)
        stats = _zero_stats()
        stats["nodes_expanded"] = result.expanded
        stats["best_cost"] = result.cost
        stats["exhausted_budget"] = int(result.exhausted_budget)
        stats["anytime"] = int(result.exhausted_budget or clock.stopped)
        if result.state is None:
            return None, stats
        return assignment_of(result.state[:-1]), stats

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def greedy_mapping(self, scores: dict[str, np.ndarray],
                       space: LabelSpace) -> Mapping:
        """Argmax assignment, ignoring constraints (§3.2 step 3's
        no-constraints behaviour; also the handler-less ablation)."""
        return Mapping({
            tag: space.label_at(int(np.argmax(row)))
            for tag, row in scores.items()
        })

    def violations(self, mapping: Mapping, ctx: MatchContext,
                   extra_constraints: Sequence[Constraint] = ()
                   ) -> list[Constraint]:
        """All constraints a complete mapping violates (diagnostics)."""
        hard, soft = split_constraints(
            [*self.constraints, *extra_constraints])
        assignment = {tag: mapping.label_of(tag) for tag in mapping}
        violated: list[Constraint] = [
            c for c in hard if c.check_complete(assignment, ctx)]
        violated.extend(
            c for c in soft if c.cost(assignment, ctx) > 0.0)
        return violated

    def mapping_cost(self, mapping: Mapping,
                     scores: dict[str, np.ndarray], space: LabelSpace,
                     ctx: MatchContext,
                     extra_constraints: Sequence[Constraint] = ()
                     ) -> float:
        """The paper's cost(m) of a complete mapping (inf on hard
        violations).

        ``extra_constraints`` carries per-source user feedback, exactly
        as in :meth:`find_mapping` and :meth:`violations` — so the cost
        reported after feedback agrees with what the search minimised
        and with ``violations()`` on the same mapping.
        """
        hard, soft = split_constraints(
            [*self.constraints, *extra_constraints])
        assignment = {tag: mapping.label_of(tag) for tag in mapping}
        if any(c.check_complete(assignment, ctx) for c in hard):
            return float("inf")
        cost = self._soft_cost(assignment, ctx, soft)
        for tag, label in assignment.items():
            score = max(float(scores[tag][space.index_of(label)]),
                        self.epsilon)
            cost += -self.prob_weight * math.log(score)
        return cost

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _tag_order(self, tags: list[str], ctx: MatchContext) -> list[str]:
        """§6.3 refinement order: most-structured tags first."""
        return sorted(
            tags,
            key=lambda tag: (-ctx.schema.descendant_count(tag), tag))

    def _candidates(self, tags: list[str],
                    scores: dict[str, np.ndarray], space: LabelSpace,
                    hard: list[HardConstraint]) -> dict[str, list[str]]:
        required = {
            c.label for c in hard
            if isinstance(c, FrequencyConstraint) and c.min_count > 0}
        pinned = {
            c.tag: c.label for c in hard
            if isinstance(c, AssignmentConstraint)}
        excluded: dict[str, set[str]] = {}
        for c in hard:
            if isinstance(c, ExclusionConstraint):
                excluded.setdefault(c.tag, set()).add(c.label)
        candidates: dict[str, list[str]] = {}
        for tag in tags:
            if tag in pinned:
                candidates[tag] = [pinned[tag]]
                continue
            row = scores[tag]
            k = min(self.candidates_per_tag, len(row))
            # Stable sort on -score: ties break by ascending label
            # index, the documented deterministic candidate order.
            top = np.argsort(-row, kind="stable")[:k]
            chosen = list(dict.fromkeys(
                [*(int(i) for i in top), space.index_of(OTHER),
                 *(space.index_of(label) for label in sorted(required))]))
            # Labels excluded by feedback can never be assigned to this
            # tag; dropping them up front tightens ``suffix_best``.
            banned = excluded.get(tag)
            if banned:
                chosen = [i for i in chosen
                          if space.label_at(i) not in banned] \
                    or [space.index_of(OTHER)]
            # Re-sort so the whole list — appended OTHER / required
            # labels included — is cost-ascending: the engine's sibling
            # break on a bound prune relies on that monotonicity.
            chosen.sort(key=lambda i: (-row[i], i))
            candidates[tag] = [space.label_at(i) for i in chosen]
        return candidates

    def _suffix_best(self, tags: list[str],
                     ordered_candidates: dict[str, list[str]],
                     log_cost: dict[str, dict[str, float]],
                     hard: list[HardConstraint]) -> list[float]:
        """Admissible per-level lower bounds on the remaining score cost.

        ``suffix_best[i]`` bounds the cheapest feasible completion of
        ``tags[i:]`` under *any* prefix. The base term sums each suffix
        tag's cheapest candidate. On top of that, a regret term covers
        1-1 labels (``max_count == 1``) claimed as cheapest by several
        suffix tags: at most one claimant can keep such a label, so
        every other claimant pays at least the step up to its own
        second-cheapest candidate. Summing the smallest ``k - 1`` of the
        ``k`` regrets (total minus the largest) stays a lower bound no
        matter which claimant wins — this is what lets the search close
        assignment-collision gaps the plain per-tag minimum cannot see.
        """
        one_to_one = {
            c.label for c in hard
            if isinstance(c, FrequencyConstraint) and c.max_count == 1}
        n = len(tags)
        suffix_best = [0.0] * (n + 1)
        base = 0.0
        extra = 0.0
        # Per claimed label: (sum of finite regrets, largest regret).
        claims: dict[str, tuple[float, float]] = {}
        for i in range(n - 1, -1, -1):
            cands = ordered_candidates[tags[i]]
            costs = log_cost[tags[i]]
            cheapest = cands[0]
            base += costs[cheapest]
            if cheapest in one_to_one:
                regret = costs[cands[1]] - costs[cheapest] \
                    if len(cands) > 1 else math.inf
                finite_sum, largest = claims.get(cheapest, (0.0, 0.0))
                old = finite_sum - (largest if largest < math.inf
                                    else 0.0)
                if regret < math.inf:
                    finite_sum += regret
                largest = max(largest, regret)
                claims[cheapest] = (finite_sum, largest)
                extra += finite_sum - (largest if largest < math.inf
                                       else 0.0) - old
            suffix_best[i] = base + extra
        return suffix_best

    def _soft_cost(self, assignment: dict[str, str], ctx: MatchContext,
                   soft: list[SoftConstraint]) -> float:
        return sum(
            self.soft_weights.get(c.kind, 1.0) * c.cost(assignment, ctx)
            for c in soft)
