"""Query normalisation rewrite rules.

Applied before planning:

* duplicate-predicate elimination;
* redundant-bound elimination (``x > 3 AND x > 5`` → ``x > 5``) via the
  pairwise implication test on :class:`Comparison`;
* contradiction detection (``x = 'a' AND x = 'b'``, or an empty numeric
  band) — a contradictory query is answered with zero rows without
  touching any table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable

from repro.core.query.ast import Comparison, Query

#: One side of a range: ``(value, inclusive)``.
Bound = tuple[Any, bool]


@dataclass(frozen=True)
class NormalizedQuery:
    """Result of normalisation: the rewritten query and a verdict."""

    query: Query
    contradiction: bool
    removed_predicates: int


def normalize(query: Query) -> NormalizedQuery:
    """Apply all rewrite rules to *query*."""
    predicates = list(dict.fromkeys(query.predicates))  # dedupe, keep order
    predicates = _drop_implied(predicates)
    removed = len(query.predicates) - len(predicates)
    if _contradictory(predicates):
        return NormalizedQuery(
            replace(query, predicates=tuple(predicates)),
            contradiction=True,
            removed_predicates=removed,
        )
    return NormalizedQuery(
        replace(query, predicates=tuple(predicates)),
        contradiction=False,
        removed_predicates=removed,
    )


def _drop_implied(predicates: list[Comparison]) -> list[Comparison]:
    """Remove predicates implied by a strictly stronger sibling."""
    kept: list[Comparison] = []
    for candidate in predicates:
        dominated = any(
            other is not candidate and other.implies(candidate)
            and not (candidate.implies(other) and _earlier(
                predicates, candidate, other))
            for other in predicates
        )
        if not dominated:
            kept.append(candidate)
    return kept


def _earlier(predicates: list[Comparison], first: Comparison,
             second: Comparison) -> bool:
    """Tie-break for mutually implying predicates: keep the earlier one."""
    return predicates.index(first) < predicates.index(second)


def _contradictory(predicates: list[Comparison]) -> bool:
    by_column: dict[str, list[Comparison]] = {}
    for predicate in predicates:
        by_column.setdefault(predicate.column, []).append(predicate)
    for column_preds in by_column.values():
        if column_contradiction(column_preds):
            return True
    return False


def tightest_bounds(predicates: Iterable[Comparison],
                    ) -> tuple[Bound | None, Bound | None]:
    """The tightest lower and upper bound among *predicates*' ``<``,
    ``<=``, ``>``, ``>=`` comparisons (all on one column), or ``None``
    for a side with no bound.

    On equal values the exclusive bound wins: ``x < 11`` is tighter
    than ``x <= 11``, and ``x > 4`` tighter than ``x >= 4``.
    """
    lower: Bound | None = None
    upper: Bound | None = None
    for predicate in predicates:
        value = predicate.value
        if predicate.op in (">", ">="):
            inclusive = predicate.op == ">="
            if lower is None or (value, not inclusive) > (lower[0],
                                                          not lower[1]):
                lower = (value, inclusive)
        elif predicate.op in ("<", "<="):
            inclusive = predicate.op == "<="
            if upper is None or (value, inclusive) < upper:
                upper = (value, inclusive)
    return lower, upper


def column_contradiction(predicates: list[Comparison]) -> bool:
    """True if AND-ing *predicates* (all on one column) is unsatisfiable.

    Public so the semantic analyzer (:mod:`repro.analysis.dtql`) can
    probe predicate pairs with exactly the rewriter's decision
    procedure — the analyzer's "provably empty" verdict and the
    planner's empty-plan rewrite can never disagree.
    """
    equalities = [p.value for p in predicates if p.op == "="]
    if len(set(map(repr, equalities))) > 1:
        return True
    in_sets = [set(p.value) for p in predicates if p.op == "in"]
    if in_sets:
        common = set.intersection(*in_sets)
        if not common:
            return True
        if equalities and equalities[0] not in common:
            return True
    lower, upper = tightest_bounds(predicates)
    if lower is not None and upper is not None:
        try:
            if lower[0] > upper[0]:
                return True
            if lower[0] == upper[0] and not (lower[1] and upper[1]):
                return True
        except TypeError:
            return False
    if equalities:
        for predicate in predicates:
            if predicate.op in ("<", "<=", ">", ">="):
                try:
                    if not predicate.matches(equalities[0]):
                        return True
                except TypeError:
                    return False
            if predicate.op == "!=" and predicate.value == equalities[0]:
                return True
    return False
