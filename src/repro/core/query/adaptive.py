"""Statistics-driven engine selection for adaptive execution.

``execution_mode="adaptive"`` (the default) prices every optimized
logical plan twice — once in row terms, once in vectorized terms — using
the ANALYZE statistics already flowing through the
:class:`~repro.core.query.cards.CardinalityEstimator`, then runs the
plan on whichever engine is cheaper:

* Small index-probe lookups stay on the row engine: a handful of
  matches can never amortize ``VEC_SETUP_COST`` (lowering, predicate
  compilation, ColumnStore batch plumbing).
* Wide sequential scans and aggregates go vectorized, with a batch size
  scaled to the widest scan (``adaptive_batch_size``) and, where the
  plan shape allows, fused scan->filter->project/aggregate pipelines
  (:mod:`repro.core.query.fused`).
* Plans with no batch form at all — provably empty, materialized clade
  fast path, nested-loop joins — are forced to the row engine rather
  than paying the ``RowSourceAdapterOp`` detour.

The choice, both costs, and the reason are surfaced in EXPLAIN
ANALYZE's ``-- execution:`` trailer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query import cost as cost_model
from repro.core.query.logical import (
    LogicalAggregate,
    LogicalCladeAggregate,
    LogicalEmpty,
    LogicalJoin,
    LogicalNode,
    LogicalProject,
    LogicalScan,
)


@dataclass(frozen=True)
class EngineChoice:
    """Outcome of costing one plan in both row and vectorized terms."""

    mode: str  # "row" | "vectorized"
    row_cost: float
    vec_cost: float
    reason: str
    batch_size: int


class _Survey:
    """What the cost walk learned about one logical plan."""

    def __init__(self) -> None:
        self.row_cost = 0.0
        self.vec_extra = 0.0  # on top of VEC_SETUP_COST
        self.row_only_reason: str | None = None
        self.widest_scan = 0.0
        self._pending = []  # (kind, *args) priced once batch size known

    def price(self, batch_size: int) -> float:
        vec = cost_model.VEC_SETUP_COST + self.vec_extra
        for entry in self._pending:
            kind = entry[0]
            if kind == "seq":
                _, rows, residuals, fused = entry
                vec += cost_model.vec_seq_scan_cost(
                    rows, residuals, batch_size, fused=fused).total
            elif kind == "index":
                _, rows, residuals = entry
                vec += cost_model.vec_index_cost(
                    rows, residuals, batch_size).total
            else:  # aggregate
                _, rows = entry
                vec += cost_model.vec_aggregate_cost(rows, batch_size).total
        return vec


def _output_rows(node: LogicalNode) -> float:
    """Rough output cardinality, for pricing downstream operators."""
    if isinstance(node, (LogicalScan, LogicalJoin)):
        return max(node.estimated_rows, 0.0)
    if isinstance(node, LogicalAggregate):
        return 16.0 if node.group_by else 1.0
    children = node.children()
    if children:
        return _output_rows(children[0])
    return 0.0


def _is_fusible_scan(node: LogicalNode) -> bool:
    return isinstance(node, LogicalScan) and node.access == "seq"


def _walk(node: LogicalNode, estimator, survey: _Survey) -> None:
    if isinstance(node, LogicalEmpty):
        survey.row_only_reason = "provably-empty plan"
        return
    if isinstance(node, LogicalCladeAggregate):
        survey.row_only_reason = "materialized clade fast path"
        return
    if isinstance(node, LogicalScan):
        residuals = len(node.residual)
        if node.access == "seq":
            rows_in = estimator.table_rows(node.table)
            survey.widest_scan = max(survey.widest_scan, rows_in)
            survey.row_cost += cost_model.seq_scan_cost(
                rows_in, residuals).total
            survey._pending.append(("seq", rows_in, residuals, False))
        else:
            matches = max(node.estimated_rows, 0.0)
            survey.widest_scan = max(survey.widest_scan, matches)
            if node.access == "key_set":
                keys = float(len(node.key_set or ()))
                survey.row_cost += cost_model.key_set_cost(
                    keys, matches, residuals).total
            else:
                survey.row_cost += cost_model.index_eq_cost(
                    matches, residuals).total
            survey._pending.append(("index", matches, residuals))
        return
    if isinstance(node, LogicalJoin):
        if node.method == "nested_loop":
            survey.row_only_reason = "nested-loop join has no batch form"
        _walk(node.left, estimator, survey)
        _walk(node.right, estimator, survey)
        return
    if isinstance(node, LogicalAggregate):
        rows_in = _output_rows(node.child)
        survey.row_cost += cost_model.aggregate_cost(rows_in).total
        survey._pending.append(("aggregate", rows_in))
        _walk(node.child, estimator, survey)
        if _is_fusible_scan(node.child):
            _mark_last_seq_fused(survey)
        return
    for child in node.children():
        _walk(child, estimator, survey)
    if isinstance(node, LogicalProject) and _is_fusible_scan(node.child):
        _mark_last_seq_fused(survey)


def _mark_last_seq_fused(survey: _Survey) -> None:
    """Reprice the most recent unfused seq-scan entry as fused."""
    for i in range(len(survey._pending) - 1, -1, -1):
        entry = survey._pending[i]
        if entry[0] == "seq" and not entry[3]:
            survey._pending[i] = ("seq", entry[1], entry[2], True)
            return


def choice_key(node: LogicalNode) -> tuple:
    """A cheap, hashable key capturing everything the pricing reads.

    Two plans with equal keys cost identically under the same
    statistics epoch, so the executor memoizes :func:`choose_engine`
    on ``(choice_key, epoch)`` — point lookups must not pay a full
    cost walk on every execute.
    """
    if isinstance(node, LogicalScan):
        return ("s", node.table, node.access, len(node.residual),
                node.estimated_rows,
                len(node.key_set) if node.key_set else 0)
    if isinstance(node, LogicalJoin):
        return ("j", node.method, node.estimated_rows,
                choice_key(node.left), choice_key(node.right))
    if isinstance(node, LogicalAggregate):
        return ("a", node.group_by is not None,
                choice_key(node.child))
    if isinstance(node, LogicalEmpty):
        return ("e",)
    if isinstance(node, LogicalCladeAggregate):
        return ("c",)
    return (type(node).__name__,
            *(choice_key(child) for child in node.children()))


def choose_engine(node: LogicalNode, estimator) -> EngineChoice:
    """Price *node* both ways and pick the cheaper engine."""
    survey = _Survey()
    _walk(node, estimator, survey)
    batch_size = cost_model.adaptive_batch_size(survey.widest_scan)
    row_cost = survey.row_cost
    if survey.row_only_reason is not None:
        # The batch engine would only wrap the same row operators in an
        # adapter; charge it the setup it cannot win back.
        vec_cost = row_cost + cost_model.VEC_SETUP_COST
        return EngineChoice(
            mode="row", row_cost=row_cost, vec_cost=vec_cost,
            reason=survey.row_only_reason,
            batch_size=batch_size,
        )
    vec_cost = survey.price(batch_size)
    if vec_cost < row_cost:
        return EngineChoice(
            mode="vectorized", row_cost=row_cost, vec_cost=vec_cost,
            reason=("wide scan amortizes batch setup "
                    f"(vec {vec_cost:.0f} < row {row_cost:.0f})"),
            batch_size=batch_size,
        )
    return EngineChoice(
        mode="row", row_cost=row_cost, vec_cost=vec_cost,
        reason=("too few rows to amortize batch setup "
                f"(row {row_cost:.0f} <= vec {vec_cost:.0f})"),
        batch_size=batch_size,
    )
