"""Fused compiled pipelines for the dominant scan shapes.

The vectorized engine's scan->filter->project and
scan->filter->aggregate plans each spend a pipeline stage materializing
an intermediate :class:`~repro.core.query.vectorized.Batch` that the
next operator immediately consumes. The vectorized lowering *fuses*
these two shapes: the compiled predicate closures from
:mod:`repro.core.query.predicates` run straight over the
:class:`~repro.storage.columnar.ColumnStore` buffers, and the selected
positions feed projection gathers or aggregation folds directly — one
operator, one pass, no intermediate batch.

Counter parity with the unfused pipelines is exact: the scan half
counts ``rows_scanned`` per chunk and ``rows_emitted`` per selected
row, and the aggregate half counts one ``rows_emitted`` per output row,
matching ``SeqScanOp`` + ``HashAggregateOp`` on the row engine.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.query.ast import REMOTE_DETAIL_COLUMNS
from repro.core.query.logical import (
    LogicalAggregate,
    LogicalNode,
    LogicalProject,
    LogicalScan,
)
from repro.core.query.physical import ExecCounters, _AggState
from repro.core.query.predicates import compile_columns
from repro.core.query.vectorized import (
    Batch,
    VectorOp,
    _filter_positions,
    batch_from_rows,
)


class _FusedScanBase(VectorOp):
    """Shared one-pass scan half of the fused operators."""

    def __init__(self, counters: ExecCounters, store, residual,
                 batch_size: int, scan_stats=None) -> None:
        super().__init__(counters)
        self.store = store
        self.residual = residual
        self.compiled = compile_columns(residual)
        self.batch_size = batch_size
        #: EXPLAIN ANALYZE stats node for the fused-away scan: fusion
        #: removes the scan operator, not its accounting.
        self.scan_stats = scan_stats

    def _positions(self):
        durable = self.store.table.durable
        if durable is not None and self.residual:
            positions = durable.scan_positions(
                self.store, self.residual, self.counters,
            )
            if positions is not None:
                return positions
        return self.store.live_positions()

    def _selected_chunks(self) -> Iterator[list[int]]:
        """Yield the surviving positions of each batch, in scan order."""
        positions = self._positions()
        size = self.batch_size
        store = self.store
        compiled = self.compiled
        scan_stats = self.scan_stats
        if scan_stats is not None:
            scan_stats.loops += 1
        for start in range(0, len(positions), size):
            chunk = positions[start:start + size]
            self.counters.rows_scanned += len(chunk)
            selected = list(_filter_positions(chunk, store, compiled))
            if scan_stats is not None:
                scan_stats.rows_out += len(selected)
            yield selected


class FusedScanProjectOp(_FusedScanBase):
    """scan->filter->project in one pass over ColumnStore buffers."""

    def __init__(self, counters: ExecCounters, store, residual,
                 batch_size: int, scan_stats, columns) -> None:
        super().__init__(counters, store, residual, batch_size,
                         scan_stats)
        self.columns = columns

    def batches(self) -> Iterator[Batch]:
        out_columns = self.columns
        unique = tuple(dict.fromkeys(out_columns))
        store = self.store
        for selected in self._selected_chunks():
            if not selected:
                continue
            self.counters.rows_emitted += len(selected)
            columns = {name: store.gather(name, selected)
                       for name in unique}
            yield self._emit(Batch(out_columns, columns, len(selected)))


class FusedScanAggregateOp(_FusedScanBase):
    """scan->filter->aggregate in one pass over ColumnStore buffers.

    Folds accumulate per selected chunk in scan order, so float
    results are bit-identical to the row engine's one-row-at-a-time
    folds regardless of batch size.
    """

    def __init__(self, counters: ExecCounters, store, residual,
                 batch_size: int, scan_stats, aggregates,
                 group_by) -> None:
        super().__init__(counters, store, residual, batch_size,
                         scan_stats)
        self.aggregates = aggregates
        self.group_by = group_by

    def batches(self) -> Iterator[Batch]:
        aggregates = self.aggregates
        group_by = self.group_by
        store = self.store
        groups: dict[Any, dict[str, _AggState]] = {}
        saw_rows = False
        for selected in self._selected_chunks():
            if not selected:
                continue
            self.counters.rows_emitted += len(selected)
            saw_rows = True
            # One gather per distinct column per chunk, shared by every
            # aggregate that folds it (mean(x) + max(x) read one buffer).
            gathered: dict[str, list] = {}
            for agg in aggregates:
                if agg.column != "*" and agg.column not in gathered:
                    gathered[agg.column] = store.gather(agg.column,
                                                        selected)
            if group_by is None:
                states = groups.setdefault(None, {
                    agg.output_name: _AggState() for agg in aggregates
                })
                for agg in aggregates:
                    state = states[agg.output_name]
                    if agg.column == "*":
                        state.count += len(selected)
                    else:
                        state.fold_many(gathered[agg.column])
            else:
                keys = store.gather(group_by, selected)
                folds = [
                    (agg.output_name,
                     None if agg.column == "*"
                     else gathered[agg.column])
                    for agg in aggregates
                ]
                for i, key in enumerate(keys):
                    states = groups.get(key)
                    if states is None:
                        states = groups[key] = {
                            agg.output_name: _AggState()
                            for agg in aggregates
                        }
                    for name, values in folds:
                        state = states[name]
                        if values is None:
                            state.count += 1
                        else:
                            state.fold(values[i])
        if not saw_rows and group_by is None:
            groups[None] = {
                agg.output_name: _AggState() for agg in aggregates
            }
        out_rows = []
        for key in sorted(groups, key=repr):
            states = groups[key]
            out: dict[str, Any] = {}
            if group_by is not None:
                out[group_by] = key
            for agg in aggregates:
                out[agg.output_name] = states[agg.output_name].result(
                    agg.func
                )
            self.counters.rows_emitted += 1
            out_rows.append(out)
        if out_rows:
            yield self._emit(batch_from_rows(out_rows))


def try_fuse(lowering, node: LogicalNode,
             stats=None) -> VectorOp | None:
    """Build a fused operator for *node* if its shape allows, else None.

    Called from ``VectorizedLowering._lower`` for every aggregate and
    projection, under both adaptive and explicit vectorized execution.
    """
    scan = getattr(node, "child", None)
    if not isinstance(scan, LogicalScan) or scan.access != "seq":
        return None
    table = lowering.engine.drugtree.tables.get(scan.table)
    if table is None:
        return None
    store = table.column_store()
    names = set(store.column_names)
    if isinstance(node, LogicalProject):
        fusible = (not any(c in REMOTE_DETAIL_COLUMNS for c in node.columns)
                   and all(c in names for c in node.columns))
    elif isinstance(node, LogicalAggregate):
        fusible = ((node.group_by is None or node.group_by in names)
                   and all(agg.column == "*" or agg.column in names
                           for agg in node.aggregates))
    else:
        return None
    if not fusible:
        return None
    lowering.counters.fused_pipelines += 1
    scan_stats = None
    if stats is not None:
        # Keep the fused-away scan visible in operator actuals.
        scan_stats = stats.child(scan.describe(), scan.estimated_rows)
    args = (lowering.counters, store, scan.residual, lowering.batch_size,
            scan_stats)
    if isinstance(node, LogicalProject):
        return FusedScanProjectOp(*args, node.columns)
    return FusedScanAggregateOp(*args, node.aggregates, node.group_by)
