"""Fused compiled pipelines for the dominant scan shapes.

The vectorized engine's scan->filter->project and
scan->filter->aggregate plans each spend a pipeline stage building an
intermediate :class:`~repro.core.query.vectorized.Batch` of every
scanned column that the next operator immediately narrows. The
vectorized lowering *fuses* these two shapes: the compiled
:class:`~repro.core.query.predicates.ColumnMask` predicates run
straight over the :class:`~repro.storage.columnar.ColumnStore`
buffers, and the selected positions feed projection gathers or the
order-preserving aggregate folds directly — one operator, one pass,
and only the columns the output needs are gathered.

Counter parity with the unfused pipelines is exact: the scan half
counts ``rows_scanned`` per chunk and ``rows_emitted`` per selected
row, and the aggregate half counts one ``rows_emitted`` per output row,
matching ``SeqScanOp`` + ``HashAggregateOp`` on the row engine.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.query.ast import REMOTE_DETAIL_COLUMNS
from repro.core.query.logical import (
    LogicalAggregate,
    LogicalNode,
    LogicalProject,
    LogicalScan,
)
from repro.core.query.physical import ExecCounters
from repro.core.query.predicates import compile_masks
from repro.core.query.vectorized import (
    Batch,
    VectorOp,
    _Aggregation,
    select,
)


class _FusedScanBase(VectorOp):
    """Shared one-pass scan half of the fused operators."""

    def __init__(self, counters: ExecCounters, store, residual,
                 batch_size: int, scan_stats=None) -> None:
        super().__init__(counters)
        self.store = store
        self.residual = residual
        self.masks = compile_masks(residual)
        self.batch_size = batch_size
        #: EXPLAIN ANALYZE stats node for the fused-away scan: fusion
        #: removes the scan operator, not its accounting.
        self.scan_stats = scan_stats

    def _positions(self) -> np.ndarray:
        durable = self.store.table.durable
        if durable is not None and self.residual:
            positions = durable.scan_positions(
                self.store, self.residual, self.counters,
            )
            if positions is not None:
                return positions
        return self.store.live_positions()

    def _selected_chunks(self) -> Iterator[np.ndarray]:
        """Yield the surviving positions of each batch, in scan order."""
        positions = self._positions()
        size = self.batch_size
        store = self.store
        masks = self.masks
        scan_stats = self.scan_stats
        if scan_stats is not None:
            scan_stats.loops += 1
        for start in range(0, len(positions), size):
            chunk = positions[start:start + size]
            self.counters.rows_scanned += len(chunk)
            selected = select(store, masks, chunk)
            if scan_stats is not None:
                scan_stats.rows_out += len(selected)
            yield selected

    def _gather(self, names, selected: np.ndarray) -> Batch:
        store = self.store
        return Batch(names, {name: store.vector(name, selected)
                             for name in dict.fromkeys(names)},
                     len(selected))


class FusedScanProjectOp(_FusedScanBase):
    """scan->filter->project in one pass over ColumnStore buffers."""

    def __init__(self, counters: ExecCounters, store, residual,
                 batch_size: int, scan_stats, columns) -> None:
        super().__init__(counters, store, residual, batch_size,
                         scan_stats)
        self.columns = columns

    def batches(self) -> Iterator[Batch]:
        for selected in self._selected_chunks():
            if not len(selected):
                continue
            self.counters.rows_emitted += len(selected)
            yield self._emit(self._gather(self.columns, selected))


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
        aggregation = _Aggregation(self.aggregates, self.group_by)
        names = tuple(dict.fromkeys(
            ([self.group_by] if self.group_by is not None else [])
            + [agg.column for agg in self.aggregates if agg.column != "*"]
        ))
        for selected in self._selected_chunks():
            if not len(selected):
                continue
            self.counters.rows_emitted += len(selected)
            aggregation.add(self._gather(names, selected))
        out = aggregation.finish(self.counters)
        if out is not None:
            yield self._emit(out)


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
