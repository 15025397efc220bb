"""Vectorized (batch-at-a-time) execution over numpy column buffers.

The row engine (:mod:`repro.core.query.physical`) interprets plans one
dict row at a time: every row pays a ``dict`` materialization, a
generator resumption per operator, and per-row predicate dispatch. This
module executes the *same* logical plans batch-at-a-time over the
tables' :class:`~repro.storage.columnar.ColumnStore` projections, where
each column is a typed numpy array with a NULL mask, dictionary codes,
or (the fallback) Python objects:

* scans build **selection vectors** (``intp`` arrays of live buffer
  positions) and narrow them with compiled
  :class:`~repro.core.query.predicates.ColumnMask` predicates — array
  comparisons on typed columns, one lookup per distinct value on
  dictionary-encoded ones; index range scans answer their bounds the
  same way, and index probes map row ids to positions with one
  ``np.searchsorted``;
* filters, projections, joins, sorts and limits operate on
  :class:`Batch` objects (column name →
  :class:`~repro.storage.columnar.Vector`); the hash join probes with a
  lookup table over the probe column's dictionary codes;
* aggregation folds whole column slices with order-preserving
  reductions (:func:`fold_vector`): sums are an ``np.cumsum`` seeded
  with the running total — a sequential left fold, so float results
  are bit-identical to the row engine's; ``np.sum``'s pairwise
  summation is not, and lint rule L006 keeps it out of this module;
* values become Python objects only at the row boundary, through
  ``tolist()``, so every cell has the row engine's Python type;
* operators without a batch form — ``RemoteFetchOp``, nested-loop
  joins, the clade fast path — **fall back** to their row
  implementations behind :class:`RowSourceAdapterOp`, so every plan the
  row engine runs, this engine runs with identical results.

Result parity is a hard contract: same rows, same order, same
``rows_scanned``/``rows_emitted``/``index_probes``. The one documented
exception is early termination (a bare ``LIMIT`` without ``ORDER BY``):
scans work at batch granularity, so an abandoned scan may have counted
up to one batch more than the row engine's row-granular stop.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from typing import Any

import numpy as np

from repro.core.query.ast import REMOTE_DETAIL_COLUMNS, AggregateSpec, OrderBy
from repro.core.query.logical import (
    LogicalAggregate,
    LogicalCladeAggregate,
    LogicalEmpty,
    LogicalHaving,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalOrder,
    LogicalProject,
    LogicalScan,
)
from repro.core.query.physical import ExecCounters, _AggState, _sort_key
from repro.core.query.predicates import (
    ColumnMask,
    column_mask,
    compile_masks,
)
from repro.errors import PlanError, QueryError
from repro.obs.explain import OperatorStats
from repro.obs.timing import now_wall
from repro.storage.columnar import ColumnStore, Vector
from repro.storage.index import SortedIndex

#: Default rows per batch; EngineConfig.vector_batch_size overrides.
DEFAULT_BATCH_SIZE = 1024


class Batch:
    """One batch of rows in columnar form.

    ``columns`` maps column name to a
    :class:`~repro.storage.columnar.Vector`; every vector has
    ``length`` entries and position ``i`` across all of them is one
    row. ``order`` fixes the column order rows materialize with,
    mirroring the key order of the row engine's dicts.
    """

    __slots__ = ("order", "columns", "length")

    def __init__(self, order: tuple[str, ...],
                 columns: dict[str, Vector], length: int) -> None:
        self.order = order
        self.columns = columns
        self.length = length

    def __len__(self) -> int:
        return self.length

    def values(self, name: str) -> Vector:
        """One column's vector; missing columns read as all-NULL
        (the batch analogue of ``row.get``)."""
        if name in self.columns:
            return self.columns[name]
        return Vector.nulls(self.length)

    def take(self, index: np.ndarray) -> "Batch":
        """A new batch keeping the rows at *index*, in the given order."""
        taken = {name: vector.take(index)
                 for name, vector in self.columns.items()}
        return Batch(self.order, taken, len(index))

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Materialize dict rows (the batch/row boundary)."""
        order = self.order
        if not order:
            return iter([{} for _ in range(self.length)])
        columns = [self.columns[name].tolist() for name in order]
        return map(_row_builder(order), *columns)

    def __repr__(self) -> str:
        return f"Batch(rows={self.length}, columns={list(self.order)})"


@lru_cache(maxsize=256)
def _row_builder(order: tuple[str, ...]):
    """A function ``(v0, v1, ...) -> {order[0]: v0, ...}``.

    Built as a dict display, which CPython sizes once and fills without
    the pair tuples ``dict(zip(order, values))`` allocates: 2-3x faster
    per row, and output rows are most of a wide projection's cost. Only
    generated names appear in the source; column names are bound
    through the namespace.
    """
    params = ", ".join(f"v{i}" for i in range(len(order)))
    items = ", ".join(f"k{i}: v{i}" for i in range(len(order)))
    names = {f"k{i}": name for i, name in enumerate(order)}
    return eval(f"lambda {params}: {{{items}}}", names)


def batch_from_rows(rows: list[dict[str, Any]]) -> Batch:
    """Columnarize dict rows (the fallback adapter's direction)."""
    if not rows:
        return Batch((), {}, 0)
    order = tuple(rows[0].keys())
    columns = {name: Vector.of_objects([row.get(name) for row in rows])
               for name in order}
    return Batch(order, columns, len(rows))


def concat_batches(batches: list[Batch]) -> Batch:
    """The non-empty *batches* back to back, in the first one's order."""
    batches = [batch for batch in batches if len(batch)]
    if not batches:
        return Batch((), {}, 0)
    order = batches[0].order
    columns = {name: Vector.concat([batch.values(name)
                                    for batch in batches])
               for name in order}
    return Batch(order, columns, sum(len(batch) for batch in batches))


def select(store: ColumnStore, masks: tuple[ColumnMask, ...],
           positions: np.ndarray) -> np.ndarray:
    """Narrow a selection vector, one compiled mask at a time.

    Each mask sees only the survivors of the previous one, so a
    conjunction short-circuits per row as the row engine's does.
    """
    for mask in masks:
        if not len(positions):
            break
        positions = positions[mask(store.vector(mask.column, positions))]
    return positions


def fold_vector(state: _AggState, vector: Vector) -> None:
    """Fold one column slice into *state*, as repeated
    :meth:`~repro.core.query.physical._AggState.fold` calls would.

    NULLs are skipped. Sums are an ``np.cumsum`` seeded with the
    running total: the same sequential left fold, so a lone ``-0.0``
    sums to ``0.0`` and every float total is bit-identical. Booleans
    and strings count but add nothing to the total. ``min``/``max``
    keep the first of equal values and the fold's NaN rule: a NaN
    first value sticks (no ``<`` or ``>`` moves off it), a later NaN
    never wins. Results are Python values (``int`` for int columns).
    Object vectors fold value by value.
    """
    data = vector.data
    dictionary = vector.dictionary
    if dictionary is not None:
        present = np.flatnonzero(np.bincount(data, minlength=1)[1:]) + 1
        if not len(present):
            return
        state.count += len(data) - np.count_nonzero(data == 0)
        values = dictionary.decode[present].tolist()
        _fold_extremes(state, min(values), max(values))
        return
    if data.dtype == object:
        for value in data.tolist():
            state.fold(value)
        return
    if vector.valid is not None:
        data = data[vector.valid]
    if not len(data):
        return
    state.count += len(data)
    if data.dtype != np.bool_:
        state.total = np.cumsum(
            np.concatenate(([state.total], data)))[-1].item()
    if state.minimum is None and data[0] != data[0]:
        state.minimum = state.maximum = data[0].item()
        return
    if data.dtype == np.float64:
        nan = np.isnan(data)
        if nan.any():
            data = data[~nan]
            if not len(data):
                return
    _fold_extremes(state, data[data.argmin()].item(),
                   data[data.argmax()].item())


def _fold_extremes(state: _AggState, low: Any, high: Any) -> None:
    minimum = state.minimum
    if minimum is not None and minimum != minimum:
        return  # a NaN first value: the row fold never leaves it
    if minimum is None or low < minimum:
        state.minimum = low
    if state.maximum is None or high > state.maximum:
        state.maximum = high


def _group_runs(keys: Vector) -> Iterator[tuple[Any, np.ndarray]]:
    """``(key, row index)`` per distinct key of *keys*, each index in
    scan order. Dictionary codes group directly; other columns group
    by Python value, with the row engine's dict semantics."""
    if keys.dictionary is not None:
        ids = keys.data
        labels = keys.dictionary.decode
    else:
        index: dict[Any, int] = {}
        values = keys.tolist()
        ids = np.fromiter(
            (index.setdefault(value, len(index)) for value in values),
            dtype=np.intp, count=len(values))
        labels = list(index)
    order = np.argsort(ids, kind="stable")
    ordered = ids[order]
    bounds = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    starts = [0, *bounds.tolist()]
    ends = [*bounds.tolist(), len(ids)]
    for start, end in zip(starts, ends):
        yield labels[ordered[start]], order[start:end]


class _Aggregation:
    """Scalar or grouped aggregate states, fed one batch at a time."""

    def __init__(self, aggregates: tuple[AggregateSpec, ...],
                 group_by: str | None) -> None:
        self.aggregates = aggregates
        self.group_by = group_by
        self.groups: dict[Any, dict[str, _AggState]] = {}
        self.saw_rows = False

    def _states(self, key: Any) -> dict[str, _AggState]:
        states = self.groups.get(key)
        if states is None:
            states = self.groups[key] = {
                agg.output_name: _AggState() for agg in self.aggregates
            }
        return states

    def add(self, batch: Batch) -> None:
        if not len(batch):
            return
        self.saw_rows = True
        if self.group_by is None:
            self._fold(self._states(None), batch, None)
            return
        for key, index in _group_runs(batch.values(self.group_by)):
            self._fold(self._states(key), batch, index)

    def _fold(self, states, batch: Batch, index: np.ndarray | None) -> None:
        # One gather per distinct column, shared by every aggregate
        # that folds it (mean(x) + max(x) read one slice).
        taken: dict[str, Vector] = {}
        for agg in self.aggregates:
            state = states[agg.output_name]
            if agg.column == "*":
                state.count += len(batch) if index is None else len(index)
                continue
            vector = taken.get(agg.column)
            if vector is None:
                vector = batch.values(agg.column)
                if index is not None:
                    vector = vector.take(index)
                taken[agg.column] = vector
            fold_vector(state, vector)

    def finish(self, counters: ExecCounters) -> Batch | None:
        """The output batch (groups in ``repr`` order), or None."""
        if not self.saw_rows and self.group_by is None:
            # Scalar aggregate over an empty input still yields one row.
            self._states(None)
        out_rows = []
        for key in sorted(self.groups, key=repr):
            states = self.groups[key]
            out: dict[str, Any] = {}
            if self.group_by is not None:
                out[self.group_by] = key
            for agg in self.aggregates:
                out[agg.output_name] = states[agg.output_name].result(
                    agg.func
                )
            counters.rows_emitted += 1
            out_rows.append(out)
        return batch_from_rows(out_rows) if out_rows else None


class VectorOp:
    """One batch-at-a-time plan operator.

    Mirrors :class:`~repro.core.query.physical.PhysicalOp`: registers
    itself in the shared counters' operator list and exposes ``rows()``
    so any consumer of the row protocol (the executor's final
    ``list(...)``, ``RemoteFetchOp``) can drain it without knowing
    about batches.
    """

    def __init__(self, counters: ExecCounters) -> None:
        self.counters = counters
        counters.operators.append(type(self).__name__)

    def batches(self) -> Iterator[Batch]:
        raise NotImplementedError

    def rows(self) -> Iterator[dict[str, Any]]:
        for batch in self.batches():
            yield from batch.iter_rows()

    def _emit(self, batch: Batch) -> Batch:
        self.counters.batches_emitted += 1
        self.counters.batch_rows += len(batch)
        return batch


class InstrumentedVecOp:
    """EXPLAIN ANALYZE wrapper charging stats per *batch*.

    The batch analogue of :class:`~repro.obs.explain.InstrumentedOp`:
    timing brackets each ``next()`` on the batch iterator and
    ``rows_out`` advances by the batch length, so operator actuals mean
    the same thing in both modes.
    """

    __slots__ = ("inner", "stats", "clock", "counters")

    def __init__(self, inner: VectorOp, stats: OperatorStats,
                 clock: Any | None = None) -> None:
        self.inner = inner
        self.stats = stats
        self.clock = clock
        self.counters = inner.counters

    def batches(self) -> Iterator[Batch]:
        stats = self.stats
        clock = self.clock
        stats.loops += 1
        iterator = self.inner.batches()
        while True:
            wall_started = now_wall()
            virtual_started = clock.now() if clock is not None else 0.0
            try:
                batch = next(iterator)
            except StopIteration:
                stats.wall_s += now_wall() - wall_started
                if clock is not None:
                    stats.virtual_s += clock.now() - virtual_started
                return
            stats.wall_s += now_wall() - wall_started
            if clock is not None:
                stats.virtual_s += clock.now() - virtual_started
            stats.rows_out += len(batch)
            yield batch

    def rows(self) -> Iterator[dict[str, Any]]:
        for batch in self.batches():
            yield from batch.iter_rows()


class RowSourceAdapterOp(VectorOp):
    """Decay adapter: re-batch a row operator's output.

    Wraps subtrees that only exist in row form (``RemoteFetchOp``,
    nested-loop joins, the clade fast path). The wrapped operator does
    its own row accounting; this adapter only columnarizes.
    """

    def __init__(self, counters: ExecCounters, row_op: Any,
                 batch_size: int) -> None:
        super().__init__(counters)
        self.row_op = row_op
        self.batch_size = batch_size

    def batches(self) -> Iterator[Batch]:
        buffer: list[dict[str, Any]] = []
        for record in self.row_op.rows():
            buffer.append(record)
            if len(buffer) >= self.batch_size:
                yield self._emit(batch_from_rows(buffer))
                buffer = []
        if buffer:
            yield self._emit(batch_from_rows(buffer))


class _VecScanBase(VectorOp):
    """Shared gather/filter machinery of the four scan shapes."""

    def __init__(self, counters: ExecCounters, store: ColumnStore,
                 residual, columns: tuple[str, ...] | None,
                 batch_size: int) -> None:
        super().__init__(counters)
        self.store = store
        self.residual = residual
        self.masks = compile_masks(residual)
        if columns is None:
            self.columns = store.column_names
        else:
            self.columns = tuple(c for c in store.column_names
                                 if c in columns)
        self.batch_size = batch_size

    def _scan_positions(self, positions: np.ndarray,
                        masks: tuple[ColumnMask, ...] | None = None,
                        ) -> Iterator[Batch]:
        """Count, filter, and gather *positions* one batch at a time."""
        masks = self.masks if masks is None else masks
        store = self.store
        size = self.batch_size
        for start in range(0, len(positions), size):
            chunk = positions[start:start + size]
            self.counters.rows_scanned += len(chunk)
            selected = select(store, masks, chunk)
            if not len(selected):
                continue
            self.counters.rows_emitted += len(selected)
            columns = {name: store.vector(name, selected)
                       for name in self.columns}
            yield self._emit(Batch(self.columns, columns, len(selected)))


class VecSeqScanOp(_VecScanBase):
    """Full-table scan: selection vectors over all live positions.

    On a durable table with residual predicates, flushed segments'
    zone maps are consulted first: segments whose min/max intervals
    refute a predicate are skipped without touching their positions,
    and only the surviving row-id ranges (plus the memtable's) are
    scanned. The positions come back in insertion order, so output
    order and row counts match the unpruned scan exactly.
    """

    def batches(self) -> Iterator[Batch]:
        durable = self.store.table.durable
        if durable is not None and self.residual:
            positions = durable.scan_positions(
                self.store, self.residual, self.counters,
            )
            if positions is not None:
                yield from self._scan_positions(positions)
                return
        yield from self._scan_positions(self.store.live_positions())


class VecIndexEqScanOp(_VecScanBase):
    def __init__(self, counters: ExecCounters, store: ColumnStore,
                 index, value: Any, residual=(),
                 columns: tuple[str, ...] | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        super().__init__(counters, store, residual, columns, batch_size)
        self.index = index
        self.value = value

    def batches(self) -> Iterator[Batch]:
        self.counters.index_probes += 1
        positions = self.store.positions_of(self.index.lookup(self.value))
        yield from self._scan_positions(positions)


class VecIndexRangeScanOp(_VecScanBase):
    """Index range scan, answered from the column when that is exact.

    ``SortedIndex.range`` returns row ids ascending, and while the
    store's row ids ascend with position, the live positions whose
    value lies inside the bounds are the same rows in the same order.
    The bounds then run as column masks over a view of the whole
    column — no per-row-id sort or lookup — and still count as the
    plan's one index probe. A float column holding NaN keeps the index: NaN keys
    break the index's ordering, so only the index itself says which
    rows its bisection returns.
    """

    def __init__(self, counters: ExecCounters, store: ColumnStore,
                 index: SortedIndex, low: Any, high: Any,
                 include_low: bool, include_high: bool, residual=(),
                 columns: tuple[str, ...] | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        super().__init__(counters, store, residual, columns, batch_size)
        self.index = index
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high

    def batches(self) -> Iterator[Batch]:
        self.counters.index_probes += 1
        store = self.store
        column = self.index.column_names[0]
        if store.ascending and not store.has_nan(column):
            # A view of the whole column: no position array to gather.
            # Bound masks never match NULL; NULL keys are in no range.
            values = store.vector(column)
            hit = values.present()
            if self.low is not None:
                op = ">=" if self.include_low else ">"
                hit &= column_mask(column, op, self.low)(values)
            if self.high is not None:
                op = "<=" if self.include_high else "<"
                hit &= column_mask(column, op, self.high)(values)
            live = store.live_mask()
            positions = np.flatnonzero(hit if live is None else hit & live)
        else:
            positions = store.positions_of(self.index.range(
                self.low, self.high, self.include_low, self.include_high))
        yield from self._scan_positions(positions)


class VecKeySetScanOp(_VecScanBase):
    """Key-set scan: index probes per key, or a filtered seq scan."""

    def __init__(self, counters: ExecCounters, store: ColumnStore,
                 column: str, keys: frozenset, residual=(),
                 columns: tuple[str, ...] | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        super().__init__(counters, store, residual, columns, batch_size)
        self.column = column
        self.keys = keys

    def batches(self) -> Iterator[Batch]:
        index = self.store.table.index_on(self.column)
        if index is not None:
            # Same key order (and per-key probe accounting) as the row
            # operator: deterministic across runs and engines.
            row_ids: list[int] = []
            for key in sorted(self.keys, key=repr):
                self.counters.index_probes += 1
                row_ids.extend(index.lookup(key))
            yield from self._scan_positions(
                self.store.positions_of(row_ids))
            return
        member = ColumnMask(self.column, self.keys.__contains__)
        yield from self._scan_positions(self.store.live_positions(),
                                        (member, *self.masks))


class VecFilterOp(VectorOp):
    """Batch filter (the HAVING stage) over compiled masks."""

    def __init__(self, counters: ExecCounters, child,
                 predicates) -> None:
        super().__init__(counters)
        self.child = child
        self.predicates = predicates
        self.masks = compile_masks(predicates)

    def batches(self) -> Iterator[Batch]:
        for batch in self.child.batches():
            keep = np.arange(len(batch))
            for mask in self.masks:
                keep = keep[mask(batch.values(mask.column).take(keep))]
            if not len(keep):
                continue
            self.counters.rows_emitted += len(keep)
            yield self._emit(batch.take(keep))


class VecProjectOp(VectorOp):
    def __init__(self, counters: ExecCounters, child,
                 columns: tuple[str, ...]) -> None:
        super().__init__(counters)
        self.child = child
        self.columns = columns

    def batches(self) -> Iterator[Batch]:
        for batch in self.child.batches():
            missing = [c for c in self.columns
                       if c not in batch.columns]
            if missing:
                raise QueryError(
                    f"projection references missing column "
                    f"'{missing[0]}'"
                )
            projected = {name: batch.columns[name]
                         for name in self.columns}
            yield self._emit(Batch(self.columns, projected,
                                   len(batch)))


class VecHashAggregateOp(VectorOp):
    """Grouped/scalar aggregation folding column slices per batch."""

    def __init__(self, counters: ExecCounters, child,
                 aggregates: tuple[AggregateSpec, ...],
                 group_by: str | None = None) -> None:
        super().__init__(counters)
        self.child = child
        self.aggregates = aggregates
        self.group_by = group_by

    def batches(self) -> Iterator[Batch]:
        aggregation = _Aggregation(self.aggregates, self.group_by)
        for batch in self.child.batches():
            aggregation.add(batch)
        out = aggregation.finish(self.counters)
        if out is not None:
            yield self._emit(out)


def _sorted_index(batch: Batch, order_by: OrderBy) -> np.ndarray:
    """Row order of a stable sort on the ORDER BY key (NULLs first
    ascending, last descending), exactly as the row engine sorts.

    Typed keys sort as arrays: a stable ``np.lexsort`` on (non-NULL,
    value), with ties kept in arrival order descending too (sorting
    the reversed rows and reversing back), as ``sorted(reverse=True)``
    keeps them. Dictionary codes sort by the rank of their value.
    NaN keys (whose Python order depends on the sort algorithm) and
    object keys take Python's ``sorted`` on the decoded values.
    """
    keys = batch.values(order_by.column)
    descending = order_by.descending
    data = keys.data
    if keys.dictionary is not None:
        values = keys.dictionary.values()
        ranks = np.empty(len(values), dtype=np.intp)
        ranks[sorted(range(1, len(values)), key=values.__getitem__)] = \
            np.arange(1, len(values))
        ranks[0] = 0  # NULL below every value
        data, present = ranks[data], None
    elif data.dtype == object or (data.dtype == np.float64
                                  and np.isnan(data).any()):
        decoded = keys.tolist()
        order = sorted(range(len(decoded)),
                       key=lambda i: _sort_key(decoded[i]),
                       reverse=descending)
        return np.array(order, dtype=np.intp)
    else:
        present = keys.valid
    columns = (data,) if present is None else (data, present)
    if not descending:
        return np.lexsort(columns)
    last = len(data) - 1
    return last - np.lexsort([c[::-1] for c in columns])[::-1]


class VecSortOp(VectorOp):
    def __init__(self, counters: ExecCounters, child,
                 order_by: OrderBy,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        super().__init__(counters)
        self.child = child
        self.order_by = order_by
        self.batch_size = batch_size

    def batches(self) -> Iterator[Batch]:
        merged = concat_batches(list(self.child.batches()))
        if not len(merged):
            return
        # A stable sort, exactly like the row engine's list.sort: ties
        # keep arrival order under either mode.
        index = _sorted_index(merged, self.order_by)
        size = self.batch_size
        for start in range(0, len(index), size):
            yield self._emit(merged.take(index[start:start + size]))


class VecTopKOp(VectorOp):
    """Bounded sort; result order matches ``heapq.nlargest/nsmallest``
    (documented equivalent of a stable full sort sliced to k)."""

    def __init__(self, counters: ExecCounters, child,
                 order_by: OrderBy, limit: int) -> None:
        super().__init__(counters)
        self.child = child
        self.order_by = order_by
        self.limit = limit

    def batches(self) -> Iterator[Batch]:
        merged = concat_batches(list(self.child.batches()))
        if not len(merged):
            return
        index = _sorted_index(merged, self.order_by)[:self.limit]
        self.counters.rows_emitted += len(index)
        yield self._emit(merged.take(index))


class VecLimitOp(VectorOp):
    def __init__(self, counters: ExecCounters, child,
                 limit: int) -> None:
        super().__init__(counters)
        self.child = child
        self.limit = limit

    def batches(self) -> Iterator[Batch]:
        remaining = self.limit
        for batch in self.child.batches():
            if len(batch) > remaining:
                batch = batch.take(np.arange(remaining))
            remaining -= len(batch)
            self.counters.rows_emitted += len(batch)
            yield self._emit(batch)
            if remaining <= 0:
                return


class VecHashJoinOp(VectorOp):
    """Batch equi-join: build rows bucketed by key id, probed per batch.

    Keys get dense ids from one Python dict over the build side's
    distinct values (the row engine's dict semantics, NULL included).
    A dictionary-encoded probe column is mapped code → key id once per
    dictionary, so probing a batch is one lookup-table gather; bucket
    expansion is ``np.repeat`` arithmetic. Merged rows replicate the
    row engine's ``{**build, **probe}``: build columns first,
    probe-only columns appended, a column present on both sides takes
    the probe value, and each probe row's matches follow build order.
    """

    def __init__(self, counters: ExecCounters, build, probe,
                 key: str) -> None:
        super().__init__(counters)
        self.build = build
        self.probe = probe
        self.key = key

    def batches(self) -> Iterator[Batch]:
        build = concat_batches(list(self.build.batches()))
        key_ids: dict[Any, int] = {}
        build_ids = _per_value(
            build.values(self.key),
            lambda value: key_ids.setdefault(value, len(key_ids)))
        # Build positions grouped by key id, build order within a key.
        by_key = np.argsort(build_ids, kind="stable")
        counts = np.bincount(build_ids, minlength=len(key_ids))
        firsts = np.cumsum(counts) - counts
        luts: dict[int, np.ndarray] = {}
        for batch in self.probe.batches():
            probe_ids = _probe_ids(batch.values(self.key), key_ids, luts)
            matches = np.zeros(len(batch), dtype=np.intp)
            hit = probe_ids >= 0
            matches[hit] = counts[probe_ids[hit]]
            ends = np.cumsum(matches)
            total = int(ends[-1]) if len(ends) else 0
            if not total:
                continue
            probe_positions = np.repeat(np.arange(len(batch)), matches)
            offsets = np.arange(total) - np.repeat(ends - matches, matches)
            build_positions = by_key[
                np.repeat(firsts[np.maximum(probe_ids, 0)], matches)
                + offsets]
            self.counters.rows_emitted += total
            order = build.order + tuple(
                c for c in batch.order if c not in build.columns
            )
            columns: dict[str, Vector] = {}
            for name in order:
                if name in batch.columns:  # probe wins shared columns
                    columns[name] = batch.columns[name].take(
                        probe_positions)
                else:
                    columns[name] = build.columns[name].take(
                        build_positions)
            yield self._emit(Batch(order, columns, total))


def _per_value(keys: Vector, assign) -> np.ndarray:
    """``assign(value)`` for every row of *keys*: called once per
    distinct value when *keys* is dictionary-encoded."""
    if keys.dictionary is not None:
        table = np.fromiter(map(assign, keys.dictionary.values()),
                            dtype=np.intp, count=keys.dictionary.size)
        return table[keys.data]
    values = keys.tolist()
    return np.fromiter(map(assign, values), dtype=np.intp,
                       count=len(values))


def _probe_ids(keys: Vector, key_ids: dict[Any, int],
               luts: dict[Any, np.ndarray]) -> np.ndarray:
    """Build key id per probe row (``-1``: no build row has the key);
    the code → id table of a dictionary is built once per join."""
    dictionary = keys.dictionary
    if dictionary is None:
        return _per_value(keys, lambda value: key_ids.get(value, -1))
    table = luts.get(dictionary)
    if table is None or len(table) < dictionary.size:
        table = luts[dictionary] = np.fromiter(
            (key_ids.get(value, -1) for value in dictionary.values()),
            dtype=np.intp, count=dictionary.size)
    return table[keys.data]


def _rows_estimate(node: LogicalNode) -> float:
    # Same build-side heuristic as the row engine's _join_op.
    estimated = getattr(node, "estimated_rows", None)
    return float(estimated) if estimated is not None else 1e9


def needed_columns(node: LogicalNode) -> set[str] | None:
    """Columns the plan above the scans actually consumes.

    ``None`` means "all": without a Project or Aggregate bounding the
    output, raw scan rows surface directly and every schema column must
    be gathered. Otherwise scans gather only this set (plus whatever
    their own access path needs), which is the "columnar projection"
    half of the speedup.
    """
    needed: set[str] = set()
    shaped = False
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, LogicalProject):
            shaped = True
            needed.update(current.columns)
            if any(c in REMOTE_DETAIL_COLUMNS for c in current.columns):
                needed.add("protein_id")  # the fetch key
        elif isinstance(current, LogicalAggregate):
            shaped = True
            needed.update(agg.column for agg in current.aggregates
                          if agg.column != "*")
            if current.group_by:
                needed.add(current.group_by)
        elif isinstance(current, LogicalJoin):
            needed.add(current.key)
        elif isinstance(current, LogicalOrder):
            needed.add(current.order_by.column)
        stack.extend(current.children())
    return needed if shaped else None


class VectorizedLowering:
    """Lower logical plans to batch operators (the vectorized mirror of
    ``QueryEngine._lower``), decaying to row operators where no batch
    form exists."""

    def __init__(self, engine, counters: ExecCounters,
                 probe: OperatorStats | None = None,
                 clock=None, batch_size: int | None = None) -> None:
        self.engine = engine
        self.counters = counters
        self.probe = probe
        self.clock = clock
        self.batch_size = batch_size or engine.config.vector_batch_size
        self.needed: set[str] | None = None

    def lower_plan(self, node: LogicalNode):
        self.needed = needed_columns(node)
        return self._to_vector(node, self.probe)

    # -- plumbing ----------------------------------------------------------

    def _to_vector(self, node: LogicalNode,
                   probe: OperatorStats | None):
        if self._falls_back(node):
            # Whole-subtree decay: the row path instruments itself.
            return self.engine._to_physical(node, self.counters,
                                            probe=probe,
                                            clock=self.clock)
        if probe is None:
            return self._lower(node, None)
        stats = probe.child(node.describe(),
                            getattr(node, "estimated_rows", None))
        return InstrumentedVecOp(self._lower(node, stats), stats,
                                 self.clock)

    @staticmethod
    def _falls_back(node: LogicalNode) -> bool:
        if isinstance(node, (LogicalEmpty, LogicalCladeAggregate)):
            return True
        return (isinstance(node, LogicalJoin)
                and node.method == "nested_loop")

    def _as_batches(self, op):
        """Ensure *op* speaks the batch protocol (adapt row ops)."""
        if hasattr(op, "batches"):
            return op
        return RowSourceAdapterOp(self.counters, op, self.batch_size)

    def _child_batches(self, node: LogicalNode,
                       stats: OperatorStats | None):
        return self._as_batches(self._to_vector(node, stats))

    # -- node lowering -----------------------------------------------------

    def _lower(self, node: LogicalNode,
               stats: OperatorStats | None) -> VectorOp:
        if isinstance(node, LogicalScan):
            return self._scan_op(node)
        if isinstance(node, LogicalJoin):
            left = self._child_batches(node.left, stats)
            right = self._child_batches(node.right, stats)
            if _rows_estimate(node.left) <= _rows_estimate(node.right):
                return VecHashJoinOp(self.counters, build=left,
                                     probe=right, key=node.key)
            return VecHashJoinOp(self.counters, build=right,
                                 probe=left, key=node.key)
        if isinstance(node, (LogicalAggregate, LogicalProject)):
            # Deferred: fused builds on this module's operators.
            from repro.core.query.fused import try_fuse
            fused = try_fuse(self, node, stats)
            if fused is not None:
                return fused
        if isinstance(node, LogicalAggregate):
            child = self._child_batches(node.child, stats)
            return VecHashAggregateOp(self.counters, child,
                                      node.aggregates, node.group_by)
        if isinstance(node, LogicalHaving):
            child = self._child_batches(node.child, stats)
            return VecFilterOp(self.counters, child, node.conditions)
        if isinstance(node, LogicalProject):
            child = self._to_vector(node.child, stats)
            remote = tuple(c for c in node.columns
                           if c in REMOTE_DETAIL_COLUMNS)
            if remote:
                # RemoteFetchOp has no batch form: drain the child as
                # rows through it, then re-batch its enriched output.
                fetch = self.engine._remote_fetch_op(remote, child,
                                                     self.counters)
                child = RowSourceAdapterOp(self.counters, fetch,
                                           self.batch_size)
            else:
                child = self._as_batches(child)
            return VecProjectOp(self.counters, child, node.columns)
        if isinstance(node, LogicalOrder):
            child = self._child_batches(node.child, stats)
            if node.limit is not None:
                return VecTopKOp(self.counters, child, node.order_by,
                                 node.limit)
            return VecSortOp(self.counters, child, node.order_by,
                             self.batch_size)
        if isinstance(node, LogicalLimit):
            child = self._child_batches(node.child, stats)
            return VecLimitOp(self.counters, child, node.limit)
        raise PlanError(f"cannot lower {type(node).__name__}")

    def _scan_op(self, node: LogicalScan) -> VectorOp:
        table = self.engine.drugtree.tables[node.table]
        store = table.column_store()
        columns = self.needed
        if node.access == "seq":
            return VecSeqScanOp(self.counters, store, node.residual,
                                columns, self.batch_size)
        if node.access == "index_eq":
            assert node.access_column is not None
            index = table.index_on(node.access_column)
            if index is None:
                raise PlanError(
                    f"plan needs an index on {node.access_column!r}"
                )
            return VecIndexEqScanOp(self.counters, store, index,
                                    node.eq_value, node.residual,
                                    columns, self.batch_size)
        if node.access == "index_range":
            assert node.access_column is not None
            index = table.index_on(node.access_column,
                                   require_range=True)
            if not isinstance(index, SortedIndex):
                raise PlanError(
                    f"plan needs a sorted index on "
                    f"{node.access_column!r}"
                )
            return VecIndexRangeScanOp(
                self.counters, store, index,
                node.range_low, node.range_high,
                node.include_low, node.include_high,
                node.residual, columns, self.batch_size,
            )
        if node.access == "key_set":
            assert node.access_column is not None
            assert node.key_set is not None
            return VecKeySetScanOp(self.counters, store,
                                   node.access_column, node.key_set,
                                   node.residual, columns,
                                   self.batch_size)
        raise PlanError(f"unknown access path {node.access!r}")
