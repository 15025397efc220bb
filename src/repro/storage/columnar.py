"""Columnar projection of a row-store table, on numpy buffers.

A :class:`ColumnStore` mirrors one :class:`~repro.storage.table.Table`
as one numpy buffer per column, kept in sync through the table's
insert/delete change listeners — the same contract secondary indexes
and the overlay's clade aggregates already use, so the row store stays
the single source of truth and E10's write-amplification accounting
extends to it naturally (every insert also writes one slot per column).

Layout
------
All columns share one positional axis: position ``p`` of every buffer
holds the values of the same row, whose row id is ``row_ids[p]``.
Each column takes one of three forms, chosen from its schema type:

* **typed** (INT, FLOAT, BOOL): an ``int64``/``float64``/``bool``
  array plus a validity mask, created on the first NULL; a NULL slot
  holds 0 under a ``False`` mask bit;
* **dictionary-encoded** (STRING): ``int32`` codes into a
  :class:`Dictionary` whose code 0 is NULL, so equality, ``IN``,
  group keys and join keys become integer array operations;
* **object**: Python objects, the fallback for values a typed buffer
  cannot hold exactly (an INT column converts when a value leaves the
  int64 range).

Buffers grow by capacity doubling, so a run of ``n`` appends costs
``O(log n)`` reallocations (:attr:`ColumnStore.reallocations`). A
delete clears the position's bit in a live mask instead of shifting
the buffers, which keeps live positions in *insertion order* — the
order ``Table.scan_rows`` yields — so the vectorized engine emits rows
in the row engine's order. When tombstones pile past
:attr:`compact_threshold`, the buffers are rebuilt dense in one pass.

Reads hand out :class:`Vector` objects: one column's values at a
selection of positions, still typed or encoded. Values become Python
objects only through :meth:`Vector.tolist`, at the row boundary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import StorageError
from repro.storage.schema import ColumnType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.table import Table

_TYPED = {
    ColumnType.INT: np.int64,
    ColumnType.FLOAT: np.float64,
    ColumnType.BOOL: np.bool_,
}


def _moved(buffer: np.ndarray, keep: np.ndarray | slice,
           capacity: int) -> np.ndarray:
    """A *capacity*-slot buffer starting with ``buffer[keep]``; the
    tail is unwritten (every slot is written before it is read)."""
    kept = buffer[keep]
    moved = np.empty(capacity, dtype=buffer.dtype)
    moved[:len(kept)] = kept
    return moved


class Dictionary:
    """The distinct values of one dictionary-encoded column.

    Code 0 is NULL; every other value gets the next code the first
    time it is seen and keeps it for the store's lifetime. ``decode``
    is an object array (with spare capacity) mapping codes back to the
    stored values, so decoding a code array is one gather.
    """

    __slots__ = ("codes", "decode", "size")

    def __init__(self) -> None:
        self.codes: dict[Any, int] = {}
        self.decode = np.empty(16, dtype=object)
        self.size = 1  # code 0 = NULL (the empty slot already holds None)

    def encode(self, value: Any) -> int:
        if value is None:
            return 0
        code = self.codes.get(value)
        if code is None:
            code = self.size
            if code == len(self.decode):
                self.decode = _moved(self.decode, slice(0, code), 2 * code)
            self.decode[code] = value
            self.codes[value] = code
            self.size = code + 1
        return code

    def values(self) -> list[Any]:
        """Every value by code (index 0 is ``None``)."""
        return self.decode[:self.size].tolist()

    def __len__(self) -> int:
        return self.size - 1


class Vector:
    """One column's values at a run of positions.

    ``data`` is a typed array (NULL where ``valid`` is ``False``;
    ``valid is None`` means no NULLs), dictionary codes when
    ``dictionary`` is set (code 0 = NULL), or an object array holding
    Python values and ``None``.
    """

    __slots__ = ("data", "valid", "dictionary")

    def __init__(self, data: np.ndarray, valid: np.ndarray | None = None,
                 dictionary: Dictionary | None = None) -> None:
        self.data = data
        self.valid = valid
        self.dictionary = dictionary

    @staticmethod
    def of_objects(values: list[Any]) -> "Vector":
        return Vector(np.fromiter(values, dtype=object, count=len(values)))

    @staticmethod
    def nulls(length: int) -> "Vector":
        return Vector(np.full(length, None, dtype=object))

    @staticmethod
    def concat(vectors: list["Vector"]) -> "Vector":
        """One vector holding *vectors* back to back.

        Same-layout inputs (one dictionary, one dtype) concatenate as
        arrays; mixed inputs decode to one object vector.
        """
        first = vectors[0]
        if all(v.dictionary is first.dictionary
               and v.data.dtype == first.data.dtype for v in vectors):
            valid = None
            if any(v.valid is not None for v in vectors):
                valid = np.concatenate([
                    np.ones(len(v), dtype=bool) if v.valid is None
                    else v.valid for v in vectors
                ])
            return Vector(np.concatenate([v.data for v in vectors]),
                          valid, first.dictionary)
        return Vector.of_objects(
            [value for v in vectors for value in v.tolist()])

    def __len__(self) -> int:
        return len(self.data)

    def take(self, index: np.ndarray) -> "Vector":
        """The values at *index* (positions into this vector), in order."""
        valid = None if self.valid is None else self.valid[index]
        return Vector(self.data[index], valid, self.dictionary)

    def present(self) -> np.ndarray:
        """True where the value is not NULL."""
        if self.dictionary is not None:
            return self.data != 0
        if self.data.dtype == object:
            return np.fromiter((value is not None for value in self.data),
                               dtype=bool, count=len(self.data))
        if self.valid is None:
            return np.ones(len(self.data), dtype=bool)
        return self.valid.copy()

    def tolist(self) -> list[Any]:
        """Python values, ``None`` for NULL: the row boundary."""
        if self.dictionary is not None:
            return self.dictionary.decode[self.data].tolist()
        values = self.data.tolist()
        if self.valid is not None:
            for i in np.flatnonzero(~self.valid).tolist():
                values[i] = None
        return values

    def __repr__(self) -> str:
        kind = ("dictionary" if self.dictionary is not None
                else str(self.data.dtype))
        return f"Vector({kind}, rows={len(self)})"


class _Buffer:
    """One column's storage: a typed, dictionary or object array."""

    __slots__ = ("data", "valid", "dictionary")

    def __init__(self, column_type: ColumnType, capacity: int) -> None:
        self.valid: np.ndarray | None = None
        self.dictionary: Dictionary | None = None
        if column_type is ColumnType.STRING:
            self.dictionary = Dictionary()
            self.data = np.empty(capacity, dtype=np.int32)
        else:
            self.data = np.empty(capacity, dtype=_TYPED[column_type])

    def put(self, position: int, value: Any) -> None:
        dictionary = self.dictionary
        if dictionary is not None:
            code = dictionary.codes.get(value)
            self.data[position] = (dictionary.encode(value) if code is None
                                   else code)
            return
        if value is None and self.data.dtype != object:
            if self.valid is None:
                self.valid = np.ones(len(self.data), dtype=bool)
            self.valid[position] = False
            self.data[position] = 0
            return
        if self.valid is not None:
            self.valid[position] = True
        try:
            self.data[position] = value
        except OverflowError:  # an int beyond int64
            self._to_objects(position)
            self.data[position] = value

    def fill(self, values: list[Any]) -> None:
        """Bulk :meth:`put` of *values* at positions ``0..len-1``."""
        if self.dictionary is not None:
            encode = self.dictionary.encode
            self.data[:len(values)] = [encode(v) for v in values]
            return
        typed = values
        if self.data.dtype != object and None in values:
            self.valid = np.ones(len(self.data), dtype=bool)
            self.valid[[i for i, v in enumerate(values) if v is None]] = \
                False
            typed = [0 if v is None else v for v in values]
        try:
            self.data[:len(values)] = typed
        except OverflowError:  # an int beyond int64
            self._to_objects(0)
            self.data[:len(values)] = Vector.of_objects(values).data

    def _to_objects(self, length: int) -> None:
        """Switch to the object form, keeping the first *length* slots."""
        kept = Vector(self.data[:length], None if self.valid is None
                      else self.valid[:length]).tolist()
        self.data = np.empty(len(self.data), dtype=object)
        self.data[:length] = kept
        self.valid = None

    def resize(self, keep: np.ndarray | slice, capacity: int) -> None:
        """Reallocate to *capacity* slots, keeping the slots at *keep*
        (in order) at the front."""
        self.data = _moved(self.data, keep, capacity)
        if self.valid is not None:
            self.valid = _moved(self.valid, keep, capacity)

    def vector(self, positions: np.ndarray | slice) -> Vector:
        valid = None if self.valid is None else self.valid[positions]
        return Vector(self.data[positions], valid, self.dictionary)

    def value(self, position: int) -> Any:
        return self.vector(slice(position, position + 1)).tolist()[0]


class ColumnStore:
    """Per-column numpy buffers over one table, listener-maintained."""

    #: Compact once tombstones exceed this count *and* half the buffer.
    MIN_COMPACT_TOMBSTONES = 64
    #: Slots allocated for an empty store.
    MIN_CAPACITY = 16

    def __init__(self, table: "Table") -> None:
        self.table = table
        self.column_names: tuple[str, ...] = tuple(
            table.schema.column_names
        )
        self._buffers: dict[str, _Buffer] = {}
        self._row_ids = np.empty(0, dtype=np.int64)
        self._live = np.empty(0, dtype=bool)
        self._length = 0
        self._dead = 0
        #: Per float column, a buffer prefix known to hold no NaN.
        self._nan_free: dict[str, int] = {}
        #: True while row ids ascend with position (every overlay
        #: table: inserts take increasing ids, recovery replays in id
        #: order, deletes only tombstone). Id→position mapping and
        #: id-range walks use binary search while it holds.
        self.ascending = True
        # Maintenance accounting (surfaced by docs/VECTORIZED.md tests).
        self.appends = 0
        self.tombstones = 0
        self.compactions = 0
        #: Buffer reallocations from capacity doubling.
        self.reallocations = 0
        self._rebuild()
        table.add_insert_listener(self._on_insert)
        table.add_delete_listener(self._on_delete)

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        """Live row count."""
        return self._length - self._dead

    @property
    def buffer_length(self) -> int:
        """Physical buffer length, tombstones included."""
        return self._length

    @property
    def capacity(self) -> int:
        """Allocated slots per buffer (``>= buffer_length``)."""
        return len(self._row_ids)

    def _buffer(self, name: str) -> _Buffer:
        try:
            return self._buffers[name]
        except KeyError:
            raise StorageError(
                f"table {self.table.name!r} has no column {name!r}"
            ) from None

    def vector(self, name: str,
               positions: np.ndarray | None = None) -> Vector:
        """One column's values at buffer *positions* (the batch path);
        without *positions*, a view of the whole buffer, dead positions
        included (pair it with :meth:`live_mask`)."""
        if positions is None:
            positions = slice(0, self._length)
        return self._buffer(name).vector(positions)

    def live_mask(self) -> np.ndarray | None:
        """Which buffer positions are live; ``None`` when all are."""
        return self._live[:self._length] if self._dead else None

    def has_nan(self, name: str) -> bool:
        """True when a float column holds a NaN anywhere in its buffer.

        Slots are written once, so a prefix found NaN-free stays so:
        each call checks only the slots appended since the last one.
        """
        data = self._buffer(name).data
        if data.dtype != np.float64:
            return False
        checked = self._nan_free.get(name, 0)
        if np.isnan(data[checked:self._length]).any():
            return True
        self._nan_free[name] = self._length
        return False

    def column(self, name: str) -> list[Any]:
        """One column's Python values over the whole buffer (positions
        may be dead); a decoding convenience outside the batch path."""
        return self.vector(name).tolist()

    def gather(self, name: str, positions) -> list[Any]:
        """One column's Python values at *positions*."""
        return self.vector(name, np.asarray(positions, dtype=np.intp)) \
            .tolist()

    def live_positions(self) -> np.ndarray:
        """Live buffer positions in insertion order."""
        if not self._dead:
            return np.arange(self._length)
        return np.flatnonzero(self._live[:self._length])

    def positions_of(self, row_ids: list[int]) -> np.ndarray:
        """Buffer positions of live *row_ids*, in the given order: one
        binary search over the ascending row ids."""
        if not self.ascending:
            return np.array([self.position_of(row_id)
                             for row_id in row_ids], dtype=np.intp)
        ids = np.fromiter(row_ids, dtype=np.int64, count=len(row_ids))
        if len(ids) and not self._length:
            raise self._missing(int(ids[0]))
        known = self._row_ids[:self._length]
        positions = np.minimum(np.searchsorted(known, ids),
                               self._length - 1)
        found = (known[positions] == ids) & self._live[positions]
        if not found.all():
            raise self._missing(int(ids[~found][0]))
        return positions

    def position_of(self, row_id: int) -> int:
        """Buffer position of a live row id."""
        position = self._find(row_id)
        if position is None:
            raise self._missing(row_id)
        return position

    def _find(self, row_id: int) -> int | None:
        """The live position holding *row_id*, or None."""
        known = self._row_ids[:self._length]
        if self.ascending:
            position = int(known.searchsorted(row_id))
        else:
            hits = np.flatnonzero(known == row_id)
            position = int(hits[0]) if len(hits) else self._length
        if position < self._length and known[position] == row_id \
                and self._live[position]:
            return position
        return None

    def _missing(self, row_id: int) -> StorageError:
        return StorageError(
            f"table {self.table.name!r}: no live row {row_id} in "
            "column store"
        )

    def positions_in_row_id_ranges(
        self, intervals: list[tuple[int, int]],
    ) -> np.ndarray:
        """Live positions whose row ids fall inside any interval.

        *intervals* are inclusive ``(low, high)`` row-id ranges — the
        durable engine's non-pruned segment intervals plus the
        memtable's. Ranges are merged and walked in ascending order, so
        the result keeps insertion order — the order scans must emit.
        """
        known = self._row_ids[:self._length]
        if not self.ascending:
            hit = np.zeros(self._length, dtype=bool)
            for low, high in intervals:
                hit |= (known >= low) & (known <= high)
            return np.flatnonzero(hit & self._live[:self._length])
        pieces = []
        previous_end = 0
        for low, high in sorted(intervals):
            start = max(int(np.searchsorted(known, low, "left")),
                        previous_end)  # overlapping ranges
            end = int(np.searchsorted(known, high, "right"))
            if end <= start:
                continue
            previous_end = end
            pieces.append(np.arange(start, end))
        positions = (np.concatenate(pieces) if pieces
                     else np.empty(0, dtype=np.intp))
        if self._dead:
            positions = positions[self._live[positions]]
        return positions

    def row_at(self, position: int) -> dict[str, Any]:
        return {name: self._buffers[name].value(position)
                for name in self.column_names}

    # -- maintenance -------------------------------------------------------

    @property
    def compact_threshold(self) -> int:
        return max(self.MIN_COMPACT_TOMBSTONES, self._length // 2)

    def _on_insert(self, row_id: int, row: tuple[Any, ...]) -> None:
        position = self._length
        if position == len(self._row_ids):
            self._resize(slice(0, position), 2 * position)
        if position and row_id <= self._last_row_id:
            self.ascending = False
        self._last_row_id = row_id
        self._row_ids[position] = row_id
        self._live[position] = True
        for buffer, value in zip(self._buffers.values(), row):
            buffer.put(position, value)
        self._length = position + 1
        self.appends += 1

    def _on_delete(self, row_id: int, row: tuple[Any, ...]) -> None:
        position = self._find(row_id)
        if position is None:
            return  # never materialized here; nothing to tombstone
        self._live[position] = False
        self._dead += 1
        self.tombstones += 1
        if self._dead > self.compact_threshold:
            self.compact()

    def _resize(self, keep: np.ndarray | slice, capacity: int) -> None:
        capacity = max(capacity, self.MIN_CAPACITY)
        for buffer in self._buffers.values():
            buffer.resize(keep, capacity)
        self._row_ids = _moved(self._row_ids, keep, capacity)
        self._live = _moved(self._live, keep, capacity)
        self._nan_free = {}
        self.reallocations += 1

    def compact(self) -> None:
        """Rebuild dense buffers, dropping tombstones, keeping order."""
        if not self._dead:
            return
        keep = self.live_positions()
        self._resize(keep, 2 * len(keep))
        self._length = len(keep)
        self._dead = 0
        self.compactions += 1

    def _rebuild(self) -> None:
        """Backfill from the row store (construction or repair)."""
        rows = list(self.table.scan())
        capacity = max(self.MIN_CAPACITY, 2 * len(rows))
        self._buffers = {
            column.name: _Buffer(column.type, capacity)
            for column in self.table.schema
        }
        self._row_ids = np.empty(capacity, dtype=np.int64)
        self._row_ids[:len(rows)] = [row_id for row_id, _ in rows]
        self._live = np.ones(capacity, dtype=bool)
        self._length = len(rows)
        self._dead = 0
        self._nan_free = {}
        if rows:
            columns = zip(*(row for _, row in rows))
            for buffer, values in zip(self._buffers.values(), columns):
                buffer.fill(list(values))
        ids = self._row_ids[:self._length]
        self.ascending = bool((ids[1:] > ids[:-1]).all())
        self._last_row_id = int(ids[-1]) if len(ids) else -1

    def verify_against_rows(self) -> bool:
        """True when every live position mirrors the row store, value
        and Python type alike (NaN matches NaN).

        A consistency probe for tests; the listeners keep this
        invariant without it.
        """
        live = self.live_positions()
        rows = list(self.table.scan())
        if self._row_ids[live].tolist() != [row_id for row_id, _ in rows]:
            return False
        for index, name in enumerate(self.column_names):
            stored = self.vector(name, live).tolist()
            for value, (_, row) in zip(stored, rows):
                expected = row[index]
                if type(value) is not type(expected):
                    return False
                if value != expected and not (value != value
                                              and expected != expected):
                    return False
        return True

    def __repr__(self) -> str:
        return (
            f"ColumnStore({self.table.name!r}, live={len(self)}, "
            f"tombstones={self._dead})"
        )
