"""ColumnStore: listener-maintained columnar mirror of a table."""

import math

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage import (
    Schema,
    Table,
    bool_column,
    float_column,
    int_column,
    string_column,
)
from repro.storage.durable import Database, DurableTableAdapter, StorageConfig


def make_table(n=10):
    schema = Schema([
        string_column("sample_id"),
        float_column("score"),
        string_column("tag"),
    ])
    table = Table("samples", schema)
    for i in range(n):
        table.insert({
            "sample_id": f"s{i:03d}",
            "score": float(i),
            "tag": "even" if i % 2 == 0 else "odd",
        })
    return table


class TestBackfill:
    def test_backfills_existing_rows(self):
        table = make_table(10)
        store = table.column_store()
        assert len(store) == 10
        assert store.column("score") == [float(i) for i in range(10)]
        assert store.verify_against_rows()

    def test_column_store_is_cached(self):
        table = make_table(3)
        assert table.column_store() is table.column_store()

    def test_unknown_column_raises(self):
        store = make_table(3).column_store()
        with pytest.raises(StorageError, match="no column"):
            store.column("nope")


class TestListeners:
    def test_insert_appends(self):
        table = make_table(4)
        store = table.column_store()
        table.insert({"sample_id": "s999", "score": 99.0, "tag": "odd"})
        assert len(store) == 5
        assert store.column("score")[-1] == 99.0
        assert store.appends == 1
        assert store.verify_against_rows()

    def test_delete_tombstones_without_shifting(self):
        table = make_table(6)
        store = table.column_store()
        victim = list(table.scan())[2][0]
        table.delete(victim)
        assert len(store) == 5
        assert store.buffer_length == 6  # tombstoned, not shifted
        assert store.tombstones == 1
        assert store.verify_against_rows()

    def test_live_positions_keep_insertion_order(self):
        table = make_table(6)
        store = table.column_store()
        assert list(store.live_positions()) == list(range(6))
        victim = list(table.scan())[0][0]
        table.delete(victim)
        assert list(store.live_positions()) == [1, 2, 3, 4, 5]

    def test_position_of_dead_row_raises(self):
        table = make_table(3)
        store = table.column_store()
        victim = list(table.scan())[1][0]
        position = store.position_of(victim)
        table.delete(victim)
        with pytest.raises(StorageError, match="no live row"):
            store.position_of(victim)
        # the other rows keep their positions
        assert position not in [
            store.position_of(rid) for rid, _ in table.scan()
        ]


class TestCompaction:
    def test_explicit_compact_rebuilds_dense(self):
        table = make_table(8)
        store = table.column_store()
        for row_id, _ in list(table.scan())[::2]:
            table.delete(row_id)
        assert store.buffer_length == 8
        store.compact()
        assert store.buffer_length == len(store) == 4
        assert store.compactions == 1
        assert store.column("tag") == ["odd"] * 4
        assert store.verify_against_rows()

    def test_compact_on_dense_store_is_a_noop(self):
        store = make_table(4).column_store()
        store.compact()
        assert store.compactions == 0

    def test_auto_compaction_past_threshold(self):
        table = make_table(200)
        store = table.column_store()
        doomed = [row_id for row_id, _ in list(table.scan())[:150]]
        for row_id in doomed:
            table.delete(row_id)
        assert store.compactions >= 1
        assert store.buffer_length < 200
        assert store.verify_against_rows()

    def test_gather_decodes_positions(self):
        table = make_table(10)
        store = table.column_store()
        assert store.gather("score", [0, 3, 7]) == [0.0, 3.0, 7.0]
        assert store.gather("tag", np.array([1, 2])) == ["odd", "even"]
        vector = store.vector("score", np.array([7, 3]))
        assert vector.data.dtype == np.float64
        assert vector.tolist() == [7.0, 3.0]

    def test_auto_compaction_keeps_insertion_order(self):
        table = make_table(300)
        store = table.column_store()
        ids = [row_id for row_id, _ in table.scan()]
        doomed = set(ids[::3]) | set(ids[100:250])
        for row_id in ids:
            if row_id in doomed:
                table.delete(row_id)
        assert store.compactions >= 1
        survivors = [row_id for row_id in ids if row_id not in doomed]
        positions = store.live_positions()
        assert store._row_ids[positions].tolist() == survivors
        assert store.gather("sample_id", positions) == [
            f"s{row_id:03d}" for row_id in survivors]
        assert store.verify_against_rows()

    def test_row_at_round_trips(self):
        table = make_table(5)
        store = table.column_store()
        assert store.row_at(2) == {
            "sample_id": "s002", "score": 2.0, "tag": "even",
        }


def wide_table():
    return Table("wide", Schema([
        int_column("n"),
        float_column("x", nullable=True),
        int_column("k", nullable=True),
        bool_column("flag", nullable=True),
        string_column("label", nullable=True),
    ]))


class TestGrowth:
    def test_doublings_with_interleaved_deletes(self):
        table = wide_table()
        store = table.column_store()
        start = store.capacity
        inserted = 0
        for i in range(5000):
            row_id = table.insert({"n": i, "x": i / 7, "k": i % 11,
                                   "flag": i % 2 == 0,
                                   "label": f"v{i % 13}"})
            inserted += 1
            if i % 5 == 4:
                table.delete(row_id - 2)
        assert len(store) == table.row_count == 4000
        assert store.appends == inserted
        # Capacity doubles: O(log n) reallocations, never one per append.
        doublings = math.ceil(math.log2(inserted / start))
        assert store.reallocations <= doublings + store.compactions
        assert store.capacity >= store.buffer_length
        assert store.verify_against_rows()
        positions = store.live_positions()
        assert store.gather("n", positions) == [
            row[0] for row in table.scan_rows()]

    def test_compaction_then_growth(self):
        table = make_table(200)
        store = table.column_store()
        for row_id, _ in list(table.scan())[:150]:
            table.delete(row_id)
        for i in range(400):
            table.insert({"sample_id": f"n{i}", "score": float(i),
                          "tag": "new"})
        assert store.compactions == 1
        assert len(store) == 450
        assert store.buffer_length == 450 + 49  # tombstones since
        assert store.verify_against_rows()


class TestTypedBuffers:
    def test_nulls_in_nullable_numeric_columns(self):
        table = wide_table()
        store = table.column_store()
        table.insert({"n": 1, "x": 0.5, "k": 3, "flag": True, "label": "a"})
        table.insert({"n": 2, "x": None, "k": None, "flag": None,
                      "label": None})
        table.insert({"n": 3, "x": -0.0, "k": 0, "flag": False,
                      "label": "b"})
        positions = store.live_positions()
        for name, expected in (("x", [0.5, None, -0.0]),
                               ("k", [3, None, 0]),
                               ("flag", [True, None, False]),
                               ("label", ["a", None, "b"])):
            vector = store.vector(name, positions)
            assert vector.tolist() == expected, name
            assert [type(v) for v in vector.tolist()] == \
                [type(v) for v in expected], name
        x = store.vector("x", positions)
        assert x.valid.tolist() == [True, False, True]
        assert math.copysign(1.0, x.tolist()[2]) == -1.0
        assert store.vector("label", positions).data.tolist() == [1, 0, 2]
        assert store.row_at(1) == {"n": 2, "x": None, "k": None,
                                   "flag": None, "label": None}
        assert store.verify_against_rows()

    def test_backfill_keeps_nulls(self):
        table = wide_table()
        table.insert({"n": 1, "x": None, "k": 4, "flag": None,
                      "label": None})
        table.insert({"n": 2, "x": 1.5, "k": None, "flag": True,
                      "label": "z"})
        store = table.column_store()
        assert store.column("x") == [None, 1.5]
        assert store.column("k") == [4, None]
        assert store.verify_against_rows()

    def test_int_beyond_int64_takes_the_object_fallback(self):
        table = wide_table()
        store = table.column_store()
        table.insert({"n": 1, "x": 1.0, "k": None, "flag": True,
                      "label": "a"})
        assert store.vector("n", store.live_positions()).data.dtype \
            == np.int64
        table.insert({"n": 2 ** 70, "x": 2.0, "k": -(2 ** 65),
                      "flag": False, "label": "a"})
        table.insert({"n": 3, "x": 3.0, "k": 5, "flag": True,
                      "label": "a"})
        positions = store.live_positions()
        assert store.vector("n", positions).data.dtype == object
        assert store.gather("n", positions) == [1, 2 ** 70, 3]
        assert store.gather("k", positions) == [None, -(2 ** 65), 5]
        assert store.verify_against_rows()

    def test_backfilled_big_int_takes_the_object_fallback(self):
        table = wide_table()
        table.insert({"n": 2 ** 64, "x": None, "k": None, "flag": None,
                      "label": None})
        store = table.column_store()
        assert store.column("n") == [2 ** 64]
        assert store.verify_against_rows()

    def test_new_strings_extend_the_dictionary(self):
        table = make_table(4)
        store = table.column_store()
        dictionary = store.vector("tag").dictionary
        assert len(dictionary) == 2
        before = store.vector("tag", store.live_positions()).data.tolist()
        for i in range(40):
            table.insert({"sample_id": f"x{i}", "score": 1.0,
                          "tag": f"tag{i}"})
        assert store.vector("tag").dictionary is dictionary
        assert len(dictionary) == 42
        after = store.vector("tag", store.live_positions()).data.tolist()
        assert after[:4] == before  # existing codes never change
        assert dictionary.values()[after[-1]] == "tag39"
        assert store.vector("score").dictionary is None
        assert store.verify_against_rows()

    def test_nan_is_stored_and_verified(self):
        table = make_table(3)
        store = table.column_store()
        assert not store.has_nan("score")
        table.insert({"sample_id": "nan", "score": float("nan"),
                      "tag": "odd"})
        assert store.has_nan("score")
        assert math.isnan(store.column("score")[-1])
        assert store.verify_against_rows()


class _Pred:
    def __init__(self, column, op, value):
        self.column = column
        self.op = op
        self.value = value


def open_db(tmp_path):
    config = StorageConfig(durable=True, data_dir=str(tmp_path / "db"),
                           fsync="never", memtable_flush_bytes=1 << 20)
    return Database.open(config.data_dir, config)


def durable_table(db):
    return Table("things", Schema([
        string_column("name"),
        int_column("rank"),
        float_column("score", nullable=True),
    ]), durable=DurableTableAdapter(db, "things"))


class TestDurable:
    def test_zone_map_positions_skip_pruned_segments(self, tmp_path):
        from repro.core.query.physical import ExecCounters

        db = open_db(tmp_path)
        table = durable_table(db)
        for band in range(3):
            for i in range(10):
                table.insert({"name": f"b{band}-{i}",
                              "rank": band * 100 + i,
                              "score": None if i % 3 else float(i)})
            db.flush()
        table.insert({"name": "fresh", "rank": 150, "score": None})
        store = table.column_store()
        table.delete(12)  # a tombstone inside a kept segment
        counters = ExecCounters()
        positions = table.durable.scan_positions(
            store, (_Pred("rank", ">=", 100), _Pred("rank", "<", 200)),
            counters)
        assert counters.segments_pruned == 2
        assert isinstance(positions, np.ndarray)
        # The kept segment's rows, then the memtable's, in order.
        assert store.gather("name", positions) == [
            f"b1-{i}" for i in range(10) if i != 2] + ["fresh"]

    def test_verify_after_close_and_reopen(self, tmp_path):
        db = open_db(tmp_path)
        table = durable_table(db)
        for i in range(50):
            table.insert({"name": f"r{i}", "rank": i,
                          "score": None if i % 4 == 0 else i / 3})
        for row_id in range(0, 50, 7):
            table.delete(row_id)
        db.flush()
        table.insert({"name": "tail", "rank": 2 ** 40, "score": -0.0})
        expected = list(table.scan())
        db.close()

        db2 = open_db(tmp_path)
        table2 = durable_table(db2)
        store = table2.column_store()  # listeners see the replay
        table2.durable.restore_into(table2)
        assert list(table2.scan()) == expected
        assert store.ascending
        assert store.verify_against_rows()
        assert len(store) == len(expected)
        rebuilt = Table("copy", table2.schema)
        for _, row in table2.scan():
            rebuilt.insert(dict(zip(table2.schema.column_names, row)))
        assert rebuilt.column_store().verify_against_rows()
        db2.close()
