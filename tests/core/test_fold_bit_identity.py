"""Aggregate folds are bit-identical across engines on ill-conditioned data.

The vectorized engine folds sums with ``np.cumsum`` seeded by the
running total — the row engine's sequential left fold — never with
``np.sum``, whose pairwise summation rounds differently. These tests
pin that on a world whose ``value_nm`` spans sixteen orders of
magnitude, where the precondition test proves ``np.sum`` *does* differ
from the left fold, so an order-changing reduction would fail them.

Every mode runs: row, explicit vectorized at 16-row and default
batches, and adaptive. Sums and means must equal both an explicit left
fold over the table's scan order and ``NaiveEngine``. CPython 3.12
made the builtin ``sum()`` compensated, so ``NaiveEngine`` (which uses
it) is only a left-fold oracle where ``sum()`` still is one; the
explicit fold always is.
"""

import dataclasses
import functools
import math
import operator
import random

import numpy as np
import pytest

from repro.core import EngineConfig, NaiveEngine, QueryEngine
from repro.obs import MetricsRegistry, set_metrics
from repro.workloads import DatasetConfig, build_dataset

MODES = (("row", None), ("vectorized", 16), ("vectorized", None),
         ("adaptive", None))


@pytest.fixture(autouse=True)
def fresh_metrics():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def left_fold(values):
    return functools.reduce(operator.add, values, 0.0)


def mixed_magnitude_dataset(seed=7):
    """A dataset whose binding affinities span 1e-4..1e12 nM."""
    dataset = build_dataset(DatasetConfig(n_leaves=120, n_ligands=150,
                                          seed=seed))
    tables = dataset.registry.source_for("activity_by_protein")._tables
    rng = random.Random(seed)
    replaced = {}
    by_protein = tables["activity_by_protein"]
    for key in sorted(by_protein):
        records = []
        for record in by_protein[key]:
            fresh = dataclasses.replace(
                record, value_nm=10 ** rng.uniform(-4.0, 12.0))
            replaced[id(record)] = fresh
            records.append(fresh)
        by_protein[key] = tuple(records)
    by_ligand = tables["activity_by_ligand"]
    for key, records in by_ligand.items():
        by_ligand[key] = tuple(replaced[id(r)] for r in records)
    return dataset


@pytest.fixture(scope="module")
def world():
    dataset = mixed_magnitude_dataset()
    return dataset, dataset.drugtree()


def engines(drugtree):
    out = []
    for mode, batch_size in MODES:
        kwargs = {"vector_batch_size": batch_size} if batch_size else {}
        out.append(((mode, batch_size), QueryEngine(drugtree, EngineConfig(
            use_semantic_cache=False, execution_mode=mode, **kwargs))))
    return out


def same(a, b):
    """Bit-identical Python values (NaN equals NaN, -0.0 is not 0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def assert_rows_identical(got, expected, context):
    assert len(got) == len(expected), context
    for got_row, want_row in zip(got, expected):
        assert list(got_row) == list(want_row), context
        for name in want_row:
            assert same(got_row[name], want_row[name]), \
                (context, name, got_row[name], want_row[name])


def binding_rows(drugtree):
    table = drugtree.tables["bindings"]
    return [table.schema.row_as_dict(row) for row in table.scan_rows()]


class TestMixedMagnitudeSums:
    #: (dtql, row filter, group column) — one explicit fold per case.
    CASES = (
        ("SELECT count(*), sum(value_nm), mean(value_nm) FROM bindings",
         lambda row: True, None),
        ("SELECT count(*), sum(value_nm), mean(value_nm) FROM bindings "
         "WHERE p_affinity >= 2.0",
         lambda row: row["p_affinity"] >= 2.0, None),
        ("SELECT count(*), sum(value_nm), mean(value_nm) FROM bindings "
         "WHERE potent = true",
         lambda row: row["potent"] is True, None),
        ("SELECT activity_type, count(*), sum(value_nm), mean(value_nm) "
         "FROM bindings GROUP BY activity_type",
         lambda row: True, "activity_type"),
        ("SELECT activity_type, count(*), sum(value_nm), mean(value_nm) "
         "FROM bindings WHERE potent = false GROUP BY activity_type",
         lambda row: row["potent"] is False, "activity_type"),
    )

    def test_precondition_np_sum_is_not_the_left_fold(self, world):
        _, drugtree = world
        values = [row["value_nm"] for row in binding_rows(drugtree)]
        assert len(values) >= 10_000
        assert float(np.sum(np.array(values))) != left_fold(values)

    @staticmethod
    def expected_rows(drugtree, keep, group_by):
        groups = {}
        for row in binding_rows(drugtree):
            if keep(row):
                key = row[group_by] if group_by else None
                groups.setdefault(key, []).append(row["value_nm"])
        out = []
        for key in sorted(groups, key=repr):
            values = groups[key]
            total = left_fold(values)
            result = {group_by: key} if group_by else {}
            result.update({"count_all": len(values),
                           "sum_value_nm": total,
                           "mean_value_nm": total / len(values)})
            out.append(result)
        return out

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_every_mode_equals_left_fold_and_naive(self, world, case):
        dataset, drugtree = world
        dtql, keep, group_by = self.CASES[case]
        expected = self.expected_rows(drugtree, keep, group_by)
        naive = NaiveEngine(dataset.tree, dataset.registry).execute(dtql)
        values = [row["value_nm"] for row in binding_rows(drugtree)]
        if sum(values) == left_fold(values):  # builtin sum is a left fold
            assert_rows_identical(naive.rows, expected, "naive")
        for mode, engine in engines(drugtree):
            assert_rows_identical(engine.execute(dtql).rows, expected,
                                  (mode, dtql))

    def test_int_min_max_are_python_ints(self, world):
        dataset, drugtree = world
        dtql = "SELECT min(leaf_pre), max(leaf_pre) FROM bindings"
        naive = NaiveEngine(dataset.tree, dataset.registry).execute(dtql)
        assert [type(v) for v in naive.rows[0].values()] == [int, int]
        for mode, engine in engines(drugtree):
            assert_rows_identical(engine.execute(dtql).rows, naive.rows,
                                  mode)


def insert_binding(table, activity_type, value_nm, ligand_id="edge"):
    table.insert({"ligand_id": ligand_id, "protein_id": "edge",
                  "activity_type": activity_type, "value_nm": value_nm,
                  "p_affinity": 5.0, "potent": False, "leaf_pre": 0})


@pytest.fixture()
def edge_world():
    dataset = build_dataset(DatasetConfig(n_leaves=12, n_ligands=16,
                                          seed=3))
    drugtree = dataset.drugtree()
    table = drugtree.tables["bindings"]
    table.column_store()  # built before the edits: listeners apply them
    insert_binding(table, "NEGZERO", -0.0, ligand_id="negzero")
    for value in (float("nan"), 3.0, 1.0):
        insert_binding(table, "NANFIRST", value)
    for value in (2.0, float("nan"), 1.0, 5.0):
        insert_binding(table, "NANLATER", value)
    return drugtree


class TestFoldEdgeCases:
    NAN = float("nan")

    def check(self, drugtree, dtql, expected):
        reference = None
        for mode, engine in engines(drugtree):
            rows = engine.execute(dtql).rows
            assert_rows_identical(rows, expected, (mode, dtql))
            if reference is None:
                reference = rows  # the row engine, the oracle
            assert_rows_identical(rows, reference, (mode, dtql))

    @pytest.mark.parametrize("where", ["ligand_id = 'negzero'",
                                       "activity_type = 'NEGZERO'"])
    def test_lone_negative_zero_sums_to_zero(self, edge_world, where):
        # 0.0 + -0.0 is 0.0: the seeded cumsum keeps the fold's sign.
        self.check(edge_world,
                   "SELECT sum(value_nm), mean(value_nm), min(value_nm) "
                   f"FROM bindings WHERE {where}",
                   [{"sum_value_nm": 0.0, "mean_value_nm": 0.0,
                     "min_value_nm": -0.0}])

    def test_bool_column_adds_nothing_to_the_total(self, edge_world):
        table = edge_world.tables["bindings"]
        count = sum(1 for _ in table.scan_rows())
        self.check(edge_world,
                   "SELECT sum(potent), mean(potent), count(potent), "
                   "max(potent) FROM bindings",
                   [{"sum_potent": 0.0, "mean_potent": 0.0,
                     "count_potent": count, "max_potent": True}])

    def test_nan_first_sticks_and_later_nan_never_wins(self, edge_world):
        nan = self.NAN
        self.check(edge_world,
                   "SELECT activity_type, count(*), sum(value_nm), "
                   "min(value_nm), max(value_nm) FROM bindings "
                   "WHERE activity_type IN ('NANFIRST', 'NANLATER') "
                   "GROUP BY activity_type",
                   [{"activity_type": "NANFIRST", "count_all": 3,
                     "sum_value_nm": nan, "min_value_nm": nan,
                     "max_value_nm": nan},
                    {"activity_type": "NANLATER", "count_all": 4,
                     "sum_value_nm": nan, "min_value_nm": 1.0,
                     "max_value_nm": 5.0}])

    @pytest.mark.parametrize("kind, low, high", [("NANFIRST", NAN, NAN),
                                                 ("NANLATER", 1.0, 5.0)])
    def test_nan_rules_in_scalar_folds(self, edge_world, kind, low, high):
        self.check(edge_world,
                   "SELECT min(value_nm), max(value_nm), mean(value_nm) "
                   f"FROM bindings WHERE activity_type = '{kind}'",
                   [{"min_value_nm": low, "max_value_nm": high,
                     "mean_value_nm": self.NAN}])
