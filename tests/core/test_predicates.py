"""Compiled predicate closures must replicate ``Comparison.matches``.

``Comparison`` validates column names against the overlay schemas, so
the parity tests use real columns; ``HavingCondition`` shares the
comparison semantics without that validation and stands in where an
arbitrary column name keeps a test readable.
"""

import random

import pytest

from repro.core.query.ast import Comparison, HavingCondition
from repro.core.query.predicates import (
    column_mask,
    compile_comparison,
    compile_masks,
    compile_residual,
)
from repro.errors import QueryError
from repro.storage import Schema, Table, bool_column, float_column
from repro.storage import int_column, string_column

SAMPLE_VALUES = (None, 0, 1, 2.5, -3, True, False)


class TestCompileComparison:
    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    @pytest.mark.parametrize("bound", [0, 2.5, 7])
    def test_matches_comparison_exactly(self, op, bound):
        pred = Comparison("p_affinity", op, bound)
        test = compile_comparison(pred)
        for value in SAMPLE_VALUES:
            assert test(value) == pred.matches(value), (op, bound, value)

    def test_string_comparisons_match(self):
        for op in ("=", "!=", "<", ">="):
            pred = Comparison("organism", op, "Homo sapiens")
            test = compile_comparison(pred)
            for value in (None, "Homo sapiens", "Mus musculus", ""):
                assert test(value) == pred.matches(value), (op, value)

    def test_null_never_matches(self):
        for op in ("=", "!=", "<", "<=", ">", ">=", "in"):
            bound = ("IC50",) if op == "in" else "IC50"
            pred = Comparison("activity_type", op, bound)
            assert compile_comparison(pred)(None) is False
            assert pred.matches(None) is False

    def test_in_uses_set_membership(self):
        pred = Comparison("activity_type", "in", ("IC50", "Ki"))
        test = compile_comparison(pred)
        for value in (None, "IC50", "Ki", "EC50"):
            assert test(value) == pred.matches(value)

    def test_in_with_unhashable_literals_falls_back(self):
        test = compile_comparison(
            HavingCondition("group_key", "in", ([1], [2])))
        assert test([1]) and not test([3])

    def test_unknown_operator_raises(self):
        class Fake:
            op = "~="
            value = 1
            column = "p_affinity"
        with pytest.raises(QueryError, match="cannot compile"):
            compile_comparison(Fake())

    def test_having_condition_compiles_too(self):
        test = compile_comparison(HavingCondition("count_all", ">=", 5))
        assert test(5) and not test(4)


class TestCompileResidual:
    def test_empty_residual_is_always_true(self):
        assert compile_residual(())({"p_affinity": None}) is True

    def test_single_predicate_fast_path(self):
        passes = compile_residual((Comparison("p_affinity", ">=", 2),))
        assert passes({"p_affinity": 3})
        assert not passes({"p_affinity": 1})
        assert not passes({})  # missing column reads as NULL

    def test_conjunction_short_circuits(self):
        passes = compile_residual((
            Comparison("p_affinity", ">=", 2),
            Comparison("organism", "=", "Homo sapiens"),
        ))
        assert passes({"p_affinity": 5, "organism": "Homo sapiens"})
        assert not passes({"p_affinity": 5, "organism": "Rat"})
        assert not passes({"p_affinity": 1, "organism": "Homo sapiens"})

    def test_agrees_with_matches_over_random_rows(self):
        rng = random.Random(7)
        residual = (
            Comparison("p_affinity", ">", 0.3),
            Comparison("logp", "<=", 0.7),
            Comparison("activity_type", "in", ("IC50", "Ki")),
        )
        passes = compile_residual(residual)
        for _ in range(200):
            row = {
                "p_affinity": rng.choice([None, rng.random()]),
                "logp": rng.choice([None, rng.random()]),
                "activity_type": rng.choice(["IC50", "Ki", "EC50",
                                             None]),
            }
            expected = all(
                pred.matches(row.get(pred.column)) for pred in residual
            )
            assert passes(row) == expected, row


def typed_store(values_by_column):
    """A one-table column store holding *values_by_column*."""
    makers = {"f": float_column, "i": int_column, "b": bool_column,
              "s": string_column}
    schema = Schema([makers[name](name, nullable=True)
                     for name in values_by_column])
    table = Table("t", schema)
    rows = zip(*values_by_column.values())
    for row in rows:
        table.insert(dict(zip(values_by_column, row)))
    return table.column_store()


class TestCompileMasks:
    def test_masks_preserve_order_and_columns(self):
        residual = (
            Comparison("p_affinity", ">", 1),
            Comparison("organism", "=", "Homo sapiens"),
        )
        masks = compile_masks(residual)
        assert [mask.column for mask in masks] == \
            ["p_affinity", "organism"]
        assert masks[0].test(2) and not masks[0].test(0)
        assert masks[1].test("Homo sapiens") and not masks[1].test("Rat")

    COLUMNS = {
        "f": [1.5, None, -0.0, 0.0, float("nan"), 2.0 ** 53, 7.0,
              float("inf"), -2.5],
        "i": [1, None, 0, -3, 2 ** 53 + 1, 7, 2 ** 62, -(2 ** 62), 2],
        "b": [True, None, False, True, False, True, None, False, True],
        "s": ["b", None, "a", "", "zz", "b", "a", None, "c"],
    }
    LITERALS = (0, 1, 2, -3, 7, 2.5, -0.0, 7.0, True, False, 2 ** 53 + 1,
                2 ** 70, -(2 ** 70), float("inf"), float("nan"), "a",
                "b", "", None)
    MEMBERS = ((1, 2.0, "b"), (True,), (2 ** 53 + 1, 0.5), ("a", None),
               (float("nan"), 7), (), (2 ** 70, -3))

    @pytest.mark.parametrize("column", ["f", "i", "b", "s"])
    def test_mask_agrees_with_closure_on_every_literal(self, column):
        store = typed_store(self.COLUMNS)
        positions = store.live_positions()
        vector = store.vector(column, positions)
        values = vector.tolist()
        cases = [(op, literal) for op in ("=", "!=")
                 for literal in self.LITERALS]
        cases += [(op, literal) for op in ("<", "<=", ">", ">=")
                  for literal in self.LITERALS
                  if literal is not None
                  and isinstance(literal, str) == (column == "s")]
        cases += [("in", members) for members in self.MEMBERS]
        for op, literal in cases:
            mask = column_mask(column, op, literal)
            expected = [mask.test(value) for value in values]
            assert mask(vector).tolist() == expected, (column, op, literal)

    def test_dictionary_mask_follows_new_values(self):
        store = typed_store({"s": ["x", "y"]})
        mask = column_mask("s", "in", ("y", "z"))
        assert mask(store.vector("s", store.live_positions())).tolist() \
            == [False, True]
        store.table.insert({"s": "z"})
        assert mask(store.vector("s", store.live_positions())).tolist() \
            == [False, True, True]

    def test_unhashable_in_literal_uses_the_closure(self):
        store = typed_store({"i": [1, 2, 3]})
        mask = column_mask("i", "in", ([1], 2))
        assert mask(store.vector("i", store.live_positions())).tolist() \
            == [False, True, False]
