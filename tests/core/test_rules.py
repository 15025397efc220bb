"""Tests for query normalisation rewrite rules."""

from repro.core.query.ast import Comparison, Query
from repro.core.query.rules import normalize, tightest_bounds


def _q(*predicates):
    return Query(predicates=tuple(predicates))


class TestDeduplication:
    def test_exact_duplicates_removed(self):
        pred = Comparison("p_affinity", ">=", 5.0)
        result = normalize(_q(pred, pred))
        assert len(result.query.predicates) == 1
        assert result.removed_predicates == 1

    def test_implied_bound_removed(self):
        result = normalize(_q(
            Comparison("p_affinity", ">=", 5.0),
            Comparison("p_affinity", ">=", 7.0),
        ))
        assert result.query.predicates == (
            Comparison("p_affinity", ">=", 7.0),
        )

    def test_mixed_strictness_keeps_stronger(self):
        result = normalize(_q(
            Comparison("p_affinity", ">", 5.0),
            Comparison("p_affinity", ">=", 5.0),
        ))
        assert result.query.predicates == (
            Comparison("p_affinity", ">", 5.0),
        )

    def test_unrelated_predicates_untouched(self):
        preds = (
            Comparison("p_affinity", ">=", 5.0),
            Comparison("organism", "=", "x"),
        )
        result = normalize(_q(*preds))
        assert result.query.predicates == preds
        assert result.removed_predicates == 0


class TestContradictions:
    def test_conflicting_equalities(self):
        result = normalize(_q(
            Comparison("organism", "=", "a"),
            Comparison("organism", "=", "b"),
        ))
        assert result.contradiction

    def test_empty_band(self):
        result = normalize(_q(
            Comparison("p_affinity", ">=", 8.0),
            Comparison("p_affinity", "<=", 6.0),
        ))
        assert result.contradiction

    def test_touching_band_with_strict_bound(self):
        result = normalize(_q(
            Comparison("p_affinity", ">", 6.0),
            Comparison("p_affinity", "<=", 6.0),
        ))
        assert result.contradiction

    def test_touching_band_inclusive_is_fine(self):
        result = normalize(_q(
            Comparison("p_affinity", ">=", 6.0),
            Comparison("p_affinity", "<=", 6.0),
        ))
        assert not result.contradiction

    def test_equality_outside_range(self):
        result = normalize(_q(
            Comparison("p_affinity", "=", 3.0),
            Comparison("p_affinity", ">=", 5.0),
        ))
        assert result.contradiction

    def test_equality_vs_not_equal(self):
        result = normalize(_q(
            Comparison("organism", "=", "a"),
            Comparison("organism", "!=", "a"),
        ))
        assert result.contradiction

    def test_disjoint_in_sets(self):
        result = normalize(_q(
            Comparison("organism", "in", ("a", "b")),
            Comparison("organism", "in", ("c",)),
        ))
        assert result.contradiction

    def test_equality_outside_in_set(self):
        result = normalize(_q(
            Comparison("organism", "=", "z"),
            Comparison("organism", "in", ("a", "b")),
        ))
        assert result.contradiction

    def test_satisfiable_query_not_flagged(self):
        result = normalize(_q(
            Comparison("p_affinity", ">=", 5.0),
            Comparison("p_affinity", "<=", 9.0),
            Comparison("organism", "in", ("a", "b")),
            Comparison("organism", "=", "a"),
        ))
        assert not result.contradiction


class TestTightestBounds:
    def test_exclusive_wins_ties(self):
        lower, upper = tightest_bounds([
            Comparison("leaf_pre", ">=", 4),
            Comparison("leaf_pre", ">", 4),
            Comparison("leaf_pre", "<=", 11),
            Comparison("leaf_pre", "<", 11),
        ])
        assert lower == (4, False)
        assert upper == (11, False)

    def test_tie_order_does_not_matter(self):
        lower, upper = tightest_bounds([
            Comparison("leaf_pre", "<", 11),
            Comparison("leaf_pre", "<=", 11),
            Comparison("leaf_pre", ">", 4),
            Comparison("leaf_pre", ">=", 4),
        ])
        assert lower == (4, False)
        assert upper == (11, False)

    def test_tighter_value_wins(self):
        lower, upper = tightest_bounds([
            Comparison("p_affinity", ">", 5.0),
            Comparison("p_affinity", ">=", 6.0),
            Comparison("p_affinity", "<", 9.0),
            Comparison("p_affinity", "<=", 8.0),
            Comparison("p_affinity", "=", 7.0),
        ])
        assert lower == (6.0, True)
        assert upper == (8.0, True)

    def test_missing_side_is_none(self):
        assert tightest_bounds([Comparison("logp", "<", 3.0)]) == \
            (None, (3.0, False))
        assert tightest_bounds([]) == (None, None)
