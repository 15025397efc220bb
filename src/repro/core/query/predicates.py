"""Compiled predicate closures: specialize once per plan, not per row.

``Comparison.matches`` re-dispatches on ``self.op`` for every row it
sees. A plan evaluates the same handful of predicates over thousands of
rows, so both engines compile each predicate into a closure *once* at
lowering time:

* :func:`compile_comparison` — one ``value -> bool`` closure specialized
  on the operator with the literal already bound (NULL never matches,
  exactly like ``Comparison.matches``);
* :func:`compile_residual` — one ``row -> bool`` closure over a whole
  residual list, used by the row operators in place of per-row
  ``matches`` dispatch;
* :func:`compile_masks` — the column-at-a-time form the vectorized
  scans use: one :class:`ColumnMask` per predicate, turning a
  :class:`~repro.storage.columnar.Vector` into a boolean array with
  the row closure's exact answers.

Works on any predicate shaped like ``(column, op, value)`` — both
:class:`~repro.core.query.ast.Comparison` and
:class:`~repro.core.query.ast.HavingCondition`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any, NamedTuple

import numpy as np

from repro.errors import QueryError

#: A compiled single-value predicate.
ValuePredicate = Callable[[Any], bool]
#: A compiled whole-row predicate.
RowPredicate = Callable[[dict[str, Any]], bool]


def compile_comparison(pred: Any) -> ValuePredicate:
    """Compile ``column <op> literal`` into one specialized closure.

    The returned closure replicates ``Comparison.matches`` bit for bit:
    ``None`` (SQL NULL) never matches, under any operator.
    """
    op = pred.op
    bound = pred.value
    if op == "=":
        return lambda value: value is not None and value == bound
    if op == "!=":
        return lambda value: value is not None and value != bound
    if op == "<":
        return lambda value: value is not None and value < bound
    if op == "<=":
        return lambda value: value is not None and value <= bound
    if op == ">":
        return lambda value: value is not None and value > bound
    if op == ">=":
        return lambda value: value is not None and value >= bound
    if op == "in":
        try:
            members = frozenset(bound)
        except TypeError:  # unhashable literals: keep the slow path
            members = tuple(bound)
        return lambda value: value is not None and value in members
    raise QueryError(f"cannot compile operator {op!r}")


def _always_true(row: dict[str, Any]) -> bool:
    return True


def compile_residual(residual: Sequence[Any]) -> RowPredicate:
    """Compile a residual predicate list into one row closure.

    The empty list compiles to a constant-true closure and a single
    predicate avoids the ``all(...)`` loop entirely — the two common
    shapes after the planner consumed the access-path predicate.
    """
    if not residual:
        return _always_true
    if len(residual) == 1:
        pred = residual[0]
        column = pred.column
        test = compile_comparison(pred)
        return lambda row: test(row.get(column))
    compiled = tuple((pred.column, compile_comparison(pred))
                     for pred in residual)
    def matches(row: dict[str, Any]) -> bool:
        for column, test in compiled:
            if not test(row.get(column)):
                return False
        return True
    return matches


_ARRAY_OPS = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _exact_literal(value: Any, kind: str) -> Any:
    """*value* as a number a typed array compares exactly, else None.

    *kind* is the array's dtype kind: ``"f"`` (float64), ``"i"``
    (int64) or ``"u"`` (a bool column viewed as uint8). Python compares
    ints and floats exactly; numpy converts an int literal to float64
    first, so an int a float64 cannot hold, or a float against int64,
    stays on the per-value path.
    """
    if type(value) is bool:
        return int(value)
    if type(value) is int:
        if kind == "f" and float(value) != value:
            return None
        return value
    if type(value) is float and kind != "i":
        return value
    return None


class ColumnMask:
    """One compiled predicate over a column
    :class:`~repro.storage.columnar.Vector`, as a boolean array.

    Answers exactly what the row closure *test* answers value by value
    (NULL never matches): dictionary-encoded vectors evaluate *test*
    once per distinct value and gather the result by code (any
    operator, ``IN`` included); typed vectors run comparison operators
    in numpy when the literal compares exactly (:func:`_exact_literal`);
    anything else runs *test* per value.
    """

    __slots__ = ("column", "test", "op", "literal", "_lut_source",
                 "_lut_size", "_lut")

    def __init__(self, column: str, test: ValuePredicate,
                 op: str | None = None, literal: Any = None) -> None:
        self.column = column
        self.test = test
        self.op = op
        self.literal = literal
        self._lut_source = None
        self._lut_size = 0
        self._lut = np.zeros(0, dtype=bool)

    def __call__(self, vector) -> np.ndarray:
        dictionary = vector.dictionary
        if dictionary is not None:
            if (dictionary is not self._lut_source
                    or dictionary.size != self._lut_size):
                self._lut = np.fromiter(
                    map(self.test, dictionary.values()), dtype=bool,
                    count=dictionary.size)
                self._lut_source = dictionary
                self._lut_size = dictionary.size
            return self._lut[vector.data]
        data = vector.data
        if data.dtype != object and self.op in _ARRAY_OPS:
            if data.dtype == np.bool_:
                data = data.view(np.uint8)
            literal = _exact_literal(self.literal, data.dtype.kind)
            if literal is not None:
                mask = _ARRAY_OPS[self.op](data, literal)
                return mask if vector.valid is None else mask & vector.valid
        values = vector.tolist()
        return np.fromiter(map(self.test, values), dtype=bool,
                           count=len(values))


class _Predicate(NamedTuple):
    column: str
    op: str
    value: Any


def column_mask(column: str, op: str, value: Any) -> ColumnMask:
    """Compile ``column <op> value`` into a :class:`ColumnMask`."""
    test = compile_comparison(_Predicate(column, op, value))
    return ColumnMask(column, test, op, value)


def compile_masks(residual: Sequence[Any]) -> tuple[ColumnMask, ...]:
    """Compile a residual list to column masks, in predicate order.

    The vectorized scans apply them one after another, each narrowing
    the selection the next one sees, so a conjunction short-circuits
    per row exactly like :func:`compile_residual`.
    """
    return tuple(column_mask(pred.column, pred.op, pred.value)
                 for pred in residual)
