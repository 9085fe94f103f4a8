"""Executor for the SQL subset over in-memory tables.

Besides result rows, :class:`QueryResult` reports ``rows_scanned`` and
``bytes_returned`` — the work counters the experiment harness converts
into virtual service time.

:func:`where_to_constraint` bridges the SQL WHERE clause into the
constraint algebra (conjunctive fragments only), which lets the MRQ
agent send the broker data constraints derived from a user query.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Mapping, Optional, Tuple

from repro.constraints import Atom, Constraint, Op
from repro.relational.table import BYTES_PER_CELL, Table
from repro.sql.ast import (
    And,
    Between,
    Comparison,
    InList,
    Not,
    Or,
    OrderBy,
    Predicate,
    Select,
)
from repro.sql.errors import SqlExecutionError

_OP_TO_PYTHON = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class QueryResult:
    """Rows plus the work counters the cost model consumes."""

    columns: Tuple[str, ...]
    rows: Tuple[dict, ...]
    rows_scanned: int

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def bytes_returned(self) -> int:
        return len(self.rows) * len(self.columns) * BYTES_PER_CELL


def evaluate_predicate(predicate: Predicate, row: Mapping[str, object]) -> bool:
    """Evaluate a WHERE predicate on one row (SQL-ish NULL: comparisons
    against None are false)."""
    if isinstance(predicate, Comparison):
        value = row.get(predicate.column)
        if value is None or predicate.value is None:
            # SQL three-valued logic collapsed to False except for = NULL,
            # which we treat as an explicit null test.
            if predicate.value is None and predicate.op in ("=", "!=", "<>"):
                is_null = value is None
                return is_null if predicate.op == "=" else not is_null
            return False
        try:
            return _OP_TO_PYTHON[predicate.op](value, predicate.value)
        except TypeError:
            return False
    if isinstance(predicate, Between):
        value = row.get(predicate.column)
        if value is None:
            return False
        try:
            return predicate.lo <= value <= predicate.hi
        except TypeError:
            return False
    if isinstance(predicate, InList):
        return row.get(predicate.column) in predicate.values
    if isinstance(predicate, And):
        return evaluate_predicate(predicate.left, row) and evaluate_predicate(
            predicate.right, row
        )
    if isinstance(predicate, Or):
        return evaluate_predicate(predicate.left, row) or evaluate_predicate(
            predicate.right, row
        )
    if isinstance(predicate, Not):
        return not evaluate_predicate(predicate.operand, row)
    raise SqlExecutionError(f"unknown predicate node {predicate!r}")


def execute_select(select: Select, catalog: Mapping[str, Table]) -> QueryResult:
    """Run *select* against *catalog* (table name -> Table).

    >>> from repro.relational.schema import Column, Schema
    >>> t = Table("t", Schema((Column("id", "number"),), key="id"), [{"id": 1}])
    >>> execute_select(parse_select_cached("select * from t"), {"t": t}).row_count
    1
    """
    table = catalog.get(select.table)
    if table is None:
        raise SqlExecutionError(f"unknown table {select.table!r}")

    if select.columns is None:
        columns = table.schema.names
    else:
        for name in select.columns:
            if name not in table.schema:
                raise SqlExecutionError(
                    f"table {table.name!r} has no column {name!r}"
                )
        columns = select.columns

    order = select.order_by
    if order is not None and order.column not in table.schema:
        raise SqlExecutionError(f"cannot ORDER BY unknown column {order.column!r}")
    rows = select_rows(table, columns, select.where, order, select.limit)
    return QueryResult(columns=columns, rows=rows, rows_scanned=len(table))


def select_rows(
    table: Table,
    columns: Tuple[str, ...],
    where: Optional[Predicate],
    order_by: Optional[OrderBy],
    limit: Optional[int],
) -> Tuple[dict, ...]:
    """``Table.select`` driven by the AST's WHERE / ORDER BY nodes."""
    return tuple(table.select(
        columns,
        predicate=partial(evaluate_predicate, where) if where is not None else None,
        order_by=order_by.column if order_by is not None else None,
        descending=order_by is not None and order_by.descending,
        limit=limit,
    ))


_parse_cache: Dict[str, Select] = {}


def parse_select_cached(text: str) -> Select:
    """Parse with memoization (experiments re-issue identical queries)."""
    from repro.sql.parser import parse_select

    select = _parse_cache.get(text)
    if select is None:
        select = parse_select(text)
        _parse_cache[text] = select
    return select


def where_to_constraint(predicate: Optional[Predicate]) -> Optional[Constraint]:
    """Convert a conjunctive WHERE clause into a :class:`Constraint`.

    Returns ``None`` when the predicate uses OR/NOT or null literals —
    shapes the constraint algebra does not model — in which case the
    caller falls back to the unconstrained description.
    """
    if predicate is None:
        return Constraint.unconstrained()
    atoms = _collect_atoms(predicate)
    if atoms is None:
        return None
    return Constraint.from_atoms(atoms)


_SQL_OP_TO_CONSTRAINT = {
    "=": Op.EQ,
    "!=": Op.NEQ,
    "<>": Op.NEQ,
    "<": Op.LT,
    "<=": Op.LE,
    ">": Op.GT,
    ">=": Op.GE,
}


def _collect_atoms(predicate: Predicate) -> Optional[List[Atom]]:
    if isinstance(predicate, Comparison):
        if predicate.value is None:
            return None
        return [Atom(predicate.column, _SQL_OP_TO_CONSTRAINT[predicate.op], predicate.value)]
    if isinstance(predicate, Between):
        if predicate.lo is None or predicate.hi is None:
            return None
        return [Atom(predicate.column, Op.BETWEEN, (predicate.lo, predicate.hi))]
    if isinstance(predicate, InList):
        if any(v is None for v in predicate.values):
            return None
        return [Atom(predicate.column, Op.IN, predicate.values)]
    if isinstance(predicate, And):
        left = _collect_atoms(predicate.left)
        right = _collect_atoms(predicate.right)
        if left is None or right is None:
            return None
        return left + right
    return None  # Or / Not are outside the conjunctive fragment
