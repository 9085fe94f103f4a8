"""Fragmentation of tables across resources, and its inverse.

The paper's experiment streams exercise exactly these layouts:

* **VF** (vertical fragmentation): a class's slots split across
  resources, each fragment keeping the key; reassembly is a key join.
* **CH** (class hierarchy): subclasses stored at different resources;
  reassembly of the superclass extent is a union over shared columns.
* **FH**: both at once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.relational.schema import Column, Schema, SchemaError
from repro.relational.table import Table, TableError


def vertical_fragments(
    table: Table, column_groups: Sequence[Sequence[str]], names: Optional[Sequence[str]] = None
) -> List[Table]:
    """Split *table* vertically into one fragment per column group.

    Every fragment automatically includes the table's key.  The groups
    together must cover all non-key columns exactly once.
    """
    key = table.schema.key
    if key is None:
        raise TableError("vertical fragmentation requires a keyed table")
    non_key = [c for c in table.schema.column_names() if c != key]
    flat = [col for group in column_groups for col in group]
    if sorted(flat) != sorted(non_key):
        raise TableError(
            f"column groups must partition the non-key columns {non_key}, "
            f"got {sorted(flat)}"
        )
    if names is not None and len(names) != len(column_groups):
        raise TableError("need exactly one name per fragment")

    fragments = []
    for index, group in enumerate(column_groups):
        frag_cols = [key, *group]
        schema = table.schema.project(frag_cols)
        name = names[index] if names else f"{table.name}_vf{index + 1}"
        fragment = Table(name, schema)
        for row in table.rows():
            fragment.insert({col: row[col] for col in frag_cols})
        fragments.append(fragment)
    return fragments


def horizontal_fragments_by_predicate(
    table: Table,
    predicates: Sequence,
    names: Optional[Sequence[str]] = None,
    strict: bool = True,
) -> List[Table]:
    """Split *table* row-wise by *predicates* (callables row -> bool).

    Each row goes to the first predicate it satisfies.  With ``strict``
    (the default), a row matching no predicate is an error — the
    predicates must cover the extent; otherwise uncovered rows are
    dropped.  This is the "patients 0-44 at the pediatric clinic,
    45+ at the geriatric clinic" layout of the paper's examples.
    """
    if not predicates:
        raise TableError("need at least one predicate")
    if names is not None and len(names) != len(predicates):
        raise TableError("need exactly one name per fragment")
    fragments = [
        Table(names[i] if names else f"{table.name}_hp{i + 1}", table.schema)
        for i in range(len(predicates))
    ]
    for row in table.rows():
        for index, predicate in enumerate(predicates):
            if predicate(row):
                fragments[index].insert(row)
                break
        else:
            if strict:
                raise TableError(f"row {row!r} matches no fragment predicate")
    return fragments


def horizontal_fragments(
    table: Table, n_fragments: int, names: Optional[Sequence[str]] = None
) -> List[Table]:
    """Split *table* into *n_fragments* row-wise (round-robin)."""
    if n_fragments < 1:
        raise TableError("need at least one fragment")
    if names is not None and len(names) != n_fragments:
        raise TableError("need exactly one name per fragment")
    fragments = [
        Table(names[i] if names else f"{table.name}_hf{i + 1}", table.schema)
        for i in range(n_fragments)
    ]
    for index, row in enumerate(table.rows()):
        fragments[index % n_fragments].insert(row)
    return fragments


def join_on_key(fragments: Sequence[Table]) -> Table:
    """Reassemble vertical fragments by joining on their shared key.

    Rows present in only some fragments surface with ``None`` for the
    missing columns (an outer join, which is what reassembly of a
    vertically fragmented extent needs).
    """
    if not fragments:
        raise TableError("nothing to join")
    key = fragments[0].schema.key
    if key is None or any(f.schema.key != key for f in fragments):
        raise TableError("all fragments must share the same key column")

    by_name: Dict[str, Column] = {}
    for fragment in fragments:
        for col in fragment.schema.columns:
            by_name.setdefault(col.name, col)
    schema = Schema(tuple(by_name.values()), key=key)

    merged: Dict[object, dict] = {}
    for fragment in fragments:
        for row in fragment._rows:
            target = merged.get(row[key])
            if target is None:
                target = merged[row[key]] = dict.fromkeys(schema.names)
            target.update(row)

    # A column is already checked only if every fragment carrying the
    # name types it as the result does.
    checked = [
        col for col in schema.columns
        if all(f.schema.column(col.name) == col
               for f in fragments if col.name in f.schema)
    ]
    result = Table(f"join({', '.join(f.name for f in fragments)})", schema)
    result._adopt(list(merged.values()), checked)
    return result


def keyed_on(table: Table, key: str) -> Table:
    """*table* with *key* declared as its key: the first row of each key
    value, rows with a NULL key dropped (replicated resources return the
    same entity more than once).  The rows are shared, not copied."""
    result = Table(table.name, Schema(table.schema.columns, key=key))
    seen = set()
    distinct = []
    for row in table._rows:
        value = row[key]
        if value is not None and value not in seen:
            seen.add(value)
            distinct.append(row)
    result._adopt(distinct, table.schema.columns)
    return result


def union_all(tables: Sequence[Table], name: str = "union") -> Table:
    """Union tables over their *shared* columns (class-hierarchy extents).

    The result has the columns common to every input, in the first
    table's order; duplicate rows are preserved (UNION ALL).  The result
    is unkeyed because key uniqueness cannot be guaranteed across
    sources.  A table whose columns are exactly the result's shares its
    rows with it; any other is projected, one copy per row.
    """
    if not tables:
        raise TableError("nothing to union")
    shared = [
        col.name
        for col in tables[0].schema.columns
        if all(col.name in t.schema for t in tables)
    ]
    if not shared:
        raise TableError("tables share no columns")
    columns = tuple(tables[0].schema.column(n) for n in shared)
    result = Table(name, Schema(columns, key=None))
    for table in tables:
        rows = table._rows
        if table.schema.columns != columns:
            rows = [{col: row[col] for col in shared} for row in rows]
        result._adopt(rows, table.schema.columns)
    return result
