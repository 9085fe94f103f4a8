"""In-memory tables with schema validation and simple size accounting."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.relational.schema import Column, Schema


class TableError(ValueError):
    """Raised for table-level misuse (duplicate keys, bad rows)."""


#: Nominal bytes per stored cell, used for data-volume cost accounting
#: (the paper charges resources per megabyte of data touched).
BYTES_PER_CELL = 32


class Table:
    """A named, schema-validated collection of rows (dicts).

    >>> from repro.relational.schema import Column, Schema
    >>> t = Table("t", Schema((Column("id", "number"), Column("v", "number")), key="id"))
    >>> t.insert({"id": 1, "v": 10})
    >>> t.row_count
    1
    """

    def __init__(self, name: str, schema: Schema, rows: Iterable[dict] = ()):
        if not name:
            raise TableError("table name must be non-empty")
        self.name = name
        self.schema = schema
        self._rows: List[dict] = []
        self._key_index: Dict[object, int] = {}
        self.insert_many(rows)

    # ------------------------------------------------------------------
    # mutation
    #
    # Invariant: a stored row is never mutated after insertion.  There is
    # no update or delete, and every public accessor hands out copies, so
    # code inside ``repro.relational`` may read ``_rows`` in place and let
    # a derived table hold the very same dicts (see ``_adopt``).
    # ------------------------------------------------------------------
    def insert(self, row: dict) -> None:
        self.insert_many((row,))

    def insert_many(self, rows: Iterable[dict]) -> None:
        """Validate and store *rows*: all of them, or none if one is
        rejected."""
        schema = self.schema
        checks = schema._cell_checks
        width = len(checks)
        loaded: List[dict] = []
        for row in rows:
            stored = {}
            absent = 0
            for name, exact, column in checks:
                value = stored[name] = row.get(name)
                if value is None:
                    if name not in row:
                        absent += 1
                elif type(value) not in exact and not column.accepts(value):
                    raise column.rejection(value)
            if len(row) + absent != width:  # some key of row is no column
                raise schema.unknown_columns(row)
            loaded.append(stored)
        self._store(loaded)

    def _store(self, rows: List[dict]) -> None:
        """Append *rows*, already in stored form (exactly the schema's
        columns, in order, every cell type-checked), enforcing the key."""
        key = self.schema.key
        if key is not None:
            index = self._key_index
            fresh: Dict[object, int] = {}
            position = len(self._rows)
            for row in rows:
                value = row[key]
                if value is None:
                    raise TableError(f"row missing key {key!r}")
                if value in index or value in fresh:
                    raise TableError(
                        f"duplicate key {value!r} in table {self.name!r}"
                    )
                fresh[value] = position
                position += 1
            index.update(fresh)
        self._rows.extend(rows)

    def _adopt(self, rows: List[dict], checked: Iterable[Column]) -> None:
        """Trusted load, for ``repro.relational`` only: *rows* are in this
        table's stored form and may be shared with the table they came
        from; their cells were type-checked against the columns *checked*,
        so only a column of this schema not among those is validated
        (every cell of it).  The key is enforced as on any load."""
        verified = set(checked)
        for column in self.schema.columns:
            if column not in verified:
                name, accepts = column.name, column.accepts
                for row in rows:
                    if not accepts(row[name]):
                        raise column.rejection(row[name])
        self._store(rows)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[dict]:
        """Iterate over copies of the stored rows."""
        return (dict(row) for row in self._rows)

    def lookup(self, key_value) -> Optional[dict]:
        """Key lookup (O(1)); None when absent or the table has no key."""
        index = self._key_index.get(key_value)
        return dict(self._rows[index]) if index is not None else None

    def scan(self, predicate: Optional[Callable[[dict], bool]] = None) -> List[dict]:
        """Full scan, optionally filtered.  Returns row copies."""
        return self.select(self.schema.names, predicate)

    def select(
        self,
        columns: Sequence[str],
        predicate: Optional[Callable[[dict], bool]] = None,
        order_by: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> List[dict]:
        """Filter, order (NULLs last, first when *descending*), truncate,
        then project: only the surviving rows are copied, and only their
        *columns* (a name the table lacks projects as ``None``)."""
        matched = self._rows
        if predicate is not None:
            matched = [row for row in matched if predicate(row)]
        if order_by is not None:
            matched = sorted(
                matched,
                key=lambda row: (row[order_by] is None, row[order_by]),
                reverse=descending,
            )
        if limit is not None:
            matched = matched[:limit]
        if tuple(columns) == self.schema.names:  # SELECT *: the whole row
            return [dict(row) for row in matched]
        return [{name: row.get(name) for name in columns} for row in matched]

    def size_bytes(self) -> int:
        """Nominal data volume, for the experiments' cost accounting."""
        return self.row_count * len(self.schema.columns) * BYTES_PER_CELL

    def __len__(self) -> int:
        return self.row_count

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {self.row_count} rows)"
