"""Table schemas, derivable from ontology classes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.ontology.model import Ontology


class SchemaError(ValueError):
    """Raised for malformed schemas or rows that violate them."""


_PYTHON_TYPES = {
    "number": (int, float),
    "string": (str,),
    "bool": (bool,),
}

#: The classes a column type accepts without looking further; a value of
#: any other class (a subclass, or ``bool`` offered as a number) is
#: decided by :meth:`Column.accepts`.
_EXACT_TYPES = {
    col_type: frozenset(classes) for col_type, classes in _PYTHON_TYPES.items()
}


@dataclass(frozen=True)
class Column:
    """One typed column."""

    name: str
    col_type: str = "string"  # "string" | "number" | "bool"

    def __post_init__(self):
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.col_type not in _PYTHON_TYPES:
            raise SchemaError(f"unknown column type {self.col_type!r}")

    def accepts(self, value) -> bool:
        if value is None:
            return True  # SQL-style nullable columns
        if self.col_type == "number" and isinstance(value, bool):
            return False
        return isinstance(value, _PYTHON_TYPES[self.col_type])

    def rejection(self, value) -> SchemaError:
        return SchemaError(
            f"column {self.name!r} ({self.col_type}) rejects {value!r}"
        )


@dataclass(frozen=True)
class Schema:
    """An ordered set of columns with an optional key column."""

    columns: Tuple[Column, ...]
    key: Optional[str] = None
    # Derived from ``columns`` once (a schema is immutable) because row
    # validation reads them per cell; they take no part in equality,
    # hashing or repr.
    names: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    _by_name: Dict[str, Column] = field(init=False, repr=False, compare=False)
    #: (name, classes accepted outright, column) per column, in order.
    _cell_checks: Tuple[Tuple[str, FrozenSet[type], Column], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not isinstance(self.columns, tuple):
            object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise SchemaError("schema needs at least one column")
        names = tuple(c.name for c in self.columns)
        by_name = dict(zip(names, self.columns))
        if len(by_name) != len(names):
            raise SchemaError("duplicate column names")
        if self.key is not None and self.key not in by_name:
            raise SchemaError(f"key {self.key!r} is not a column")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(
            self,
            "_cell_checks",
            tuple((c.name, _EXACT_TYPES[c.col_type], c) for c in self.columns),
        )

    @classmethod
    def from_class(cls, ontology: Ontology, class_name: str) -> "Schema":
        """Derive a schema from an ontology class (inherited slots included)."""
        slots = ontology.slots_of(class_name)
        columns = tuple(Column(s.name, s.value_type) for s in slots)
        return cls(columns, key=ontology.key_of(class_name))

    def column_names(self) -> List[str]:
        return list(self.names)

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no column named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def project(self, names: List[str]) -> "Schema":
        """A schema with only *names*, keeping the key if it survives."""
        columns = tuple(self.column(n) for n in names)
        key = self.key if self.key in names else None
        return Schema(columns, key=key)

    def validate_row(self, row: dict) -> None:
        for name, exact, column in self._cell_checks:
            value = row.get(name)
            if (
                value is not None
                and type(value) not in exact
                and not column.accepts(value)
            ):
                raise column.rejection(value)
        if not row.keys() <= self._by_name.keys():
            raise self.unknown_columns(row)

    def unknown_columns(self, row: dict) -> SchemaError:
        unknown = sorted(set(row) - self._by_name.keys())
        return SchemaError(f"row has unknown columns: {unknown}")
