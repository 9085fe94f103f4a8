"""The relational substrate behind resource agents.

Resource agents in InfoSleuth act as proxies for structured
repositories.  This package provides the in-memory repositories: typed
tables derived from ontology classes, vertical/horizontal fragmentation
(the paper's VF and FH query streams), class-hierarchy storage (the CH
stream), reassembly algebra, and deterministic synthetic data
generation.
"""

from repro.relational.schema import Column, Schema, SchemaError
from repro.relational.table import Table, TableError
from repro.relational.fragmentation import (
    horizontal_fragments,
    horizontal_fragments_by_predicate,
    join_on_key,
    keyed_on,
    union_all,
    vertical_fragments,
)
from repro.relational.generate import generate_healthcare_table, generate_table

__all__ = [
    "Column",
    "Schema",
    "SchemaError",
    "Table",
    "TableError",
    "generate_healthcare_table",
    "generate_table",
    "horizontal_fragments",
    "horizontal_fragments_by_predicate",
    "join_on_key",
    "keyed_on",
    "union_all",
    "vertical_fragments",
]
