"""Tests for the relational substrate: schemas, tables, fragmentation, data gen."""

import pytest

from repro.ontology import demo_ontology, healthcare_ontology
from repro.sql import execute_select, parse_select
from repro.relational import (
    Column,
    Schema,
    SchemaError,
    Table,
    TableError,
    generate_healthcare_table,
    generate_table,
    horizontal_fragments,
    join_on_key,
    keyed_on,
    union_all,
    vertical_fragments,
)


def keyed_table():
    schema = Schema(
        (Column("id", "number"), Column("a", "number"), Column("b", "string"),
         Column("c", "number")),
        key="id",
    )
    table = Table("t", schema)
    table.insert_many(
        {"id": i, "a": i * 10, "b": f"s{i}", "c": i % 3} for i in range(1, 7)
    )
    return table


class TestSchema:
    def test_column_validation(self):
        with pytest.raises(SchemaError):
            Column("")
        with pytest.raises(SchemaError):
            Column("x", "blob")

    def test_column_accepts(self):
        assert Column("n", "number").accepts(3)
        assert Column("n", "number").accepts(3.5)
        assert not Column("n", "number").accepts(True)  # bools are not numbers
        assert not Column("n", "number").accepts("3")
        assert Column("s", "string").accepts("x")
        assert Column("b", "bool").accepts(False)
        assert Column("n", "number").accepts(None)  # nullable

    def test_schema_validation(self):
        with pytest.raises(SchemaError):
            Schema(())
        with pytest.raises(SchemaError):
            Schema((Column("a"), Column("a")))
        with pytest.raises(SchemaError):
            Schema((Column("a"),), key="ghost")

    def test_from_class(self):
        schema = Schema.from_class(healthcare_ontology(), "patient")
        assert schema.key == "patient_id"
        assert "patient_age" in schema

    def test_from_class_inherits(self):
        schema = Schema.from_class(healthcare_ontology(), "podiatrist")
        assert schema.key == "provider_id"
        assert "specialty" in schema

    def test_project(self):
        schema = keyed_table().schema.project(["id", "a"])
        assert schema.column_names() == ["id", "a"]
        assert schema.key == "id"
        dropped = keyed_table().schema.project(["a"])
        assert dropped.key is None

    def test_validate_row_rejects_unknown_columns(self):
        with pytest.raises(SchemaError):
            keyed_table().schema.validate_row({"ghost": 1})


class TestTable:
    def test_insert_and_count(self):
        assert keyed_table().row_count == 6

    def test_insert_type_checked(self):
        table = keyed_table()
        with pytest.raises(SchemaError):
            table.insert({"id": 7, "a": "not a number"})

    def test_duplicate_key_rejected(self):
        table = keyed_table()
        with pytest.raises(TableError):
            table.insert({"id": 1, "a": 0, "b": "x", "c": 0})

    def test_missing_key_rejected(self):
        table = keyed_table()
        with pytest.raises(TableError):
            table.insert({"a": 0, "b": "x", "c": 0})

    def test_lookup(self):
        table = keyed_table()
        assert table.lookup(3)["a"] == 30
        assert table.lookup(99) is None

    def test_rows_are_copies(self):
        table = keyed_table()
        next(table.rows())["a"] = 12345
        assert table.lookup(1)["a"] == 10

    def test_scan_with_predicate(self):
        table = keyed_table()
        rows = table.scan(lambda r: r["c"] == 0)
        assert {r["id"] for r in rows} == {3, 6}

    def test_missing_columns_stored_as_none(self):
        schema = Schema((Column("id", "number"), Column("x", "number")), key="id")
        table = Table("t", schema, [{"id": 1}])
        assert table.lookup(1)["x"] is None

    def test_size_bytes_scales_with_rows(self):
        small, big = keyed_table(), keyed_table()
        big.insert({"id": 7, "a": 70, "b": "s7", "c": 1})
        assert big.size_bytes() > small.size_bytes()


class TestVerticalFragmentation:
    def test_fragments_keep_key(self):
        fragments = vertical_fragments(keyed_table(), [["a"], ["b", "c"]])
        assert [f.schema.column_names() for f in fragments] == [
            ["id", "a"],
            ["id", "b", "c"],
        ]

    def test_groups_must_partition(self):
        with pytest.raises(TableError):
            vertical_fragments(keyed_table(), [["a"], ["b"]])  # c missing
        with pytest.raises(TableError):
            vertical_fragments(keyed_table(), [["a", "b"], ["b", "c"]])  # b twice

    def test_requires_key(self):
        schema = Schema((Column("a", "number"), Column("b", "number")))
        with pytest.raises(TableError):
            vertical_fragments(Table("t", schema), [["a"], ["b"]])

    def test_join_reassembles_exactly(self):
        original = keyed_table()
        fragments = vertical_fragments(original, [["a"], ["b", "c"]])
        rejoined = join_on_key(fragments)
        assert sorted(rejoined.rows(), key=lambda r: r["id"]) == sorted(
            original.rows(), key=lambda r: r["id"]
        )

    def test_join_outer_semantics(self):
        schema1 = Schema((Column("id", "number"), Column("a", "number")), key="id")
        schema2 = Schema((Column("id", "number"), Column("b", "number")), key="id")
        t1 = Table("t1", schema1, [{"id": 1, "a": 10}, {"id": 2, "a": 20}])
        t2 = Table("t2", schema2, [{"id": 1, "b": 100}])
        joined = join_on_key([t1, t2])
        assert joined.lookup(2) == {"id": 2, "a": 20, "b": None}

    def test_join_requires_shared_key(self):
        schema1 = Schema((Column("id", "number"),), key="id")
        schema2 = Schema((Column("other", "number"),), key="other")
        with pytest.raises(TableError):
            join_on_key([Table("a", schema1), Table("b", schema2)])


class TestHorizontalFragmentationAndUnion:
    def test_round_robin_split(self):
        fragments = horizontal_fragments(keyed_table(), 3)
        assert [f.row_count for f in fragments] == [2, 2, 2]

    def test_union_restores_rows(self):
        original = keyed_table()
        fragments = horizontal_fragments(original, 2)
        merged = union_all(fragments)
        assert merged.row_count == original.row_count
        assert sorted(r["id"] for r in merged.rows()) == [1, 2, 3, 4, 5, 6]

    def test_union_shared_columns_only(self):
        s1 = Schema((Column("id", "number"), Column("x", "number")))
        s2 = Schema((Column("id", "number"), Column("y", "number")))
        t1 = Table("t1", s1, [{"id": 1, "x": 1}])
        t2 = Table("t2", s2, [{"id": 2, "y": 2}])
        merged = union_all([t1, t2])
        assert merged.schema.column_names() == ["id"]
        assert merged.row_count == 2

    def test_union_no_shared_columns(self):
        s1 = Schema((Column("x", "number"),))
        s2 = Schema((Column("y", "number"),))
        with pytest.raises(TableError):
            union_all([Table("a", s1), Table("b", s2)])


class TestBulkLoad:
    def test_rejected_load_leaves_table_unchanged(self):
        table = keyed_table()
        before = table.scan()
        with pytest.raises(SchemaError):
            table.insert_many([{"id": 7, "a": 1}, {"id": 8, "a": "oops"}])
        with pytest.raises(TableError):
            table.insert_many([{"id": 9}, {"id": 9}])
        with pytest.raises(TableError):
            table.insert_many([{"id": 10}, {"id": 1}])
        assert table.scan() == before
        assert table.lookup(7) is None and table.lookup(9) is None

    def test_unknown_column_beside_a_missing_one(self):
        # Same number of keys as the schema has columns, one of them alien.
        with pytest.raises(SchemaError):
            keyed_table().insert({"id": 7, "a": 1, "b": "x", "ghost": 2})

    def test_subclass_values_take_the_slow_check(self):
        class Name(str):
            pass

        table = Table("t", Schema((Column("s", "string"), Column("n", "number"))))
        table.insert({"s": Name("x"), "n": 1})
        with pytest.raises(SchemaError):
            table.insert({"n": True})  # bool is an int subclass, not a number
        assert table.scan() == [{"s": "x", "n": 1}]


class TestSelect:
    def test_filter_order_limit_project(self):
        table = keyed_table()
        rows = table.select(["b", "c"], predicate=lambda r: r["a"] >= 20,
                            order_by="c", descending=True, limit=3)
        assert rows == [{"b": "s2", "c": 2}, {"b": "s5", "c": 2},
                        {"b": "s4", "c": 1}]

    def test_nulls_sort_last(self):
        table = Table("t", Schema((Column("v", "number"),)),
                      [{"v": 2}, {"v": None}, {"v": 1}])
        assert [r["v"] for r in table.select(["v"], order_by="v")] == [1, 2, None]

    def test_absent_column_projects_as_none(self):
        assert keyed_table().select(["id", "ghost"], limit=1) == [
            {"id": 1, "ghost": None}
        ]


def number_table(name, rows, v_type="number", extra=None):
    columns = [Column("id", "number"), Column("v", v_type)]
    if extra:
        columns.append(Column(extra, "string"))
    return Table(name, Schema(tuple(columns)), rows)


class TestStoredRowSharing:
    """Derived tables may hold the very dicts of their sources (DESIGN.md,
    relational section); nothing a caller can reach is one of them."""

    def test_mutating_any_handed_out_row_changes_no_table(self):
        t1 = number_table("t1", [{"id": 1, "v": 10}, {"id": 2, "v": 20}])
        t2 = number_table("t2", [{"id": 2, "v": 21}, {"id": None, "v": 30}])
        union = union_all([t1, t2])
        keyed = keyed_on(union, "id")
        other = Table("o", Schema((Column("id", "number"), Column("w", "string")),
                                  key="id"), [{"id": 1, "w": "x"}])
        joined = join_on_key([keyed, other])
        tables = [t1, t2, union, keyed, other, joined]
        before = [t.scan() for t in tables]
        assert [t.row_count for t in tables] == [2, 2, 4, 2, 1, 2]

        star = parse_select("select * from t")
        some = parse_select("select id from t where id >= 1 order by id desc")
        for table in tables:
            handed_out = [*table.rows(), *table.scan(),
                          *table.scan(lambda row: True),
                          *table.select(table.schema.names),
                          *table.select(["id"]),
                          *execute_select(star, {"t": table}).rows,
                          *execute_select(some, {"t": table}).rows]
            for key_value in (1, 2):
                found = table.lookup(key_value)
                if found is not None:
                    handed_out.append(found)
            for row in handed_out:
                for name in list(row):
                    row[name] = "clobbered"
                row["extra"] = 1
        assert [t.scan() for t in tables] == before

    def test_union_revalidates_a_differently_typed_column(self):
        numbers = number_table("n", [{"id": 1, "v": 7}])
        strings = number_table("s", [{"id": 2, "v": "seven"}], v_type="string")
        with pytest.raises(SchemaError):
            union_all([numbers, strings])
        with pytest.raises(SchemaError):
            union_all([strings, numbers])

    def test_union_projects_when_shared_column_types_differ(self):
        numbers = number_table("n", [{"id": 1, "v": 7, "x": "a"}], extra="x")
        nulls = number_table("s", [{"id": 2, "v": None, "y": "b"}],
                             v_type="string", extra="y")
        merged = union_all([numbers, nulls])
        assert merged.schema.names == ("id", "v")
        assert merged.schema.column("v").col_type == "number"
        assert merged.scan() == [{"id": 1, "v": 7}, {"id": 2, "v": None}]
        with pytest.raises(SchemaError):  # 7 is no string
            union_all([nulls, numbers])

    def test_join_revalidates_a_differently_typed_column(self):
        schema_n = Schema((Column("id", "number"), Column("v", "number")), key="id")
        schema_s = Schema((Column("id", "number"), Column("v", "string")), key="id")
        numbers = Table("n", schema_n, [{"id": 1, "v": 7}])
        with pytest.raises(SchemaError):
            join_on_key([numbers, Table("s", schema_s, [{"id": 2, "v": "x"}])])
        joined = join_on_key([numbers, Table("s", schema_s, [{"id": 2, "v": None}])])
        assert joined.scan() == [{"id": 1, "v": 7}, {"id": 2, "v": None}]

    def test_keyed_on_keeps_first_row_per_key(self):
        table = number_table("t", [{"id": 1, "v": 1}, {"id": None, "v": 2},
                                   {"id": 1, "v": 3}, {"id": 2, "v": 4}])
        keyed = keyed_on(table, "id")
        assert keyed.schema.key == "id"
        assert keyed.scan() == [{"id": 1, "v": 1}, {"id": 2, "v": 4}]
        assert keyed.lookup(2) == {"id": 2, "v": 4}
        with pytest.raises(TableError):
            keyed.insert({"id": 2, "v": 5})


class TestGeneration:
    def test_deterministic(self):
        onto = demo_ontology(2)
        a = generate_table(onto, "C1", 50, seed=7)
        b = generate_table(onto, "C1", 50, seed=7)
        assert list(a.rows()) == list(b.rows())

    def test_seed_changes_data(self):
        onto = demo_ontology(2)
        a = generate_table(onto, "C1", 50, seed=1)
        b = generate_table(onto, "C1", 50, seed=2)
        assert list(a.rows()) != list(b.rows())

    def test_keys_are_sequential(self):
        onto = demo_ontology(1)
        table = generate_table(onto, "C1", 10)
        assert sorted(r["c1_id"] for r in table.rows()) == list(range(1, 11))

    def test_healthcare_values_typed(self):
        table = generate_healthcare_table("patient", 30)
        for row in table.rows():
            assert 0 <= row["patient_age"] <= 99
            assert isinstance(row["city"], str)

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            generate_table(demo_ontology(1), "C1", -1)
