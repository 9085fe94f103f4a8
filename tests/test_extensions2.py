"""Tests for the second extension batch: broker directory pulls and CSV
table I/O."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.agents import BrokerAgent, CostModel, MessageBus
from repro.relational import Column, Schema, SchemaError, Table
from repro.relational.io import table_from_csv, table_to_csv


class TestBrokerDirectoryPull:
    def test_new_broker_learns_peers_of_peers(self):
        bus = MessageBus(CostModel(latency_seconds=0.001,
                                   base_handling_seconds=0.0001,
                                   bandwidth_bytes_per_second=1e9))
        # An existing pair that know each other.
        bus.register(BrokerAgent("b1", peer_brokers=["b2"]))
        bus.register(BrokerAgent("b2", peer_brokers=["b1"]))
        bus.run_until(1.0)
        # A newcomer configured with only b1, pulling the directory.
        newcomer = BrokerAgent("b3", peer_brokers=["b1"],
                               pull_broker_directory=True)
        bus.register(newcomer)
        bus.run_until(2.0)
        assert newcomer.repository.knows("b2")
        assert "b2" in newcomer.peer_brokers

    def test_pull_disabled_by_default(self):
        bus = MessageBus(CostModel(latency_seconds=0.001,
                                   base_handling_seconds=0.0001,
                                   bandwidth_bytes_per_second=1e9))
        bus.register(BrokerAgent("b1", peer_brokers=["b2"]))
        bus.register(BrokerAgent("b2", peer_brokers=["b1"]))
        bus.run_until(1.0)
        newcomer = BrokerAgent("b3", peer_brokers=["b1"])
        bus.register(newcomer)
        bus.run_until(2.0)
        assert not newcomer.repository.knows("b2")


class TestCsvIo:
    def schema(self):
        return Schema(
            (Column("id", "number"), Column("name", "string"),
             Column("ok", "bool")),
            key="id",
        )

    def test_roundtrip_with_schema(self):
        table = Table("t", self.schema(), [
            {"id": 1, "name": "ann", "ok": True},
            {"id": 2, "name": "bob", "ok": False},
            {"id": 3, "name": None, "ok": None},
        ])
        text = table_to_csv(table)
        again = table_from_csv("t", text, schema=self.schema())
        assert list(again.rows()) == list(table.rows())

    def test_type_inference(self):
        table = table_from_csv("t", "id,score,label\n1,2.5,x\n2,3.5,y\n")
        assert table.schema.column("id").col_type == "number"
        assert table.schema.column("score").col_type == "number"
        assert table.schema.column("label").col_type == "string"
        assert table.lookup(None) is None  # inferred schema has no key
        assert table.row_count == 2

    def test_bool_parsing(self):
        table = table_from_csv("t", "flag\ntrue\nFALSE\n",
                               schema=Schema((Column("flag", "bool"),)))
        assert [r["flag"] for r in table.rows()] == [True, False]
        with pytest.raises(SchemaError):
            table_from_csv("t", "flag\nmaybe\n",
                           schema=Schema((Column("flag", "bool"),)))

    def test_empty_cells_are_null(self):
        table = table_from_csv("t", "a,b\n1,\n,2\n")
        rows = list(table.rows())
        assert rows[0]["b"] is None and rows[1]["a"] is None

    def test_validation_errors(self):
        with pytest.raises(SchemaError):
            table_from_csv("t", "")
        with pytest.raises(SchemaError):
            table_from_csv("t", "a,b\n1\n")
        with pytest.raises(SchemaError):
            table_from_csv("t", "ghost\n1\n", schema=self.schema())

    def test_duplicate_keys_rejected_via_schema(self):
        from repro.relational import TableError

        with pytest.raises(TableError):
            table_from_csv("t", "id,name,ok\n1,a,true\n1,b,false\n",
                           schema=self.schema())

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=999),
                  st.text(alphabet="abc,\"\n x", max_size=6)),
        max_size=8, unique_by=lambda t: t[0],
    ))
    def test_roundtrip_property(self, rows):
        schema = Schema((Column("id", "number"), Column("text", "string")),
                        key="id")
        table = Table("t", schema,
                      [{"id": i, "text": s} for i, s in rows])
        again = table_from_csv("t", table_to_csv(table), schema=schema)
        # CSV cannot distinguish '' from NULL; both load back as None.
        expected = [
            {"id": r["id"], "text": r["text"] if r["text"] != "" else None}
            for r in table.rows()
        ]
        assert list(again.rows()) == expected
