"""Tests for bus message tracing and the MRQ agent's pure helpers."""

import pytest

from repro.agents import AgentConfig, BrokerAgent, CostModel, MessageBus, ResourceAgent
from repro.agents.bus import TraceEntry, format_message_trace
from repro.agents.mrq import MultiResourceQueryAgent, _load_shapes
from repro.core.advertisement import Advertisement
from repro.core.matcher import Match
from repro.ontology import demo_ontology
from repro.ontology.service import (
    AgentLocation,
    ContentInfo,
    ServiceDescription,
    SyntacticInfo,
)
from repro.relational import keyed_on
from repro.relational.generate import generate_table
from repro.sql.executor import QueryResult
from repro.sql.parser import parse_select


class TestBusTracing:
    def test_trace_off_by_default(self):
        bus = MessageBus(CostModel())
        assert bus.trace is None

    def test_trace_records_deliveries(self):
        bus = MessageBus(CostModel(latency_seconds=0.001,
                                   base_handling_seconds=0.0001,
                                   bandwidth_bytes_per_second=1e9))
        bus.trace = []
        bus.register(BrokerAgent("b1"))
        bus.register(ResourceAgent(
            "R1", {"C1": generate_table(demo_ontology(1), "C1", 2, seed=1)},
            "demo",
            config=AgentConfig(preferred_brokers=("b1",), redundancy=1,
                               advertisement_size_mb=0.01),
        ))
        bus.run_until(1.0)
        performatives = [e.performative for e in bus.trace]
        assert "advertise" in performatives and "tell" in performatives
        advertise = next(e for e in bus.trace if e.performative == "advertise")
        assert advertise.sender == "R1" and advertise.receiver == "b1"

    def test_format_message_trace(self):
        trace = [TraceEntry(1.25, "a", "b", "ask-all", "'select * from C1'")]
        text = format_message_trace(trace)
        assert "a -> b" in text and "ask-all" in text and "1.250" in text

    def test_format_empty_trace(self):
        assert format_message_trace([]) == "(no messages)"

    def test_long_content_summarized(self):
        bus = MessageBus(CostModel())
        bus.trace = []
        from repro.kqml import KqmlMessage, Performative

        bus.register(BrokerAgent("b1"))
        bus.send(KqmlMessage(Performative.TELL, sender="x", receiver="b1",
                             content="y" * 500), at=0.0)
        bus.run_until(1.0)
        assert len(bus.trace) == 1
        assert len(bus.trace[0].summary) <= 60


def make_match(name, classes=(), slots=(), keys=()):
    description = ServiceDescription(
        location=AgentLocation(name=name, agent_type="resource"),
        syntax=SyntacticInfo(content_languages=("SQL 2.0",)),
        content=ContentInfo(ontology_name="demo", classes=classes, slots=slots,
                            keys=keys),
    )
    return Match(advertisement=Advertisement(description, size_mb=0.01), score=0.0)


class TestMrqRewriting:
    def mrq(self):
        onto = demo_ontology(1, slots_per_class=4)
        return MultiResourceQueryAgent("mrq", "demo", ontology=onto), onto

    def test_passthrough_for_unrestricted_resource(self):
        mrq, onto = self.mrq()
        select = parse_select("select * from C1 where c1_s1 > 5")
        rewritten = mrq._rewrite_for(make_match("r"), select, onto)
        assert rewritten.table == "C1"
        assert rewritten.is_star()
        assert rewritten.where == select.where  # pushed down

    def test_fragment_gets_projected_query(self):
        mrq, onto = self.mrq()
        select = parse_select("select c1_s1, c1_s2 from C1")
        match = make_match("r", classes=("C1",), slots=("c1_id", "c1_s1"),
                           keys=("c1_id",))
        rewritten = mrq._rewrite_for(match, select, onto)
        assert set(rewritten.columns) == {"c1_s1", "c1_id"}  # + key

    def test_where_not_pushed_across_fragments(self):
        mrq, onto = self.mrq()
        select = parse_select("select c1_s1 from C1 where c1_s2 > 3")
        match = make_match("r", classes=("C1",), slots=("c1_id", "c1_s1"),
                           keys=("c1_id",))
        rewritten = mrq._rewrite_for(match, select, onto)
        assert rewritten.where is None  # fragment lacks c1_s2

    def test_where_pushed_when_fragment_covers_it(self):
        mrq, onto = self.mrq()
        select = parse_select("select c1_s1 from C1 where c1_s1 > 3")
        match = make_match("r", classes=("C1",), slots=("c1_id", "c1_s1"),
                           keys=("c1_id",))
        rewritten = mrq._rewrite_for(match, select, onto)
        assert rewritten.where == select.where

    def test_no_usable_columns_skips_resource(self):
        mrq, onto = self.mrq()
        select = parse_select("select c1_s1 from C1")
        match = make_match("r", classes=("C1",), slots=("other_col",))
        assert mrq._rewrite_for(match, select, onto) is None

    def test_subclass_retargeting(self):
        from repro.ontology.demo import hierarchy_ontology

        onto = hierarchy_ontology(depth=2, fanout=2)
        mrq = MultiResourceQueryAgent("mrq", "hierarchy", ontology=onto)
        select = parse_select("select h_id from H")
        match = make_match("r", classes=("H1",))
        rewritten = mrq._rewrite_for(match, select, onto)
        assert rewritten.table == "H1"


class TestMrqTableHelpers:
    def test_table_from_result_infers_types(self):
        result = QueryResult(
            columns=("id", "name", "flag"),
            rows=({"id": 1, "name": "x", "flag": True},
                  {"id": 2, "name": None, "flag": False}),
            rows_scanned=2,
        )
        (table,), rejected = _load_shapes([("r", result)])
        assert not rejected
        assert table.schema.column("id").col_type == "number"
        assert table.schema.column("name").col_type == "string"
        assert table.schema.column("flag").col_type == "bool"
        assert table.row_count == 2

    def test_table_from_result_all_null_column(self):
        result = QueryResult(columns=("v",), rows=({"v": None},), rows_scanned=1)
        (table,), _ = _load_shapes([("r", result)])
        assert table.schema.column("v").col_type == "string"

    def test_rekey_deduplicates(self):
        result = QueryResult(
            columns=("id", "v"),
            rows=({"id": 1, "v": 10}, {"id": 1, "v": 10}, {"id": 2, "v": 20},
                  {"id": None, "v": 99}),
            rows_scanned=4,
        )
        (loaded,), _ = _load_shapes([("r", result)])
        table = keyed_on(loaded, "id")
        assert table.scan() == [{"id": 1, "v": 10}, {"id": 2, "v": 20}]
        assert table.schema.key == "id"
