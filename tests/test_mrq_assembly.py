"""The MRQ answer assembly against its row-at-a-time reference (ISSUE 15).

``reference_assemble`` is the pipeline the agent used before the
assembly became a single pass — one typed table per reply, ``union_all``
within a shape, ``_rekey`` + ``join_on_key`` across shapes, every stage
re-inserting every row through the public ``Table.insert`` — kept here
as the oracle.  The Hypothesis property requires the agent to return the
same columns and the same rows in the same order wherever the reference
returns at all; the cases below it pin the two bugs the reference had
(an all-NULL reply column deciding the type for its siblings, and an
ill-typed reply aborting the whole handler).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import (
    AgentConfig,
    BrokerAgent,
    MessageBus,
    MultiResourceQueryAgent,
    ResourceAgent,
    UserAgent,
)
from repro.agents.base import HandlerResult
from repro.agents.mrq import (
    MrqResilienceConfig,
    _Execution,
    _Fragment,
    _FragmentRun,
    _load_shapes,
)
from repro.constraints import parse_constraint
from repro.core.matcher import MatchContext
from repro.kqml import KqmlMessage, Performative
from repro.ontology import demo_ontology
from repro.ontology.model import OntClass, Ontology, Slot
from repro.relational import Column, Schema, SchemaError, Table, TableError
from repro.relational.generate import generate_table
from repro.sql import parse_select
from repro.sql.executor import QueryResult, evaluate_predicate


# ----------------------------------------------------------------------
# the reference: the row-at-a-time pipeline, on public Table.insert only
# ----------------------------------------------------------------------
def _table_from_result(name, query_result):
    columns = []
    for column in query_result.columns:
        col_type = "string"
        for row in query_result.rows:
            value = row.get(column)
            if value is None:
                continue
            if isinstance(value, bool):
                col_type = "bool"
            elif isinstance(value, (int, float)):
                col_type = "number"
            break
        columns.append(Column(column, col_type))
    table = Table(name, Schema(tuple(columns)))
    for row in query_result.rows:
        table.insert(row)
    return table


def _union_all(tables, name="union"):
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
        for row in table.rows():
            result.insert({col: row[col] for col in shared})
    return result


def _rekey(table, key):
    rekeyed = Table(table.name, Schema(table.schema.columns, key=key))
    seen = set()
    for row in table.rows():
        value = row.get(key)
        if value in seen or value is None:
            continue
        seen.add(value)
        rekeyed.insert(row)
    return rekeyed


def _join_on_key(fragments):
    key = fragments[0].schema.key
    columns = []
    seen = set()
    for fragment in fragments:
        for col in fragment.schema.columns:
            if col.name not in seen:
                columns.append(col)
                seen.add(col.name)
    merged = {}
    order = []
    for fragment in fragments:
        for row in fragment.rows():
            key_value = row[key]
            if key_value not in merged:
                merged[key_value] = {c.name: None for c in columns}
                order.append(key_value)
            merged[key_value].update(row)
    result = Table("join", Schema(tuple(columns), key=key))
    for key_value in order:
        result.insert(merged[key_value])
    return result


def reference_assemble(results, select, key, pushed_down):
    """(columns, rows) the old ``_assemble_answer`` put in its reply."""
    groups = {}
    for index, (_resource, query_result) in enumerate(results):
        table = _table_from_result(f"r{index}", query_result)
        groups.setdefault(frozenset(query_result.columns), []).append(table)
    shapes = [_union_all(tables, name=f"shape{i}")
              for i, tables in enumerate(groups.values())]
    if len(shapes) == 1:
        assembled = shapes[0]
    elif key is not None and all(key in t.schema for t in shapes):
        assembled = _join_on_key([_rekey(t, key) for t in shapes])
    else:
        assembled = _union_all(shapes, name="assembled")

    rows = list(assembled.rows())
    if select.where is not None and not all(pushed_down.values()):
        rows = [row for row in rows if evaluate_predicate(select.where, row)]
    columns = (list(select.columns) if select.columns
               else assembled.schema.column_names())
    order = select.order_by
    if order is not None and order.column in assembled.schema:
        rows.sort(key=lambda r: (r[order.column] is None, r[order.column]),
                  reverse=order.descending)
    if select.limit is not None:
        rows = rows[: select.limit]
    return tuple(columns), tuple(
        {name: row.get(name) for name in columns} for row in rows)


# ----------------------------------------------------------------------
# driving the agent's assembly without a community
# ----------------------------------------------------------------------
ONTOLOGY = Ontology("t", [OntClass("C", (
    Slot("id", "number"), Slot("a", "number"), Slot("b", "string"),
    Slot("c", "number")), key="id")])


def agent_assemble(results, sql, pushed_down):
    """The reply the MRQ agent sends once *results* are all in."""
    bus = MessageBus()
    mrq = MultiResourceQueryAgent("mrq", "t", ontology=ONTOLOGY)
    bus.register(mrq)
    runs = [
        _FragmentRun(
            fragment=_Fragment(f"C[{name}]", sql, [name],
                               pushed_down.get(name, True)),
            tried=[name], winner=name, answer=reply)
        for name, reply in results
    ]
    execution = _Execution(
        original=KqmlMessage(Performative.ASK_ALL, sender="user",
                             receiver="mrq", content=sql),
        select=parse_select(sql), ontology=ONTOLOGY, brokers_tried=(),
        exec_id=1, runs=runs, answered=list(runs),
    )
    mrq._executions[execution.exec_id] = execution
    outcome = HandlerResult()
    mrq._maybe_assemble(execution, outcome)
    (reply, _size), = outcome.outbox
    return reply


def reply_of(columns, rows):
    return QueryResult(columns=tuple(columns), rows=tuple(rows),
                       rows_scanned=len(rows))


# ----------------------------------------------------------------------
# the differential property
# ----------------------------------------------------------------------
# Values are drawn from short lists so the weights are explicit: NULLs and
# colliding keys are common, a value of the wrong type (which makes the
# reference raise, leaving nothing to compare) is rare.
VALUES = {
    "id": st.sampled_from([None, 0, 1, 1, 2, 3, 4, 5, 6]),
    "a": st.sampled_from([None, -2, 0, 1, 2, 3, 0.5, 2.0]),
    "b": st.sampled_from([None, "x", "x", "y", ""]),
    "c": st.sampled_from([None, *range(10), *range(10), "nine", True]),
}
COLUMNS = sorted(VALUES)
SHAPES = st.sets(st.sampled_from(COLUMNS), min_size=1).map(sorted)


@st.composite
def reply_sets(draw):
    """One to three shapes, one to three replies each, interleaved; in
    half the sets every shape holds the key, so they join."""
    shapes = draw(st.lists(SHAPES, min_size=1, max_size=3))
    if draw(st.booleans()):
        shapes = [sorted({"id", *shape}) for shape in shapes]
    replies = []
    for shape in {tuple(shape) for shape in shapes}:
        for _ in range(draw(st.integers(1, 3))):
            columns = draw(st.permutations(shape))
            rows = draw(st.lists(
                st.fixed_dictionaries({name: VALUES[name] for name in columns}),
                min_size=draw(st.sampled_from([0, 1, 2, 3])), max_size=5))
            replies.append(reply_of(columns, rows))
    replies = draw(st.permutations(replies))
    return [(f"r{index}", reply) for index, reply in enumerate(replies)]


@st.composite
def queries(draw):
    columns = draw(st.one_of(
        st.just("*"),
        st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3,
                 unique=True).map(", ".join)))
    where = draw(st.sampled_from([
        "", "", " where a > 0", " where id <> 2", " where c >= 3 or b = 'x'",
        " where a between 0 and 2 or id in (1, 3)"]))
    order = draw(st.sampled_from([
        "", " order by id", " order by a desc", " order by b", " order by c desc"]))
    limit = draw(st.sampled_from(["", "", " limit 0", " limit 2", " limit 7"]))
    return f"select {columns} from C{where}{order}{limit}"


@settings(max_examples=300, deadline=None)
@given(results=reply_sets(), sql=queries(), data=st.data())
def test_assembly_matches_the_row_at_a_time_reference(results, sql, data):
    pushed_down = {
        name: data.draw(st.booleans(), label=f"pushed[{name}]")
        for name, _ in results
    }
    try:
        columns, rows = reference_assemble(
            results, parse_select(sql), "id", pushed_down)
    except (SchemaError, TableError, TypeError):
        return  # the reference has no answer to compare against
    reply = agent_assemble(results, sql, pushed_down)
    assert reply.performative is Performative.TELL
    assert reply.extra("partial") is None
    assert reply.content.columns == columns
    assert reply.content.rows == rows  # same rows, same order, same key order
    assert [list(row) for row in reply.content.rows] == [list(columns)] * len(rows)


# ----------------------------------------------------------------------
# bug 1: an all-NULL reply column must not decide the type for its siblings
# ----------------------------------------------------------------------
ALL_NULL = reply_of(("id", "c"), [{"id": 1, "c": None}])
NUMBERS = reply_of(("id", "c"), [{"id": 2, "c": 7}])


def test_all_null_reply_column_in_either_order():
    for first, second in ((ALL_NULL, NUMBERS), (NUMBERS, ALL_NULL)):
        results = [("r1", first), ("r2", second)]
        (shape,), rejected = _load_shapes(results)
        assert not rejected
        assert shape.schema.column("c").col_type == "number"
        assert shape.row_count == 2

        reply = agent_assemble(results, "select * from C order by id", {})
        assert reply.performative is Performative.TELL
        assert reply.extra("partial") is None
        assert reply.content.rows == ({"id": 1, "c": None}, {"id": 2, "c": 7})


def test_reference_crashed_on_the_all_null_first_order():
    # What made the bug order-dependent, recorded against the oracle.
    select = parse_select("select * from C")
    try:
        reference_assemble([("r1", ALL_NULL), ("r2", NUMBERS)], select, "id", {})
    except SchemaError as error:
        assert "rejects 7" in str(error)
    else:
        raise AssertionError("the reference no longer reproduces the bug")
    columns, rows = reference_assemble(
        [("r1", NUMBERS), ("r2", ALL_NULL)], select, "id", {})
    assert len(rows) == 2


# ----------------------------------------------------------------------
# bug 2: an ill-typed reply is that provider's failure, not the community's
# ----------------------------------------------------------------------
def build_community(resilience=None):
    """One broker, class C1 split by key range over r1 (well typed) and
    r2, whose ``c1_s1`` column holds strings where r1 sends numbers."""
    onto = demo_ontology(1)
    bus = MessageBus()
    bus.register(BrokerAgent(
        "broker1", context=MatchContext(ontologies={"demo": onto})))
    good = generate_table(onto, "C1", 8, seed=3)
    columns = tuple(
        Column(col.name, "string") if col.name == "c1_s1" else col
        for col in good.schema.columns)
    bad = Table("C1", Schema(columns, key=good.schema.key), [
        dict(row, c1_id=row["c1_id"] + 100, c1_s1="n/a") for row in good.rows()])
    cfg = AgentConfig(preferred_brokers=("broker1",), redundancy=1)
    for name, table, low in (("r1", good, 0), ("r2", bad, 100)):
        bus.register(ResourceAgent(
            name, {"C1": table}, "demo", config=cfg,
            constraints=parse_constraint(f"c1_id between {low} and {low + 99}")))
    bus.register(MultiResourceQueryAgent(
        "mrq", "demo", ontology=onto, config=cfg, resilience=resilience))
    user = UserAgent("alice", config=cfg)
    bus.register(user)
    bus.run_until(300.0)  # let everyone advertise
    return bus, user


def check_one_provider_rejected(done):
    assert done.succeeded, done.error
    assert not done.complete
    assert done.result.row_count == 8  # one provider's extent, whole
    detail = done.partial_detail
    assert detail["class"] == "C1"
    (failed,) = detail["failed"]
    assert failed["reason"] == "sorry:schema"
    survivor = {"r1": "r2", "r2": "r1"}[failed["provider"]]
    kinds = {type(row["c1_s1"]) for row in done.result.rows}
    assert kinds == ({int} if survivor == "r1" else {str})
    return failed


def test_ill_typed_reply_ships_an_honest_partial():
    bus, user = build_community()
    user.submit("select * from C1")
    bus.run()  # used to raise SchemaError out of the bus
    failed = check_one_provider_rejected(user.completed[0])
    assert user.completed[0].partial == "missing:" + failed["provider"]


def test_ill_typed_reply_under_resilient_execution():
    bus, user = build_community(resilience=MrqResilienceConfig())
    user.submit("select * from C1")
    bus.run()
    done = user.completed[0]
    failed = check_one_provider_rejected(done)
    assert done.partial == "missing:" + failed["fragment"]
    assert failed["fragment"] in done.partial_detail["missing-fragments"]


def test_every_reply_ill_typed_is_a_sorry_with_detail():
    mixed = reply_of(("id", "c"), [{"id": 1, "c": 7}, {"id": 2, "c": "x"}])
    reply = agent_assemble([("r1", mixed)], "select * from C", {})
    assert reply.performative is Performative.SORRY
    (failed,) = reply.extra("partial-detail")["failed"]
    assert failed == {"provider": "r1", "fragment": "C[r1]",
                      "reason": "sorry:schema"}
