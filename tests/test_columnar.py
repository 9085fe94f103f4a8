"""Property tests for the columnar matchmaking plane.

The columnar engine answers queries with bitset posting-list
intersections, vectorized interval sweeps and compiled residual
checkers.  It must be *invisible* in the results:

* compiled per-domain overlap checkers agree with ``overlaps_domains``
  and compiled constraint checkers with ``Constraint.overlaps``
  (hypothesis, including open and infinite endpoints);
* the grid under an interval column's sweep is a conservative filter
  and nothing more: with it or without it ``overlap_mask`` is the
  brute-force overlap test, across builds, rebuilds and id reuse;
* randomized communities rank identically on the plane and under the
  scan and Datalog oracles — with constraint pools exercising open/unbounded
  intervals, point queries that empty the posting sets, and both the
  simple-interval-array and grouped-checker regimes;
* ``query_batch`` equals per-query answers, cached and uncached.
"""

import random
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from repro.constraints import (
    Complement,
    Constraint,
    DiscreteSet,
    Interval,
    IntervalSet,
    compile_constraint_checker,
    compile_overlap_checker,
    parse_constraint,
    simple_numeric_interval,
)
from repro.constraints.compile import intervals_overlap
from repro.constraints.domains import overlaps_domains
from repro.core import (
    BrokerQuery,
    BrokerRepository,
    MatchContext,
    match_advertisements,
)
from repro.core import columnar
from repro.core.columnar import ColumnarPlane, _SlotColumn
from tests.test_matchmaking_equivalence import (
    ONTOLOGY_NAMES,
    assert_agrees_with_oracles,
    random_ad,
    random_ontology,
    random_query,
    ranked,
)

# ----------------------------------------------------------------------
# compiled checkers vs. the reference algebra (hypothesis)
# ----------------------------------------------------------------------

values = st.integers(min_value=-20, max_value=20)


@st.composite
def intervals(draw, values=values):
    lo = draw(st.one_of(st.none(), values))
    hi = draw(st.one_of(st.none(), values))
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    lo_open = draw(st.booleans()) if lo is not None else False
    hi_open = draw(st.booleans()) if hi is not None else False
    if lo is not None and lo == hi:
        lo_open = hi_open = False
    return Interval(lo, hi, lo_open, hi_open)


@st.composite
def domains(draw):
    kind = draw(st.sampled_from(["interval", "discrete", "complement"]))
    if kind == "interval":
        return IntervalSet(draw(st.lists(intervals(), max_size=3)))
    members = frozenset(draw(st.lists(values, max_size=4)))
    return DiscreteSet(members) if kind == "discrete" else Complement(members)


@given(domains(), domains())
def test_compiled_overlap_checker_agrees(ad_domain, query_domain):
    checker = compile_overlap_checker(ad_domain)
    assert checker(query_domain) == overlaps_domains(ad_domain, query_domain)


@given(st.lists(st.tuples(st.sampled_from(["age", "cost", "days"]), domains()),
                max_size=3),
       st.lists(st.tuples(st.sampled_from(["age", "cost", "days"]), domains()),
                max_size=3))
def test_compiled_constraint_checker_agrees(ad_slots, query_slots):
    ad = Constraint(dict(ad_slots))
    query = Constraint(dict(query_slots))
    assert compile_constraint_checker(ad)(query) == ad.overlaps(query)


@given(domains())
def test_simple_numeric_interval_is_faithful(domain):
    """Whenever a domain compiles to a (lo, hi, open, open) quadruple,
    membership of the quadruple must equal membership of the domain."""
    simple = simple_numeric_interval(domain)
    if simple is None:
        return
    lo, hi, lo_open, hi_open = simple
    for probe in range(-25, 26):
        inside = not (
            probe < lo or probe > hi
            or (lo_open and probe == lo)
            or (hi_open and probe == hi)
        )
        assert inside == domain.contains(probe)


# ----------------------------------------------------------------------
# the grid under the interval sweep
# ----------------------------------------------------------------------

#: Every integer up to 2**53 is a float and above it only the even ones
#: are: an interval ending on an odd one is not array-resident (it keeps
#: its compiled checker), its neighbours are.
wide_values = st.one_of(values, st.sampled_from(
    [2 ** 53, 2 ** 53 + 1, 2 ** 53 + 2, 2 ** 53 + 3, -(2 ** 53) - 1]))
one_interval = intervals(wide_values).map(lambda iv: IntervalSet([iv]))
column_steps = st.lists(st.one_of(
    st.tuples(st.just("add"), one_interval),
    st.tuples(st.just("add"), one_interval),  # twice: the column must grow
    st.tuples(st.just("remove"), st.integers(min_value=0)),
    st.tuples(st.just("sweep"), one_interval, st.integers(min_value=0)),
), min_size=20, max_size=80)


def brute_force_overlap(ads, query_domain, live):
    """Bits of *live* whose domain in *ads* (id -> domain) overlaps."""
    query_simple = simple_numeric_interval(query_domain)
    passing = 0
    for ad_id, domain in ads.items():
        simple = simple_numeric_interval(domain)
        if simple is not None and query_simple is not None:
            overlaps = intervals_overlap(simple, query_simple)
        else:
            overlaps = overlaps_domains(domain, query_domain)
        if overlaps:
            passing |= 1 << ad_id
    return passing & live


@given(column_steps)
def test_grid_is_a_conservative_filter_and_nothing_more(steps):
    """Two columns fed alike, one allowed a grid from its second simple
    ad on (so it is built, outgrown, dropped and rebuilt within a few
    steps) and one never: both sweep to the brute-force answer."""
    gridded, plain = _SlotColumn(), _SlotColumn()
    ads, free, issued = {}, [], 0
    for step in steps:
        if step[0] == "add":
            if free:
                ad_id = free.pop()  # the plane reuses ids the same way
            else:
                ad_id, issued = issued, issued + 1
            ads[ad_id] = step[1]
            for column in (gridded, plain):
                column.add(ad_id, 1 << ad_id, step[1])
        elif step[0] == "remove":
            if ads:
                ad_id = sorted(ads)[step[1] % len(ads)]
                domain = ads.pop(ad_id)
                free.append(ad_id)
                for column in (gridded, plain):
                    column.remove(ad_id, 1 << ad_id, ~(1 << ad_id), domain)
        else:
            _, query_domain, subset = step
            everyone = sum(1 << ad_id for ad_id in ads)
            for live in (everyone, everyone & subset):
                expected = brute_force_overlap(ads, query_domain, live)
                with patch.object(columnar, "_GRID_MIN_ADS", 2):
                    assert gridded.overlap_mask(query_domain, live) == expected
                assert plain.overlap_mask(query_domain, live) == expected
    assert plain.grid_edges is None
    assert gridded.simple_count == plain.simple_count == sum(
        simple_numeric_interval(domain) is not None for domain in ads.values())


def test_grid_build_and_rebuild_rule():
    """Built by the first sweep over >= 256 simple ads, maintained in
    place by add / remove, dropped once the population has doubled and
    rebuilt by the next sweep — and through all of it the sweep equals
    the brute force while the cells keep most ads from being unpacked."""
    rng = random.Random(5)
    column = _SlotColumn()
    ads = {}

    def add(ad_id):
        lo = None if rng.random() < 0.05 else rng.randrange(1_000)
        hi = None if rng.random() < 0.05 else (lo or 0) + rng.randrange(80)
        ads[ad_id] = IntervalSet([Interval(lo, hi)])
        column.add(ad_id, 1 << ad_id, ads[ad_id])

    def remove(ad_id):
        column.remove(ad_id, 1 << ad_id, ~(1 << ad_id), ads.pop(ad_id))

    def sweep():
        everyone = sum(1 << ad_id for ad_id in ads)
        for lo in (-5, 0, 333, 500, 999, 1_100):
            for domain in (IntervalSet([Interval(lo, lo + 5)]),
                           IntervalSet([Interval(lo, None, lo_open=True)]),
                           IntervalSet([Interval(None, lo)])):
                assert column.overlap_mask(domain, everyone) == (
                    brute_force_overlap(ads, domain, everyone))

    for ad_id in range(255):
        add(ad_id)
    sweep()
    assert column.grid_edges is None  # too few ads to be worth a grid
    add(255)
    assert column.grid_edges is None  # built by a sweep, not by a write
    sweep()
    assert column.grid_built_at == 256
    assert 1 < len(column.grid_cells) <= 64
    assert column.grid_edges == sorted(set(column.grid_edges))
    reach = 0
    for j in column._cell_span(500.0, 505.0):
        reach |= column.grid_cells[j]
    assert reach.bit_count() < column.simple_count // 3

    edges = column.grid_edges
    for ad_id in range(256, 512):
        add(ad_id)
    assert column.grid_edges is edges  # maintained in place up to 2x
    sweep()
    for ad_id in range(0, 512, 5):
        remove(ad_id)
    sweep()
    for ad_id in range(0, 512, 5):  # the freed ids come back, elsewhere
        add(ad_id)
    sweep()
    assert column.grid_edges is edges and column.simple_count == 512
    add(512)
    assert column.grid_edges is None  # doubled since the build: dropped
    sweep()
    assert column.grid_built_at == 513


# ----------------------------------------------------------------------
# ranked equivalence on randomized communities
# ----------------------------------------------------------------------

# Endpoint-heavy constraints: open, half-open and unbounded intervals,
# exact points, and string domains that force the grouped-checker path.
EDGE_CONSTRAINTS = [
    "",
    "age > 40",
    "age >= 40",
    "age < 40",
    "age <= 40",
    "age = 40",
    "age between 40 and 40",
    "cost > 100 and cost < 200",
    "cost >= 100 and cost <= 100",
    "days != 7",
    "code in ('40W', '41X', '42Y')",
    "city != 'Dallas'",
    "city = 'Austin'",
]


def edge_ad(rng, name, ontologies):
    from tests.test_core_matcher import make_ad

    ad = random_ad(rng, name, ontologies)
    constraint = rng.choice(EDGE_CONSTRAINTS)
    return make_ad(
        name,
        agent_type=ad.description.location.agent_type,
        content_languages=ad.description.syntax.content_languages,
        conversations=ad.description.capabilities.conversations,
        functions=ad.description.capabilities.functions,
        ontology=ad.description.content.ontology_name,
        classes=ad.description.content.classes,
        slots=ad.description.content.slots,
        constraints=constraint,
        mobile=ad.description.properties.mobile,
        response_time=ad.description.properties.estimated_response_time,
    )


def edge_query(rng, ontologies):
    query = random_query(rng, ontologies)
    return BrokerQuery(
        agent_type=query.agent_type,
        content_language=query.content_language,
        conversations=query.conversations,
        capabilities=query.capabilities,
        ontology_name=query.ontology_name,
        classes=query.classes,
        slots=query.slots,
        constraints=parse_constraint(rng.choice(EDGE_CONSTRAINTS)),
        max_response_time=query.max_response_time,
        require_mobile=query.require_mobile,
        allow_partial_slots=query.allow_partial_slots,
    )


@pytest.mark.parametrize("seed", [1, 5, 91, 404])
def test_columnar_ranked_identical_on_edge_communities(seed):
    rng = random.Random(seed)
    ontologies = {name: random_ontology(rng, name) for name in ONTOLOGY_NAMES}
    context = MatchContext(
        ontologies={name: pair[0] for name, pair in ontologies.items()}
    )
    columnar = BrokerRepository(context)

    ads = [edge_ad(rng, f"agent-{i}", ontologies) for i in range(24)]
    for ad in ads:
        columnar.advertise(ad)

    queries = [edge_query(rng, ontologies) for _ in range(14)]
    for query in queries + queries[:7]:
        assert_agrees_with_oracles(columnar, query)

    for ad in ads[::2]:
        assert columnar.unadvertise(ad.agent_name)
    for query in queries:
        assert_agrees_with_oracles(columnar, query)


def test_columnar_empty_posting_dimensions():
    """Queries over values nothing advertises must empty out cleanly at
    the posting stage — unknown ontology, capability, conversation,
    language, class — and an empty repository answers everything with
    nothing."""
    from tests.test_core_matcher import make_ad

    context = MatchContext()
    repo = BrokerRepository(context)
    assert repo.query(BrokerQuery()) == []

    repo.advertise(make_ad("a1"))  # healthcare, classes=("patient",)
    for query in (
        BrokerQuery(ontology_name="no-such-ontology"),
        BrokerQuery(capabilities=("no-such-capability",)),
        BrokerQuery(conversations=("no-such-conversation",)),
        BrokerQuery(content_language="no-such-language"),
        BrokerQuery(agent_type="no-such-type"),
        BrokerQuery(ontology_name="healthcare", classes=("no-such-class",)),
    ):
        assert repo.query(query) == []
    assert [m.agent_name for m in repo.query(BrokerQuery())] == ["a1"]

    # An ad advertising *no* classes passes class requirements
    # vacuously — it must survive the posting intersection.
    repo.advertise(make_ad("a2", classes=()))
    matches = repo.query(
        BrokerQuery(ontology_name="healthcare", classes=("no-such-class",))
    )
    assert [m.agent_name for m in matches] == ["a2"]


@pytest.mark.parametrize("cache", [0, 64])
def test_match_batch_equals_per_query(cache):
    rng = random.Random(77)
    ontologies = {name: random_ontology(rng, name) for name in ONTOLOGY_NAMES}
    context = MatchContext(
        ontologies={name: pair[0] for name, pair in ontologies.items()}
    )
    batched = BrokerRepository(context, match_cache_size=cache)
    ads = [edge_ad(rng, f"agent-{i}", ontologies) for i in range(20)]
    for ad in ads:
        batched.advertise(ad)
    queries = [edge_query(rng, ontologies) for _ in range(9)]
    # Duplicates inside one batch share a posting prefix (and, with the
    # cache on, a cached answer).
    batch = queries + queries[:4]
    answers = batched.query_batch(batch)
    assert len(answers) == len(batch)
    for query, matches in zip(batch, answers):
        assert ranked(matches) == ranked(
            match_advertisements(query, ads, context))


def test_plane_posting_prefix_sharing():
    """Two queries differing only in their constraint tail share one
    posting intersection inside match_batch."""
    rng = random.Random(5)
    ontologies = {name: random_ontology(rng, name) for name in ONTOLOGY_NAMES}
    context = MatchContext(
        ontologies={name: pair[0] for name, pair in ontologies.items()}
    )
    ads = [edge_ad(rng, f"agent-{i}", ontologies) for i in range(12)]
    plane = ColumnarPlane({ad.agent_name: ad for ad in ads}.get)
    for ad in ads:
        plane.add(ad)
    q1 = BrokerQuery(ontology_name="healthcare",
                     constraints=parse_constraint("age > 10"))
    q2 = BrokerQuery(ontology_name="healthcare",
                     constraints=parse_constraint("age < 5"))
    assert q1.posting_prefix() == q2.posting_prefix()
    assert q1.fingerprint() != q2.fingerprint()
    batched = plane.match_batch([q1, q2], context)
    for query, (matches, _candidates) in zip((q1, q2), batched):
        solo, _ = plane.match(query, context)
        assert ranked(matches) == ranked(solo)
