"""Property test: the repository's engine agrees with its two oracles.

Seeded-random agent communities — subclass hierarchies, capability
trees, data constraints, slot fragments — are put in a default
:class:`BrokerRepository` (the in-place maintained columnar plane
behind the match cache) and every answer is held to two independent
functions over ``repo.agent_ads()``:

* :func:`match_advertisements` — the canonical per-advertisement scan:
  the *same agents in the same ranked order* with the same scores;
* :class:`DatalogMatcher` — the declarative specification: the same
  names, and for every rejected advertisement the same first failing
  reason and detail.

Both must hold for every query, through churn.  This pins down the
soundness claim: the cache and the vectorized columnar passes are pure
work-savers, invisible in the results.
"""

import random

import pytest

from repro.constraints import parse_constraint
from repro.core import (
    BrokerQuery,
    BrokerRepository,
    DatalogMatcher,
    MatchContext,
    match_advertisements,
)
from repro.obs.explain import ExplainSink, QueryExplanation
from repro.ontology import OntClass, Ontology, Slot

ONTOLOGY_NAMES = ["healthcare", "aerospace", "finance"]
CLASS_POOL = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
SLOT_POOL = ["age", "cost", "city", "code", "days"]
FUNCTION_POOL = [
    "query-processing", "relational", "select", "join",
    "multiresource-query-processing", "data-mining", "notification",
]
CONVERSATION_POOL = ["ask-all", "ask-one", "subscribe", "recommend-all"]
LANGUAGE_POOL = ["SQL 2.0", "OQL", "LDL"]
CONSTRAINT_POOL = [
    "",
    "age between 20 and 60",
    "age between 50 and 90",
    "cost < 1000",
    "code in ('40W', '41X')",
    "city != 'Dallas'",
]


def random_ontology(rng, name):
    """A random is-a forest over a shuffled slice of CLASS_POOL."""
    onto = Ontology(name)
    classes = CLASS_POOL[: rng.randint(2, len(CLASS_POOL))]
    rng.shuffle(classes)
    added = []
    for cls in classes:
        parent = rng.choice(added) if added and rng.random() < 0.6 else None
        slots = tuple(
            Slot(slot, "number" if slot in ("age", "cost", "days") else "string")
            for slot in rng.sample(SLOT_POOL, rng.randint(1, 3))
        )
        onto.add_class(OntClass(cls, slots, parent=parent))
        added.append(cls)
    return onto, classes


def random_ad(rng, name, ontologies):
    from tests.test_core_matcher import make_ad

    ontology = rng.choice(ONTOLOGY_NAMES + [""])
    classes = ()
    if ontology and rng.random() < 0.8:
        known = ontologies[ontology][1]
        classes = tuple(rng.sample(known, rng.randint(1, min(2, len(known)))))
    return make_ad(
        name,
        agent_type=rng.choice(["resource", "query", "analysis"]),
        content_languages=tuple(
            rng.sample(LANGUAGE_POOL, rng.randint(1, len(LANGUAGE_POOL)))
        ),
        conversations=tuple(
            rng.sample(CONVERSATION_POOL, rng.randint(1, len(CONVERSATION_POOL)))
        ),
        functions=tuple(rng.sample(FUNCTION_POOL, rng.randint(1, 3))),
        ontology=ontology,
        classes=classes,
        slots=tuple(rng.sample(SLOT_POOL, rng.randint(0, 3))),
        constraints=rng.choice(CONSTRAINT_POOL),
        mobile=rng.random() < 0.2,
        response_time=rng.choice([None, 5.0, 60.0]),
    )


def random_query(rng, ontologies):
    ontology = rng.choice(ONTOLOGY_NAMES + [None])
    classes = ()
    if ontology and rng.random() < 0.7:
        known = ontologies[ontology][1]
        classes = (rng.choice(known),)
    return BrokerQuery(
        agent_type=rng.choice([None, None, "resource", "query"]),
        content_language=rng.choice([None, "SQL 2.0", "OQL"]),
        conversations=tuple(rng.sample(CONVERSATION_POOL, rng.randint(0, 1))),
        capabilities=tuple(rng.sample(FUNCTION_POOL, rng.randint(0, 2))),
        ontology_name=ontology,
        classes=classes,
        slots=tuple(rng.sample(SLOT_POOL, rng.randint(0, 2))),
        constraints=parse_constraint(rng.choice(CONSTRAINT_POOL)),
        max_response_time=rng.choice([None, None, 30.0]),
        require_mobile=rng.choice([None, None, None, False]),
        allow_partial_slots=rng.random() < 0.8,
    )


def ranked(matches):
    return [(m.agent_name, round(m.score, 9), m.matched_slots) for m in matches]


def assert_agrees_with_oracles(repo, query):
    """``repo.query`` equals the scan (ranked) and the Datalog oracle
    (names) over the advertisements the repository holds."""
    ads = repo.agent_ads()
    matches = repo.query(query)
    assert ranked(matches) == ranked(
        match_advertisements(query, ads, repo.context, explain=None))
    assert {m.agent_name for m in matches} == DatalogMatcher(
        repo.context).match_names(query, ads)
    return matches


def random_context(rng):
    ontologies = {name: random_ontology(rng, name) for name in ONTOLOGY_NAMES}
    context = MatchContext(
        ontologies={name: pair[0] for name, pair in ontologies.items()}
    )
    return ontologies, context


@pytest.mark.parametrize("seed", [7, 23, 1999])
def test_backends_agree_on_random_communities(seed):
    rng = random.Random(seed)
    ontologies, context = random_context(rng)
    repo = BrokerRepository(context)

    ads = [random_ad(rng, f"agent-{i}", ontologies) for i in range(18)]
    for ad in ads:
        repo.advertise(ad)

    queries = [random_query(rng, ontologies) for _ in range(10)]
    # Interleave repeats so some answers are served from the match cache.
    for query in queries + queries[: len(queries) // 2]:
        assert_agrees_with_oracles(repo, query)
    assert repo.stats.cache_hits == len(queries) // 2

    # Churn: drop a third of the community, the engine must stay aligned.
    for ad in ads[::3]:
        assert repo.unadvertise(ad.agent_name)
    for query in queries:
        assert_agrees_with_oracles(repo, query)


def explained(repo, query):
    """``(matches, trail)`` of one explain-mode ``repo.query``."""
    sink = ExplainSink()
    repo.context.explain_sink = sink
    try:
        matches = repo.query(query)
    finally:
        repo.context.explain_sink = None
    assert len(sink.queries) == 1
    return matches, sink.queries[0]


def reject_map(trail):
    return {
        verdict.agent: (verdict.reason, verdict.detail)
        for verdict in trail.verdicts if not verdict.accepted
    }


def assert_explanations_agree(repo, query):
    """One verdict per stored advertisement; accepts are the plain
    query's matches; rejects carry the reason and detail the scan and
    the Datalog oracle assign."""
    ads = repo.agent_ads()
    answered = {m.agent_name for m in assert_agrees_with_oracles(repo, query)}
    matches, trail = explained(repo, query)
    assert trail.backend == "columnar"
    assert sorted(v.agent for v in trail.verdicts) == sorted(
        ad.agent_name for ad in ads)
    assert {v.agent for v in trail.accepted()} == answered
    assert {m.agent_name for m in matches} == answered

    scan = ExplainSink()
    match_advertisements(query, ads, repo.context, explain=scan)
    assert reject_map(scan.queries[0]) == reject_map(trail)

    datalog = QueryExplanation(fingerprint=query.fingerprint(), backend="datalog")
    DatalogMatcher(repo.context).explain_rejects(
        query, ads, [ad for ad in ads if ad.agent_name not in answered], datalog)
    assert reject_map(datalog) == reject_map(trail)


@pytest.mark.parametrize("seed", [11, 401, 7321])
def test_backends_agree_on_explanations(seed):
    """With explain enabled the repository issues exactly one verdict
    per advertisement per query — through the canonical scan, bypassing
    the plane and a warm match cache — and the scan function and the
    Datalog oracle agree on accept/reject, the reject reason, and its
    detail, before and after churn."""
    rng = random.Random(seed)
    ontologies, context = random_context(rng)
    repo = BrokerRepository(context)

    ads = [random_ad(rng, f"agent-{i}", ontologies) for i in range(15)]
    for ad in ads:
        repo.advertise(ad)

    queries = [random_query(rng, ontologies) for _ in range(8)]
    for query in queries + queries[: len(queries) // 2]:
        assert_explanations_agree(repo, query)
    for ad in ads[::3]:
        assert repo.unadvertise(ad.agent_name)
    for query in queries:
        assert_explanations_agree(repo, query)


def test_big_integer_endpoints_stay_exact():
    """Above 2**53 a float column would round interval endpoints and
    the plane would answer differently from the scan and Datalog; such
    intervals must take the exact compiled checker instead, on the
    advertised side and on the query side."""
    from tests.test_core_matcher import make_ad

    high = "id between 9007199254740993 and 9007199254740999"
    below = "id between 9007199254740980 and 9007199254740992"
    touching = "id between 9007199254740980 and 9007199254740993"
    cases = [
        (high, below, []),  # float(…993) == float(…992): would "touch"
        (high, touching, ["big"]),
        ("id between 0 and 10", below, []),  # simple ad, inexact query
        ("id > 5", touching, ["big"]),
    ]
    for advertised, asked, expected in cases:
        repo = BrokerRepository()
        repo.advertise(make_ad("big", constraints=advertised))
        query = BrokerQuery(constraints=parse_constraint(asked))
        matches = assert_agrees_with_oracles(repo, query)
        assert [m.agent_name for m in matches] == expected, (advertised, asked)
