"""Property test: every matchmaking backend agrees on every community.

Seeded-random agent communities — subclass hierarchies, capability
trees, data constraints, slot fragments — are matched three ways:

* the scan: the direct matcher over every stored advertisement, no
  cache (the reference),
* the plane: the in-place maintained columnar engine behind the match
  cache (the default),
* the persistent incremental Datalog backend (the declarative oracle).

All three must return the *same agents in the same ranked order* for
every query, through churn.  This pins down the soundness claim: the
cache, the LDL program and the vectorized columnar passes are pure
work-savers, invisible in the results.
"""

import random

import pytest

from repro.constraints import parse_constraint
from repro.core import BrokerQuery, BrokerRepository, MatchContext
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


@pytest.mark.parametrize("seed", [7, 23, 1999])
def test_backends_agree_on_random_communities(seed):
    rng = random.Random(seed)
    ontologies = {name: random_ontology(rng, name) for name in ONTOLOGY_NAMES}
    context = MatchContext(
        ontologies={name: pair[0] for name, pair in ontologies.items()}
    )

    scan = BrokerRepository(context, engine="direct", match_cache_size=0)
    plane = BrokerRepository(context)
    datalog = BrokerRepository(context, engine="datalog")
    repos = (scan, plane, datalog)

    ads = [random_ad(rng, f"agent-{i}", ontologies) for i in range(18)]
    for ad in ads:
        for repo in repos:
            repo.advertise(ad)

    queries = [random_query(rng, ontologies) for _ in range(10)]
    # Interleave repeats so the plane repo serves some from cache and
    # the datalog repo reuses compiled query rules.
    for query in queries + queries[: len(queries) // 2]:
        expected = ranked(scan.query(query))
        assert ranked(plane.query(query)) == expected
        assert ranked(datalog.query(query)) == expected

    # Churn: drop a third of the community, backends must stay aligned.
    for ad in ads[::3]:
        for repo in repos:
            assert repo.unadvertise(ad.agent_name)
    for query in queries:
        expected = ranked(scan.query(query))
        assert ranked(plane.query(query)) == expected
        assert ranked(datalog.query(query)) == expected


def verdict_map(trail):
    return {
        verdict.agent: (verdict.accepted, verdict.reason, verdict.detail)
        for verdict in trail.verdicts
    }


@pytest.mark.parametrize("seed", [11, 401, 7321])
def test_backends_agree_on_explanations(seed):
    """With explain enabled, every backend issues exactly one verdict
    per advertisement per query, and all three agree on accept/reject,
    the reject reason, and its detail.  The columnar backend routes
    explain-mode queries through the canonical scan (labelled
    ``columnar``) so its verdicts carry the same reasons."""
    from repro.obs.explain import ExplainSink

    rng = random.Random(seed)
    ontologies = {name: random_ontology(rng, name) for name in ONTOLOGY_NAMES}
    context = MatchContext(
        ontologies={name: pair[0] for name, pair in ontologies.items()}
    )
    backends = {
        "scan": BrokerRepository(context, engine="direct", match_cache_size=0),
        "columnar": BrokerRepository(context),
        "datalog": BrokerRepository(context, engine="datalog"),
    }

    ads = [random_ad(rng, f"agent-{i}", ontologies) for i in range(15)]
    for ad in ads:
        for repo in backends.values():
            repo.advertise(ad)
    expected_agents = sorted(ad.agent_name for ad in ads)

    queries = [random_query(rng, ontologies) for _ in range(8)]
    # The repeats hit the datalog backend's already-compiled rules and
    # force the columnar backend to bypass a warm match cache.
    for query in queries + queries[: len(queries) // 2]:
        trails = {}
        for label, repo in backends.items():
            sink = ExplainSink()
            context.explain_sink = sink
            try:
                matches = repo.query(query)
            finally:
                context.explain_sink = None
            assert len(sink.queries) == 1
            trail = sink.queries[0]
            assert trail.backend == label
            # exactly one verdict per stored advertisement
            assert sorted(v.agent for v in trail.verdicts) == expected_agents
            # the trail's accepts are the query's matches
            assert sorted(v.agent for v in trail.accepted()) == sorted(
                m.agent_name for m in matches
            )
            trails[label] = trail
        reference = verdict_map(trails["scan"])
        assert verdict_map(trails["datalog"]) == reference
        assert verdict_map(trails["columnar"]) == reference


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
    for engine in ("direct", "columnar", "datalog"):
        for advertised, asked, expected in cases:
            repo = BrokerRepository(engine=engine)
            repo.advertise(make_ad("big", constraints=advertised))
            query = BrokerQuery(constraints=parse_constraint(asked))
            assert [m.agent_name for m in repo.query(query)] == expected, (
                engine, advertised, asked)
