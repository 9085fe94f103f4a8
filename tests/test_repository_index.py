"""Tests for the maintained columnar plane and the match cache.

Covers the plane's posting dimensions (ontology, class closure,
capability closure, conversation) against the scan, the
fingerprint-keyed match cache with its write-log validation (a write
invalidates the entries it concerns and no others), and two Hypothesis
stateful models.  One holds in-place maintenance across advertise /
re-advertise / unadvertise / agent-broker flips / crashes: the
maintained plane, a plane freshly built from the store, the scan and
the Datalog oracle over an independently kept model must always agree,
and the id free list must keep the plane no wider than the peak live
population.  The other re-issues *earlier* queries between such writes
(and ontology / capability-hierarchy mutations), so cached lists of
every age are held to the scan.
"""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.constraints import parse_constraint
from repro.core import (
    BrokerQuery,
    BrokerRepository,
    DatalogMatcher,
    MatchContext,
    match_advertisements,
)
from repro.core.columnar import ColumnarPlane
from repro.ontology import OntClass, healthcare_ontology
from tests.test_core_matcher import make_ad
from tests.test_core_infrastructure import broker_ad
from tests.test_matchmaking_equivalence import ranked

ONTOLOGIES = ["healthcare", "aerospace", "finance", ""]


def build_repo(ads, **kwargs):
    """A default (plane-backed) repository over *ads*."""
    context = MatchContext(ontologies={"healthcare": healthcare_ontology()})
    repo = BrokerRepository(context, **kwargs)
    for ad in ads:
        repo.advertise(ad)
    return repo


def scan(repo, query):
    """The reference: the per-advertisement matcher over what *repo* holds."""
    return match_advertisements(query, repo.agent_ads(), repo.context, explain=None)


def sample_ads():
    return [
        make_ad(f"agent{i}", ontology=ONTOLOGIES[i % len(ONTOLOGIES)],
                classes=("patient",) if ONTOLOGIES[i % len(ONTOLOGIES)] == "healthcare" else ())
        for i in range(12)
    ]


def names(matches):
    return [m.agent_name for m in matches]


class TestCandidateIndex:
    def test_same_results_with_and_without_index(self):
        indexed = build_repo(sample_ads())
        query = BrokerQuery(ontology_name="healthcare", classes=("patient",))
        assert names(scan(indexed, query)) == names(indexed.query(query))

    def test_index_reduces_work(self):
        indexed = build_repo(sample_ads())
        indexed.query(BrokerQuery(ontology_name="healthcare"))
        # A scan reasons over every stored advertisement.
        assert indexed.stats.advertisements_reasoned_over < indexed.agent_count
        assert indexed.stats.candidates_pruned > 0

    def test_unrestricted_ads_always_candidates(self):
        indexed = build_repo(sample_ads())
        query = BrokerQuery(ontology_name="finance")
        matched = set(names(indexed.query(query)))
        # agents with ontology "" (content-unrestricted) must appear.
        assert any(
            ad.agent_name in matched for ad in sample_ads()
            if not ad.description.content.ontology_name
        )

    def test_no_indexed_dimension_scans_everything(self):
        indexed = build_repo(sample_ads())
        indexed.query(BrokerQuery())
        assert indexed.stats.advertisements_reasoned_over == 12
        assert indexed.stats.candidates_pruned == 0

    def test_class_index_expands_subclass_closure(self):
        # A query over the superclass must reach subclass advertisers
        # and vice versa (is-a both ways), while unrelated classes prune.
        onto = healthcare_ontology()
        roots = onto.roots()
        parent = roots[0]
        children = onto.descendants(parent)
        ads = [make_ad("up", classes=(parent,)),
               make_ad("down", classes=(children[0],)) if children else None,
               make_ad("none", classes=())]
        ads = [ad for ad in ads if ad is not None]
        indexed = build_repo(ads)
        for requested in [parent] + children[:1]:
            query = BrokerQuery(ontology_name="healthcare", classes=(requested,))
            assert names(scan(indexed, query)) == names(indexed.query(query))

    def test_capability_index_expands_cover_closure(self):
        ads = [
            make_ad("general", functions=("query-processing",)),
            make_ad("special", functions=("select",)),
            make_ad("other", functions=("data-mining",)),
        ]
        indexed = build_repo(ads)
        # "select" is served by the exact advertiser and by the
        # query-processing generalist, not by the data miner.
        query = BrokerQuery(capabilities=("select",))
        assert set(names(indexed.query(query))) == {"general", "special"}
        assert names(scan(indexed, query)) == names(indexed.query(query))
        # An agent advertising only a *descendant* does not cover the
        # more general request.
        general = BrokerQuery(capabilities=("relational",))
        assert "special" not in names(indexed.query(general))

    def test_conversation_index(self):
        ads = [make_ad("a", conversations=("ask-all", "subscribe")),
               make_ad("b", conversations=("ask-all",))]
        indexed = build_repo(ads)
        query = BrokerQuery(conversations=("subscribe",))
        assert names(indexed.query(query)) == ["a"]
        assert indexed.stats.advertisements_reasoned_over == 1
        assert names(scan(indexed, query)) == names(indexed.query(query))


class TestAdvertisementLifecycle:
    def test_index_tracks_updates_and_removal(self):
        indexed = build_repo(sample_ads())
        # Re-advertise agent0 under a different ontology.
        indexed.advertise(make_ad("agent0", ontology="finance"))
        healthcare = set(names(indexed.query(BrokerQuery(ontology_name="healthcare"))))
        assert "agent0" not in healthcare
        finance = set(names(indexed.query(BrokerQuery(ontology_name="finance"))))
        assert "agent0" in finance
        indexed.unadvertise("agent0")
        finance = set(names(indexed.query(BrokerQuery(ontology_name="finance"))))
        assert "agent0" not in finance

    def test_readvertise_cycles_keep_indexes_consistent(self):
        repo = BrokerRepository(MatchContext())
        for _ in range(3):
            repo.advertise(make_ad("a1", ontology="finance",
                                   functions=("select",), classes=()))
            assert names(repo.query(BrokerQuery(ontology_name="finance"))) == ["a1"]
            repo.advertise(make_ad("a1", ontology="aerospace",
                                   functions=("join",), classes=()))
            # The old index entries must be gone in every dimension.
            assert repo.query(BrokerQuery(ontology_name="finance")) == []
            assert repo.query(BrokerQuery(capabilities=("select",))) == []
            assert names(repo.query(BrokerQuery(capabilities=("join",)))) == ["a1"]
            assert repo.unadvertise("a1")
            assert repo.query(BrokerQuery(ontology_name="aerospace")) == []

    def test_agent_to_broker_readvertisement_clears_agent_store(self):
        repo = BrokerRepository(MatchContext())
        repo.advertise(make_ad("flip", ontology="finance", classes=()))
        assert repo.agent_names() == ["flip"]
        repo.advertise(broker_ad("flip"))
        # The old agent entry and its index postings must be gone.
        assert repo.agent_names() == []
        assert repo.broker_names() == ["flip"]
        assert repo.query(BrokerQuery(ontology_name="finance")) == []
        # And back again.
        repo.advertise(make_ad("flip", ontology="finance", classes=()))
        assert repo.agent_names() == ["flip"]
        assert repo.broker_names() == []
        assert names(repo.query(BrokerQuery(ontology_name="finance"))) == ["flip"]


class TestMatchCache:
    def test_repeated_query_hits_cache(self):
        repo = build_repo(sample_ads())
        query = BrokerQuery(ontology_name="healthcare")
        first = repo.query(query)
        reasoned = repo.stats.advertisements_reasoned_over
        second = repo.query(query)
        assert names(first) == names(second)
        assert repo.stats.cache_hits == 1
        # A hit does no matching work at all.
        assert repo.stats.advertisements_reasoned_over == reasoned

    def test_equivalent_queries_share_cache_entry(self):
        repo = build_repo(sample_ads())
        repo.query(BrokerQuery(capabilities=("select", "join")))
        repo.query(BrokerQuery(capabilities=("join", "select")))
        assert repo.stats.cache_hits == 1

    def test_advertise_bumps_generation_and_invalidates(self):
        repo = build_repo(sample_ads())
        query = BrokerQuery(ontology_name="healthcare", classes=("patient",))
        before = set(names(repo.query(query)))
        generation = repo.generation
        repo.advertise(make_ad("late", classes=("patient",)))
        assert repo.generation > generation
        after = set(names(repo.query(query)))
        assert "late" in after
        assert after == before | {"late"}
        assert repo.stats.cache_hits == 0

    def test_unadvertise_bumps_generation_and_invalidates(self):
        repo = build_repo(sample_ads())
        query = BrokerQuery(ontology_name="healthcare")
        matched = names(repo.query(query))
        assert matched
        generation = repo.generation
        assert repo.unadvertise(matched[0])
        assert repo.generation > generation
        assert matched[0] not in names(repo.query(query))

    def test_broker_ad_churn_also_invalidates(self):
        # Conservative: any repository mutation bumps the generation.
        repo = build_repo(sample_ads())
        generation = repo.generation
        repo.advertise(broker_ad("b-late"))
        assert repo.generation > generation

    def test_ontology_mutation_bumps_generation_and_invalidates(self):
        """Regression: the generation stamp must also move when the
        shared ontology mutates, not only on advertise traffic — a
        cached match list built under the old class hierarchy would
        otherwise survive an ontology update and serve stale answers.
        (The plane itself stores exact names and expands closures per
        query, so only the cache has anything to invalidate.)"""
        from repro.ontology import OntClass

        ontology = healthcare_ontology()
        context = MatchContext(ontologies={"healthcare": ontology})
        repo = BrokerRepository(context)
        # The advertised class is unknown to the ontology, so it is
        # unrelated to "patient" — the query caches an empty answer.
        repo.advertise(make_ad("late-vocab", classes=("telemetry-record",)))
        query = BrokerQuery(ontology_name="healthcare", classes=("patient",))
        assert names(repo.query(query)) == []
        generation = repo.generation
        # An ontology update makes the advertised class a subclass of
        # "patient"; the cached empty answer is now wrong.
        ontology.add_class(OntClass("telemetry-record", (), parent="patient"))
        assert repo.generation > generation
        assert names(repo.query(query)) == ["late-vocab"]

    def test_ontology_reload_bumps_generation(self):
        """Swapping in a *new* ontology object under the same name (an
        ontology-server reload) must invalidate too, even though no
        repository mutation happened."""
        context = MatchContext(ontologies={"healthcare": healthcare_ontology()})
        repo = BrokerRepository(context)
        repo.advertise(make_ad("steady", classes=("patient",)))
        query = BrokerQuery(ontology_name="healthcare", classes=("patient",))
        assert names(repo.query(query)) == ["steady"]
        generation = repo.generation
        context.ontologies["healthcare"] = healthcare_ontology()
        assert repo.generation > generation
        # Same semantics, fresh closures: the answer is recomputed, not
        # served from a cache keyed to the dead ontology object.
        assert names(repo.query(query)) == ["steady"]
        assert repo.stats.cache_hits == 0

    def test_cache_disabled(self):
        repo = build_repo(sample_ads(), match_cache_size=0)
        query = BrokerQuery(ontology_name="healthcare")
        repo.query(query)
        repo.query(query)
        assert repo.stats.cache_hits == 0
        assert repo.stats.cache_misses == 0

    def test_cache_eviction_is_bounded(self):
        repo = build_repo(sample_ads(), match_cache_size=2)
        for ontology in ("healthcare", "aerospace", "finance"):
            repo.query(BrokerQuery(ontology_name=ontology))
        assert len(repo._match_cache) <= 2
        # The oldest entry was evicted; re-querying it misses.
        repo.query(BrokerQuery(ontology_name="healthcare"))
        assert repo.stats.cache_hits == 0

    def test_cached_results_are_copies(self):
        repo = build_repo(sample_ads())
        query = BrokerQuery(ontology_name="healthcare")
        first = repo.query(query)
        first.append("sentinel")
        assert "sentinel" not in repo.query(query)


def cache_outcomes(repo):
    return repo.stats.cache_hits, repo.stats.cache_misses


class TestMatchCacheUnderWrites:
    """A write costs a miss only to the cached queries it concerns."""

    QUERY = BrokerQuery(ontology_name="healthcare", classes=("patient",))

    def warm(self, **kwargs):
        repo = build_repo(sample_ads(), **kwargs)
        matched = names(repo.query(self.QUERY))
        assert matched
        return repo, matched

    def read(self, repo, query, hit):
        """The (right) answer to *query*, served from the cache or not."""
        query = query or self.QUERY
        hits, misses = cache_outcomes(repo)
        matches = repo.query(query)
        assert cache_outcomes(repo) == (hits + hit, misses + (not hit))
        assert ranked(matches) == ranked(scan(repo, query))
        return matches

    def assert_hit(self, repo, query=None):
        return self.read(repo, query, hit=True)

    def assert_miss(self, repo, query=None):
        return self.read(repo, query, hit=False)

    def test_unrelated_writes_leave_the_entry_a_hit(self):
        repo, matched = self.warm()
        outsider = next(n for n in repo.agent_names() if n not in matched)
        repo.advertise(make_ad("newcomer", ontology="finance", classes=()))
        repo.advertise(make_ad(outsider, ontology="aerospace", classes=()))
        assert repo.unadvertise("newcomer")
        repo.advertise(broker_ad("b-late"))
        assert names(self.assert_hit(repo)) == matched

    def test_added_match_and_removed_member_are_misses(self):
        repo, matched = self.warm()
        repo.advertise(make_ad("late", classes=("patient",)))
        assert "late" in names(self.assert_miss(repo))
        assert repo.unadvertise(matched[0])
        assert matched[0] not in names(self.assert_miss(repo))
        self.assert_hit(repo)

    def test_ad_added_and_withdrawn_before_the_next_read(self):
        repo, matched = self.warm()
        repo.advertise(make_ad("blip", classes=("patient",)))
        assert repo.unadvertise("blip")
        assert names(self.assert_hit(repo)) == matched

    def test_added_match_then_changed_to_a_non_match(self):
        repo, matched = self.warm()
        repo.advertise(make_ad("fickle", classes=("patient",)))
        repo.advertise(make_ad("fickle", ontology="finance", classes=()))
        assert names(self.assert_hit(repo)) == matched

    def test_identical_readvertisement_hands_out_the_stored_copy(self):
        repo, matched = self.warm()
        outsider = next(n for n in repo.agent_names() if n not in matched)
        repo.advertise(repo.get(outsider).renewed(at=5.0))
        self.assert_hit(repo)
        # Same content, new object: the entries holding the old copy
        # must not outlive it.
        renewed = repo.get(matched[0]).renewed(at=7.0)
        repo.advertise(renewed)
        refreshed = self.assert_miss(repo)
        assert names(refreshed) == matched
        assert next(m.advertisement for m in refreshed
                    if m.agent_name == matched[0]) is renewed

    def test_response_time_cap_is_part_of_the_probe(self):
        repo = build_repo(sample_ads())
        capped = BrokerQuery(ontology_name="healthcare", max_response_time=30.0)
        repo.query(capped)
        repo.advertise(make_ad("slow", classes=("patient",), response_time=60.0))
        assert "slow" not in names(self.assert_hit(repo, capped))
        repo.advertise(make_ad("quick", classes=("patient",), response_time=5.0))
        assert "quick" in names(self.assert_miss(repo, capped))

    def test_constraints_are_part_of_the_probe(self):
        repo = build_repo(sample_ads())
        query = BrokerQuery(ontology_name="healthcare",
                            constraints=parse_constraint("age between 55 and 70"))
        repo.query(query)
        repo.advertise(make_ad("young", constraints="age < 40"))
        assert "young" not in names(self.assert_hit(repo, query))
        repo.advertise(make_ad("old", constraints="age > 60"))
        assert "old" in names(self.assert_miss(repo, query))

    def test_entry_older_than_the_log_is_a_miss(self):
        repo, matched = self.warm(match_cache_size=2)
        for i in range(2):
            repo.advertise(make_ad(f"f{i}", ontology="finance", classes=()))
        self.assert_hit(repo)  # two writes behind: still on the log
        for i in range(3):
            repo.advertise(make_ad(f"g{i}", ontology="finance", classes=()))
        assert names(self.assert_miss(repo)) == matched  # three: fell off
        self.assert_hit(repo)

    def test_cache_of_one_and_of_none(self):
        repo, matched = self.warm(match_cache_size=1)
        repo.advertise(make_ad("f", ontology="finance", classes=()))
        self.assert_hit(repo)
        other = BrokerQuery(ontology_name="finance")
        self.assert_miss(repo, other)  # evicts the only entry
        self.assert_miss(repo)

        repo, matched = self.warm(match_cache_size=0)
        repo.advertise(make_ad("late", classes=("patient",)))
        assert set(names(repo.query(self.QUERY))) == set(matched) | {"late"}
        assert cache_outcomes(repo) == (0, 0)
        assert not repo._write_log and not repo._match_cache

    def test_query_batch_shares_the_validation(self):
        repo, matched = self.warm()
        finance = BrokerQuery(ontology_name="finance")
        repo.query(finance)
        repo.advertise(make_ad("late", classes=("patient",)))
        hits, misses = cache_outcomes(repo)
        answers = repo.query_batch([self.QUERY, finance])
        # "late" concerns the healthcare entry and not the finance one.
        assert cache_outcomes(repo) == (hits + 1, misses + 1)
        assert [ranked(a) for a in answers] == [
            ranked(scan(repo, self.QUERY)), ranked(scan(repo, finance))]


@settings(max_examples=40, deadline=None)
@given(
    ontologies=st.lists(st.sampled_from(ONTOLOGIES), min_size=1, max_size=10),
    query_ontology=st.sampled_from(["healthcare", "aerospace", "finance"]),
)
def test_property_index_is_invisible(ontologies, query_ontology):
    ads = [make_ad(f"a{i}", ontology=o, classes=())
           for i, o in enumerate(ontologies)]
    indexed = build_repo(ads)
    for query in (
        BrokerQuery(ontology_name=query_ontology),
        BrokerQuery(agent_type="resource"),
        BrokerQuery(ontology_name=query_ontology, content_language="SQL 2.0"),
    ):
        assert names(scan(indexed, query)) == names(indexed.query(query))


# ----------------------------------------------------------------------
# stateful model of the maintained plane
# ----------------------------------------------------------------------
AGENTS = st.sampled_from([f"a{i}" for i in range(6)])
CLASSES = ["patient", "provider", "physician", "podiatrist", "telemetry"]
FUNCTIONS = ["query-processing", "relational", "select", "data-mining"]
CONVERSATIONS = ["ask-all", "subscribe"]
SLOTS = ["age", "cost", "code"]
#: Simple intervals (array-resident), grouped-checker domains, an
#: interval no float holds exactly, and an unsatisfiable conjunction.
AD_CONSTRAINTS = [
    "", "age between 20 and 60", "age > 50", "cost < 100",
    "code in ('40W', '41X')", "code != '40W'",
    "age between 9007199254740993 and 9007199254740999",
    "age > 50 and age < 40",
]
QUERY_CONSTRAINTS = [
    "", "age between 55 and 70", "age <= 50", "age = 60", "cost >= 100",
    "code in ('41X', '42Y')", "code != '41X'", "age != 30",
    "age between 9007199254740980 and 9007199254740992",
]


def subsets(pool, max_size):
    return st.lists(st.sampled_from(pool), max_size=max_size,
                    unique=True).map(tuple)


@st.composite
def agent_ads(draw, functions=FUNCTIONS):
    ontology = draw(st.sampled_from(["healthcare", "finance", ""]))
    return make_ad(
        draw(AGENTS),
        agent_type=draw(st.sampled_from(["resource", "query"])),
        content_languages=draw(subsets(["SQL 2.0", "OQL"], 2)),
        conversations=draw(subsets(CONVERSATIONS, 2)),
        functions=draw(subsets(functions, 2)),
        ontology=ontology,
        classes=draw(subsets(CLASSES, 2)) if ontology else (),
        slots=draw(subsets(SLOTS, 2)),
        constraints=draw(st.sampled_from(AD_CONSTRAINTS)),
        mobile=draw(st.booleans()),
        response_time=draw(st.sampled_from([None, 5.0, 60.0])),
    )


@st.composite
def broker_queries(draw, functions=FUNCTIONS):
    ontology = draw(st.sampled_from([None, "healthcare", "finance"]))
    return BrokerQuery(
        agent_type=draw(st.sampled_from([None, None, "resource"])),
        content_language=draw(st.sampled_from([None, None, "OQL"])),
        conversations=draw(subsets(CONVERSATIONS, 1)),
        capabilities=draw(subsets(functions, 1)),
        ontology_name=ontology,
        classes=draw(subsets(CLASSES, 1)) if ontology else (),
        slots=draw(subsets(SLOTS, 2)),
        constraints=parse_constraint(draw(st.sampled_from(QUERY_CONSTRAINTS))),
        max_response_time=draw(st.sampled_from([None, None, 30.0])),
        require_mobile=draw(st.sampled_from([None, None, True, False])),
        allow_partial_slots=draw(st.booleans()),
    )


class MaintainedPlaneMachine(RuleBasedStateMachine):
    """Every step mutates a repository and a plain model of what it
    should hold alike, then checks a drawn query against the scan and
    the Datalog oracle over that model."""

    def __init__(self):
        super().__init__()
        context = MatchContext(ontologies={"healthcare": healthcare_ontology()})
        self.repo = BrokerRepository(context)
        self.agents = {}  # name -> advertisement, insertion-ordered
        self.brokers = set()
        self.peak_live = 0

    def check(self, query):
        repo = self.repo
        plane = repo._plane
        ads = list(self.agents.values())
        assert repo.agent_names() == sorted(self.agents)
        expected = ranked(match_advertisements(query, ads, repo.context))
        assert ranked(repo.query(query)) == expected
        assert ranked(repo.query(query)) == expected  # now from the cache
        assert ranked(plane.match(query, repo.context)[0]) == expected
        fresh = ColumnarPlane(repo.get)
        for ad in repo.agent_ads():
            fresh.add(ad)
        assert ranked(fresh.match(query, repo.context)[0]) == expected
        assert DatalogMatcher(repo.context).match_names(query, ads) == {
            name for name, _score, _slots in expected}
        # The free list works: no id beyond the peak live population.
        assert len(plane) == repo.agent_count
        self.peak_live = max(self.peak_live, repo.agent_count)
        assert plane.capacity <= self.peak_live

    @rule(ad=agent_ads(), query=broker_queries())
    def advertise(self, ad, query):
        # Over six names, most draws re-advertise with changed content.
        self.repo.advertise(ad)
        self.agents.pop(ad.agent_name, None)  # a re-advertisement moves last
        self.agents[ad.agent_name] = ad
        self.brokers.discard(ad.agent_name)
        self.check(query)

    @rule(name=AGENTS, query=broker_queries())
    def unadvertise(self, name, query):
        known = name in self.agents or name in self.brokers
        assert self.repo.unadvertise(name) == known
        self.agents.pop(name, None)
        self.brokers.discard(name)
        self.check(query)

    @rule(name=AGENTS, query=broker_queries())
    def flip_to_broker(self, name, query):
        self.repo.advertise(broker_ad(name))
        self.agents.pop(name, None)
        self.brokers.add(name)
        self.check(query)

    @rule(query=broker_queries())
    def crash(self, query):
        self.repo = self.repo.clone_empty()
        self.agents.clear()
        self.brokers.clear()
        self.peak_live = 0
        self.check(query)


MaintainedPlaneMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestMaintainedPlane = MaintainedPlaneMachine.TestCase


# ----------------------------------------------------------------------
# stateful model of the match cache under interleaved writes
# ----------------------------------------------------------------------
#: "olap" and the last two classes start outside the capability
#: hierarchy / the ontology, so attaching them changes answers without
#: any advertise.
CACHE_FUNCTIONS = FUNCTIONS + ["olap"]
CACHE_CLASSES = ["patient", "provider", "telemetry", "scan"]
#: Queries restricting one dimension only, and ads that vary only where
#: those look: such an ad passes such a query often enough that a write
#: or a knowledge mutation usually *does* change a cached answer.
FOCUSED_QUERIES = st.one_of(
    st.sampled_from(CACHE_CLASSES).map(
        lambda cls: BrokerQuery(ontology_name="healthcare", classes=(cls,))),
    st.sampled_from(CACHE_FUNCTIONS).map(
        lambda function: BrokerQuery(capabilities=(function,))),
    st.sampled_from(QUERY_CONSTRAINTS).map(
        lambda text: BrokerQuery(constraints=parse_constraint(text))),
    st.just(BrokerQuery(max_response_time=30.0)),
)


@st.composite
def focused_ads(draw):
    return make_ad(
        draw(AGENTS),
        functions=draw(subsets(CACHE_FUNCTIONS, 2)),
        classes=draw(subsets(CACHE_CLASSES, 1)),
        constraints=draw(st.sampled_from(AD_CONSTRAINTS)),
        response_time=draw(st.sampled_from([None, 5.0, 60.0])),
    )


CACHE_QUERIES = st.one_of(broker_queries(CACHE_FUNCTIONS), FOCUSED_QUERIES)
CACHE_ADS = st.one_of(agent_ads(CACHE_FUNCTIONS), focused_ads())
#: Earlier queries to re-issue after a step, as indices into the history.
PICKS = st.lists(st.integers(min_value=0, max_value=1000), max_size=4)
#: Never matches anything (its constraint is unsatisfiable), so writing
#: it cannot concern any cached query.
INERT = make_ad("inert", constraints="age > 50 and age < 40")


class CachedQueriesMachine(RuleBasedStateMachine):
    """Writes of every kind interleaved with re-reads of *earlier*
    queries, so cached lists are validated zero, a few or more-than-the-
    log writes after they were computed; whatever the cache serves must
    be what the scan returns over the stored advertisements — same
    ranking, scores and slots, and the stored copy of each ad."""

    @initialize(size=st.sampled_from([0, 1, 3, 256]),
                ads=st.lists(CACHE_ADS, max_size=6),
                queries=st.lists(CACHE_QUERIES, min_size=1, max_size=6))
    def open_repository(self, size, ads, queries):
        self.ontology = healthcare_ontology()
        context = MatchContext(ontologies={"healthcare": self.ontology})
        self.repo = BrokerRepository(context, match_cache_size=size)
        for ad in ads:
            self.repo.advertise(ad)
        self.history = list(queries)
        self.reread(range(len(queries)))

    def reread(self, picks):
        repo, history = self.repo, self.history
        queries = [history[pick % len(history)] for pick in picks]
        expected = [ranked(scan(repo, query)) for query in queries]
        half = len(queries) // 2
        one_by_one, batched = queries[:half], queries[half:]
        # Both lookups meet the entries the last step left behind, then
        # each serves what the other has just validated or recomputed.
        for answers in (
            [repo.query(query) for query in one_by_one] + repo.query_batch(batched),
            repo.query_batch(one_by_one) + [repo.query(query) for query in batched],
        ):
            assert [ranked(matches) for matches in answers] == expected
            for matches in answers:
                for match in matches:
                    assert match.advertisement is repo.get(match.agent_name)
        if not repo.match_cache_size:
            assert cache_outcomes(repo) == (0, 0)
            assert not repo._write_log

    @rule(query=CACHE_QUERIES)
    def ask(self, query):
        self.history.append(query)
        self.reread([len(self.history) - 1])

    @rule(ads=st.lists(CACHE_ADS, min_size=1, max_size=4), picks=PICKS)
    def advertise(self, ads, picks):
        for ad in ads:  # new agents, or new content for present ones
            self.repo.advertise(ad)
        self.reread(picks)

    @rule(name=AGENTS, picks=PICKS)
    def readvertise_unchanged(self, name, picks):
        if name in self.repo.agent_names():
            self.repo.advertise(self.repo.get(name).renewed(at=1.0))
        self.reread(picks)

    @rule(ad=CACHE_ADS, picks=PICKS)
    def advertise_and_withdraw(self, ad, picks):
        self.repo.advertise(ad)
        self.repo.unadvertise(ad.agent_name)
        self.reread(picks)

    @rule(name=AGENTS, picks=PICKS)
    def unadvertise(self, name, picks):
        self.repo.unadvertise(name)
        self.reread(picks)

    @rule(name=AGENTS, picks=PICKS)
    def flip_to_broker(self, name, picks):
        self.repo.advertise(broker_ad(name))  # back again: ``advertise``
        self.reread(picks)

    @rule(child=st.sampled_from(CACHE_CLASSES[2:] + ["olap"]),
          parent=st.sampled_from(CACHE_CLASSES[:2]))
    def extend_knowledge(self, child, parent):
        if child == "olap":
            hierarchy = self.repo.context.capability_hierarchy
            if child in hierarchy:
                child = f"{child}{hierarchy.version}"
            hierarchy.add(child, parent="query-processing")
        else:
            if child in self.ontology:
                child = f"{child}{self.ontology.version}"
            self.ontology.add_class(OntClass(child, (), parent=parent))
        self.reread(range(len(self.history)))  # it concerns every entry

    @rule(picks=PICKS)
    def crash(self, picks):
        self.repo = self.repo.clone_empty()
        self.reread(picks)

    @precondition(lambda self: self.repo.match_cache_size)
    @rule(pick=st.integers(min_value=0, max_value=1000), withdraw=st.booleans())
    def inert_write_leaves_a_hit(self, pick, withdraw):
        """Fails if validation quietly degrades to "always miss"."""
        repo = self.repo
        query = self.history[pick % len(self.history)]
        repo.query(query)
        if withdraw and repo.knows("inert"):
            repo.unadvertise("inert")
        else:
            repo.advertise(INERT)
        hits, misses = cache_outcomes(repo)
        assert ranked(repo.query(query)) == ranked(scan(repo, query))
        assert cache_outcomes(repo) == (hits + 1, misses)


CachedQueriesMachine.TestCase.settings = settings(deadline=None)
TestCachedQueries = CachedQueriesMachine.TestCase
