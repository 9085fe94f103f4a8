"""Tests for repository, search policy, consortium network, advertisement."""

import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    Advertisement,
    BrokerNetwork,
    BrokerQuery,
    BrokerRepository,
    BrokeringError,
    Consortium,
    FollowOption,
    SearchPolicy,
)
from repro.ontology import AgentLocation, BrokerExtensions, ServiceDescription
from tests.test_core_matcher import make_ad

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code, **env):
    """*code* in a fresh interpreter over ``src/``; its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code], check=True, text=True,
        stdout=subprocess.PIPE, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC, **env},
    )
    return done.stdout


def broker_ad(name, specializations=()):
    return Advertisement(
        ServiceDescription(
            location=AgentLocation(name=name, agent_type="broker"),
            broker=BrokerExtensions(specializations=tuple(specializations)),
        )
    )


class TestAdvertisement:
    def test_size_must_be_positive(self):
        with pytest.raises(BrokeringError):
            Advertisement(make_ad("a").description, size_mb=0)

    def test_renewed(self):
        ad = make_ad("a")
        assert ad.renewed(10.0).advertised_at == 10.0
        assert ad.advertised_at == 0.0

    def test_is_broker(self):
        assert broker_ad("b1").is_broker()
        assert not make_ad("r1").is_broker()


class TestRepository:
    def test_advertise_and_query(self):
        repo = BrokerRepository()
        repo.advertise(make_ad("r1"))
        repo.advertise(make_ad("r2", classes=("diagnosis",)))
        matches = repo.query(BrokerQuery(ontology_name="healthcare", classes=("patient",)))
        assert [m.agent_name for m in matches] == ["r1"]

    def test_update_replaces(self):
        repo = BrokerRepository()
        repo.advertise(make_ad("r1", classes=("patient",)))
        repo.advertise(make_ad("r1", classes=("diagnosis",)))
        assert repo.agent_count == 1
        assert repo.get("r1").description.content.classes == ("diagnosis",)

    def test_unadvertise(self):
        repo = BrokerRepository()
        repo.advertise(make_ad("r1"))
        assert repo.unadvertise("r1")
        assert not repo.unadvertise("r1")
        assert not repo.knows("r1")

    def test_get_unknown_raises(self):
        with pytest.raises(BrokeringError):
            BrokerRepository().get("ghost")

    def test_brokers_stored_separately(self):
        repo = BrokerRepository()
        repo.advertise(make_ad("r1"))
        repo.advertise(broker_ad("b1"))
        assert repo.agent_names() == ["r1"]
        assert repo.broker_names() == ["b1"]
        # Non-broker queries do not see broker advertisements.
        assert [m.agent_name for m in repo.query(BrokerQuery())] == ["r1"]

    def test_query_brokers(self):
        repo = BrokerRepository()
        repo.advertise(broker_ad("b1"))
        matches = repo.query_brokers(BrokerQuery(agent_type="broker"))
        assert [m.agent_name for m in matches] == ["b1"]

    def test_size_mb_tracks_volume(self):
        repo = BrokerRepository()
        repo.advertise(Advertisement(make_ad("a").description, size_mb=2.0))
        repo.advertise(Advertisement(broker_ad("b").description, size_mb=0.5))
        assert repo.size_mb() == pytest.approx(2.5)

    def test_size_mb_is_the_fresh_sum_after_every_write(self):
        """The memoised total is dropped by every put / pop and
        recomputed by the same sum — equal to the bit, not approximately:
        virtual reasoning times are derived from it."""
        rng = random.Random(7)
        repo = BrokerRepository()
        for _ in range(200):
            name = f"a{rng.randrange(8)}"
            roll = rng.random()
            if roll < 0.3:
                repo.unadvertise(name)
            else:
                description = (broker_ad(name) if roll < 0.5 else make_ad(name)).description
                repo.advertise(Advertisement(description, size_mb=rng.uniform(0.1, 3.0)))
            fresh = sum(ad.size_mb for ad in repo.agent_ads()) + sum(
                ad.size_mb for ad in repo.broker_ads())
            assert repo.size_mb() == fresh
            assert repo.size_mb() == fresh  # and again, from the memo

    def test_stats_counters(self):
        repo = BrokerRepository()
        repo.advertise(make_ad("r1"))
        repo.advertise(make_ad("r2"))
        repo.query(BrokerQuery())
        assert repo.stats.advertisements_accepted == 2
        assert repo.stats.queries_answered == 1
        assert repo.stats.advertisements_reasoned_over == 2


class TestSearchPolicy:
    def test_defaults(self):
        policy = SearchPolicy()
        assert policy.hop_count == 1
        assert policy.follow is FollowOption.ALL

    def test_default_for_single(self):
        assert SearchPolicy.default_for(wants_single=True).follow is FollowOption.UNTIL_MATCH
        assert SearchPolicy.default_for(wants_single=False).follow is FollowOption.ALL

    def test_capped(self):
        policy = SearchPolicy(hop_count=5)
        assert policy.capped(2).hop_count == 2
        assert policy.capped(10).hop_count == 5

    def test_next_hop(self):
        policy = SearchPolicy(hop_count=2)
        assert policy.next_hop().hop_count == 1
        with pytest.raises(BrokeringError):
            SearchPolicy(hop_count=0).next_hop()

    def test_may_forward(self):
        assert SearchPolicy(hop_count=1).may_forward()
        assert not SearchPolicy(hop_count=0).may_forward()
        assert not SearchPolicy(hop_count=3, follow=FollowOption.LOCAL_ONLY).may_forward()

    def test_validation(self):
        with pytest.raises(BrokeringError):
            SearchPolicy(hop_count=-1)
        with pytest.raises(BrokeringError):
            SearchPolicy(follow="all")


class TestConsortium:
    def test_member_validation(self):
        with pytest.raises(BrokeringError):
            Consortium("c", frozenset())
        with pytest.raises(BrokeringError):
            Consortium("", frozenset({"b1"}))

    def test_edges_fully_interconnected(self):
        c = Consortium("c", frozenset({"a", "b", "c"}))
        assert len(c.edges()) == 6

    def test_network_from_consortium_is_connected(self):
        net = BrokerNetwork()
        net.add_consortium(Consortium("main", frozenset({"b1", "b2", "b3"})))
        assert net.is_connected()
        assert net.known_by("b1") == ["b2", "b3"]

    def test_overlapping_consortia_connect(self):
        net = BrokerNetwork()
        net.add_consortium(Consortium("west", frozenset({"b1", "b2"})))
        net.add_consortium(Consortium("east", frozenset({"b3", "b4"})))
        assert not net.is_connected()
        net.add_consortium(Consortium("bridge", frozenset({"b2", "b3"})))
        assert net.is_connected()
        assert net.consortia_of("b2") == ["bridge", "west"]

    def test_record_advertisement_direction(self):
        net = BrokerNetwork()
        net.record_advertisement("b1", to_broker="b2")
        assert net.known_by("b2") == ["b1"]
        assert net.known_by("b1") == []

    def test_departure(self):
        net = BrokerNetwork()
        net.add_consortium(Consortium("c", frozenset({"b1", "b2", "b3"})))
        net.record_departure("b2")
        assert "b2" not in net.brokers()
        assert net.consortia_of("b1") == ["c"]
        assert net.is_connected()

    def test_reachability_and_spanning_tree(self):
        net = BrokerNetwork()
        net.add_consortium(Consortium("a", frozenset({"b1", "b2"})))
        net.add_consortium(Consortium("b", frozenset({"b2", "b3"})))
        assert net.reachable_from("b1") == {"b1", "b2", "b3"}
        tree = net.spanning_tree_from("b1")
        assert tree["b1"] == ["b2"]
        assert tree["b2"] == ["b3"]

    def test_spanning_tree_does_not_depend_on_the_hash_seed(self):
        """Consortium members are a frozenset of strings, whose
        iteration order moves with PYTHONHASHSEED; the tree must not."""
        code = (
            "from repro.core import BrokerNetwork, Consortium\n"
            "net = BrokerNetwork()\n"
            "net.add_consortium(Consortium('x', frozenset({'b1', 'b2', 'b3'})))\n"
            "net.add_consortium(Consortium('y', frozenset({'b2', 'b3', 'b4', 'b5'})))\n"
            "print(net.spanning_tree_from('b1'), sorted(net.reachable_from('b4')))\n"
        )
        trees = {run_python(code, PYTHONHASHSEED=str(seed)) for seed in range(1, 6)}
        assert trees == {
            "{'b1': ['b2', 'b3'], 'b2': ['b4', 'b5']} "
            "['b1', 'b2', 'b3', 'b4', 'b5']\n"
        }

    def test_directed_reachability_and_weak_connectivity(self):
        net = BrokerNetwork()
        net.record_advertisement("b1", to_broker="b2")  # b2 knows b1
        net.record_advertisement("b3", to_broker="b2")
        assert net.reachable_from("b2") == {"b1", "b2", "b3"}
        assert net.reachable_from("b1") == {"b1"}
        assert net.reachable_from("ghost") == set()
        assert net.is_connected()  # weakly: arcs count in both directions
        net.add_broker("b4")
        assert not net.is_connected()
        net.record_departure("b2")
        assert net.brokers() == ["b1", "b3", "b4"]
        assert net.known_by("b2") == [] and net.known_by("b3") == []
        assert not net.is_connected()

    def test_spanning_tree_unknown_broker(self):
        with pytest.raises(BrokeringError):
            BrokerNetwork().spanning_tree_from("ghost")

    def test_duplicate_consortium_rejected(self):
        net = BrokerNetwork()
        net.add_consortium(Consortium("c", frozenset({"b1", "b2"})))
        with pytest.raises(BrokeringError):
            net.add_consortium(Consortium("c", frozenset({"b3"})))


def test_package_imports_without_third_party_modules():
    """``pyproject.toml`` declares no runtime dependency, so nothing
    under ``src/`` may need one: networkx is a test-only oracle.  Every
    module is imported by name, since a package ``__init__`` re-exports
    lazily and so imports none of its submodules itself."""
    run_python(
        "import importlib, pkgutil, sys; sys.modules['networkx'] = None\n"
        "import repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not info.name.endswith('__main__'):\n"
        "        importlib.import_module(info.name)\n"
    )


def loaded_modules(statement):
    """The ``repro`` modules a fresh interpreter holds after *statement*."""
    out = run_python(
        "import sys\n" + statement + "\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
    )
    return set(out.split())


def test_match_only_imports_are_the_matchmaking_core():
    """Start-up compiles what it imports: the repository and the parser
    pull in the match plane, constraints and ontologies, not the Datalog
    oracle, the agents, the simulator or the experiment harness."""
    assert loaded_modules(
        "from repro.core import BrokerRepository\n"
        "from repro.constraints import parse_constraint"
    ) == {
        "repro", "repro._lazy",
        "repro.constraints", "repro.constraints.atoms", "repro.constraints.compile",
        "repro.constraints.conjunction", "repro.constraints.domains",
        "repro.constraints.intervals", "repro.constraints.parser",
        "repro.core", "repro.core.advertisement", "repro.core.columnar",
        "repro.core.errors", "repro.core.matcher", "repro.core.query",
        "repro.core.repository", "repro.core.scoring",
        "repro.obs", "repro.obs.events", "repro.obs.explain", "repro.obs.profiler",
        "repro.ontology", "repro.ontology.capability", "repro.ontology.demo",
        "repro.ontology.healthcare", "repro.ontology.model", "repro.ontology.service",
    }


def test_obs_package_imports_only_the_observer_interface():
    assert loaded_modules("import repro.obs") == {
        "repro", "repro._lazy", "repro.obs", "repro.obs.events",
    }


def test_bus_imports_without_the_agents_or_the_matchmaking_core():
    assert loaded_modules("from repro.agents.bus import MessageBus") == {
        "repro", "repro._lazy",
        "repro.agents", "repro.agents.bus", "repro.agents.costs",
        "repro.agents.errors",
        "repro.kqml", "repro.kqml.errors", "repro.kqml.message",
        "repro.kqml.performatives", "repro.kqml.sexpr",
        "repro.obs", "repro.obs.events", "repro.obs.metrics", "repro.obs.profiler",
    }


@pytest.mark.parametrize(
    "package", ["repro.core", "repro.obs", "repro.experiments", "repro.agents"])
def test_lazy_reexports_resolve_every_name(package):
    module = importlib.import_module(package)
    assert all(getattr(module, name) is not None for name in module.__all__)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")
