"""A broker's replication state is its repository plus its tombstones.

One broker is driven through a seeded random sequence of advertise /
re-advertise (across the agent↔broker boundary), unadvertise, ping
purge, replicated records (newer, stale, tombstones, about itself) and
strict crashes.  After every step the read-only ``_replication`` view,
the digest the broker sends its peers and the delta it answers a digest
with must equal a reference last-writer-wins map kept here, beside the
broker.
"""

import random

import pytest

from repro.agents.base import HandlerResult
from repro.agents.broker import BrokerAgent
from repro.agents.bus import MessageBus
from repro.agents.costs import CostModel
from repro.agents.recovery import (
    OP_ADVERTISE,
    OP_UNADVERTISE,
    JournalRecord,
    SyncDelta,
    SyncDigest,
)
from repro.core.advertisement import Advertisement
from repro.core.matcher import MatchContext
from repro.kqml import KqmlMessage, Performative
from repro.ontology.service import AgentLocation, ServiceDescription

NAMES = ("a0", "a1", "a2", "a3", "b1")  # b1 is the broker itself


class ReferenceReplication:
    """Newest advertise / unadvertise record per advertiser."""

    def __init__(self, me):
        self.me = me
        self.records = {}

    def advertise(self, ad):
        self.records[ad.agent_name] = JournalRecord(
            op=OP_ADVERTISE, agent=ad.agent_name, seq=ad.seq,
            at=ad.advertised_at, ad=ad)

    def unadvertise(self, agent, now):
        previous = self.records.get(agent)
        if previous is None or previous.deleted:
            return
        self.records[agent] = JournalRecord(
            op=OP_UNADVERTISE, agent=agent, seq=previous.seq + 1, at=now)

    def apply(self, record):
        current = self.records.get(record.agent)
        if record.agent == self.me or (
                current is not None and record.lww_key <= current.lww_key):
            return False
        self.records[record.agent] = record
        return True


def _ad(name, at, seq, broker):
    return Advertisement(
        ServiceDescription(location=AgentLocation(
            name=name, agent_type="broker" if broker else "resource")),
        size_mb=0.1, advertised_at=at, seq=seq,
    )


def _assert_agrees(broker, model):
    expected = dict(sorted(model.records.items()))
    assert broker._replication == expected
    assert list(broker._replication) == list(expected)
    live = sorted(a for a, r in expected.items() if not r.deleted)
    repository = broker.repository
    assert sorted(repository.agent_names() + repository.broker_names()) == live

    result = HandlerResult()
    broker._sync_round(result, broker.bus.now)
    digest = SyncDigest(tuple(
        (a, r.at, r.seq, r.deleted) for a, r in expected.items()))
    assert result.outbox  # one per peer: b2 and every broker it learned
    assert all(message.content == digest for message, _size in result.outbox)

    result = HandlerResult()
    broker.on_ask_all(KqmlMessage(
        Performative.ASK_ALL, sender="zz", receiver=broker.name,
        content=SyncDigest(), reply_with="probe"), result, broker.bus.now)
    (reply, _size), = result.outbox
    assert reply.content == SyncDelta(tuple(expected.values()))


@pytest.mark.parametrize("seed", range(6))
def test_replication_view_matches_reference_lww_map(seed):
    rng = random.Random(seed)
    bus = MessageBus(CostModel(latency_seconds=0.001))
    broker = BrokerAgent("b1", context=MatchContext(), peer_brokers=["b2"])
    bus.register(broker)
    model = ReferenceReplication("b1")
    for step in range(250):
        if rng.random() < 0.7:  # equal instants exercise the seq tie-break
            bus.now += rng.choice((0.0, 1.0, 2.5))
        name = rng.choice(NAMES)
        op = rng.choice(("advertise", "advertise", "unadvertise", "purge",
                         "record", "record", "tombstone", "crash"))
        result = HandlerResult()
        if op == "advertise":
            ad = _ad(name, 0.0, rng.randint(1, 4), broker=rng.random() < 0.3)
            broker.on_advertise(KqmlMessage(
                Performative.ADVERTISE, sender=name, receiver="b1",
                content=ad, reply_with=f"adv-{step}"), result, bus.now)
            model.advertise(ad.renewed(bus.now))
        elif op == "unadvertise":
            broker.on_unadvertise(KqmlMessage(
                Performative.UNADVERTISE, sender=name, receiver="b1",
                content=name, reply_with=f"unadv-{step}"), result, bus.now)
            model.unadvertise(name, bus.now)
        elif op == "purge":
            broker._agent_ping_outcome(name, None, result)
            model.unadvertise(name, bus.now)
        elif op in ("record", "tombstone"):
            # Around the current instant: newer, equal and stale keys.
            at = max(0.0, bus.now + rng.choice((-2.5, -1.0, 0.0, 0.0, 1.0)))
            seq = rng.randint(1, 5)
            record = (
                JournalRecord(op=OP_ADVERTISE, agent=name, seq=seq, at=at,
                              ad=_ad(name, at, seq, rng.random() < 0.3))
                if op == "record" else
                JournalRecord(op=OP_UNADVERTISE, agent=name, seq=seq, at=at)
            )
            assert broker._apply_record(record, journal=False) == model.apply(record)
        else:
            broker.on_crash()
            model.records.clear()
        _assert_agrees(broker, model)
