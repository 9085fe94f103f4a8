"""Broker crash recovery: advertisement journal + anti-entropy protocol.

Two recovery paths beyond "wait for agents to re-advertise":

* **Journal replay** — :class:`AdvertisementJournal` is an append-only
  write-ahead log of advertise/unadvertise records.  Each record is one
  s-expression line (see :mod:`repro.core.advertisement` for the
  advertisement codec), so an optionally file-backed journal is both
  durable and human-readable.  :meth:`compaction
  <AdvertisementJournal.compact>` keeps only the newest record per
  advertiser.  On restart a broker replays the journal to rebuild its
  repository before accepting traffic.

* **Anti-entropy** — a recovering (or periodically syncing) broker sends
  a :class:`SyncDigest` of per-advertiser ``(agent, at, seq)`` keys to
  its consortium peers; each peer answers with a :class:`SyncDelta`
  containing only the records the requester is missing or holds stale
  copies of.  Conflicts resolve last-writer-wins by the
  ``(advertised_at, seq)`` key — virtual time dominates, so a restarted
  advertiser (whose sequence counter reset) still supersedes stale
  copies of its earlier incarnation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.advertisement import (
    Advertisement,
    advertisement_from_sexpr,
    advertisement_to_sexpr,
)
from repro.core.errors import BrokeringError
from repro.kqml.sexpr import parse_sexpr, render_sexpr
from repro.obs.profiler import PROFILER

OP_ADVERTISE = "advertise"
OP_UNADVERTISE = "unadvertise"


@dataclass(frozen=True)
class JournalRecord:
    """One journal line / one replication unit.

    An ``unadvertise`` record is a *tombstone*: it carries no
    advertisement but still participates in last-writer-wins ordering,
    so a peer that purged an agent can propagate the purge.
    """

    op: str
    agent: str
    seq: int
    at: float
    ad: Optional[Advertisement] = None

    def __post_init__(self):
        if self.op not in (OP_ADVERTISE, OP_UNADVERTISE):
            raise BrokeringError(f"unknown journal op {self.op!r}")
        if self.op == OP_ADVERTISE and self.ad is None:
            raise BrokeringError("advertise records need an advertisement")
        if self.op == OP_UNADVERTISE and self.ad is not None:
            raise BrokeringError("tombstones carry no advertisement")

    @property
    def lww_key(self) -> Tuple[float, int]:
        return (self.at, self.seq)

    @property
    def deleted(self) -> bool:
        return self.op == OP_UNADVERTISE


def record_to_sexpr(record: JournalRecord) -> list:
    expr = [record.op, record.agent, record.seq, record.at]
    if record.ad is not None:
        expr.append(advertisement_to_sexpr(record.ad))
    return expr


def record_from_sexpr(expr) -> JournalRecord:
    if not isinstance(expr, list) or len(expr) not in (4, 5):
        raise BrokeringError(f"malformed journal record: {expr!r}")
    ad = advertisement_from_sexpr(expr[4]) if len(expr) == 5 else None
    return JournalRecord(
        op=str(expr[0]),
        agent=str(expr[1]),
        seq=int(expr[2]),
        at=float(expr[3]),
        ad=ad,
    )


@dataclass
class JournalStats:
    appended: int = 0
    replayed: int = 0
    compactions: int = 0
    records_dropped: int = 0


class AdvertisementJournal:
    """Append-only log of advertise/unadvertise records.

    In-memory by default (the simulator's "durable" storage survives a
    strict crash because the journal object outlives the agent's
    volatile state); pass *path* to additionally persist each line to a
    real file — an existing file is loaded, so a journal survives even
    process restarts.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.stats = JournalStats()
        self._lines: List[str] = []
        if path is not None and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                self._lines = [
                    line.rstrip("\n") for line in handle if line.strip()
                ]

    def __len__(self) -> int:
        return len(self._lines)

    def append(self, record: JournalRecord) -> None:
        if PROFILER.enabled:
            PROFILER.begin("journal.append")
        try:
            line = render_sexpr(record_to_sexpr(record))
            self._lines.append(line)
            self.stats.appended += 1
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
        finally:
            if PROFILER.enabled:
                PROFILER.end("journal.append")

    def record_advertise(self, ad: Advertisement) -> None:
        self.append(
            JournalRecord(
                op=OP_ADVERTISE,
                agent=ad.agent_name,
                seq=ad.seq,
                at=ad.advertised_at,
                ad=ad,
            )
        )

    def record_unadvertise(self, agent: str, seq: int, at: float) -> None:
        self.append(
            JournalRecord(op=OP_UNADVERTISE, agent=agent, seq=seq, at=at)
        )

    def replay(self) -> List[JournalRecord]:
        """All records in append order."""
        records = [record_from_sexpr(parse_sexpr(line)) for line in self._lines]
        self.stats.replayed += len(records)
        return records

    def compact(self) -> int:
        """Keep only the newest record per advertiser (live advertisement
        or tombstone) and return the number of lines dropped."""
        newest: Dict[str, JournalRecord] = {}
        order: List[str] = []
        for record in self.replay():
            if record.agent not in newest:
                order.append(record.agent)
            current = newest.get(record.agent)
            if current is None or record.lww_key >= current.lww_key:
                newest[record.agent] = record
        kept = [render_sexpr(record_to_sexpr(newest[a])) for a in order]
        dropped = len(self._lines) - len(kept)
        self._lines = kept
        self.stats.compactions += 1
        self.stats.records_dropped += dropped
        if self.path is not None:
            with open(self.path, "w", encoding="utf-8") as handle:
                for line in kept:
                    handle.write(line + "\n")
        return dropped


# ----------------------------------------------------------------------
# anti-entropy payloads (in-process message content)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SyncDigest:
    """What the requester already knows: one ``(agent, at, seq,
    deleted)`` entry per advertiser it holds a record for.  A peer
    answers with records for advertisers absent from the digest or whose
    entries are newer than the digest's by the LWW key."""

    entries: Tuple[Tuple[str, float, int, bool], ...] = ()

    #: Anti-entropy rides the bus's maintenance priority lane: bounded
    #: mailboxes never shed it, so convergence survives overload.
    maintenance_lane = True

    def as_map(self) -> Dict[str, Tuple[float, int]]:
        return {agent: (at, seq) for agent, at, seq, _deleted in self.entries}


@dataclass(frozen=True)
class SyncDelta:
    """A peer's answer: the records the requester was missing."""

    records: Tuple[JournalRecord, ...] = ()

    #: See :attr:`SyncDigest.maintenance_lane`.
    maintenance_lane = True

    @property
    def size_mb(self) -> float:
        return sum(r.ad.size_mb for r in self.records if r.ad is not None)
