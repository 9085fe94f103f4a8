"""The broker repository: stored advertisements plus bookkeeping.

"One of the primary jobs of a broker is to maintain a repository
containing current and correct information about operational agents and
the services they can provide" (Section 2.2).  The repository stores
agent and broker advertisements separately (a broker reasons over other
brokers' capabilities when deciding where to forward — Section 4.1),
tracks its nominal size in megabytes (the reasoning-cost driver in the
experiments), and counts the work it performs.

Matchmaking
-----------
``query`` is served by one engine behind one cache (both
result-invisible — only the work changes):

1. **Match cache.**  Results are cached per canonical query fingerprint
   (:meth:`BrokerQuery.fingerprint`) and validated against a bounded
   *write log*: one ``(removed name, added name)`` record per plane
   mutation.  An entry remembers the write it is valid at; a lookup
   replays only the records it has missed, and the entry survives them
   unless one removed an agent it lists or added one that passes the
   query (one plane probe for all the added agents together) — a write
   costs a miss to the cached queries it concerns and to no others, so
   dynamic communities never see a stale recommendation and steady
   re-advertising does not empty the cache.  A mutation of the shared
   ontologies / capability hierarchy concerns every entry and empties it.
2. **The columnar plane.**  A
   :class:`~repro.core.columnar.ColumnarPlane` — bitset posting lists,
   interval arrays, compiled constraint checkers — is maintained *in
   place*: ``advertise`` / ``unadvertise`` add or remove exactly the one
   advertisement's postings and column cells, nothing is ever
   recompiled, and a cache miss is answered in vectorized passes
   instead of a per-advertisement walk.

The plane is the only engine.  Its two references are functions, not
backends: :func:`~repro.core.matcher.match_advertisements`, the
canonical per-advertisement scan (explain mode and ``query_brokers``
take it, so every advertisement gets its canonical verdict), and the
one-shot :class:`~repro.core.datalog_matcher.DatalogMatcher`, the
declarative specification of a match.  The tests hold ``query`` to both
over ``agent_ads()``.

Advertisements are held once, in two plain dicts (agents and
brokers); the plane keeps names and columns and fetches the
advertisements a query returns from the agent dict.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from itertools import islice
from typing import Deque, Dict, FrozenSet, List, Optional, Tuple

from repro.core.advertisement import Advertisement
from repro.core.columnar import ColumnarPlane
from repro.core.errors import BrokeringError
from repro.core.matcher import (
    Match,
    MatchContext,
    MatchStats,
    match_advertisements,
)
from repro.core.query import BrokerQuery
from repro.obs.profiler import PROFILER

#: Default bound on distinct cached query fingerprints per repository.
DEFAULT_MATCH_CACHE_SIZE = 256


@dataclass
class RepositoryStats:
    """Work counters for cost accounting and tests."""

    advertisements_accepted: int = 0
    advertisements_removed: int = 0
    queries_answered: int = 0
    advertisements_reasoned_over: int = 0
    #: Advertisements the posting intersection excluded without reasoning.
    candidates_pruned: int = 0
    #: Match-cache outcomes (hits skip matching entirely).
    cache_hits: int = 0
    cache_misses: int = 0


class BrokerRepository:
    """Advertisement storage and local matchmaking for one broker.

    ``match_cache_size`` bounds the fingerprint-keyed match cache and
    the write log it is validated against (0 disables both).
    """

    def __init__(
        self,
        context: Optional[MatchContext] = None,
        match_cache_size: int = DEFAULT_MATCH_CACHE_SIZE,
    ):
        if match_cache_size < 0:
            raise BrokeringError("match_cache_size must be >= 0")
        #: The stored advertisements, oldest insertion first; a name is
        #: in at most one of the two.
        self._agents: Dict[str, Advertisement] = {}
        self._brokers: Dict[str, Advertisement] = {}
        #: Memoised :meth:`size_mb`; None once a write has moved it.
        self._size_mb: Optional[float] = None
        self.context = context or MatchContext()
        self.match_cache_size = match_cache_size
        #: Bumped on every repository mutation *and* whenever the shared
        #: semantic knowledge (ontologies, capability hierarchy) moves.
        self._generation = 0
        self._knowledge_stamp = self._context_stamp()
        #: Plane mutations so far — the sequence cached lists are valid at.
        self._writes = 0
        #: The last ``match_cache_size`` plane mutations, oldest first:
        #: ``(removed agent name | None, added agent name | None)``.
        self._write_log: Deque[Tuple[Optional[str], Optional[str]]] = deque(
            maxlen=match_cache_size
        )
        #: fingerprint -> (write sequence the list is valid at, ranked
        #: matches, their agent names), least recently used first.
        self._match_cache: (
            "OrderedDict[tuple, Tuple[int, Tuple[Match, ...], FrozenSet[str]]]"
        ) = OrderedDict()
        #: The engine's own view of the stored agent advertisements,
        #: kept in step by :meth:`_reindex`.
        self._plane = ColumnarPlane(self._agents.__getitem__)
        self.stats = RepositoryStats()

    def clone_empty(self) -> "BrokerRepository":
        """A fresh, empty repository with the same configuration — what a
        strict crash leaves behind (the match context is shared ontology
        knowledge, not volatile broker state)."""
        return BrokerRepository(self.context, match_cache_size=self.match_cache_size)

    # ------------------------------------------------------------------
    # generation stamping
    # ------------------------------------------------------------------
    def _context_stamp(self) -> tuple:
        """A snapshot of the shared semantic knowledge: which ontology /
        hierarchy objects the context holds and their mutation counters.
        Ontology *reloads* (a new object under the same name) change the
        identity component; in-place mutation changes the version."""
        context = self.context
        hierarchy = context.capability_hierarchy
        stamp = [(id(hierarchy), getattr(hierarchy, "version", 0))]
        for name in sorted(context.ontologies):
            ontology = context.ontologies[name]
            stamp.append((name, id(ontology), getattr(ontology, "version", 0)))
        return tuple(stamp)

    def _refresh_knowledge(self) -> None:
        """Re-take the semantic-knowledge snapshot; when it has moved (a
        class added after an ontology reload, a hierarchy extension)
        every cached match list was computed under closures that no
        longer hold, so the cache is emptied in the same step that
        adopts the new snapshot.  The plane needs no such step: it
        stores exact names and expands closures per query."""
        stamp = self._context_stamp()
        if stamp != self._knowledge_stamp:
            self._knowledge_stamp = stamp
            self._generation += 1
            self._match_cache.clear()

    @property
    def generation(self) -> int:
        """The monotonic mutation stamp: moves on every advertise /
        unadvertise (broker advertisements included) and whenever the
        shared semantic knowledge does.  It tells callers *that*
        something changed; the match cache decides per entry whether the
        change concerns it (:meth:`_still_valid`)."""
        self._refresh_knowledge()
        return self._generation

    def _bump_generation(self) -> None:
        self._generation += 1

    # ------------------------------------------------------------------
    # advertisement lifecycle
    # ------------------------------------------------------------------
    def advertise(self, ad: Advertisement) -> None:
        """Store or update an advertisement (agents re-advertise freely).

        A re-advertisement fully replaces the previous one — including
        across the agent/broker boundary, so an agent that starts
        advertising broker capabilities (or vice versa) never leaves a
        stale entry in the other dict or the engine's index.
        """
        name = ad.agent_name
        previous = self._agents.pop(name, None)
        self._brokers.pop(name, None)
        self._size_mb = None
        if ad.is_broker():
            self._brokers[name] = ad
            self._reindex(previous, None)
        else:
            self._agents[name] = ad
            self._reindex(previous, ad)
        self._bump_generation()
        self.stats.advertisements_accepted += 1

    def unadvertise(self, agent_name: str) -> bool:
        """Remove an agent's advertisement; True when one was present."""
        previous = self._agents.pop(agent_name, None)
        if previous is not None:
            self._reindex(previous, None)
        elif self._brokers.pop(agent_name, None) is None:
            return False
        self._size_mb = None
        self._bump_generation()
        self.stats.advertisements_removed += 1
        return True

    def _reindex(
        self, old: Optional[Advertisement], new: Optional[Advertisement]
    ) -> None:
        """Swap one agent's advertisement in the plane: *old* (if any)
        leaves, *new* (if any) enters — in place, touching only what
        that one advertisement occupies — and log the swap for the match
        cache.  A broker advertisement that displaces no agent touches
        neither."""
        if old is None and new is None:
            return
        self._writes += 1
        self._write_log.append((
            None if old is None else old.agent_name,
            None if new is None else new.agent_name,
        ))
        if PROFILER.enabled:
            PROFILER.begin("match.columnar.build")
        try:
            if old is not None:
                self._plane.remove(old)
            if new is not None:
                self._plane.add(new)
        finally:
            if PROFILER.enabled:
                PROFILER.end("match.columnar.build")

    def knows(self, agent_name: str) -> bool:
        return agent_name in self._agents or agent_name in self._brokers

    def find(self, agent_name: str) -> Optional[Advertisement]:
        """The stored advertisement of *agent_name*, or None."""
        ad = self._agents.get(agent_name)
        return ad if ad is not None else self._brokers.get(agent_name)

    def get(self, agent_name: str) -> Advertisement:
        ad = self.find(agent_name)
        if ad is None:
            raise BrokeringError(f"no advertisement for agent {agent_name!r}")
        return ad

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def agent_names(self) -> List[str]:
        return sorted(self._agents)

    def broker_names(self) -> List[str]:
        return sorted(self._brokers)

    def agent_ads(self) -> List[Advertisement]:
        """Stored agent advertisements, oldest insertion first."""
        return list(self._agents.values())

    def broker_ads(self) -> List[Advertisement]:
        return list(self._brokers.values())

    @property
    def agent_count(self) -> int:
        return len(self._agents)

    @property
    def broker_count(self) -> int:
        return len(self._brokers)

    def size_mb(self) -> float:
        """Total stored advertisement volume (agents + brokers)."""
        # Always the whole sum, never a running add / subtract: the
        # float must not depend on the order the ads came and went in.
        if self._size_mb is None:
            self._size_mb = sum(ad.size_mb for ad in self._agents.values()) + sum(
                ad.size_mb for ad in self._brokers.values()
            )
        return self._size_mb

    # ------------------------------------------------------------------
    # matchmaking
    # ------------------------------------------------------------------
    def query(self, query: BrokerQuery, observer=None) -> List[Match]:
        """Match *query* against the stored (non-broker) advertisements.

        *observer* (a :class:`repro.obs.Observer`) receives the per-query
        matching work — candidates reasoned over, pruned, cache
        outcomes, constraint-overlap attempts vs. hits — as
        ``matcher.*`` / ``repo.*`` counters."""
        self.stats.queries_answered += 1
        observer = observer if observer is not None and observer.enabled else None

        sink = self.context.explain_sink
        if sink is not None:
            return self._query_explained(query, sink, observer)

        key = query.fingerprint() if self.match_cache_size else None
        if key is not None:
            cached = self._cache_lookup(key, query, observer)
            if cached is not None:
                return cached
        matches = self._match([query], observer)[0]
        if key is not None:
            self._cache_store(key, matches)
        return matches

    def query_batch(self, queries: List[BrokerQuery], observer=None) -> List[List[Match]]:
        """Answer many queries in one pass (micro-batched recommends).

        Cache misses go to the engine together, so on the plane queries
        with equal posting prefixes share one bitset intersection
        (:meth:`ColumnarPlane.match_batch`).  Results are positionally
        aligned with *queries*.
        """
        if self.context.explain_sink is not None:
            return [self.query(query, observer=observer) for query in queries]
        observer = observer if observer is not None and observer.enabled else None
        results: List[Optional[List[Match]]] = [None] * len(queries)
        misses: List[Tuple[int, Optional[tuple], BrokerQuery]] = []
        for position, query in enumerate(queries):
            self.stats.queries_answered += 1
            key = query.fingerprint() if self.match_cache_size else None
            if key is not None:
                cached = self._cache_lookup(key, query, observer)
                if cached is not None:
                    results[position] = cached
                    continue
            misses.append((position, key, query))
        if misses:
            answered = self._match([query for _, _, query in misses], observer)
            for (position, key, _query), matches in zip(misses, answered):
                results[position] = matches
                if key is not None:
                    self._cache_store(key, matches)
        return results

    def _cache_lookup(self, key, query, observer) -> Optional[List[Match]]:
        if PROFILER.enabled:
            PROFILER.begin("cache.lookup")
        try:
            self._refresh_knowledge()
            entry = self._match_cache.get(key)
            if entry is not None and (
                entry[0] == self._writes or self._still_valid(key, query, entry)
            ):
                self._match_cache.move_to_end(key)
                self.stats.cache_hits += 1
                if observer is not None:
                    observer.inc("repo.cache.count", outcome="hit")
                return list(entry[1])
            self.stats.cache_misses += 1
            if observer is not None:
                observer.inc("repo.cache.count", outcome="miss")
            return None
        finally:
            if PROFILER.enabled:
                PROFILER.end("cache.lookup")

    def _still_valid(self, key, query: BrokerQuery, entry) -> bool:
        """Replay the plane mutations *entry* has missed.

        A list computed at write *s* is what a recompute returns at *t*
        iff no agent removed in (s, t] is in it and no agent added in
        (s, t] and still present matches the query.  The removals are
        set lookups; the additions are OR-ed into one plane probe,
        however long the log.  A valid entry is re-stamped at *t*; one
        that has fallen off the log is a miss.
        """
        sequence, matches, names = entry
        log = self._write_log
        behind = self._writes - sequence
        if behind > len(log):
            return False
        added = set()
        for removed, entered in islice(log, len(log) - behind, None):
            if removed in names:
                return False
            if entered is not None:
                added.add(entered)
        if added and self._plane.matches_any(query, self.context, added):
            return False
        self._match_cache[key] = (self._writes, matches, names)
        return True

    def _cache_store(self, key, matches: List[Match]) -> None:
        self._match_cache[key] = (
            self._writes,
            tuple(matches),
            frozenset(match.agent_name for match in matches),
        )
        self._match_cache.move_to_end(key)
        while len(self._match_cache) > self.match_cache_size:
            self._match_cache.popitem(last=False)

    def _match(self, queries: List[BrokerQuery], observer) -> List[List[Match]]:
        """Answer cache misses in one vectorized pass over the plane."""
        stats = MatchStats() if observer is not None else None
        stored = len(self._agents)
        if PROFILER.enabled:
            PROFILER.begin("match.columnar.sweep")
        try:
            answered = self._plane.match_batch(queries, self.context, stats)
        finally:
            if PROFILER.enabled:
                PROFILER.end("match.columnar.sweep")
        for _matches, candidates in answered:
            self.stats.advertisements_reasoned_over += candidates
            self.stats.candidates_pruned += stored - candidates
            if observer is not None:
                observer.inc("repo.index.pruned", stored - candidates)
        if observer is not None:
            self._observe_match_stats(observer, stats)
        return [matches for matches, _candidates in answered]

    @staticmethod
    def _observe_match_stats(observer, stats: MatchStats) -> None:
        observer.inc("matcher.candidates", stats.candidates)
        observer.inc("matcher.matched", stats.matched)
        observer.inc("matcher.constraint.attempts", stats.constraint_checks)
        observer.inc("matcher.constraint.hits", stats.constraint_hits)
        for reason, count in stats.rejects.items():
            observer.inc("broker.match.reject", count, reason=reason)

    def _query_explained(self, query: BrokerQuery, sink, observer) -> List[Match]:
        """EXPLAIN-ANALYZE mode: answer *query* while recording exactly
        one verdict per stored advertisement.

        Bypasses the match cache and the columnar plane — a cache hit
        would record nothing and the vectorized passes cannot attribute
        a canonical reject reason — so this path costs a full scan by
        design; it is only reachable when the caller opted into
        explanation.
        """
        candidates = list(self._agents.values())
        self.stats.advertisements_reasoned_over += len(candidates)
        stats = MatchStats()
        matches = match_advertisements(
            query, candidates, self.context, stats, explain=sink,
        )
        sink.queries[-1].backend = "columnar"  # the engine that was bypassed
        if observer is not None:
            self._observe_match_stats(observer, stats)
        return matches

    def query_brokers(self, query: BrokerQuery) -> List[Match]:
        """Match *query* against stored *broker* advertisements (used to
        prune the inter-broker search).  Broker-directory reasoning is
        never part of an agent-matchmaking explain trail."""
        self.stats.advertisements_reasoned_over += len(self._brokers)
        return match_advertisements(query, self._brokers.values(),
                                    self.context, explain=None)
