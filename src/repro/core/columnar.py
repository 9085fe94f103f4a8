"""The columnar matchmaking plane: vectorized query evaluation over
columns that are maintained in place.

The direct matcher (:mod:`repro.core.matcher`) is a per-advertisement
predicate walk — correct, explainable, and O(ads) Python bytecode per
query.  The plane answers the same query in three vectorized passes:

1. **Posting intersection.**  Every indexable dimension (agent type,
   languages, conversations, capability names, ontology, classes, slots,
   mobility) is a bitset posting list: one Python ``int`` whose bit *i*
   says "advertisement *i* passes this dimension value".  Closure
   expansion (capability cover sets, ontology is-a closures) happens
   per *query*, by OR-ing the posting bitsets of the closure members —
   the plane stores only exact names, so an ontology or hierarchy
   change never touches it.  A query ANDs the bitsets of the dimensions
   it constrains; everything else never allocates per-ad work.
2. **Interval sweep.**  Advertised constraint domains that are a single
   numeric interval live in parallel ``array('d')`` lo/hi columns (with
   ``±inf`` for the open ends) plus per-ad open-endpoint flag bytes; a
   query whose own domain on that slot is a simple interval sweeps only
   the surviving ids through two float comparisons per ad.  Survivor
   ids come from :func:`_bit_indices` — a chunked walk that costs
   O(ads/64 + survivors), not the O(survivors x ads) of repeated
   lowest-bit extraction on one huge int.  Under the sweep sits a
   *grid*: at most 64 cells whose edges are quantiles of the finite
   endpoints, each a bitset of the ads whose interval reaches into it,
   kept in step by ``add`` / ``remove``.  The cells the query interval
   spans are OR-ed and AND-ed into the survivors before any bit is
   unpacked, so the two comparisons run over the handful of ads near
   the query instead of every posting survivor.  The grid only ever
   filters conservatively — any edges are correct — so it is built
   lazily (first sweep over >= 256 simple ads) and rebuilt only when
   the population has doubled since.
3. **Residual checkers.**  Every advertised domain is also grouped by
   its canonical :func:`~repro.constraints.domains.domain_key` and
   compiled once (:func:`~repro.constraints.compile
   .compile_overlap_checker`); when the arrays cannot answer, each
   distinct domain is probed **once per query** and its verdict applied
   to the whole group.

**In-place maintenance.**  :meth:`ColumnarPlane.add` and
:meth:`ColumnarPlane.remove` touch only the postings, column cells and
domain groups the one advertisement occupies — there is no plane
generation and nothing is ever recompiled.  Advertisement ids are
stable: a removed id goes on a free list and the next ``add`` reuses
it, so under churn the bitsets never grow past the peak live
population.  Columns grow by append.  Domain groups keep their members
as id *sets* (O(1) removal, memory proportional to the ads, not to
groups x ads) and materialize a dense bitset only once a query actually
probes the group.

Survivors of all three passes are exactly the advertisements the direct
matcher accepts (``tests/test_columnar.py``,
``tests/test_matchmaking_equivalence.py`` and the stateful machine in
``tests/test_repository_index.py`` assert ranked-identical output);
they are scored and ranked by the same
:func:`~repro.core.scoring.score_match` the scan uses, so scores — not
just match sets — are identical.

Explain mode is *not* served here: a verdict trail needs one verdict
per advertisement with the canonical reject reason, which is precisely
the per-ad walk this plane exists to skip.  The repository routes
explain-mode queries through the scan instead (see
``BrokerRepository._query_explained``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.constraints.compile import (
    compile_overlap_checker,
    simple_numeric_interval,
)
from repro.constraints.domains import Domain, domain_key
from repro.core.advertisement import Advertisement
from repro.core.matcher import Match, MatchContext, MatchStats, _match_slots
from repro.core.query import BrokerQuery
from repro.core.scoring import score_match

_INF = float("inf")

#: Most cells a column's grid has, and the fewest simple-interval ads
#: a column must hold before a sweep builds it one.
_GRID_CELLS = 64
_GRID_MIN_ADS = 256


def _bit_indices(mask: int) -> List[int]:
    """Ascending indices of the set bits of *mask*.

    Chunked through a 64-bit memoryview so the cost is
    O(bits/64 + popcount): repeated ``mask & -mask`` extraction on a
    community-sized int is O(popcount x bits/64) — it re-scans the
    whole number for every survivor — and dominated query time at
    50 000 advertisements.
    """
    if not mask:
        return []
    if not mask & (mask - 1):  # one bit: what a match-cache probe sweeps
        return [mask.bit_length() - 1]
    out = []
    n_bytes = (mask.bit_length() + 7) // 8
    data = memoryview(mask.to_bytes(n_bytes + (-n_bytes) % 8, "little"))
    base = 0
    for word in data.cast("Q"):
        while word:
            low = word & -word
            out.append(base + low.bit_length() - 1)
            word ^= low
        base += 64
    return out


def _mask_from_indices(indices: Iterable[int], top: int) -> int:
    """Inverse of :func:`_bit_indices`: OR-free mask reassembly in
    O(top/8 + len(indices)) via a byte buffer; *top* is any bound on
    the largest index."""
    buffer = bytearray((top >> 3) + 1)
    for i in indices:
        buffer[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buffer, "little")


class _DomainGroup:
    """The ads advertising one canonical domain on one slot."""

    __slots__ = ("checker", "ids", "mask")

    def __init__(self, domain: Domain):
        self.checker = compile_overlap_checker(domain)
        self.ids: Set[int] = set()
        #: Dense bitset of ``ids`` — None until a query probes the
        #: group, maintained in place from then on.
        self.mask: Optional[int] = None

    def bitset(self) -> int:
        if self.mask is None:
            self.mask = _mask_from_indices(self.ids, max(self.ids))
        return self.mask


class _SlotColumn:
    """Per-slot constraint columns: which ads restrict the slot, their
    simple-interval arrays, and compiled checkers per distinct domain."""

    __slots__ = (
        "restricted_mask", "simple_mask", "lo", "hi",
        "open_flags", "groups", "simple_groups",
        "simple_count", "grid_edges", "grid_cells", "grid_built_at",
    )

    #: ``open_flags`` bits: the ad's interval is open at that end.
    _LO_OPEN = 1
    _HI_OPEN = 2

    def __init__(self):
        #: Ads restricting this slot at all (others pass vacuously).
        self.restricted_mask = 0
        #: Ads whose domain is one numeric interval (array-resident).
        self.simple_mask = 0
        self.simple_count = 0  # its popcount, kept by add / remove
        self.lo = array("d")
        self.hi = array("d")
        #: Per-ad open-endpoint flags — a byte per ad, not a bitmask,
        #: so the sweep reads them in O(1) per survivor.
        self.open_flags = bytearray()
        #: The grid under the sweep: ascending cell edges (None while
        #: there is no grid) and one bitset per cell — cell *j* holds
        #: the simple ads whose ``[lo, hi]`` reaches into
        #: ``(edges[j-1], edges[j]]`` — plus the simple population it
        #: was built at.  Only ever a conservative filter, see
        #: :meth:`_cell_span`.
        self.grid_edges: Optional[List[float]] = None
        self.grid_cells: List[int] = []
        self.grid_built_at = 0
        #: domain_key -> group, for non-simple domains.
        self.groups: Dict[object, _DomainGroup] = {}
        #: domain_key -> group, for simple domains — probed when the
        #: *query* domain is not a simple interval and the arrays
        #: cannot answer.
        self.simple_groups: Dict[object, _DomainGroup] = {}

    def add(self, ad_id: int, bit: int, domain: Domain) -> None:
        self.restricted_mask |= bit
        simple = simple_numeric_interval(domain)
        if simple is not None:
            short = ad_id + 1 - len(self.lo)
            if short > 0:
                self.lo.frombytes(bytes(8 * short))
                self.hi.frombytes(bytes(8 * short))
                self.open_flags.extend(bytes(short))
            lo, hi, lo_open, hi_open = simple
            self.simple_mask |= bit
            self.simple_count += 1
            self.lo[ad_id] = lo
            self.hi[ad_id] = hi
            self.open_flags[ad_id] = (
                (self._LO_OPEN if lo_open else 0)
                | (self._HI_OPEN if hi_open else 0)
            )
            if self.grid_edges is not None:
                if self.simple_count > 2 * self.grid_built_at:
                    # The quantiles describe a population half this
                    # size: the next sweep builds them afresh.
                    self.grid_edges = None
                else:
                    cells = self.grid_cells
                    for j in self._cell_span(lo, hi):
                        cells[j] |= bit
            groups = self.simple_groups
        else:
            groups = self.groups
        key = domain_key(domain)
        group = groups.get(key)
        if group is None:
            group = groups[key] = _DomainGroup(domain)
        group.ids.add(ad_id)
        if group.mask is not None:
            group.mask |= bit

    def remove(self, ad_id: int, bit: int, keep: int, domain: Domain) -> None:
        """Undo :meth:`add`; *keep* is ``~bit`` (the caller has it)."""
        self.restricted_mask &= keep
        if self.simple_mask & bit:
            self.simple_mask &= keep
            self.simple_count -= 1
            if self.grid_edges is not None:
                cells = self.grid_cells
                for j in self._cell_span(self.lo[ad_id], self.hi[ad_id]):
                    cells[j] &= keep
            groups = self.simple_groups
        else:
            groups = self.groups
        key = domain_key(domain)
        group = groups[key]
        group.ids.discard(ad_id)
        if not group.ids:
            del groups[key]
        elif group.mask is not None:
            group.mask &= keep

    def _cell_span(self, lo: float, hi: float) -> range:
        """The grid cells the closed interval ``[lo, hi]`` reaches into.

        Cell numbering is monotone in the value, so two intervals that
        share a point both span that point's cell: OR-ing the cells a
        query spans can never lose an overlapping ad, whatever the
        edges are and however stale — they only decide how many
        non-overlapping ads come along (``±inf`` ends land in the edge
        cells, open ends are treated as closed)."""
        edges = self.grid_edges
        return range(bisect_left(edges, lo), bisect_left(edges, hi) + 1)

    def _build_grid(self) -> None:
        """An equi-depth grid over the live simple ads: the edges are
        quantiles of their finite endpoints, so each cell is reached by
        about the same number of ads wherever the values cluster."""
        lo, hi = self.lo, self.hi
        ids = _bit_indices(self.simple_mask)
        finite = sorted(
            value for i in ids for value in (lo[i], hi[i])
            if -_INF < value < _INF
        )
        self.grid_edges = sorted({
            finite[k * len(finite) // _GRID_CELLS]
            for k in range(1, _GRID_CELLS)
        }) if finite else []
        members: List[List[int]] = [[] for _ in range(len(self.grid_edges) + 1)]
        for i in ids:
            for j in self._cell_span(lo[i], hi[i]):
                members[j].append(i)
        self.grid_cells = [_mask_from_indices(cell, ids[-1]) for cell in members]
        self.grid_built_at = len(ids)

    def overlap_mask(self, query_domain: Domain, live: int) -> int:
        """Bits of *live* (all restricted here) whose advertised domain
        overlaps *query_domain*."""
        passing = 0
        simple_live = live & self.simple_mask
        probed = [self.groups] if live != simple_live else []
        if simple_live:
            query_simple = simple_numeric_interval(query_domain)
            if query_simple is None:
                probed.append(self.simple_groups)
            else:
                qlo, qhi, qlo_open, qhi_open = query_simple
                if self.grid_edges is None and self.simple_count >= _GRID_MIN_ADS:
                    self._build_grid()
                if self.grid_edges is not None:
                    # Only the ads reaching into a cell the query spans
                    # can overlap it; the rest never get unpacked.
                    reach = 0
                    cells = self.grid_cells
                    for j in self._cell_span(qlo, qhi):
                        reach |= cells[j]
                    simple_live &= reach
                # Inlined intervals_overlap() with the ad interval on
                # the left: a call + tuple per survivor costs more than
                # the two comparisons it wraps.
                lo, hi, flags = self.lo, self.hi, self.open_flags
                hits = []
                for i in _bit_indices(simple_live):
                    ad_lo = lo[i]
                    ad_hi = hi[i]
                    if ad_hi < qlo or qhi < ad_lo:
                        continue
                    if ad_hi == qlo and (qlo_open or flags[i] & 2):
                        continue
                    if qhi == ad_lo and (qhi_open or flags[i] & 1):
                        continue
                    hits.append(i)
                if hits:
                    passing = _mask_from_indices(hits, hits[-1])
        for groups in probed:
            for group in groups.values():
                if group.checker(query_domain):
                    passing |= group.bitset() & live
        return passing


class ColumnarPlane:
    """The live columns of one repository.

    :meth:`add` / :meth:`remove` maintain them one advertisement at a
    time; :meth:`match` / :meth:`match_batch` answer queries.  The plane
    holds advertisement *names* plus columns — never the advertisements
    themselves; survivors are materialized through the ``fetch``
    callable (the repository's own agent lookup).
    """

    def __init__(self, fetch: Callable[[str], Advertisement]):
        self._fetch = fetch
        #: Ad id -> agent name (None while the id sits on the free list).
        self._names: List[Optional[str]] = []
        self._ids: Dict[str, int] = {}
        self._free: List[int] = []
        #: Live ads whose constraint conjunction is satisfiable; an
        #: unsatisfiable ad is rejected for every query (``overlaps``
        #: is False against anything), so every match starts here.
        self._matchable_mask = 0
        self._by_agent_type: Dict[str, int] = {}
        self._by_content_language: Dict[str, int] = {}
        self._by_communication_language: Dict[str, int] = {}
        self._by_conversation: Dict[str, int] = {}
        self._by_capability: Dict[str, int] = {}
        #: Ontology name -> mask; ``""`` collects content-unrestricted ads.
        self._by_ontology: Dict[str, int] = {}
        #: Class / slot name -> mask; ``None`` collects the ads listing
        #: no classes / no slots (they pass those requirements vacuously).
        self._by_class: Dict[Optional[str], int] = {}
        self._by_slot: Dict[Optional[str], int] = {}
        #: ``True`` -> the mobile ads.
        self._by_mobility: Dict[bool, int] = {}
        self._slot_columns: Dict[str, _SlotColumn] = {}
        #: Advertised response time (-inf = unadvertised, passes any cap).
        self._response_time = array("d")

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def capacity(self) -> int:
        """Ad ids ever issued — the width of every bitset and column.
        The free list keeps it at the peak live population."""
        return len(self._names)

    # ------------------------------------------------------------------
    # in-place maintenance
    # ------------------------------------------------------------------
    def _postings(self, ad: Advertisement):
        """``(posting dict, key)`` for every posting list *ad* occupies."""
        desc = ad.description
        yield self._by_agent_type, desc.agent_type
        for language in desc.syntax.content_languages:
            yield self._by_content_language, language
        for language in desc.syntax.communication_languages:
            yield self._by_communication_language, language
        for conversation in desc.capabilities.conversations:
            yield self._by_conversation, conversation
        for function in desc.capabilities.functions:
            yield self._by_capability, function
        yield self._by_ontology, desc.content.ontology_name or ""
        for cls in desc.content.classes or (None,):
            yield self._by_class, cls
        for slot in desc.content.slots or (None,):
            yield self._by_slot, slot
        if desc.properties.mobile:
            yield self._by_mobility, True

    def add(self, ad: Advertisement) -> None:
        """Enter *ad* (whose agent must not be present) into the plane."""
        name = ad.agent_name
        if name in self._ids:
            raise ValueError(f"agent {name!r} is already in the plane")
        desc = ad.description
        advertised_time = desc.properties.estimated_response_time
        response_time = -_INF if advertised_time is None else advertised_time
        if self._free:
            ad_id = self._free.pop()
            self._names[ad_id] = name
            self._response_time[ad_id] = response_time
        else:
            ad_id = len(self._names)
            self._names.append(name)
            self._response_time.append(response_time)
        self._ids[name] = ad_id
        bit = 1 << ad_id
        for index, key in self._postings(ad):
            index[key] = index.get(key, 0) | bit
        constraints = desc.content.constraints
        if constraints.is_satisfiable():
            self._matchable_mask |= bit
            for slot in constraints.slots:
                column = self._slot_columns.get(slot)
                if column is None:
                    column = self._slot_columns[slot] = _SlotColumn()
                column.add(ad_id, bit, constraints.domain(slot))

    def remove(self, ad: Advertisement) -> None:
        """Withdraw *ad* — the advertisement :meth:`add` was given for
        this agent — and put its id on the free list."""
        ad_id = self._ids.pop(ad.agent_name)
        self._names[ad_id] = None
        self._free.append(ad_id)
        bit = 1 << ad_id
        keep = ~bit
        for index, key in self._postings(ad):
            remaining = index.get(key, 0) & keep
            if remaining:
                index[key] = remaining
            else:  # pop, not del: an ad may list one value twice
                index.pop(key, None)
        if self._matchable_mask & bit:
            self._matchable_mask &= keep
            constraints = ad.description.content.constraints
            for slot in constraints.slots:
                column = self._slot_columns[slot]
                column.remove(ad_id, bit, keep, constraints.domain(slot))
                if not column.restricted_mask:
                    del self._slot_columns[slot]

    # ------------------------------------------------------------------
    # query evaluation
    # ------------------------------------------------------------------
    def posting_mask(self, query: BrokerQuery, context: MatchContext) -> int:
        """Pass 1: AND the posting bitsets of every dimension the query
        constrains — exact for those dimensions, slot coverage and
        mobility included."""
        mask = self._matchable_mask
        if not mask:
            return 0
        if query.agent_type is not None:
            mask &= self._by_agent_type.get(query.agent_type, 0)
        if query.content_language is not None:
            mask &= self._by_content_language.get(query.content_language, 0)
        if query.communication_language is not None:
            mask &= self._by_communication_language.get(
                query.communication_language, 0
            )
        for conversation in query.conversations:
            mask &= self._by_conversation.get(conversation, 0)
            if not mask:
                return 0
        if query.capabilities and mask:
            hierarchy = context.capability_hierarchy
            for requested in query.capabilities:
                bucket = 0
                for function in hierarchy.cover_set(requested):
                    bucket |= self._by_capability.get(function, 0)
                mask &= bucket
                if not mask:
                    return 0
        if query.ontology_name is not None and mask:
            mask &= (
                self._by_ontology.get(query.ontology_name, 0)
                | self._by_ontology.get("", 0)
            )
        if query.classes and mask:
            for requested in query.classes:
                bucket = self._by_class.get(None, 0)
                for cls in context.related_classes(
                    query.ontology_name, requested
                ):
                    bucket |= self._by_class.get(cls, 0)
                mask &= bucket
                if not mask:
                    return 0
        if query.slots and mask:
            unrestricted = self._by_slot.get(None, 0)
            if query.allow_partial_slots:
                bucket = unrestricted
                for slot in query.slots:
                    bucket |= self._by_slot.get(slot, 0)
                mask &= bucket
            else:
                for slot in query.slots:
                    mask &= unrestricted | self._by_slot.get(slot, 0)
                    if not mask:
                        return 0
        if query.require_mobile is not None and mask:
            mobile = self._by_mobility.get(True, 0)
            mask &= mobile if query.require_mobile else ~mobile
        return mask

    def constraint_mask(self, query: BrokerQuery, mask: int) -> int:
        """Passes 2+3: interval sweep and residual checkers, one
        query-restricted slot at a time."""
        constraints = query.constraints
        if constraints.is_unconstrained() or not mask:
            return mask
        for slot in constraints.slots:
            column = self._slot_columns.get(slot)
            if column is None:
                continue  # no stored ad restricts this slot
            restricted = mask & column.restricted_mask
            if not restricted:
                continue
            passing = mask & ~column.restricted_mask
            passing |= column.overlap_mask(constraints.domain(slot), restricted)
            mask = passing
            if not mask:
                return 0
        return mask

    def match(
        self,
        query: BrokerQuery,
        context: MatchContext,
        stats: Optional[MatchStats] = None,
    ) -> Tuple[List[Match], int]:
        """All matches for *query*, ranked exactly like the scan, plus
        the posting-survivor count (the repository's pruning metric).

        With *stats*, ``candidates`` counts posting survivors (the ads
        vectorized passes actually touched), ``constraint_checks`` /
        ``constraint_hits`` the constraint phase's entry/exit
        population.  Per-reason reject counts need the per-ad walk and
        stay empty here — explain mode reports those.
        """
        return self._finish(query, context, stats,
                            self.posting_mask(query, context))

    def matches_any(
        self, query: BrokerQuery, context: MatchContext, names: Iterable[str]
    ) -> bool:
        """Whether any agent of *names* that is in the plane passes
        *query*: the passes of :meth:`match` over those ids alone, in
        one probe, with nothing fetched or scored.  (The repository's
        match cache asks this of the agents advertised since a cached
        list was computed.)"""
        ids = self._ids
        present = [ids[name] for name in names if name in ids]
        if not present:
            return False
        mask = self.posting_mask(query, context) & _mask_from_indices(
            present, len(self._names)
        )
        return bool(self._within_cap(query, self.constraint_mask(query, mask)))

    def match_batch(
        self,
        queries: List[BrokerQuery],
        context: MatchContext,
        stats: Optional[MatchStats] = None,
    ) -> List[Tuple[List[Match], int]]:
        """One pass over many queries: queries sharing a fingerprint
        prefix (:meth:`BrokerQuery.posting_prefix` — every
        match-relevant field except the constraint tail) reuse one
        posting intersection instead of recomputing it."""
        posting_memo: Dict[tuple, int] = {}
        results = []
        for query in queries:
            prefix = query.posting_prefix()
            mask = posting_memo.get(prefix)
            if mask is None:
                mask = posting_memo[prefix] = self.posting_mask(query, context)
            results.append(self._finish(query, context, stats, mask))
        return results

    def _within_cap(self, query: BrokerQuery, mask: int) -> List[int]:
        """Ascending ids of *mask* whose advertised response time is
        within the query's cap."""
        survivors = _bit_indices(mask)
        if query.max_response_time is not None:
            cap, response_time = query.max_response_time, self._response_time
            survivors = [i for i in survivors if response_time[i] <= cap]
        return survivors

    def _finish(
        self, query: BrokerQuery, context: MatchContext,
        stats: Optional[MatchStats], mask: int,
    ) -> Tuple[List[Match], int]:
        """Constraint passes, response-time cap and ranking for the
        posting survivors in *mask*."""
        candidates = mask.bit_count()
        if stats is not None:
            stats.candidates += candidates
            stats.constraint_checks += candidates
        mask = self.constraint_mask(query, mask)
        if stats is not None:
            stats.constraint_hits += mask.bit_count()
        survivors = self._within_cap(query, mask)
        # Fetch survivors and rank them with the shared scoring
        # function — identical arithmetic to the scan, so equal scores.
        names = self._names
        fetch = self._fetch
        matches = []
        for i in survivors:
            ad = fetch(names[i])
            matches.append(Match(
                advertisement=ad,
                score=score_match(query, ad, context),
                matched_slots=tuple(_match_slots(query, ad)),
            ))
        matches.sort(key=lambda m: (-m.score, m.agent_name))
        if stats is not None:
            stats.matched += len(matches)
        return matches, candidates
