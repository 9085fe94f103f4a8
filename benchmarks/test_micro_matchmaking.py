"""Microbenchmark — the matchmaking hot path at community scale.

Times a repeated query batch against repositories of 100 / 1 000 /
5 000 / 50 000 advertisements under three variants:

* ``scan``        — :func:`match_advertisements`, the per-ad matcher
  function over every advertisement (the reference; no repository);
* ``plane``       — the columnar plane, no cache: posting-bitset
  intersection, interval sweep, residual checkers;
* ``plane+cache`` — the production default: the plane behind the
  fingerprint-keyed match cache.

plus ``write_us``: the median wall time of one unadvertise+advertise
pair on the plane-backed repository at that size — in-place maintenance
has its own number, and it must not grow like a recompile would.

The community is the ZBroker-style shape the plane exists for: domain
popularity is *skewed* (a few big ontologies, a long tail), every
advertisement names one market segment and carries its own numeric
data-range summary (``price between lo and lo+40``), and queries ask
narrow price windows over single segments, some with a capability or
conversation requirement on top.  The scan pays the full Python matcher
— including a per-ad constraint-overlap check — for every stored
advertisement; the plane ANDs posting bitsets and sweeps only the
surviving ids through the interval arrays.  Every variant must return
identical ranked results; the timing table is written to
``benchmarks/BENCH_match.json`` (consumed by the README performance
table, the scoreboard and the CI benchmark smoke job).

Set ``REPRO_BENCH_QUICK=1`` (the CI smoke job does) to drop the
50 000-ad tier; the plane-vs-scan floor is asserted in both modes.
"""

import json
import os
import statistics
import time

from repro.constraints import parse_constraint
from repro.core import (
    BrokerQuery,
    BrokerRepository,
    MatchContext,
    match_advertisements,
)
from repro.experiments import format_table
from repro.ontology import healthcare_ontology
from tests.test_core_matcher import make_ad

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"

SIZES = [100, 1_000, 5_000] if QUICK else [100, 1_000, 5_000, 50_000]
#: Queries per batch; the batch repeats so the cache variant can hit.
N_QUERIES = 60
BATCH_REPEATS = 3
#: Unadvertise+advertise pairs timed per size for ``write_us``.
N_WRITES = 200
#: Skewed domain popularity: domain0 holds ~half the community.
DOMAIN_WEIGHTS = [50, 20, 10, 8, 5, 3, 2, 1, 1]
#: Distinct market segments (class posting buckets).
SEGMENTS = 40

#: Repository arguments of the two engine variants; ``scan`` is the
#: function, with no repository around it.
REPOSITORIES = {
    "plane": dict(match_cache_size=0),
    "plane+cache": dict(),
}
VARIANTS = ("scan", *REPOSITORIES)

#: Acceptance floor for plane vs scan at the largest tier.
SPEEDUP_FLOOR = 15.0 if QUICK else 50.0


def _domain_of(i):
    slot = i % sum(DOMAIN_WEIGHTS)
    acc = 0
    for domain, weight in enumerate(DOMAIN_WEIGHTS):
        acc += weight
        if slot < acc:
            return domain
    return 0


def _ontology_of(domain):
    return "healthcare" if domain == 0 else f"domain{domain}"


def _price_span(n):
    """The price axis grows with the community, so a query over the big
    domain finds a handful of matches at every size and one over a tail
    domain usually none."""
    return max(100, n // 8)


def build_ads(n):
    """n resource agents in skewed domains, each advertising one market
    segment and its own price range."""
    ads = []
    span = _price_span(n)
    for i in range(n):
        lo = (i * 37) % span
        ads.append(
            make_ad(
                f"agent{i}",
                ontology=_ontology_of(_domain_of(i)),
                # (i // 3) decorrelates the segment from the domain.
                classes=(f"segment{(i // 3) % SEGMENTS}",),
                functions=("relational",) if i % 3 else ("query-processing",),
                conversations=("ask-all", "subscribe") if i % 4 else ("ask-all",),
                constraints=f"price between {lo} and {lo + 40}",
            )
        )
    return ads


def build_queries(n):
    """Narrow price windows over single segments, uniform over domains:
    most queries target a narrow tail domain (the Section 3.2
    "reasoning over a narrower domain" case), a few hit the big one."""
    queries = []
    span = _price_span(n)
    for i in range(N_QUERIES):
        lo = (i * 911) % span
        queries.append(
            BrokerQuery(
                ontology_name=_ontology_of(i % len(DOMAIN_WEIGHTS)),
                classes=(f"segment{i % SEGMENTS}",),
                capabilities=("select",) if i % 3 == 0 else (),
                conversations=("subscribe",) if i % 4 == 0 else (),
                constraints=parse_constraint(
                    f"price between {lo} and {lo + 25}"
                ),
            )
        )
    return queries


def build_context():
    return MatchContext(ontologies={"healthcare": healthcare_ontology()})


def build_repo(ads, **kwargs):
    repo = BrokerRepository(build_context(), **kwargs)
    for ad in ads:
        repo.advertise(ad)
    return repo


def scan_over(ads):
    """The ``scan`` variant's answer function."""
    context = build_context()
    return lambda query: match_advertisements(query, ads, context)


def run_batch(answer, queries, repeats=BATCH_REPEATS):
    """Total wall seconds for *repeats* passes of *answer* over the
    query batch, plus the (variant-independent) ranked results of the
    final pass."""
    results = None
    started = time.perf_counter()
    for _ in range(repeats):
        results = [
            tuple(m.agent_name for m in answer(query)) for query in queries
        ]
    return time.perf_counter() - started, results


def time_writes(repo, ads):
    """Median microseconds of one unadvertise+advertise pair, over
    agents spread across the whole id range."""
    stride = max(1, len(ads) // N_WRITES)
    pairs = []
    for ad in ads[::stride][:N_WRITES]:
        started = time.perf_counter()
        repo.unadvertise(ad.agent_name)
        repo.advertise(ad)
        pairs.append(time.perf_counter() - started)
    return statistics.median(pairs) * 1e6


def test_micro_matchmaking(once):
    def run_all():
        table = {variant: {} for variant in VARIANTS}
        table["write_us"] = {}
        for size in SIZES:
            column = f"{size} ads"
            ads = build_ads(size)
            queries = build_queries(size)
            table["scan"][column], reference = run_batch(scan_over(ads), queries)
            for variant, kwargs in REPOSITORIES.items():
                repo = build_repo(ads, **kwargs)
                wall, results = run_batch(repo.query, queries)
                # Zero result-set differences, in ranked order.
                assert results == reference, (
                    f"{variant} diverged from scan at {size} ads"
                )
                table[variant][column] = wall
                if variant == "plane":
                    table["write_us"][column] = time_writes(repo, ads)
                    # The writes left the repository as it was.
                    assert run_batch(repo.query, queries, repeats=1)[1] == reference
        return table

    table = once(run_all)

    columns = [f"{size} ads" for size in SIZES]
    speedups = {
        variant: {
            column: table["scan"][column] / table[variant][column]
            for column in columns
        }
        for variant in ("plane", "plane+cache")
    }
    for variant, by_column in speedups.items():
        table[f"speedup ({variant})"] = by_column
    print()
    print(format_table(
        f"Matchmaking hot path: {N_QUERIES}-query batch x{BATCH_REPEATS}, "
        "skewed domains, per-ad price ranges (wall s; write_us in us)",
        table, column_order=columns, row_label="variant",
        value_format="{:.4f}",
    ))

    def by_size(row):
        return {str(size): table[row][f"{size} ads"] for size in SIZES}

    path = os.path.join(os.path.dirname(__file__), "BENCH_match.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "quick": QUICK,
                "sizes": SIZES,
                "queries_per_batch": N_QUERIES,
                "batch_repeats": BATCH_REPEATS,
                "writes_per_size": N_WRITES,
                "wall_seconds": {variant: by_size(variant) for variant in VARIANTS},
                "write_us": by_size("write_us"),
                "speedup_plane_vs_scan": by_size("speedup (plane)"),
                "speedup_cache_vs_scan": by_size("speedup (plane+cache)"),
            },
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")

    # From 1 000 ads up the plane alone must beat the scan (at 100 the
    # batch is a millisecond either way)...
    for column in columns[1:]:
        assert table["plane"][column] < table["scan"][column]
    # ...clearing the acceptance floor at the largest tier...
    top = columns[-1]
    assert speedups["plane"][top] >= SPEEDUP_FLOOR, (
        f"plane only {speedups['plane'][top]:.1f}x faster than scan at {top} "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    # ...and a write stays a per-advertisement cost: no recompile hiding
    # behind it (a 50 000-ad plane compile is ~1 s).
    assert table["write_us"][top] < 1_000.0
