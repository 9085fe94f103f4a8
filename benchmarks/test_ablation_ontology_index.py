"""Ablation — the plane and the match cache, one step at a time.

The seed repository indexed by ontology only ("optimized reasoning over
a narrower domain", Section 3.2); today every dimension a query can
constrain is a posting list of the columnar plane, behind a
fingerprint-keyed match cache.  This ablation isolates the two steps on
a 600-advertisement, 8-domain repository:

* ``scan``        — :func:`match_advertisements`, the per-ad matcher
  function over every advertisement (no repository);
* ``plane``       — posting intersection instead of the walk, no cache;
* ``plane+cache`` — the production default.

(The old "ontology index only" row went with the dict-index tier it
measured; the plane has no knob that disables a dimension.)

Match results are identical across all variants; only the work changes.
"""

import time

from repro.core import (
    BrokerQuery,
    BrokerRepository,
    MatchContext,
    match_advertisements,
)
from repro.experiments import format_table
from tests.test_core_matcher import make_ad

N_ADS = 600
N_DOMAINS = 8
N_QUERIES = 100


def community():
    return [
        make_ad(
            f"agent{i}",
            ontology=f"domain{i % N_DOMAINS}",
            classes=(),
            # (i // N_DOMAINS) decorrelates the conversation split
            # from the domain assignment: half of *every* domain.
            conversations=(
                ("ask-all", "subscribe")
                if (i // N_DOMAINS) % 2
                else ("ask-all",)
            ),
        )
        for i in range(N_ADS)
    ]


def scan():
    ads, context = community(), MatchContext()
    return lambda query: match_advertisements(query, ads, context)


def repository(**kwargs):
    repo = BrokerRepository(MatchContext(), **kwargs)
    for ad in community():
        repo.advertise(ad)
    return repo.query


#: Variant -> builder of its ``answer(query)`` function.
VARIANTS = {
    "scan": scan,
    "plane": lambda: repository(match_cache_size=0),
    "plane+cache": repository,
}


def run_queries(answer) -> float:
    started = time.perf_counter()
    for i in range(N_QUERIES):
        # Half the queries constrain a non-ontology dimension too, so
        # the intersection has more than one posting list to AND.
        query = BrokerQuery(
            ontology_name=f"domain{i % N_DOMAINS}",
            conversations=("subscribe",) if i % 2 else (),
        )
        matches = answer(query)
        per_domain = N_ADS // N_DOMAINS
        expected = per_domain // 2 if i % 2 else per_domain
        assert len(matches) == expected
    return time.perf_counter() - started


def test_ablation_index_dimensions(once):
    def run_all():
        return {
            name: {"wall (s)": run_queries(build())}
            for name, build in VARIANTS.items()
        }

    rows = once(run_all)
    scan = rows["scan"]["wall (s)"]
    for name in list(VARIANTS)[1:]:
        rows[f"speedup: {name}"] = {"wall (s)": scan / rows[name]["wall (s)"]}
    print()
    print(format_table(
        f"Ablation: scan vs plane vs cache, {N_ADS} ads / {N_DOMAINS} domains / "
        f"{N_QUERIES} queries",
        rows, column_order=["wall (s)"], row_label="variant",
        value_format="{:.4f}",
    ))

    # Identical answers were asserted inside run_queries.  Each added
    # layer must not lose to the one before it; on a many-domain
    # repository the ordering scan -> plane -> plane+cache is decisive.
    assert rows["plane"]["wall (s)"] < rows["scan"]["wall (s)"]
    assert rows["plane+cache"]["wall (s)"] < rows["plane"]["wall (s)"]
