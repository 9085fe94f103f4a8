"""The six workloads: input generation, set-up, the measured section
and the correctness check of each.

Every workload is a batch job at a stated size, generated and run by
one thread.  A workload object lives for one batch:

* ``setup(seed, scale, observe)`` generates the inputs from *seed* and
  builds the community or repository, warm-up included — everything a
  user pays before the first measured operation;
* ``measure()`` is the timed section and nothing else;
* ``verify()`` runs after the clock has stopped and returns a
  :class:`Verdict`.

Only the narrow API listed in ``README.md`` is used: default
constructor arguments, no ``engine=`` / ``index_mode=`` selection and
no private attributes, so the program is free to change its defaults
and delete paths without this file noticing.  The program never sees a
workload name.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro import obs
from repro.constraints import parse_constraint
from repro.core import Advertisement, BrokerQuery, BrokerRepository, MatchContext
from repro.experiments import build_experiment_community, workload_config
from repro.ontology import AgentLocation, ContentInfo, ServiceDescription
from repro.sim import BrokerStrategy, SimConfig, Simulation

HOUR = 3600.0

#: Row count every ``mrq_live`` stream must return, committed beside
#: the workload so the check does not re-derive it from the program.
MRQ_GOLDEN = json.loads(
    (Path(__file__).with_name("golden_mrq.json")).read_text(encoding="utf-8")
)


@dataclass
class Verdict:
    """What one batch did, judged after the clock stopped."""

    attempted: int  # operations issued
    useful: int  # operations that completed with the right answer
    wrong: int  # operations whose outcome fails the correctness check
    #: Virtual response times (s) of answered queries: drift detectors.
    responses: list = field(default_factory=list)


class Workload:
    """What the harness reads off any workload; a family overrides the
    parts it has."""

    bus = None  # the community's message bus, when there is one
    ads = ()  # advertisements held by the repository under test
    query_s = ()  # per-call wall seconds of ``repo.query``
    write_s = ()  # per-pair wall seconds of unadvertise + advertise

    def stats_delta(self):
        """Repository work counters accrued by the measured section."""
        return {}


# ----------------------------------------------------------------------
# simulated communities (scalability, flashcrowd, flashcrowd_observed)
# ----------------------------------------------------------------------
def scalability_config(seed, scale):
    """Figure 17's largest point: 225 resources under 22 specialized
    brokers, 1 MB advertisements, QF = 40, paper-profile defaults."""
    duration = 4 * HOUR * scale
    return SimConfig(
        n_brokers=22,
        n_resources=225,
        strategy=BrokerStrategy.SPECIALIZED,
        advertisement_size_mb=1.0,
        mean_query_interval=40.0,
        duration=duration,
        warmup=min(600.0, duration / 4),
        seed=seed,
    )


def flashcrowd_config(hours):
    def config(seed, scale):
        return workload_config("flashcrowd", duration=hours * HOUR * scale,
                               seed=seed)
    return config


class SimWorkload(Workload):
    """One simulated community pushed through its whole virtual run."""

    def __init__(self, make_config, observed=False):
        self.make_config = make_config
        self.observed = observed
        self.tracer = None

    def setup(self, seed, scale, observe):
        self.config = self.make_config(seed, scale)
        observer = None
        if self.observed:
            # The leave-on telemetry set, composed as an operator would.
            self.tracer = obs.SamplingTracer(obs.TraceBudget(
                sample_rate=0.1, keep_slowest=64, seed=seed))
            observer = observe(obs.compose(
                self.tracer, obs.MetricsObserver(), obs.TimeSeriesObserver()))
        self.sim = Simulation(self.config, observer=observer)
        self.bus = self.sim.bus
        self.sim.prepare()
        self.sim.advance(self.config.warmup)

    def measure(self):
        self.sim.advance(self.config.duration)
        if self.tracer is not None:
            self.tracer.flush()
        self.report = self.sim.finalize()

    def verify(self):
        report = self.report
        issued = report.queries_issued
        answered = round(report.reply_fraction * issued) if issued else 0
        responses = [
            record.response_time
            for record in report.metrics.broker_queries
            if record.replied and record.issued_at >= self.config.warmup
        ]
        # A shed or timed-out query is the workload's stated outcome,
        # not a defect; more answers than questions would be one.
        wrong = 0 if 0 < answered <= issued else 1
        return Verdict(issued, answered, wrong, responses)


# ----------------------------------------------------------------------
# embedded matchmaking (match_read, match_churn)
# ----------------------------------------------------------------------
ONTOLOGIES = ("onto-a",) * 3 + ("onto-b",)  # split 3:1
SEGMENTS = 40
AD_WIDTH = 40  # every ad covers ``price between lo and lo + 40``
QUERY_WIDTH = 5  # narrow windows: a handful of matches per query
ZIPF_S = 1.1


class MatchWorkload(Workload):
    """One default-constructed ``BrokerRepository`` holding 20 000
    advertisements, queried in a closed loop by a single client.

    2 000 queries per batch are drawn Zipf(1.1) over 4 000 distinct
    templates — 16 times the repository's 256-entry match cache, while
    the Zipf head fits inside it, so both the hit and the miss path are
    sampled every batch.  With *churn*, one agent is withdrawn and
    re-advertised before every 10th query: the same layer used as a
    write path."""

    def __init__(self, churn):
        self.churn = churn

    def setup(self, seed, scale, observe):
        rng = random.Random(seed)
        n_ads = max(1, round(20_000 * scale))
        n_templates = max(1, round(4_000 * scale))
        n_queries = max(10, round(2_000 * scale))
        n_warm = max(1, round(200 * scale))

        # (ontology, segment) -> [(lo, hi, agent name)]: the oracle's view.
        self.buckets = {}
        self.ads = []
        for index in range(n_ads):
            ontology = rng.choice(ONTOLOGIES)
            segment = f"seg{rng.randrange(SEGMENTS):02d}"
            lo = rng.randrange(1_000)
            name = f"agent{index}"
            self.buckets.setdefault((ontology, segment), []).append(
                (lo, lo + AD_WIDTH, name))
            self.ads.append(Advertisement(ServiceDescription(
                location=AgentLocation(name=name),
                content=ContentInfo(
                    ontology_name=ontology,
                    classes=(segment,),
                    constraints=parse_constraint(
                        f"price between {lo} and {lo + AD_WIDTH}"),
                ),
            )))

        # Templates in popularity order.  The ontology follows the rank
        # (3:1 again) instead of the dice: a miss on the big ontology
        # costs three times one on the small, and the top rank alone is
        # a sixth of the stream, so drawing it would make wall time
        # depend on the seed more than on the program.
        self.templates = []  # (ontology, segment, lo, hi)
        queries = []
        for rank in range(n_templates):
            ontology = ONTOLOGIES[rank % len(ONTOLOGIES)]
            segment = f"seg{rng.randrange(SEGMENTS):02d}"
            lo = rng.randrange(1_000 + AD_WIDTH)
            self.templates.append((ontology, segment, lo, lo + QUERY_WIDTH))
            queries.append(BrokerQuery(
                ontology_name=ontology,
                classes=(segment,),
                constraints=parse_constraint(
                    f"price between {lo} and {lo + QUERY_WIDTH}"),
            ))
        weights = list(itertools.accumulate(
            1.0 / rank ** ZIPF_S for rank in range(1, n_templates + 1)))
        picks = rng.choices(range(n_templates), cum_weights=weights,
                            k=n_warm + n_queries)
        self.stream = picks[n_warm:]
        self.queries = [queries[pick] for pick in self.stream]
        self.victims = (
            [self.ads[rng.randrange(n_ads)]
             for _ in range(0, n_queries, 10)]
            if self.churn else []
        )

        self.repo = BrokerRepository(MatchContext())
        for ad in self.ads:
            self.repo.advertise(ad)
        for pick in picks[:n_warm]:  # build whatever is built lazily
            self.repo.query(queries[pick])
        self.stats_before = vars(self.repo.stats).copy()

    def measure(self):
        repo, churn, victims = self.repo, self.churn, iter(self.victims)
        query_s, write_s, results = [], [], []
        for position, query in enumerate(self.queries):
            if churn and position % 10 == 0:
                ad = next(victims)
                started = perf_counter()
                repo.unadvertise(ad.agent_name)
                repo.advertise(ad)
                write_s.append(perf_counter() - started)
            started = perf_counter()
            matches = repo.query(query)
            query_s.append(perf_counter() - started)
            results.append(matches)
        self.query_s, self.write_s, self.results = query_s, write_s, results

    def stats_delta(self):
        return {key: value - self.stats_before[key]
                for key, value in vars(self.repo.stats).items()}

    def verify(self):
        """Arithmetic oracle: same ontology, same segment, overlapping
        closed intervals — compared as a *set* of agent names (ranking
        is the program's business).  The churn re-advertises the same
        advertisement, so one answer per template holds throughout."""
        expected = {}
        wrong = 0
        for pick, matches in zip(self.stream, self.results):
            if pick not in expected:
                ontology, segment, lo, hi = self.templates[pick]
                expected[pick] = {
                    name
                    for ad_lo, ad_hi, name in self.buckets.get(
                        (ontology, segment), ())
                    if ad_lo <= hi and lo <= ad_hi
                }
            if {match.agent_name for match in matches} != expected[pick]:
                wrong += 1
        attempted = len(self.results)
        return Verdict(attempted, attempted - wrong, wrong)


# ----------------------------------------------------------------------
# live multi-resource queries (mrq_live)
# ----------------------------------------------------------------------
#: The six Table-1 query streams, as the SQL their users submit.
MRQ_STREAMS = {
    "4A": "select * from QAC",
    "DA": "select * from DAC",
    "SA": "select * from SAC",
    "VF": "select * from VFC",
    "FH": "select * from FHC",
    "CH": "select * from CHC",
}
MRQ_INTERVAL = 12.0


class MrqWorkload(Workload):
    """Table 2's experiment 5 (16 real resource agents, 4 specialized
    brokers, one multi-resource query agent): 100 queries per stream,
    one every 6 virtual seconds — the only workload that crosses the SQL
    executor, the relational layer and the MRQ join/assembly."""

    def setup(self, seed, scale, observe):
        self.community = build_experiment_community(
            5, n_brokers=4, specialized=True, seed=seed)
        self.bus = self.community.bus
        per_stream = max(1, round(100 * scale))
        start = self.bus.now
        for index, (stream, sql) in enumerate(MRQ_STREAMS.items()):
            user = self.community.users[stream]
            offset = index * MRQ_INTERVAL / len(MRQ_STREAMS)
            for k in range(per_stream):
                user.submit(sql, at=start + offset + k * MRQ_INTERVAL)
        self.attempted = per_stream * len(MRQ_STREAMS)

    def measure(self):
        self.bus.run()

    def verify(self):
        useful = 0
        responses = []
        for stream in MRQ_STREAMS:
            for done in self.community.users[stream].completed:
                if done.succeeded and done.result.row_count == MRQ_GOLDEN[stream]:
                    useful += 1
                    responses.append(done.response_time)
        return Verdict(self.attempted, useful, self.attempted - useful, responses)


#: name -> factory of a fresh workload object (names are fixed; later
#: issues cite them).
WORKLOADS = {
    "scalability": lambda: SimWorkload(scalability_config),
    "flashcrowd": lambda: SimWorkload(flashcrowd_config(8)),
    "flashcrowd_observed": lambda: SimWorkload(flashcrowd_config(4), observed=True),
    "match_read": lambda: MatchWorkload(churn=False),
    "match_churn": lambda: MatchWorkload(churn=True),
    "mrq_live": MrqWorkload,
}
