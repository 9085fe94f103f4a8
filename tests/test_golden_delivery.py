"""Golden delivery digests: the event loop must reproduce, byte for
byte, the delivery sequence recorded before the flat-event rewrite.

Each scenario is run twice.  With ``bus.trace`` attached it yields a
sha256 over the ``repr(time)|sender|receiver|performative`` lines of
the trace plus the bus/workload counters; with no observer at all (the
hook-skipping path) it must yield the same counters.  Minted
``:reply-with`` ids are left out: ``fresh_reply_id`` is a process-global
counter, so they depend on test order.

Regenerate (only for a change that *means* to alter delivery order):
``PYTHONPATH=src python tests/test_golden_delivery.py``.
"""

import hashlib
import json

import pytest

from repro.experiments import build_experiment_community, workload_config
from repro.sim import BrokerStrategy, SimConfig, Simulation


def _counters(bus, answered, issued):
    stats = bus.stats
    return [stats.messages_delivered, stats.timers_fired, stats.messages_shed,
            stats.queue_depth_high_water, answered, issued]


def _digest(trace):
    sha = hashlib.sha256()
    for entry in trace:
        sha.update(f"{entry.time!r}|{entry.sender}|{entry.receiver}|"
                   f"{entry.performative}\n".encode())
    return sha.hexdigest()


def _run_sim(config, traced):
    sim = Simulation(config)
    trace = [] if traced else None
    sim.bus.trace = trace
    sim.prepare()
    # Two legs, as the benchmark drives it (warm-up, then the rest).
    sim.advance(config.warmup)
    sim.advance(config.duration)
    report = sim.finalize()
    issued = report.queries_issued
    answered = round(report.reply_fraction * issued) if issued else 0
    return trace, _counters(sim.bus, answered, issued)


def fig17_small(traced):
    """Figure 17's shape (specialized brokers, paper-profile defaults,
    1 MB advertisements, QF = 40) at about a third of its size."""
    return _run_sim(SimConfig(
        n_brokers=8, n_resources=80, strategy=BrokerStrategy.SPECIALIZED,
        advertisement_size_mb=1.0, mean_query_interval=40.0,
        duration=3600.0, warmup=600.0, seed=11,
    ), traced)


def flashcrowd(seed):
    def scenario(traced):
        return _run_sim(
            workload_config("flashcrowd", duration=2400.0, seed=seed), traced)
    return scenario


def mrq_community(traced):
    """Table-2 experiment 5 with real resource agents, driven by
    ``bus.run()`` (quiescence detection, not a deadline)."""
    community = build_experiment_community(5, n_brokers=4, specialized=True,
                                           seed=11)
    bus = community.bus
    trace = [] if traced else None
    bus.trace = trace
    streams = {"4A": "select * from QAC", "VF": "select * from VFC",
               "CH": "select * from CHC"}
    for index, (stream, sql) in enumerate(streams.items()):
        for k in range(4):
            community.users[stream].submit(sql, at=bus.now + index * 2.0 + k * 12.0)
    bus.run()
    answered = sum(done.succeeded for stream in streams
                   for done in community.users[stream].completed)
    return trace, _counters(bus, answered, 4 * len(streams)) + [repr(bus.now)]


SCENARIOS = {
    "fig17_small": fig17_small,
    "flashcrowd_seed0": flashcrowd(0),
    "flashcrowd_seed1": flashcrowd(1),
    "flashcrowd_seed2": flashcrowd(2),
    "mrq_community_run": mrq_community,
}

#: scenario -> (sha256 of the delivery lines, [messages_delivered,
#: timers_fired, messages_shed, queue_depth_high_water, answered,
#: issued(, repr(bus.now) where ``bus.run()`` chose the stopping time)]).
GOLDEN = {
    "fig17_small": (
        "f7c554a884e2a9767ede3a807ec28b3521b6167d9079332b4b574da8adc46765",
        [5364, 1075, 0, 18, 78, 78]),
    "flashcrowd_seed0": (
        "babfbac53fc0daf6155ccb0ff472f06e64b05e16c0d314b1bae50fcb4b992ae1",
        [4636, 665, 101, 18, 269, 313]),
    "flashcrowd_seed1": (
        "d7c54d339f3683c76a6a68d67da9f804489d5946e6c2db114ff207f59c45cc71",
        [4618, 653, 78, 16, 273, 309]),
    "flashcrowd_seed2": (
        "e1efcff608a9aec7cb59dfd4266b1ffce9d09cc81bbc389d7f88e5a106465f85",
        [4399, 629, 81, 19, 263, 293]),
    "mrq_community_run": (
        "28d292270e3f50d01618719de089510c3db16c02bffe90b432a2bcc70790d588",
        [326, 12, 0, 13, 12, 12, "72.88721600000001"]),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_delivery_sequence_matches_golden(name):
    digest, counters = GOLDEN[name]
    trace, traced_counters = SCENARIOS[name](True)
    assert traced_counters == counters
    assert _digest(trace) == digest


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_unobserved_run_matches_golden_counters(name):
    _trace, counters = SCENARIOS[name](False)
    assert counters == GOLDEN[name][1]


if __name__ == "__main__":
    golden = {}
    for name, scenario in SCENARIOS.items():
        trace, counters = scenario(True)
        golden[name] = (_digest(trace), counters)
    print(json.dumps(golden, indent=4))
