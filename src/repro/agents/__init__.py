"""The live InfoSleuth agent system.

This package runs the *actual library* — real KQML messages, the real
broker matcher, real SQL execution — on a deterministic virtual-time
message bus.  Each agent is a single-server FIFO queue; handler costs
are computed from the work performed (megabytes of advertisements
reasoned over, megabytes of data scanned, bytes shipped), so load
effects (the single broker saturating, multibrokers spreading work) play
out exactly as queueing theory dictates, without wall-clock noise.

Agents provided (paper Figure 1):

* :class:`BrokerAgent` — advertisement repository + multibroker search;
* :class:`ResourceAgent` — proxy for a relational repository;
* :class:`MultiResourceQueryAgent` — decomposes multi-resource queries,
  reassembles fragments (VF/CH/FH);
* :class:`UserAgent` — user proxy driving the Figure 5–7 flow;
* :class:`OntologyAgent` — serves shared ontologies;
* :class:`MonitorAgent` — subscription-based change monitoring.
"""

from repro._lazy import lazy_exports

# Resolved on first use: importing the bus does not import the broker,
# the matchmaking core or the other agents.
__getattr__, __dir__ = lazy_exports(__name__, {
    "errors": ["AgentError"],
    "costs": ["CostModel"],
    "bus": ["MAILBOX_POLICIES", "MessageBus", "is_maintenance"],
    "faults": [
        "AdmissionConfig",
        "BackoffPolicy",
        "BreakerConfig",
        "BreakerState",
        "CircuitBreaker",
        "FaultInjector",
        "FaultPlan",
        "LinkFaults",
        "Partition",
    ],
    "base": ["Agent", "AgentConfig", "HandlerResult"],
    "broker": ["BrokerAgent"],
    "recovery": [
        "AdvertisementJournal",
        "JournalRecord",
        "SyncDelta",
        "SyncDigest",
    ],
    "adaptive": ["AdaptiveUserAgent"],
    "directory": ["BulletinBoardAgent"],
    "resource": ["ResourceAgent"],
    "mrq": ["MultiResourceQueryAgent"],
    "user": ["UserAgent"],
    "ontology_agent": ["OntologyAgent"],
    "monitor": ["MonitorAgent"],
})

__all__ = [
    "AdaptiveUserAgent",
    "AdmissionConfig",
    "AdvertisementJournal",
    "Agent",
    "AgentConfig",
    "AgentError",
    "BackoffPolicy",
    "BreakerConfig",
    "BreakerState",
    "BrokerAgent",
    "BulletinBoardAgent",
    "CircuitBreaker",
    "CostModel",
    "FaultInjector",
    "FaultPlan",
    "JournalRecord",
    "LinkFaults",
    "HandlerResult",
    "MAILBOX_POLICIES",
    "MessageBus",
    "MonitorAgent",
    "MultiResourceQueryAgent",
    "OntologyAgent",
    "Partition",
    "ResourceAgent",
    "SyncDelta",
    "SyncDigest",
    "UserAgent",
    "is_maintenance",
]
