"""The brokering core: InfoSleuth's combined syntactic + semantic matchmaking.

This package is the paper's primary contribution, reimplemented:

* :class:`Advertisement` — a stored agent self-description;
* :class:`BrokerQuery` — a request for agents with given syntax,
  capabilities, content and properties;
* :func:`match_advertisements` — the direct per-advertisement matcher;
* :class:`DatalogMatcher` — the same matching compiled to Datalog rules
  (the LDL-style engine of the original broker), the declarative
  specification the repository's engine is cross-checked against;
* :func:`score_match` — semantic-specificity scoring ("MRQ2 is a better
  semantic match for class C2 than the general MRQ agent");
* :class:`BrokerRepository` — the broker's knowledge base;
* :class:`SearchPolicy` — CORBA-trader-style inter-broker search control
  (hop count + follow option);
* :class:`Consortium` / :class:`BrokerNetwork` — multibroker topology.
"""

from repro._lazy import lazy_exports

# Resolved on first use: importing the repository does not import the
# Datalog oracle, the consortium or the result projection.
__getattr__, __dir__ = lazy_exports(__name__, {
    "errors": ["BrokeringError"],
    "advertisement": ["Advertisement"],
    "query": ["BrokerQuery", "QueryMode"],
    "matcher": ["Match", "MatchContext", "match_advertisements"],
    "scoring": ["score_match"],
    "repository": ["BrokerRepository"],
    "datalog_matcher": ["DatalogMatcher"],
    "policy": ["FollowOption", "SearchPolicy"],
    "consortium": ["BrokerNetwork", "Consortium"],
    "results": ["project_matches", "result_format_fields"],
})

__all__ = [
    "Advertisement",
    "BrokerNetwork",
    "BrokerQuery",
    "BrokerRepository",
    "BrokeringError",
    "Consortium",
    "DatalogMatcher",
    "FollowOption",
    "Match",
    "MatchContext",
    "QueryMode",
    "SearchPolicy",
    "match_advertisements",
    "project_matches",
    "result_format_fields",
    "score_match",
]
