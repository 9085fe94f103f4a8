"""User agents: proxies for users, driving the Figure 5–7 flow.

A user agent accepts SQL queries (via :meth:`submit`), locates a
multiresource query agent through the broker (``recommend-one``),
forwards the query to it, and records the end-to-end response time in
virtual seconds — the metric Tables 3 and 4 report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.agents.base import Agent, AgentConfig, HandlerResult
from repro.agents.broker import RecommendRequest
from repro.core.policy import SearchPolicy
from repro.core.query import BrokerQuery, QueryMode
from repro.kqml import KqmlMessage, Performative
from repro.ontology.service import AgentLocation, Capabilities, ServiceDescription
from repro.sql.executor import QueryResult


@dataclass
class CompletedQuery:
    """One finished (or failed) user query with its timings."""

    sql: str
    submitted_at: float
    completed_at: float
    result: Optional[QueryResult]
    error: Optional[str] = None
    #: The MRQ's ``:partial`` annotation when the answer is incomplete
    #: (e.g. ``"missing:C1[c1_s3,c1_s4,c1_id]"``); None for full answers.
    partial: Optional[str] = None
    #: Machine-readable companion to :attr:`partial` (missing fragments,
    #: per-provider failure reasons); also populated on failed queries
    #: when the MRQ could name what it lost.
    partial_detail: Optional[object] = None

    @property
    def response_time(self) -> float:
        return self.completed_at - self.submitted_at

    @property
    def succeeded(self) -> bool:
        return self.error is None

    @property
    def complete(self) -> bool:
        """Succeeded *and* not flagged as a degraded partial answer."""
        return self.error is None and self.partial is None


class UserAgent(Agent):
    """A proxy for one user (the paper's "mhn's user agent")."""

    agent_type = "user"

    def __init__(
        self,
        name: str,
        config: Optional[AgentConfig] = None,
        ontology_name: Optional[str] = None,
        query_timeout: float = 3600.0,
    ):
        super().__init__(name, config)
        self.ontology_name = ontology_name
        self.query_timeout = query_timeout
        self.completed: List[CompletedQuery] = []
        self._submission_counter = itertools.count(1)

    def build_description(self) -> ServiceDescription:
        return ServiceDescription(
            location=AgentLocation(name=self.name, agent_type="user"),
            capabilities=Capabilities(conversations=("tell", "ping")),
        )

    # ------------------------------------------------------------------
    # driving queries
    # ------------------------------------------------------------------
    def submit(self, sql: str, at: Optional[float] = None, complexity: float = 1.0) -> None:
        """Submit *sql* at virtual time *at* (defaults to now)."""
        when = at if at is not None else self.bus.now
        self.bus.schedule_timer(self.name, when, ("submit", sql, complexity,
                                                  next(self._submission_counter)))

    def on_custom_timer(self, token: object, result: HandlerResult, now: float) -> None:
        if isinstance(token, tuple) and token and token[0] == "submit":
            _kind, sql, complexity, _seq = token
            self._start_query(sql, complexity, result, now)

    def _start_query(self, sql: str, complexity: float, result: HandlerResult, now: float) -> None:
        broker = self._pick_broker()
        if broker is None:
            self.completed.append(
                CompletedQuery(sql, now, now, None, error="no broker connected")
            )
            return
        request = RecommendRequest(
            query=BrokerQuery(
                agent_type="query",
                content_language="SQL 2.0",
                capabilities=("multiresource-query-processing",),
                mode=QueryMode.ONE,
            ),
            policy=SearchPolicy.default_for(wants_single=True, hop_count=8),
        )
        recommend = KqmlMessage(
            Performative.RECOMMEND_ONE,
            sender=self.name,
            receiver=broker,
            content=request,
            ontology="service",
        )
        self.ask(
            recommend,
            lambda reply, res: self._mrq_found(sql, complexity, now, reply, res),
            result,
            timeout=self.query_timeout,
        )

    def _mrq_found(
        self,
        sql: str,
        complexity: float,
        submitted_at: float,
        reply: Optional[KqmlMessage],
        result: HandlerResult,
    ) -> None:
        matches = (
            list(reply.content)
            if reply is not None and reply.performative is Performative.TELL
            else []
        )
        if not matches:
            self.completed.append(
                CompletedQuery(sql, submitted_at, self.bus.now, None,
                               error="no query agent available")
            )
            return
        ask = KqmlMessage(
            Performative.ASK_ALL,
            sender=self.name,
            receiver=matches[0].agent_name,
            content=sql,
            language="SQL 2.0",
            extras={"complexity": complexity},
        )
        self.ask(
            ask,
            lambda r, res: self._query_done(sql, submitted_at, r, res),
            result,
            timeout=self.query_timeout,
        )

    def _query_done(
        self,
        sql: str,
        submitted_at: float,
        reply: Optional[KqmlMessage],
        result: HandlerResult,
    ) -> None:
        if reply is not None and reply.performative is Performative.TELL:
            self.completed.append(
                CompletedQuery(
                    sql, submitted_at, self.bus.now, reply.content,
                    partial=reply.extra("partial"),
                    partial_detail=reply.extra("partial-detail"),
                )
            )
        else:
            error = "timeout" if reply is None else str(reply.content)
            self.completed.append(
                CompletedQuery(
                    sql, submitted_at, self.bus.now, None, error=error,
                    partial_detail=(
                        reply.extra("partial-detail") if reply is not None else None
                    ),
                )
            )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def response_times(self) -> List[float]:
        return [c.response_time for c in self.completed if c.succeeded]
