"""The performative vocabulary used by InfoSleuth agents.

A subset of KQML (Finin, Labrou & Mayfield 1997) sufficient for the
paper's conversations, plus ``ping``/``pong`` for the paper's "broker
ping" liveness protocol (Section 4.2.2).
"""

from __future__ import annotations

import enum


class Performative(enum.Enum):
    """KQML performatives understood by this agent system."""

    # Advertisement lifecycle (Section 2.2).
    ADVERTISE = "advertise"
    UNADVERTISE = "unadvertise"

    # Queries and replies.
    ASK_ALL = "ask-all"
    ASK_ONE = "ask-one"
    TELL = "tell"
    SORRY = "sorry"
    ERROR = "error"

    # Subscriptions (monitoring changes in data).
    SUBSCRIBE = "subscribe"
    UNSUBSCRIBE = "unsubscribe"

    # Facilitation performatives (KQML's brokering vocabulary).
    RECOMMEND_ALL = "recommend-all"
    RECOMMEND_ONE = "recommend-one"
    BROKER_ALL = "broker-all"
    BROKER_ONE = "broker-one"
    RECRUIT_ALL = "recruit-all"
    RECRUIT_ONE = "recruit-one"

    # Liveness checks (the paper's "broker ping").
    PING = "ping"
    PONG = "pong"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with ``==`` — and it is computed in C, where
    # ``Enum.__hash__`` is a Python-level call on every set/dict probe
    # (``in EXPECTS_REPLY``, the agents' handler table).
    __hash__ = object.__hash__

    @classmethod
    def from_name(cls, name: str) -> "Performative":
        """Look up a performative by its wire name (e.g. ``"ask-all"``)."""
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown performative {name!r}")


#: All wire names, for validation at parse time.
PERFORMATIVES = frozenset(member.value for member in Performative)

#: Performatives that open a conversation expecting a reply.
EXPECTS_REPLY = frozenset(
    {
        Performative.ASK_ALL,
        Performative.ASK_ONE,
        Performative.RECOMMEND_ALL,
        Performative.RECOMMEND_ONE,
        Performative.BROKER_ALL,
        Performative.BROKER_ONE,
        Performative.RECRUIT_ALL,
        Performative.RECRUIT_ONE,
        Performative.PING,
        Performative.SUBSCRIBE,
    }
)
