"""The KQML message object.

Messages are immutable; replies are built with :meth:`KqmlMessage.reply`
which flips sender/receiver and threads ``:in-reply-to`` from
``:reply-with`` so conversations can be correlated.

``content`` may be any Python object in-process.  Only messages whose
content is a string (or nested s-expression list) can round-trip through
the wire syntax in :mod:`repro.kqml.sexpr`; richer payloads are a
deliberate in-process convenience, exactly as the original system passed
Java objects between co-located agents.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple

from repro.kqml.errors import KqmlError
from repro.kqml.performatives import EXPECTS_REPLY, Performative

_reply_counter = itertools.count(1)


def fresh_reply_id(prefix: str = "id") -> str:
    """A process-unique ``:reply-with`` identifier."""
    return f"{prefix}{next(_reply_counter)}"


_new = object.__new__
_set = object.__setattr__


def _validated(performative, sender, receiver, content, language, ontology,
               reply_with, in_reply_to, extras) -> "KqmlMessage":
    """A message from fields the caller vouches for (see the invariant
    in :class:`KqmlMessage`): no check runs, no ``__init__``."""
    message = _new(KqmlMessage)
    _set(message, "performative", performative)
    _set(message, "sender", sender)
    _set(message, "receiver", receiver)
    _set(message, "content", content)
    _set(message, "language", language)
    _set(message, "ontology", ontology)
    _set(message, "reply_with", reply_with)
    _set(message, "in_reply_to", in_reply_to)
    _set(message, "extras", extras)
    return message


@dataclass(frozen=True, slots=True)
class KqmlMessage:
    """One KQML message.

    >>> m = KqmlMessage(Performative.ASK_ALL, sender="a", receiver="b",
    ...                 content="select * from C2", language="SQL 2.0")
    >>> r = m.reply(Performative.TELL, content="...rows...")
    >>> (r.sender, r.receiver, r.in_reply_to == m.reply_with)
    ('b', 'a', True)

    Every instance satisfies what ``__post_init__`` checks — a
    :class:`Performative`, non-empty sender and receiver, ``extras`` a
    tuple of pairs, ``:reply-with`` set when a reply is expected — and
    is immutable, so :meth:`reply` and :meth:`forward_to` copy a
    validated source's fields without re-validating them.
    """

    performative: Performative
    sender: str
    receiver: str
    content: Any = None
    language: Optional[str] = None
    ontology: Optional[str] = None
    reply_with: Optional[str] = None
    in_reply_to: Optional[str] = None
    extras: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self):
        if not isinstance(self.performative, Performative):
            raise KqmlError(
                f"performative must be a Performative, got {self.performative!r}"
            )
        if not self.sender or not self.receiver:
            raise KqmlError("sender and receiver are required")
        extras = self.extras
        if type(extras) is not tuple:
            if isinstance(extras, Mapping):
                _set(self, "extras", tuple(sorted(extras.items())))
            elif not isinstance(extras, tuple):
                _set(self, "extras", tuple(extras))
        if self.reply_with is None and self.performative in EXPECTS_REPLY:
            _set(self, "reply_with", fresh_reply_id())

    # ------------------------------------------------------------------
    # conversation helpers
    # ------------------------------------------------------------------
    def reply(self, performative: Performative, content: Any = None,
              language: Optional[str] = None, **extras) -> "KqmlMessage":
        """Build the response message for this one."""
        if not isinstance(performative, Performative):
            raise KqmlError(
                f"performative must be a Performative, got {performative!r}"
            )
        return _validated(
            performative, self.receiver, self.sender, content,
            language if language is not None else self.language,
            self.ontology,
            fresh_reply_id() if performative in EXPECTS_REPLY else None,
            self.reply_with,
            tuple(sorted(extras.items())) if extras else (),
        )

    def forward_to(self, receiver: str, sender: Optional[str] = None) -> "KqmlMessage":
        """The same message readdressed to *receiver* (broker forwarding)."""
        if not receiver:
            raise KqmlError("sender and receiver are required")
        return _validated(
            self.performative, sender or self.receiver, receiver, self.content,
            self.language, self.ontology, self.reply_with, self.in_reply_to,
            self.extras,
        )

    def extra(self, key: str, default: Any = None) -> Any:
        """Look up an extra parameter by name."""
        for k, v in self.extras:
            if k == key:
                return v
        return default

    def expects_reply(self) -> bool:
        return self.performative in EXPECTS_REPLY

    def __repr__(self) -> str:
        bits = [f"({self.performative.value} :sender {self.sender} "
                f":receiver {self.receiver}"]
        if self.reply_with:
            bits.append(f":reply-with {self.reply_with}")
        if self.in_reply_to:
            bits.append(f":in-reply-to {self.in_reply_to}")
        bits.append(f":content {self.content!r})")
        return " ".join(bits)
