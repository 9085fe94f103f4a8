"""A small parser for InfoSleuth-style constraint descriptions.

Advertisements in the paper carry textual constraint descriptions such
as ``patient age between 43 and 75`` (Sec 2.4).  This module parses a
conjunctive dialect of those descriptions:

.. code-block:: text

    expr     := clause ("and" clause)*
    clause   := slot op value
              | slot "between" value "and" value
              | slot "in" "(" value ("," value)* ")"
    op       := "=" | "==" | "!=" | "<>" | "<" | "<=" | ">" | ">="
    slot     := identifier ("." identifier)*      -- dots preserved
    value    := number | 'quoted string' | "quoted string" | bareword
    number   := -?digits ("." digits)? ([eE] [-+]? digits)?

Barewords are treated as strings, so ``city = Dallas`` works; a number
with a ``.`` or an exponent is a float, so the repr of a finite float
parses back (``p < 1e-05``).
"""

from __future__ import annotations

import functools
import re
from typing import List

from repro.constraints.atoms import Atom, Op
from repro.constraints.conjunction import Constraint


class ConstraintParseError(ValueError):
    """Raised when a constraint description cannot be parsed."""


#: Distinct constraint texts :func:`parse_constraint` remembers.  The
#: advertisements a broker holds repeat a few thousand texts, and a
#: :class:`Constraint` is immutable, so equal texts share one result.
PARSE_MEMO_SIZE = 4096

# One token per match, leading whitespace included; ``bad`` catches the
# first character no token starts with.
_TOKEN_RE = re.compile(
    r"""
      \s*(?:
        (?P<number>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)
      | (?P<sq>'(?:[^'\\]|\\.)*')
      | (?P<dq>"(?:[^"\\]|\\.)*")
      | (?P<op><=|>=|==|!=|<>|=|<|>)
      | (?P<punct>[(),])
      | (?P<word>[A-Za-z_][A-Za-z0-9_.\-]*)
      | (?P<bad>\S)
      )
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")

_OP_MAP = {
    "=": Op.EQ,
    "==": Op.EQ,
    "!=": Op.NEQ,
    "<>": Op.NEQ,
    "<": Op.LT,
    "<=": Op.LE,
    ">": Op.GT,
    ">=": Op.GE,
}


def _tokenize(text: str) -> List[tuple]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        raw = m.group(kind)
        if kind == "number":
            is_float = "." in raw or "e" in raw or "E" in raw
            tokens.append(("value", float(raw) if is_float else int(raw)))
        elif kind == "sq" or kind == "dq":
            tokens.append(("value", _ESCAPE_RE.sub(r"\1", raw[1:-1])))
        elif kind == "bad":
            pos = m.start(kind)
            raise ConstraintParseError(f"cannot tokenize at: {text[pos:pos + 20]!r}")
        else:
            tokens.append((kind, raw))
    return tokens


class _Cursor:
    def __init__(self, tokens: List[tuple]):
        self.tokens = tokens
        self.index = 0

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else (None, None)

    def next(self):
        token = self.peek()
        if token[0] is None:
            raise ConstraintParseError("unexpected end of constraint")
        self.index += 1
        return token

    def done(self) -> bool:
        return self.index >= len(self.tokens)


def _keyword(token, word: str) -> bool:
    return token[0] == "word" and token[1].lower() == word


def parse_atoms(text: str) -> List[Atom]:
    """Parse *text* into a list of atoms (conjuncts)."""
    cursor = _Cursor(_tokenize(text))
    atoms: List[Atom] = []
    if cursor.done():
        return atoms
    while True:
        atoms.append(_parse_clause(cursor))
        if cursor.done():
            return atoms
        token = cursor.next()
        if not _keyword(token, "and"):
            raise ConstraintParseError(f"expected 'and', got {token[1]!r}")


def _parse_clause(cursor: _Cursor) -> Atom:
    kind, slot = cursor.next()
    if kind != "word":
        raise ConstraintParseError(f"expected a slot name, got {slot!r}")
    # Allow multi-word slots like "patient age" by joining words until an
    # operator/keyword appears, with dots normalized to underscores kept.
    slot_parts = [slot]
    while True:
        kind, value = cursor.peek()
        if kind == "word" and value is not None and value.lower() not in ("between", "in", "and"):
            slot_parts.append(value)
            cursor.next()
        else:
            break
    slot_name = "_".join(slot_parts)

    kind, token = cursor.next()
    if kind == "op":
        vkind, value = cursor.next()
        if vkind == "word":
            value = token_word_to_value(value)
        elif vkind != "value":
            raise ConstraintParseError(f"expected a value, got {value!r}")
        return _atom(slot_name, _OP_MAP[token], value)
    if kind == "word" and token.lower() == "between":
        lo = _expect_value(cursor)
        sep = cursor.next()
        if not _keyword(sep, "and"):
            raise ConstraintParseError("BETWEEN requires '<lo> and <hi>'")
        hi = _expect_value(cursor)
        return _atom(slot_name, Op.BETWEEN, (lo, hi))
    if kind == "word" and token.lower() == "in":
        open_paren = cursor.next()
        if open_paren != ("punct", "("):
            raise ConstraintParseError("IN requires a parenthesized value list")
        values = [_expect_value(cursor)]
        while True:
            kind, token = cursor.next()
            if (kind, token) == ("punct", ")"):
                break
            if (kind, token) != ("punct", ","):
                raise ConstraintParseError(f"expected ',' or ')', got {token!r}")
            values.append(_expect_value(cursor))
        return _atom(slot_name, Op.IN, tuple(values))
    raise ConstraintParseError(f"expected an operator after {slot_name!r}, got {token!r}")


def _atom(slot: str, op: Op, value) -> Atom:
    try:
        return Atom(slot, op, value)
    except ValueError as exc:  # ill-typed: BETWEEN 'a' AND 5, x < true
        raise ConstraintParseError(f"{slot} {op.value}: {exc}") from exc


def _expect_value(cursor: _Cursor):
    kind, value = cursor.next()
    if kind == "value":
        return value
    if kind == "word":
        return token_word_to_value(value)
    raise ConstraintParseError(f"expected a value, got {value!r}")


def token_word_to_value(word: str):
    """Barewords become strings; true/false become booleans."""
    lowered = word.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    return word


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_constraint(text: str) -> Constraint:
    """Parse a constraint description into a :class:`Constraint`.

    Equal texts return the same (immutable) object while the text is
    among the :data:`PARSE_MEMO_SIZE` most recently parsed; a text that
    fails to parse raises :class:`ConstraintParseError` every time.

    >>> parse_constraint("age between 25 and 65").slots
    ['age']
    """
    return Constraint.from_atoms(parse_atoms(text))
