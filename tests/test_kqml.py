"""Tests for the KQML message model and wire syntax."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.kqml import (
    KqmlError,
    KqmlMessage,
    KqmlParseError,
    PERFORMATIVES,
    Performative,
    dumps,
    loads,
    parse_sexpr,
    render_sexpr,
)
from repro.kqml.performatives import EXPECTS_REPLY


def ask(content="select * from C2", **kw):
    defaults = dict(sender="user1", receiver="broker1", language="SQL 2.0")
    defaults.update(kw)
    return KqmlMessage(Performative.ASK_ALL, content=content, **defaults)


class TestMessage:
    def test_requires_sender_and_receiver(self):
        with pytest.raises(KqmlError):
            KqmlMessage(Performative.TELL, sender="", receiver="b")
        with pytest.raises(KqmlError):
            KqmlMessage(Performative.TELL, sender="a", receiver="")

    def test_performative_type_checked(self):
        with pytest.raises(KqmlError):
            KqmlMessage("ask-all", sender="a", receiver="b")

    def test_ask_gets_fresh_reply_with(self):
        a, b = ask(), ask()
        assert a.reply_with and b.reply_with
        assert a.reply_with != b.reply_with

    def test_tell_gets_no_automatic_reply_with(self):
        m = KqmlMessage(Performative.TELL, sender="a", receiver="b")
        assert m.reply_with is None

    def test_reply_threads_conversation(self):
        query = ask()
        answer = query.reply(Performative.TELL, content="rows")
        assert answer.sender == "broker1"
        assert answer.receiver == "user1"
        assert answer.in_reply_to == query.reply_with
        assert answer.language == "SQL 2.0"

    def test_reply_with_extras(self):
        answer = ask().reply(Performative.TELL, content="x", hops=3)
        assert answer.extra("hops") == 3
        assert answer.extra("missing", "default") == "default"

    def test_forward_to(self):
        query = ask()
        forwarded = query.forward_to("broker2")
        assert forwarded.receiver == "broker2"
        assert forwarded.sender == "broker1"
        assert forwarded.content == query.content
        assert forwarded.reply_with == query.reply_with

    def test_expects_reply(self):
        assert ask().expects_reply()
        assert not ask().reply(Performative.TELL).expects_reply()

    def test_extras_mapping_normalized(self):
        m = KqmlMessage(Performative.TELL, sender="a", receiver="b",
                        extras={"z": 1, "a": 2})
        assert m.extras == (("a", 2), ("z", 1))


class TestSexpr:
    def test_parse_atoms(self):
        assert parse_sexpr("hello") == "hello"
        assert parse_sexpr("42") == 42
        assert parse_sexpr("-1.5") == -1.5

    def test_parse_nested(self):
        assert parse_sexpr("(a (b 1) c)") == ["a", ["b", 1], "c"]

    def test_parse_string_with_escapes(self):
        assert parse_sexpr(r'"say \"hi\""') == 'say "hi"'

    def test_parse_errors(self):
        for bad in ["(a", "a)", '"unterminated', "(a) b", ""]:
            with pytest.raises(KqmlParseError):
                parse_sexpr(bad)

    def test_render_roundtrip(self):
        expr = ["ask-all", ":content", "select * from C2", ":n", 3]
        assert parse_sexpr(render_sexpr(expr)) == expr

    def test_render_quotes_strings_with_spaces(self):
        assert render_sexpr("two words") == '"two words"'
        assert render_sexpr("oneword") == "oneword"

    def test_render_quotes_numeric_looking_strings(self):
        # "42" the string must not come back as 42 the int.
        assert parse_sexpr(render_sexpr(["x", "42"])) == ["x", "42"]

    def test_render_rejects_unrenderable(self):
        with pytest.raises(KqmlParseError):
            render_sexpr(object())


class TestWireRoundTrip:
    def test_dumps_loads_roundtrip(self):
        msg = ask()
        again = loads(dumps(msg))
        assert again == msg

    def test_roundtrip_with_extras_and_ontology(self):
        msg = KqmlMessage(
            Performative.RECOMMEND_ALL,
            sender="a", receiver="b",
            content="agent query", ontology="service",
            extras={"hop-count": 2},
        )
        again = loads(dumps(msg))
        assert again == msg
        assert again.extra("hop-count") == 2

    def test_loads_rejects_unknown_performative(self):
        with pytest.raises(KqmlParseError):
            loads("(do-magic :sender a :receiver b)")

    def test_loads_requires_sender_receiver(self):
        with pytest.raises(KqmlParseError):
            loads("(tell :sender a :content hi)")

    def test_loads_rejects_bad_structure(self):
        for bad in ["42", "()", "(tell :sender)", "(tell sender a)"]:
            with pytest.raises(KqmlParseError):
                loads(bad)

    def test_paper_style_message(self):
        text = ('(ask-all :sender mhn-user-agent :receiver broker-1 '
                ':reply-with id7 :language "SQL 2.0" '
                ':content "select * from C2")')
        msg = loads(text)
        assert msg.performative is Performative.ASK_ALL
        assert msg.content == "select * from C2"
        assert msg.language == "SQL 2.0"

    def test_all_performatives_roundtrip(self):
        for name in sorted(PERFORMATIVES):
            msg = KqmlMessage(Performative.from_name(name), sender="a", receiver="b",
                              content="c")
            assert loads(dumps(msg)).performative.value == name


printable_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), min_size=1
)


@given(
    performative=st.sampled_from(sorted(PERFORMATIVES)),
    sender=printable_text.filter(lambda s: s.strip()),
    receiver=printable_text.filter(lambda s: s.strip()),
    content=st.one_of(printable_text, st.integers(), st.floats(allow_nan=False, allow_infinity=False)),
)
def test_property_wire_roundtrip(performative, sender, receiver, content):
    msg = KqmlMessage(
        Performative.from_name(performative),
        sender=sender, receiver=receiver, content=content,
    )
    assert loads(dumps(msg)) == msg


# ----------------------------------------------------------------------
# reply() / forward_to() copy a validated source field by field instead
# of going through the constructor: they must be indistinguishable from
# the message the constructor builds.
# ----------------------------------------------------------------------
names = st.text(alphabet="abcdefgh-0123456789", min_size=1, max_size=8)
maybe_name = st.one_of(st.none(), names)
scalar = st.one_of(names, st.integers(-5, 5), st.booleans())
extras_dict = st.dictionaries(names, scalar, max_size=3)
performatives = st.sampled_from(list(Performative))


@st.composite
def extras_forms(draw):
    """The same extras as the three shapes the constructor accepts."""
    pairs = draw(extras_dict)
    shape = draw(st.sampled_from(["tuple", "dict", "pairs"]))
    if shape == "dict":
        return pairs
    ordered = sorted(pairs.items())
    return tuple(ordered) if shape == "tuple" else ordered


@st.composite
def messages(draw):
    return KqmlMessage(
        draw(performatives), sender=draw(names), receiver=draw(names),
        content=draw(scalar), language=draw(maybe_name),
        ontology=draw(maybe_name), reply_with=draw(maybe_name),
        in_reply_to=draw(maybe_name), extras=draw(extras_forms()),
    )


def assert_same_message(fast, built):
    assert fast == built and built == fast
    assert hash(fast) == hash(built)
    assert repr(fast) == repr(built)
    assert type(fast.extras) is tuple
    assert not hasattr(fast, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        fast.sender = "someone-else"


@given(source=messages(), performative=performatives, content=scalar,
       language=maybe_name, extras=extras_dict)
def test_property_reply_equals_constructor(source, performative, content,
                                           language, extras):
    fast = source.reply(performative, content=content, language=language,
                        **extras)
    assert (fast.reply_with is not None) == (performative in EXPECTS_REPLY)
    fields = dict(
        performative=performative, sender=source.receiver,
        receiver=source.sender, content=content,
        language=language if language is not None else source.language,
        ontology=source.ontology, in_reply_to=source.reply_with, extras=extras,
    )
    # The constructor mints exactly when reply() did (ids are unique per
    # mint, so equality is checked with the id carried over).
    minted = KqmlMessage(**fields).reply_with
    assert (minted is not None) == (fast.reply_with is not None)
    assert minted != fast.reply_with or minted is None
    assert_same_message(fast, KqmlMessage(reply_with=fast.reply_with, **fields))


@given(source=messages(), receiver=names, sender=maybe_name)
def test_property_forward_equals_constructor(source, receiver, sender):
    fast = source.forward_to(receiver, sender)
    fields = {f.name: getattr(source, f.name)
              for f in dataclasses.fields(KqmlMessage)}
    fields.update(receiver=receiver, sender=sender or source.receiver)
    assert_same_message(fast, KqmlMessage(**fields))
    assert fast.reply_with == source.reply_with


class TestFastPathsKeepTheChecks:
    def test_forward_to_empty_receiver(self):
        with pytest.raises(KqmlError):
            ask().forward_to("")

    def test_reply_with_non_performative(self):
        with pytest.raises(KqmlError):
            ask().reply("tell")

    def test_empty_sender_still_rejected(self):
        with pytest.raises(KqmlError):
            KqmlMessage(Performative.TELL, sender="", receiver="b",
                        extras=(("k", 1),))

    def test_replace_and_wire_roundtrip_of_fast_built(self):
        answer = ask().reply(Performative.TELL, content="rows", hops=3)
        forwarded = answer.forward_to("broker2")
        moved = dataclasses.replace(forwarded, content="other")
        assert moved.content == "other" and moved.extras == (("hops", 3),)
        assert not hasattr(moved, "__dict__")
        for message in (answer, forwarded, moved):
            assert loads(dumps(message)) == message
