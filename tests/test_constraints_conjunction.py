"""Tests for conjunctive constraints and the brokering algebra."""

import doctest

import pytest
from hypothesis import given, strategies as st

import repro.constraints.parser
from repro.constraints import (
    FULL_DOMAIN,
    Atom,
    Constraint,
    ConstraintParseError,
    Op,
    intersect_domains,
    parse_constraint,
)


def c(text: str) -> Constraint:
    return parse_constraint(text)


class TestConstruction:
    def test_unconstrained(self):
        top = Constraint.unconstrained()
        assert top.is_unconstrained()
        assert top.is_satisfiable()
        assert top.slots == []

    def test_from_atoms_merges_same_slot(self):
        built = Constraint.from_atoms(
            [Atom("age", Op.GE, 25), Atom("age", Op.LE, 65)]
        )
        assert built == c("age between 25 and 65")

    def test_contradiction_is_unsatisfiable(self):
        bad = Constraint.from_atoms([Atom("age", Op.LT, 10), Atom("age", Op.GT, 20)])
        assert not bad.is_satisfiable()

    def test_full_domains_are_dropped(self):
        built = Constraint.from_atoms([Atom("x", Op.NEQ, "a"), Atom("x", Op.EQ, "b")])
        # NEQ 'a' AND EQ 'b' collapses to {'b'}; separately NEQ alone stays.
        assert built.domain("x").contains("b")
        assert not built.domain("x").contains("a")


class TestOverlap:
    def test_paper_section_2_4(self):
        # ResourceAgent5 advertises: patient age between 43 and 75.
        ad = c("patient_age between 43 and 75")
        # Query: patients between 25 and 65 with diagnosis code 40W.
        query = c("patient_age between 25 and 65 and diagnosis_code = '40W'")
        assert ad.overlaps(query)
        assert query.overlaps(ad)

    def test_disjoint_ranges_do_not_overlap(self):
        assert not c("age between 0 and 20").overlaps(c("age between 30 and 40"))

    def test_unshared_slots_do_not_block(self):
        assert c("age > 10").overlaps(c("city = 'Dallas'"))

    def test_unconstrained_overlaps_all(self):
        assert Constraint.unconstrained().overlaps(c("age = 5"))

    def test_unsatisfiable_overlaps_nothing(self):
        bad = Constraint.from_atoms([Atom("a", Op.LT, 0), Atom("a", Op.GT, 0)])
        assert not bad.overlaps(Constraint.unconstrained())
        assert not Constraint.unconstrained().overlaps(bad)

    def test_overlap_is_symmetric(self):
        a = c("age between 25 and 65 and city in ('Dallas', 'Houston')")
        b = c("age between 60 and 90 and city = 'Dallas'")
        assert a.overlaps(b) == b.overlaps(a) == True  # noqa: E712


class TestSubsumption:
    def test_wider_subsumes_narrower(self):
        assert c("age between 0 and 100").subsumes(c("age between 25 and 65"))
        assert not c("age between 25 and 65").subsumes(c("age between 0 and 100"))

    def test_fewer_slots_subsumes_more(self):
        assert c("age > 10").subsumes(c("age > 20 and city = 'Dallas'"))
        assert not c("age > 10 and city = 'Dallas'").subsumes(c("age > 20"))

    def test_unconstrained_subsumes_everything(self):
        assert Constraint.unconstrained().subsumes(c("age = 5 and city = 'X'"))

    def test_subsumption_implies_overlap(self):
        a, b = c("age between 0 and 100"), c("age between 40 and 50")
        assert a.subsumes(b)
        assert a.overlaps(b)

    def test_everything_subsumes_unsatisfiable(self):
        bad = Constraint.from_atoms([Atom("a", Op.LT, 0), Atom("a", Op.GT, 0)])
        assert c("age = 5").subsumes(bad)


class TestIntersect:
    def test_intersect_narrows(self):
        merged = c("age between 0 and 50").intersect(c("age between 25 and 100"))
        assert merged == c("age between 25 and 50")

    def test_intersect_unions_slots(self):
        merged = c("age > 10").intersect(c("city = 'Dallas'"))
        assert set(merged.slots) == {"age", "city"}

    def test_intersect_can_be_unsatisfiable(self):
        merged = c("age < 10").intersect(c("age > 20"))
        assert not merged.is_satisfiable()


class TestMatchesRecord:
    def test_matching_record(self):
        cons = c("age between 25 and 65 and code = '40W'")
        assert cons.matches_record({"age": 43, "code": "40W", "extra": 1})

    def test_out_of_range(self):
        assert not c("age between 25 and 65").matches_record({"age": 75})

    def test_missing_slot_fails(self):
        assert not c("age > 10").matches_record({"code": "40W"})

    def test_type_mismatch_fails(self):
        assert not c("age > 10").matches_record({"age": "old"})

    def test_unconstrained_matches_anything(self):
        assert Constraint.unconstrained().matches_record({})


class TestParser:
    def test_parse_between(self):
        cons = c("age between 25 and 65")
        assert cons.matches_record({"age": 30})
        assert not cons.matches_record({"age": 66})

    def test_parse_in_list(self):
        cons = c("city in ('Dallas', 'Houston')")
        assert cons.matches_record({"city": "Dallas"})
        assert not cons.matches_record({"city": "Austin"})

    def test_parse_multi_word_slot(self):
        cons = c("patient age between 43 and 75")
        assert cons.slots == ["patient_age"]

    def test_parse_dotted_slot(self):
        cons = c("patient.age >= 25")
        assert cons.slots == ["patient.age"]

    def test_parse_bareword_value(self):
        cons = c("city = Dallas")
        assert cons.matches_record({"city": "Dallas"})

    def test_parse_booleans(self):
        cons = c("mobile = false")
        assert cons.matches_record({"mobile": False})
        assert not cons.matches_record({"mobile": True})

    def test_parse_floats_and_negatives(self):
        cons = c("lat between -90.0 and 90.0")
        assert cons.matches_record({"lat": -45.5})

    def test_parse_neq_variants(self):
        for text in ("x != 1", "x <> 1"):
            cons = c(text)
            assert cons.matches_record({"x": 2})
            assert not cons.matches_record({"x": 1})

    def test_parse_empty_text(self):
        assert c("").is_unconstrained()

    def test_parse_errors(self):
        for bad in ("age >", "between 1 and 2", "age between 1", "x in ()", "x in 1",
                    "age = 1 or age = 2", "age ~ 5", "x = 1e"):
            for _ in range(2):  # a failed parse is not memoised
                with pytest.raises(ConstraintParseError):
                    c(bad)

    def test_roundtrip_quoted_escapes(self):
        cons = c(r"name = 'O\'Brien'")
        assert cons.matches_record({"name": "O'Brien"})

    def test_exponent_floats(self):
        assert c("x = 1e5") == c("x = 100000.0")
        assert c("p >= 1e+16").domain("p").contains(2e16)
        atom = Atom("p", Op.LT, 1e-05)
        assert c(repr(atom)) == Constraint.from_atoms([atom])

    def test_ill_typed_atoms_are_parse_errors(self):
        for bad in ("x between 'a' and 5", "x < true", "x >= false"):
            for _ in range(2):
                with pytest.raises(ConstraintParseError) as raised:
                    c(bad)
                assert isinstance(raised.value.__cause__, ValueError)

    def test_equal_texts_share_one_constraint(self):
        text = "patient age between 43 and 75 and code in ('40W', '41A')"
        first = parse_constraint(text)
        assert parse_constraint(text) is first
        assert parse_constraint(text + " ") == first

    def test_parse_constraint_doctest_is_collected(self):
        found = doctest.DocTestFinder().find(repro.constraints.parser)
        names = {t.name for t in found if t.examples}
        assert "repro.constraints.parser.parse_constraint" in names


# ----------------------------------------------------------------------
# the parser against a reference fold, on rendered atom conjunctions
# ----------------------------------------------------------------------
_KEYWORDS = {"and", "between", "in"}
_slot_words = st.from_regex(r"[a-z_][a-z0-9_.]{0,5}", fullmatch=True).filter(
    lambda word: word not in _KEYWORDS)
_slots = st.lists(_slot_words, min_size=1, max_size=3)
_numbers = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-05, -2.5e-07, 1e16, -3e+21]),
)
_strings = st.text(alphabet="ab '\"\\", max_size=5)
_ORDERED = [Op.LT, Op.LE, Op.GT, Op.GE]


@st.composite
def _atoms(draw, slot_words):
    words = draw(st.sampled_from(slot_words))
    kind = draw(st.sampled_from(["number", "string", "bool"]))
    scalars = {"number": _numbers, "string": _strings, "bool": st.booleans()}[kind]
    ops = [Op.EQ, Op.NEQ, Op.IN] + ([] if kind == "bool" else _ORDERED + [Op.BETWEEN])
    op = draw(st.sampled_from(ops))
    if op is Op.BETWEEN:  # unordered bounds give an empty between
        value = (draw(scalars), draw(scalars))
    elif op is Op.IN:
        value = tuple(draw(st.lists(scalars, min_size=1, max_size=3)))
    else:
        value = draw(scalars)
    return words, Atom(" ".join(words), op, value)


@st.composite
def _conjunctions(draw):
    # A few slots per conjunction, so that slots repeat.
    slot_words = draw(st.lists(_slots, min_size=1, max_size=3))
    return draw(st.lists(_atoms(slot_words), max_size=5))


@given(_conjunctions())
def test_parser_equals_reference_fold(conjunction):
    text = " and ".join(repr(atom) for _, atom in conjunction)
    domains = {}
    for words, atom in conjunction:
        slot = "_".join(words)  # the parser joins a multi-word slot
        domains[slot] = intersect_domains(domains.get(slot, FULL_DOMAIN), atom.domain())
    expected = Constraint(domains)
    parsed = parse_constraint(text)
    assert parsed == expected
    assert parsed.cache_key() == expected.cache_key()
