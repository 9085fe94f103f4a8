"""Tests for slot domains and their intersection/subsumption algebra."""

import pytest

from repro.constraints.domains import (
    Complement,
    DiscreteSet,
    FULL_DOMAIN,
    domain_for_value,
    domain_is_full,
    intersect_domains,
    overlaps_domains,
    subsumes_domain,
)
from repro.constraints.intervals import Interval, IntervalSet


def iv(lo, hi):
    return IntervalSet([Interval(lo, hi)])


class TestDomainBasics:
    def test_full_domain(self):
        assert domain_is_full(FULL_DOMAIN)
        assert FULL_DOMAIN.contains("anything")
        assert FULL_DOMAIN.contains(42)

    def test_domain_for_number_is_interval(self):
        d = domain_for_value(5)
        assert isinstance(d, IntervalSet)
        assert d.contains(5) and not d.contains(6)

    def test_domain_for_string_is_discrete(self):
        d = domain_for_value("40W")
        assert isinstance(d, DiscreteSet)
        assert d.contains("40W") and not d.contains("41A")

    def test_discrete_set(self):
        d = DiscreteSet(frozenset(["a", "b"]))
        assert d.contains("a") and not d.contains("c")
        assert not d.is_empty()
        assert DiscreteSet(frozenset()).is_empty()

    def test_complement(self):
        d = Complement(frozenset(["x"]))
        assert d.contains("y") and not d.contains("x")
        assert not d.is_empty()


class TestIntersect:
    def test_interval_interval(self):
        assert intersect_domains(iv(0, 10), iv(5, 15)) == iv(5, 10)

    def test_interval_interval_disjoint(self):
        assert intersect_domains(iv(0, 1), iv(2, 3)).is_empty()

    def test_discrete_discrete(self):
        a = DiscreteSet(frozenset("ab"))
        b = DiscreteSet(frozenset("bc"))
        assert intersect_domains(a, b) == DiscreteSet(frozenset("b"))

    def test_discrete_interval(self):
        d = DiscreteSet(frozenset([1, 5, 20]))
        result = intersect_domains(d, iv(0, 10))
        assert result == DiscreteSet(frozenset([1, 5]))

    def test_interval_discrete_commutes(self):
        d = DiscreteSet(frozenset([1, 5, 20]))
        assert intersect_domains(iv(0, 10), d) == intersect_domains(d, iv(0, 10))

    def test_discrete_interval_type_mismatch_drops_values(self):
        d = DiscreteSet(frozenset(["a", "b"]))
        assert intersect_domains(d, iv(0, 10)).is_empty()

    def test_complement_complement(self):
        a = Complement(frozenset(["x"]))
        b = Complement(frozenset(["y"]))
        merged = intersect_domains(a, b)
        assert isinstance(merged, Complement)
        assert merged.excluded == frozenset(["x", "y"])

    def test_complement_discrete(self):
        c = Complement(frozenset(["x"]))
        d = DiscreteSet(frozenset(["x", "y"]))
        assert intersect_domains(c, d) == DiscreteSet(frozenset(["y"]))

    def test_complement_interval_removes_points(self):
        c = Complement(frozenset([5]))
        result = intersect_domains(iv(0, 10), c)
        assert not result.contains(5)
        assert result.contains(4) and result.contains(6)

    def test_complement_kills_point_interval(self):
        c = Complement(frozenset([5]))
        assert intersect_domains(IntervalSet.point(5), c).is_empty()

    def test_complement_interval_incomparable_points_ignored(self):
        # A bool is not a number here (type_tag), though True == 1.
        for domain, excluded in ((iv(0, 10), "x"), (iv(0, 10), True),
                                 (iv(False, True), 1)):
            c = Complement(frozenset([excluded]))
            assert intersect_domains(domain, c) == domain
            assert subsumes_domain(c, domain)

    def test_interval_string_vs_number_empty(self):
        strings = IntervalSet([Interval("a", "z")])
        numbers = iv(0, 10)
        assert intersect_domains(strings, numbers).is_empty()


class TestOverlapsAndSubsumes:
    def test_paper_example_overlap(self):
        # Advertisement: age in [43, 75]; query: age in [25, 65] -> overlap.
        assert overlaps_domains(iv(43, 75), iv(25, 65))

    def test_no_overlap(self):
        assert not overlaps_domains(iv(0, 10), iv(20, 30))

    def test_full_overlaps_everything(self):
        assert overlaps_domains(FULL_DOMAIN, iv(0, 1))
        assert overlaps_domains(FULL_DOMAIN, DiscreteSet(frozenset(["a"])))

    def test_subsumes_interval(self):
        assert subsumes_domain(iv(0, 100), iv(10, 20))
        assert not subsumes_domain(iv(10, 20), iv(0, 100))

    def test_subsumes_full(self):
        assert subsumes_domain(FULL_DOMAIN, iv(0, 1))
        assert subsumes_domain(FULL_DOMAIN, DiscreteSet(frozenset("ab")))
        assert subsumes_domain(FULL_DOMAIN, Complement(frozenset("a")))

    def test_nothing_finite_subsumes_full(self):
        assert not subsumes_domain(iv(0, 1), FULL_DOMAIN)
        assert not subsumes_domain(DiscreteSet(frozenset("ab")), FULL_DOMAIN)

    def test_full_intervalset_subsumes_complement(self):
        assert subsumes_domain(IntervalSet.full(), Complement(frozenset([1])))

    def test_complement_subsumes_discrete(self):
        c = Complement(frozenset(["x"]))
        assert subsumes_domain(c, DiscreteSet(frozenset(["y", "z"])))
        assert not subsumes_domain(c, DiscreteSet(frozenset(["x"])))

    def test_complement_subsumes_complement(self):
        assert subsumes_domain(Complement(frozenset("a")), Complement(frozenset("ab")))
        assert not subsumes_domain(Complement(frozenset("ab")), Complement(frozenset("a")))

    def test_complement_subsumes_interval(self):
        c = Complement(frozenset([5]))
        assert not subsumes_domain(c, iv(0, 10))
        assert subsumes_domain(c, iv(6, 10))

    def test_discrete_subsumes_discrete(self):
        big = DiscreteSet(frozenset("abc"))
        small = DiscreteSet(frozenset("ab"))
        assert subsumes_domain(big, small)
        assert not subsumes_domain(small, big)

    def test_discrete_subsumes_point_interval(self):
        d = DiscreteSet(frozenset([1, 2]))
        assert subsumes_domain(d, IntervalSet.point(1))
        assert not subsumes_domain(d, iv(1, 2))

    def test_interval_subsumes_discrete(self):
        assert subsumes_domain(iv(0, 10), DiscreteSet(frozenset([1, 5])))
        assert not subsumes_domain(iv(0, 10), DiscreteSet(frozenset([1, 50])))
