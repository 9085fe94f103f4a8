"""Slot domains: the possible values a slot may take under a constraint.

A domain is one of three shapes:

* :class:`~repro.constraints.intervals.IntervalSet` — for ordered
  restrictions (``age >= 25``, ``age between 25 and 65``);
* :class:`DiscreteSet` — a finite set of allowed values
  (``code in ('40W', '41A')``);
* :class:`Complement` — everything *except* a finite set
  (``code != '40W'``), used when the underlying universe is unbounded.

The algebra below (intersection, subsumption) is closed over these three
shapes, with mixed interval/discrete intersections resolved exactly.
An intersection across incompatible value types (number vs string) is
empty rather than an error: an agent constrained to ``age in [43, 75]``
simply cannot overlap a query demanding ``age = 'forty'``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Union

from repro.constraints.intervals import Interval, IntervalSet, type_tag


@dataclass(frozen=True)
class DiscreteSet:
    """A finite set of allowed values."""

    allowed: FrozenSet

    def __post_init__(self):
        if not isinstance(self.allowed, frozenset):
            object.__setattr__(self, "allowed", frozenset(self.allowed))

    def is_empty(self) -> bool:
        return not self.allowed

    def contains(self, value) -> bool:
        return value in self.allowed

    def __repr__(self) -> str:
        return "{" + ", ".join(sorted(map(repr, self.allowed))) + "}"


@dataclass(frozen=True)
class Complement:
    """All values except a finite excluded set (never empty)."""

    excluded: FrozenSet

    def __post_init__(self):
        if not isinstance(self.excluded, frozenset):
            object.__setattr__(self, "excluded", frozenset(self.excluded))

    def is_empty(self) -> bool:
        return False

    def contains(self, value) -> bool:
        return value not in self.excluded

    def __repr__(self) -> str:
        if not self.excluded:
            return "ANY"
        return "ANY - {" + ", ".join(sorted(map(repr, self.excluded))) + "}"


Domain = Union[IntervalSet, DiscreteSet, Complement]

#: The unconstrained domain (anything goes).
FULL_DOMAIN: Domain = Complement(frozenset())


def domain_is_full(domain: Domain) -> bool:
    """True for the unconstrained domain."""
    if isinstance(domain, Complement):
        return not domain.excluded
    if isinstance(domain, IntervalSet):
        return domain.is_full()
    return False


def domain_for_value(value) -> Domain:
    """The most natural singleton domain for an ``=`` constraint."""
    if type_tag(value) == "number":
        return IntervalSet.point(value)
    return DiscreteSet(frozenset([value]))


def _discrete_filter(discrete: DiscreteSet, interval_set: IntervalSet) -> DiscreteSet:
    kept = []
    for value in discrete.allowed:
        try:
            if interval_set.contains(value):
                kept.append(value)
        except TypeError:
            continue  # incomparable type: not in the interval set
    return DiscreteSet(frozenset(kept))


def intersect_domains(a: Domain, b: Domain) -> Domain:
    """The intersection of two domains (closed over the three shapes)."""
    if isinstance(a, Complement) and isinstance(b, Complement):
        return Complement(a.excluded | b.excluded)
    if isinstance(a, Complement):
        return intersect_domains(b, a)

    if isinstance(b, Complement):
        if isinstance(a, DiscreteSet):
            return DiscreteSet(a.allowed - b.excluded)
        return a.remove_points(_comparable_points(a, b.excluded))

    if isinstance(a, DiscreteSet) and isinstance(b, DiscreteSet):
        return DiscreteSet(a.allowed & b.allowed)
    if isinstance(a, DiscreteSet):
        return _discrete_filter(a, b)
    if isinstance(b, DiscreteSet):
        return _discrete_filter(b, a)

    try:
        return a.intersect(b)
    except TypeError:
        return IntervalSet.empty()  # mixed value types cannot overlap


def _comparable_points(interval_set: IntervalSet, points) -> list:
    """The subset of *points* of the value type of *interval_set*'s
    endpoints: a point of another type (a bool against numbers too, as
    :func:`type_tag` has it) cannot lie in the set."""
    tags = {iv.tag for iv in interval_set.intervals} - {None}
    comparable = []
    for point in points:
        try:
            tag = type_tag(point)
        except TypeError:
            continue
        if not tags or tag in tags:
            comparable.append(point)
    return comparable


def overlaps_domains(a: Domain, b: Domain) -> bool:
    """True when some value lies in both domains."""
    return not intersect_domains(a, b).is_empty()


def subsumes_domain(a: Domain, b: Domain) -> bool:
    """True when domain *a* contains every value of domain *b*."""
    if isinstance(a, Complement):
        if isinstance(b, Complement):
            return a.excluded <= b.excluded
        if isinstance(b, DiscreteSet):
            return not (b.allowed & a.excluded)
        # IntervalSet within a complement: none of the excluded points may
        # fall inside b -- removing them must leave b unchanged.
        return b.remove_points(_comparable_points(b, a.excluded)) == b

    if isinstance(a, DiscreteSet):
        if isinstance(b, DiscreteSet):
            return b.allowed <= a.allowed
        if isinstance(b, IntervalSet):
            # Only point-only interval sets can fit inside a finite set.
            return all(
                iv.is_point() and iv.lo in a.allowed for iv in b.intervals
            )
        return False  # a finite set never contains a complement

    # a is an IntervalSet
    if isinstance(b, DiscreteSet):
        return all(_safe_contains(a, v) for v in b.allowed)
    if isinstance(b, Complement):
        return a.is_full()  # only (-inf, +inf) can contain a cofinite set
    try:
        return a.subsumes(b)
    except TypeError:
        return b.is_empty()


def _safe_contains(interval_set: IntervalSet, value) -> bool:
    try:
        return interval_set.contains(value)
    except TypeError:
        return False


def domain_key(domain: Domain):
    """A canonical, hashable key for *domain* (same key iff same domain).

    Frozensets iterate in hash order, so the key sorts their members (by
    repr, to tolerate mixed value types); interval sets are already
    normalized to sorted disjoint runs.  Used to fingerprint constraints
    for the broker's match cache.
    """
    if isinstance(domain, IntervalSet):
        return (
            "iv",
            tuple(
                (iv.lo, iv.hi, iv.lo_open, iv.hi_open)
                for iv in domain.intervals
            ),
        )
    if isinstance(domain, DiscreteSet):
        return ("in", tuple(sorted(domain.allowed, key=repr)))
    return ("not", tuple(sorted(domain.excluded, key=repr)))
