"""Compilation hooks: constraint domains -> specialized overlap checkers.

The columnar matchmaking plane (:mod:`repro.core.columnar`) evaluates
one advertised domain against *many* query domains for as long as it
stays advertised.  Deciding the domain's shape (interval set /
discrete set / complement) on every probe is wasted work, so this module
compiles each domain **once** into a closure specialized on its kind:

* a single numeric interval compiles to four captured floats (with
  ``±inf`` standing in for the open ends) and two comparisons;
* a discrete set compiles to frozenset intersection tests;
* a complement compiles to the observation that a cofinite domain
  overlaps everything except a discrete set it wholly excludes or an
  interval set it can puncture to nothing;
* anything else falls back to the reference
  :func:`~repro.constraints.domains.overlaps_domains`.

Every checker is *extensionally identical* to ``overlaps_domains`` with
the compiled domain on the left — property tests assert this — so the
columnar plane can substitute them freely for the per-ad walk.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.constraints.conjunction import Constraint
from repro.constraints.domains import (
    Complement,
    DiscreteSet,
    Domain,
    domain_is_full,
    overlaps_domains,
)
from repro.constraints.intervals import IntervalSet, _is_number

_INF = float("inf")

#: ``(lo, hi, lo_open, hi_open)`` with infinities for the open ends.
SimpleInterval = Tuple[float, float, bool, bool]


def _endpoint(value, unbounded: float) -> Optional[float]:
    """An interval endpoint as a float (*unbounded* for an open end), or
    None when it is not a number a float holds exactly — rounding an
    integer above 2**53 would move the endpoint and change the answer."""
    if value is None:
        return unbounded
    if not _is_number(value):
        return None
    try:
        as_float = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return as_float if as_float == value else None


def simple_numeric_interval(domain: Domain) -> Optional[SimpleInterval]:
    """*domain* as one numeric interval, or None when it isn't one.

    These are the domains the columnar plane stores in parallel
    ``array('d')`` lo/hi columns; string- and bool-valued intervals,
    multi-interval sets, discrete sets, complements and intervals with
    an endpoint no float represents exactly all stay out of the arrays
    and keep their compiled (exact) checkers.
    """
    if not isinstance(domain, IntervalSet) or len(domain.intervals) != 1:
        return None
    iv = domain.intervals[0]
    lo = _endpoint(iv.lo, -_INF)
    hi = _endpoint(iv.hi, _INF)
    if lo is None or hi is None:
        return None
    return (lo, hi, iv.lo_open, iv.hi_open)


def intervals_overlap(a: SimpleInterval, b: SimpleInterval) -> bool:
    """Overlap test for two simple numeric intervals.

    Matches :meth:`Interval.overlaps` exactly: intervals touching at one
    endpoint overlap only when that endpoint is closed on both sides.
    (Infinite endpoints carry ``open=False``, so the equality arms never
    fire for them.)
    """
    alo, ahi, alo_open, ahi_open = a
    blo, bhi, blo_open, bhi_open = b
    if ahi < blo or bhi < alo:
        return False
    if ahi == blo and (ahi_open or blo_open):
        return False
    if bhi == alo and (bhi_open or alo_open):
        return False
    return True


def compile_overlap_checker(domain: Domain) -> Callable[[Domain], bool]:
    """One closure answering ``overlaps_domains(domain, query_domain)``.

    The shape dispatch happens here, once, instead of inside every
    probe.  The returned closure is total over all three domain shapes;
    unusual pairings delegate to the reference implementation rather
    than reimplementing it.
    """
    simple = simple_numeric_interval(domain)
    if simple is not None:
        def check_simple(query_domain: Domain, _simple=simple) -> bool:
            q = simple_numeric_interval(query_domain)
            if q is not None:
                return intervals_overlap(_simple, q)
            return overlaps_domains(domain, query_domain)

        return check_simple

    if isinstance(domain, DiscreteSet):
        allowed = domain.allowed

        def check_discrete(query_domain: Domain) -> bool:
            if isinstance(query_domain, DiscreteSet):
                return bool(allowed & query_domain.allowed)
            if isinstance(query_domain, Complement):
                return bool(allowed - query_domain.excluded)
            return overlaps_domains(domain, query_domain)

        return check_discrete

    if isinstance(domain, Complement):
        excluded = domain.excluded

        def check_complement(query_domain: Domain) -> bool:
            if isinstance(query_domain, DiscreteSet):
                return bool(query_domain.allowed - excluded)
            if isinstance(query_domain, Complement):
                # Two cofinite domains always share a value.
                return True
            return overlaps_domains(domain, query_domain)

        return check_complement

    # General interval sets (multi-interval, string/bool endpoints).
    def check_general(query_domain: Domain) -> bool:
        return overlaps_domains(domain, query_domain)

    return check_general


def compile_constraint_checker(
    constraint: Constraint,
) -> Callable[[Constraint], bool]:
    """One closure per :class:`Constraint` answering
    ``constraint.overlaps(query_constraints)`` exactly.

    An unsatisfiable advertised constraint compiles to constant False;
    otherwise each restricted slot gets its compiled domain checker and
    the conjunction short-circuits in sorted-slot order.  (The query-
    satisfiability guard mirrors :meth:`Constraint.overlaps`; broker
    queries are satisfiable by construction —
    :meth:`BrokerQuery.__post_init__` — so on the matching hot path it
    never fires.)
    """
    if not constraint.is_satisfiable():
        return lambda query_constraints: False
    checkers = [
        (slot, compile_overlap_checker(constraint.domain(slot)))
        for slot in constraint.slots
    ]

    def check(query_constraints: Constraint) -> bool:
        if not query_constraints.is_satisfiable():
            return False
        for slot, checker in checkers:
            query_domain = query_constraints.domain(slot)
            # A slot the query leaves unrestricted always overlaps a
            # satisfiable advertised domain; the checker would answer
            # True anyway, so the skip is purely a fast path.
            if domain_is_full(query_domain):
                continue
            if not checker(query_domain):
                return False
        return True

    return check
