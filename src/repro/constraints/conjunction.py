"""Conjunctive constraints over many slots, and the brokering algebra.

A :class:`Constraint` is what an advertisement or a broker query carries:
a conjunction of atoms, normalized into one domain per slot.  The broker
uses three relations:

``overlaps``   some data item could satisfy both constraints — this is
               the recommendation test;
``subsumes``   every item satisfying *other* satisfies *self* — used for
               specificity scoring and advertisement acceptance;
``intersect``  the combined constraint — used when forwarding narrowed
               requests between brokers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.constraints.atoms import Atom, Op
from repro.constraints.domains import (
    Domain,
    FULL_DOMAIN,
    domain_is_full,
    domain_key,
    intersect_domains,
    overlaps_domains,
    subsumes_domain,
)


class ConstraintError(ValueError):
    """Raised for malformed constraint constructions."""


class Constraint:
    """An immutable conjunction of atomic constraints.

    >>> c = Constraint.from_atoms([Atom("age", Op.BETWEEN, (43, 75))])
    >>> q = Constraint.from_atoms([Atom("age", Op.BETWEEN, (25, 65))])
    >>> c.overlaps(q)
    True
    >>> c.subsumes(q)
    False
    """

    __slots__ = ("_domains",)

    def __init__(self, domains: Optional[Mapping[str, Domain]] = None):
        cleaned: Dict[str, Domain] = {}
        for slot, domain in (domains or {}).items():
            if not domain_is_full(domain):
                cleaned[slot] = domain
        self._domains = cleaned

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def unconstrained(cls) -> "Constraint":
        """The constraint satisfied by everything."""
        return cls({})

    @classmethod
    def from_atoms(cls, atoms: Iterable[Atom]) -> "Constraint":
        domains: Dict[str, Domain] = {}
        for atom in atoms:
            domain = atom.domain()
            if atom.slot in domains:
                domain = intersect_domains(domains[atom.slot], domain)
            domains[atom.slot] = domain
        return cls(domains)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def slots(self) -> List[str]:
        """Slots this constraint actually restricts, sorted."""
        return sorted(self._domains)

    def domain(self, slot: str) -> Domain:
        """The domain for *slot* (the full domain when unrestricted)."""
        return self._domains.get(slot, FULL_DOMAIN)

    def is_unconstrained(self) -> bool:
        return not self._domains

    def is_satisfiable(self) -> bool:
        """False when some slot's domain is empty (no data can match)."""
        return all(not d.is_empty() for d in self._domains.values())

    def restriction_count(self) -> int:
        """How many slots are restricted (a crude specificity measure)."""
        return len(self._domains)

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def overlaps(self, other: "Constraint") -> bool:
        """True when some record could satisfy both constraints."""
        if not self.is_satisfiable() or not other.is_satisfiable():
            return False
        for slot in set(self._domains) & set(other._domains):
            if not overlaps_domains(self._domains[slot], other._domains[slot]):
                return False
        return True

    def disjoint_slots(self, other: "Constraint") -> List[str]:
        """Shared restricted slots whose domains cannot intersect, sorted
        — the witnesses for a failed :meth:`overlaps` between two
        satisfiable constraints."""
        return sorted(
            slot
            for slot in set(self._domains) & set(other._domains)
            if not overlaps_domains(self._domains[slot], other._domains[slot])
        )

    def subsumes(self, other: "Constraint") -> bool:
        """True when every record satisfying *other* satisfies *self*."""
        if not other.is_satisfiable():
            return True  # vacuously
        for slot, mine in self._domains.items():
            if not subsumes_domain(mine, other.domain(slot)):
                return False
        return True

    def intersect(self, other: "Constraint") -> "Constraint":
        """The conjunction of both constraints."""
        domains = dict(self._domains)
        for slot, theirs in other._domains.items():
            if slot in domains:
                domains[slot] = intersect_domains(domains[slot], theirs)
            else:
                domains[slot] = theirs
        return Constraint(domains)

    def matches_record(self, record: Mapping[str, object]) -> bool:
        """Test a concrete record (slot -> value) against this constraint.

        A slot restricted here but missing from the record fails the
        test — a record with no ``age`` cannot satisfy ``age >= 25``.
        """
        for slot, domain in self._domains.items():
            if slot not in record:
                return False
            try:
                if not domain.contains(record[slot]):
                    return False
            except TypeError:
                return False
        return True

    def cache_key(self):
        """A canonical, hashable fingerprint of this constraint.

        Equal constraints always produce equal keys (slot order and
        frozenset iteration order are normalized away), so the broker's
        match cache can key on it.
        """
        return tuple(
            (slot, domain_key(domain))
            for slot, domain in sorted(self._domains.items())
        )

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Constraint) and self._domains == other._domains

    def __hash__(self) -> int:
        return hash(tuple(sorted((s, repr(d)) for s, d in self._domains.items())))

    def __repr__(self) -> str:
        if not self._domains:
            return "Constraint(TRUE)"
        parts = [f"{slot}: {domain!r}" for slot, domain in sorted(self._domains.items())]
        return "Constraint(" + " AND ".join(parts) + ")"
