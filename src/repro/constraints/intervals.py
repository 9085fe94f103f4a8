"""Intervals and normalized interval sets over any totally ordered type.

Endpoints may be numbers or strings (but not mixed within one interval
set); infinities are represented by ``None`` at either end.  Intervals
may be open or closed at each finite endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def type_tag(value) -> str:
    """Classify a constraint value: numbers order together, strings apart."""
    if _is_number(value):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, bool):
        return "bool"
    raise TypeError(f"unsupported constraint value type: {type(value).__name__}")


@dataclass(frozen=True)
class Interval:
    """One interval.  ``lo``/``hi`` of ``None`` mean -inf / +inf.

    >>> Interval(25, 65).contains(43)
    True
    >>> Interval(0, 1, hi_open=True).contains(1)
    False
    """

    lo: Optional[object] = None
    hi: Optional[object] = None
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if self.lo is not None and self.hi is not None:
            if type_tag(self.lo) != type_tag(self.hi):
                raise TypeError(
                    f"interval endpoints have mixed types: {self.lo!r}, {self.hi!r}"
                )
            if self.lo > self.hi:
                raise ValueError(f"empty interval: lo={self.lo!r} > hi={self.hi!r}")
            if self.lo == self.hi and (self.lo_open or self.hi_open):
                raise ValueError("degenerate interval must be closed at both ends")

    @classmethod
    def point(cls, value) -> "Interval":
        """The degenerate interval [value, value]."""
        return cls(value, value)

    @classmethod
    def full(cls) -> "Interval":
        return cls(None, None)

    @property
    def tag(self) -> Optional[str]:
        """The type tag of the endpoints, or None for (-inf, +inf)."""
        endpoint = self.lo if self.lo is not None else self.hi
        return None if endpoint is None else type_tag(endpoint)

    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, value) -> bool:
        if self.lo is not None:
            if value < self.lo or (self.lo_open and value == self.lo):
                return False
        if self.hi is not None:
            if value > self.hi or (self.hi_open and value == self.hi):
                return False
        return True

    def overlaps(self, other: "Interval") -> bool:
        return self.intersect(other) is not None

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """The intersection interval, or None when disjoint."""
        lo, lo_open = _max_lo((self.lo, self.lo_open), (other.lo, other.lo_open))
        hi, hi_open = _min_hi((self.hi, self.hi_open), (other.hi, other.hi_open))
        if lo is not None and hi is not None:
            if lo > hi:
                return None
            if lo == hi and (lo_open or hi_open):
                return None
        return Interval(lo, hi, lo_open, hi_open)

    def subsumes(self, other: "Interval") -> bool:
        """True when *other* lies entirely within this interval."""
        if self.lo is not None:
            if other.lo is None:
                return False
            if other.lo < self.lo:
                return False
            if other.lo == self.lo and self.lo_open and not other.lo_open:
                return False
        if self.hi is not None:
            if other.hi is None:
                return False
            if other.hi > self.hi:
                return False
            if other.hi == self.hi and self.hi_open and not other.hi_open:
                return False
        return True

    def remove_point(self, value) -> List["Interval"]:
        """This interval minus one point (possibly splitting in two)."""
        if not self.contains(value):
            return [self]
        pieces = []
        if self.lo is None or self.lo < value:
            pieces.append(Interval(self.lo, value, self.lo_open, hi_open=True))
        if self.hi is None or self.hi > value:
            pieces.append(Interval(value, self.hi, lo_open=True, hi_open=self.hi_open))
        return pieces

    def __repr__(self) -> str:
        lo = "(-inf" if self.lo is None else ("(" if self.lo_open else "[") + repr(self.lo)
        hi = "+inf)" if self.hi is None else repr(self.hi) + (")" if self.hi_open else "]")
        return f"{lo}, {hi}"


_FULL_INTERVAL = Interval()


def _interval_is_empty(iv: Interval) -> bool:
    if iv.lo is None or iv.hi is None:
        return False
    if iv.lo > iv.hi:
        return True
    return iv.lo == iv.hi and (iv.lo_open or iv.hi_open)


def _max_lo(a: Tuple, b: Tuple) -> Tuple:
    (alo, aopen), (blo, bopen) = a, b
    if alo is None:
        return blo, bopen
    if blo is None:
        return alo, aopen
    if alo > blo:
        return alo, aopen
    if blo > alo:
        return blo, bopen
    return alo, aopen or bopen


def _min_hi(a: Tuple, b: Tuple) -> Tuple:
    (ahi, aopen), (bhi, bopen) = a, b
    if ahi is None:
        return bhi, bopen
    if bhi is None:
        return ahi, aopen
    if ahi < bhi:
        return ahi, aopen
    if bhi < ahi:
        return bhi, bopen
    return ahi, aopen or bopen


class IntervalSet:
    """A union of disjoint, sorted intervals (possibly empty).

    All mutating-looking operations return new sets; instances are
    immutable in practice.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        self.intervals: Tuple[Interval, ...] = _normalize(list(intervals))

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls([Interval.full()])

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls([])

    @classmethod
    def point(cls, value) -> "IntervalSet":
        return cls([Interval.point(value)])

    def is_empty(self) -> bool:
        return not self.intervals

    def is_full(self) -> bool:
        return len(self.intervals) == 1 and self.intervals[0] == _FULL_INTERVAL

    def contains(self, value) -> bool:
        return any(iv.contains(value) for iv in self.intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        pieces = []
        for a in self.intervals:
            for b in other.intervals:
                both = a.intersect(b)
                if both is not None:
                    pieces.append(both)
        return IntervalSet(pieces)

    def overlaps(self, other: "IntervalSet") -> bool:
        return not self.intersect(other).is_empty()

    def subsumes(self, other: "IntervalSet") -> bool:
        """Every interval of *other* is covered by some interval of self.

        Normalization merges adjacent intervals, so per-interval coverage
        is a sound and complete test.
        """
        return all(
            any(mine.subsumes(theirs) for mine in self.intervals)
            for theirs in other.intervals
        )

    def remove_points(self, values: Iterable) -> "IntervalSet":
        intervals = list(self.intervals)
        for value in values:
            next_intervals: List[Interval] = []
            for iv in intervals:
                next_intervals.extend(iv.remove_point(value))
            intervals = next_intervals
        return IntervalSet(intervals)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        if not self.intervals:
            return "{}"
        return " u ".join(repr(iv) for iv in self.intervals)


def _normalize(intervals: List[Interval]) -> Tuple[Interval, ...]:
    """Drop empties, sort, and merge overlapping/adjacent intervals."""
    if len(intervals) == 1 and not _interval_is_empty(intervals[0]):
        return (intervals[0],)
    live = [iv for iv in intervals if not _interval_is_empty(iv)]
    if not live:
        return ()
    tags = {iv.tag for iv in live if iv.tag is not None}
    if len(tags) > 1:
        raise TypeError(f"interval set mixes value types: {sorted(tags)}")

    def key(iv: Interval):
        lo_rank = 0 if iv.lo is None else 1
        return (lo_rank, iv.lo if iv.lo is not None else 0, iv.lo_open)

    live.sort(key=key)
    merged = [live[0]]
    for iv in live[1:]:
        last = merged[-1]
        if _touches(last, iv):
            merged[-1] = _merge(last, iv)
        else:
            merged.append(iv)
    return tuple(merged)


def _touches(a: Interval, b: Interval) -> bool:
    """True when a (earlier) and b (later) overlap or abut closed-to-closed."""
    if a.hi is None or b.lo is None:
        return True
    if a.hi > b.lo:
        return True
    if a.hi < b.lo:
        return False
    # a.hi == b.lo: they touch unless both endpoints are open.
    return not (a.hi_open and b.lo_open)


def _merge(a: Interval, b: Interval) -> Interval:
    if a.hi is None:
        hi, hi_open = None, False
    elif b.hi is None:
        hi, hi_open = None, False
    elif a.hi > b.hi:
        hi, hi_open = a.hi, a.hi_open
    elif b.hi > a.hi:
        hi, hi_open = b.hi, b.hi_open
    else:
        hi, hi_open = a.hi, a.hi_open and b.hi_open
    return Interval(a.lo, hi, a.lo_open, hi_open)
