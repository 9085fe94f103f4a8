"""Broker consortia and the broker connectivity graph (Section 3.3).

"A broker consortium is a set of brokers that are fully interconnected
... a given broker may belong to more than one consortium; therefore, a
set of interconnected brokers that can collaborate takes the form of a
connected network of broker consortia."

:class:`BrokerNetwork` models the directed knows-about graph (an arc
from B2 to B1 means B1 has advertised itself to B2), offers the
connectivity check the paper requires ("no disconnected sub-network of
brokers"), and computes spanning trees for the request-propagation
optimization sketched in Section 3.2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.core.errors import BrokeringError


@dataclass(frozen=True)
class Consortium:
    """A named, fully-interconnected group of brokers."""

    name: str
    members: FrozenSet[str]

    def __post_init__(self):
        if not self.name:
            raise BrokeringError("consortium name must be non-empty")
        if not isinstance(self.members, frozenset):
            object.__setattr__(self, "members", frozenset(self.members))
        if not self.members:
            raise BrokeringError(f"consortium {self.name!r} has no members")

    def __contains__(self, broker: str) -> bool:
        return broker in self.members

    def edges(self) -> List[Tuple[str, str]]:
        """All ordered pairs: members advertise to every other member."""
        return [
            (a, b) for a in self.members for b in self.members if a != b
        ]


class BrokerNetwork:
    """The brokers' knows-about digraph, built from consortia and/or
    explicit advertisements."""

    def __init__(self):
        #: broker -> the brokers it knows (whose advertisements it
        #: holds), and the reverse map; every broker is a key of both.
        self._knows: Dict[str, Set[str]] = {}
        self._known_to: Dict[str, Set[str]] = {}
        self._consortia: Dict[str, Consortium] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_broker(self, name: str) -> None:
        self._knows.setdefault(name, set())
        self._known_to.setdefault(name, set())

    def _add_edge(self, source: str, target: str) -> None:
        self._knows[source].add(target)
        self._known_to[target].add(source)

    def add_consortium(self, consortium: Consortium) -> None:
        if consortium.name in self._consortia:
            raise BrokeringError(f"consortium {consortium.name!r} already defined")
        self._consortia[consortium.name] = consortium
        for member in consortium.members:
            self.add_broker(member)
        for source, target in consortium.edges():
            # target advertised to source: source knows target.
            self._add_edge(source, target)

    def record_advertisement(self, advertiser: str, to_broker: str) -> None:
        """*advertiser* advertised itself to *to_broker* (who now knows it)."""
        self.add_broker(advertiser)
        self.add_broker(to_broker)
        self._add_edge(to_broker, advertiser)

    def record_departure(self, broker: str) -> None:
        for known in self._knows.pop(broker, ()):
            self._known_to[known].discard(broker)
        for knower in self._known_to.pop(broker, ()):
            self._knows[knower].discard(broker)
        for name, consortium in list(self._consortia.items()):
            if broker in consortium:
                remaining = consortium.members - {broker}
                if remaining:
                    self._consortia[name] = Consortium(name, remaining)
                else:
                    del self._consortia[name]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def brokers(self) -> List[str]:
        return sorted(self._knows)

    def consortia_of(self, broker: str) -> List[str]:
        return sorted(
            name for name, consortium in self._consortia.items() if broker in consortium
        )

    def known_by(self, broker: str) -> List[str]:
        """Brokers whose advertisements *broker* holds (forward targets)."""
        return sorted(self._knows.get(broker, ()))

    def _bfs(self, root: str, undirected: bool = False) -> Iterator[Tuple[str, str]]:
        """Breadth-first ``(parent, child)`` discoveries from *root*,
        neighbours in sorted order — so the traversal, and the tree it
        spans, never depend on set iteration order."""
        seen = {root}
        frontier = deque([root])
        while frontier:
            parent = frontier.popleft()
            neighbours = self._knows[parent]
            if undirected:
                neighbours = neighbours | self._known_to[parent]
            for child in sorted(neighbours):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
                    yield parent, child

    def is_connected(self) -> bool:
        """The paper's requirement: every broker reaches every other,
        directly or indirectly (weak connectivity of the digraph)."""
        if len(self._knows) <= 1:
            return True
        root = next(iter(self._knows))
        return 1 + sum(1 for _ in self._bfs(root, undirected=True)) == len(self._knows)

    def reachable_from(self, broker: str) -> Set[str]:
        if broker not in self._knows:
            return set()
        return {broker} | {child for _parent, child in self._bfs(broker)}

    def spanning_tree_from(self, broker: str) -> Dict[str, List[str]]:
        """A BFS spanning tree rooted at *broker*: parent -> children.

        Propagating a request along this tree instead of flooding every
        edge is the Section 3.2 connectivity-cost reduction.
        """
        if broker not in self._knows:
            raise BrokeringError(f"unknown broker {broker!r}")
        tree: Dict[str, List[str]] = {}
        for parent, child in self._bfs(broker):
            tree.setdefault(parent, []).append(child)
        return tree
