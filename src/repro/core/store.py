"""Persistent advertisement storage: SQLite behind the repository.

The in-memory :class:`~repro.core.repository.MemoryAdStore` keeps every
advertisement resident, which is fine for a simulated community but not
for a long-lived broker holding tens of thousands of advertisements
(the paper's brokers persisted their repository in LDL's EDB).  This
module provides the same storage interface over a single SQLite table
— stdlib only, no new dependencies — plugged in as
``BrokerRepository(context, store=SQLiteAdStore(path))``:

``ads(name TEXT PRIMARY KEY, kind INTEGER, size_mb REAL, sexpr TEXT)``

Rows hold the *lossless* KQML s-expression encoding of each
advertisement (:func:`repro.core.advertisement.advertisement_to_sexpr`
— the same codec the advertisement journal uses), so a database written
by one broker process round-trips byte-identically in another.
``kind`` is 0 for agent advertisements and 1 for broker
advertisements; ``size_mb`` is denormalized so :meth:`size_mb` is one
aggregate query instead of N decodes.

Decoding is the expensive step, so a small LRU keeps recently fetched
advertisements materialized — the columnar plane only fetches the
survivors of a query, which is exactly the working set worth caching.
:meth:`bulk` wraps many mutations in one transaction: the broker's
journal replay becomes a single bulk ``INSERT`` instead of one commit
per journal line.
"""

from __future__ import annotations

import sqlite3
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.core.advertisement import (
    Advertisement,
    advertisement_from_sexpr,
    advertisement_to_sexpr,
)
from repro.kqml.sexpr import parse_sexpr, render_sexpr

#: ``kind`` column values.
_KIND_AGENT = 0
_KIND_BROKER = 1

#: Default bound on decoded advertisements kept resident.
DEFAULT_DECODE_CACHE_SIZE = 1024


class SQLiteAdStore:
    """Advertisement storage in a SQLite database.

    *path* is a filesystem path or ``":memory:"`` (the default — useful
    for tests and for brokers that want the bounded-residency behavior
    without a durability requirement).  The store owns its connection;
    it is single-threaded like the agent loop that drives it.
    """

    kind = "sqlite"

    def __init__(self, path: str = ":memory:",
                 decode_cache_size: int = DEFAULT_DECODE_CACHE_SIZE):
        self.path = path
        self.decode_cache_size = decode_cache_size
        self._db = sqlite3.connect(path)
        self._db.execute(
            "CREATE TABLE IF NOT EXISTS ads ("
            " name TEXT PRIMARY KEY,"
            " kind INTEGER NOT NULL,"
            " size_mb REAL NOT NULL,"
            " sexpr TEXT NOT NULL)"
        )
        self._db.commit()
        self._decoded: "OrderedDict[str, Advertisement]" = OrderedDict()
        self._in_bulk = False
        # Maintained counters: len() per call would be a COUNT(*) query.
        self._counts = {_KIND_AGENT: 0, _KIND_BROKER: 0}
        for kind, count in self._db.execute(
            "SELECT kind, COUNT(*) FROM ads GROUP BY kind"
        ):
            self._counts[kind] = count

    def clone_empty(self) -> "SQLiteAdStore":
        """A fresh, empty store — in memory, regardless of this store's
        path: a strict crash must forget, not reopen, the dead broker's
        repository (see DESIGN.md on crash semantics)."""
        return SQLiteAdStore(":memory:", decode_cache_size=self.decode_cache_size)

    # ------------------------------------------------------------------
    # codec
    # ------------------------------------------------------------------
    @staticmethod
    def encode(ad: Advertisement) -> str:
        return render_sexpr(advertisement_to_sexpr(ad))

    @staticmethod
    def decode(text: str) -> Advertisement:
        return advertisement_from_sexpr(parse_sexpr(text))

    def _materialize(self, name: str, text: str) -> Advertisement:
        ad = self._decoded.get(name)
        if ad is not None:
            self._decoded.move_to_end(name)
            return ad
        ad = self.decode(text)
        self._decoded[name] = ad
        while len(self._decoded) > self.decode_cache_size:
            self._decoded.popitem(last=False)
        return ad

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _put(self, ad: Advertisement, kind: int) -> None:
        row = self._db.execute(
            "SELECT kind FROM ads WHERE name = ?", (ad.agent_name,)
        ).fetchone()
        if row is not None:
            self._counts[row[0]] -= 1
        self._db.execute(
            "INSERT OR REPLACE INTO ads (name, kind, size_mb, sexpr)"
            " VALUES (?, ?, ?, ?)",
            (ad.agent_name, kind, ad.size_mb, self.encode(ad)),
        )
        self._counts[kind] += 1
        self._decoded[ad.agent_name] = ad
        self._decoded.move_to_end(ad.agent_name)
        while len(self._decoded) > self.decode_cache_size:
            self._decoded.popitem(last=False)
        if not self._in_bulk:
            self._db.commit()

    def _pop(self, name: str, kind: int) -> Optional[Advertisement]:
        row = self._db.execute(
            "SELECT sexpr FROM ads WHERE name = ? AND kind = ?", (name, kind)
        ).fetchone()
        if row is None:
            return None
        ad = self._materialize(name, row[0])
        self._db.execute("DELETE FROM ads WHERE name = ?", (name,))
        self._counts[kind] -= 1
        self._decoded.pop(name, None)
        if not self._in_bulk:
            self._db.commit()
        return ad

    def _get(self, name: str, kind: int) -> Optional[Advertisement]:
        row = self._db.execute(
            "SELECT sexpr FROM ads WHERE name = ? AND kind = ?", (name, kind)
        ).fetchone()
        if row is None:
            return None
        return self._materialize(name, row[0])

    def _names(self, kind: int) -> List[str]:
        return [
            row[0]
            for row in self._db.execute(
                "SELECT name FROM ads WHERE kind = ? ORDER BY name", (kind,)
            )
        ]

    def _iter(self, kind: int) -> Iterator[Advertisement]:
        # rowid order = insertion order, matching MemoryAdStore's dicts.
        for name, text in self._db.execute(
            "SELECT name, sexpr FROM ads WHERE kind = ? ORDER BY rowid", (kind,)
        ).fetchall():
            yield self._materialize(name, text)

    # -- agents ---------------------------------------------------------
    def get_agent(self, name: str) -> Optional[Advertisement]:
        return self._get(name, _KIND_AGENT)

    def pop_agent(self, name: str) -> Optional[Advertisement]:
        return self._pop(name, _KIND_AGENT)

    def put_agent(self, ad: Advertisement) -> None:
        self._put(ad, _KIND_AGENT)

    def agent_names(self) -> List[str]:
        return self._names(_KIND_AGENT)

    def iter_agents(self) -> Iterator[Advertisement]:
        return self._iter(_KIND_AGENT)

    @property
    def agent_count(self) -> int:
        return self._counts[_KIND_AGENT]

    # -- brokers --------------------------------------------------------
    def get_broker(self, name: str) -> Optional[Advertisement]:
        return self._get(name, _KIND_BROKER)

    def pop_broker(self, name: str) -> Optional[Advertisement]:
        return self._pop(name, _KIND_BROKER)

    def put_broker(self, ad: Advertisement) -> None:
        self._put(ad, _KIND_BROKER)

    def broker_names(self) -> List[str]:
        return self._names(_KIND_BROKER)

    def iter_brokers(self) -> Iterator[Advertisement]:
        return self._iter(_KIND_BROKER)

    @property
    def broker_count(self) -> int:
        return self._counts[_KIND_BROKER]

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def size_mb(self) -> float:
        row = self._db.execute("SELECT COALESCE(SUM(size_mb), 0) FROM ads").fetchone()
        return float(row[0])

    @contextmanager
    def bulk(self):
        """One transaction around many mutations (nested calls no-op)."""
        if self._in_bulk:
            yield self
            return
        self._in_bulk = True
        try:
            yield self
            self._db.commit()
        except BaseException:
            self._db.rollback()
            # The decode cache may hold rolled-back rows; drop it.
            self._decoded.clear()
            raise
        finally:
            self._in_bulk = False

    def close(self) -> None:
        self._db.close()
