"""Span recording from outside the program.

The traced run replaces public attributes of the program's classes and
functions with wrappers that record one span — (name, start, end,
parent) on a per-process stack — per call, and restores every original
when tracing ends.  Nothing under ``src/`` knows it is being measured.

A span's *self time* is its duration minus the durations of its direct
children, so self times over all spans sum to the time the outermost
spans cover.  The wrapper's own bookkeeping runs outside the span's
[start, end] interval and therefore lands in the *parent's* self time;
hot leaf calls (``Constraint.overlaps``, ``KqmlMessage.__init__``)
inflate their callers that way, which ``trace.overhead_ratio`` reports.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from repro import obs
from repro.agents import Agent, MessageBus
from repro.constraints import Constraint
from repro.core import BrokerRepository
from repro.kqml import KqmlMessage
from repro.relational import Table, join_on_key, union_all
from repro.sql import execute_select

#: Agent class name -> ledger bucket.  Matching on the *name* keeps the
#: benchmark free of imports the roadmap may move; any class not named
#: here is a plain agent and lands in ``agents.base``.
AGENT_BUCKETS = {
    "BrokerAgent": "agents.broker",
    "MultiResourceQueryAgent": "agents.mrq",
    "ResourceAgent": "agents.resource",
    "SimQueryAgent": "sim.loadgen",
    "UserAgent": "sim.loadgen",
}

#: Requests a bucket sends on that the ledger counts: a broker passing a
#: recommend to a peer is a forward, an MRQ agent asking a resource is a
#: subquery.
SENT_VERBS = {"agents.broker": "recommend", "agents.mrq": "ask"}

#: (class, attribute, span name) of every method wrapped as is.
METHOD_TARGETS = (
    (MessageBus, "run_until", "agents.bus.run_until"),
    (MessageBus, "run", "agents.bus.run"),
    (MessageBus, "send", "agents.bus.send"),
    (KqmlMessage, "__init__", "kqml.message_init"),
    (BrokerRepository, "query", "core.repository.query"),
    (BrokerRepository, "query_batch", "core.repository.query"),
    (BrokerRepository, "advertise", "core.repository.advertise"),
    (BrokerRepository, "unadvertise", "core.repository.unadvertise"),
    (Constraint, "overlaps", "constraints.overlap"),
    (Table, "insert", "relational.insert"),
)

#: ``Agent`` handlers (wrapped on every subclass that overrides one) and
#: the span kind each records; start-up is timer-like work.
AGENT_HANDLERS = (("handle_message", "handle"), ("on_timer", "timer"),
                  ("on_start", "timer"))

#: Every hook the observer interface declares (public callables of the
#: no-op base class), so a hook added later is timed without an edit.
OBSERVER_HOOKS = tuple(
    name for name, value in vars(obs.Observer).items()
    if callable(value) and not name.startswith("_")
)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class SpanRecorder:
    """In-memory spans plus running per-name self time and call counts."""

    def __init__(self):
        self.names = []  # name id -> span name
        self.ids = {}  # span name -> name id
        self.self_s = []  # name id -> accumulated self seconds
        self.calls = []  # name id -> finished spans
        # One entry per span, in parallel arrays: unlike a list per
        # span these are invisible to the garbage collector, whose full
        # passes would otherwise grow with the trace and be charged to
        # whichever layer happened to allocate.
        self.span_names = array("i")  # name id
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")  # index of the enclosing span, or -1
        self.counts = Counter()  # boundary counts (recommends, ...)
        self.open = []  # indices of the open spans, outermost first
        self.child_s = []  # child seconds of each open span
        self.in_handler = False
        self.patches = []  # (owner, attribute, original)

    # -- recording ------------------------------------------------------
    def name_id(self, name):
        name_id = self.ids.get(name)
        if name_id is None:
            name_id = self.ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return name_id

    def begin(self, name_id):
        stack = self.open
        self.span_names.append(name_id)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(len(self.starts))
        self.child_s.append(0.0)
        self.starts.append(perf_counter())  # last: bookkeeping stays outside

    def end(self):
        now = perf_counter()  # first, for the same reason
        index = self.open.pop()
        self.ends[index] = now
        duration = now - self.starts[index]
        name_id = self.span_names[index]
        self.self_s[name_id] += duration - self.child_s.pop()
        self.calls[name_id] += 1
        if self.child_s:
            self.child_s[-1] += duration

    def reset(self):
        """Forget everything recorded so far (set-up is not measured)."""
        if self.open:
            raise RuntimeError("reset inside an open span")
        for column in (self.span_names, self.starts, self.ends, self.parents):
            del column[:]
        self.counts = Counter()
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)

    def self_time(self, *names):
        return sum(self.self_s[self.ids[n]] for n in names if n in self.ids)

    def call_count(self, *names):
        return sum(self.calls[self.ids[n]] for n in names if n in self.ids)

    def total_self_time(self):
        return sum(self.self_s)

    # -- wrappers -------------------------------------------------------
    def traced(self, original, name, after=None):
        """*original* wrapped in a span called *name*; *after* (if any)
        sees the return value once the span has closed."""
        name_id = self.name_id(name)
        begin, end = self.begin, self.end
        if after is None:
            def wrapper(*args, **kwargs):
                begin(name_id)
                try:
                    return original(*args, **kwargs)
                finally:
                    end()
        else:
            def wrapper(*args, **kwargs):
                begin(name_id)
                try:
                    result = original(*args, **kwargs)
                finally:
                    end()
                after(result)
                return result
        return wrapper

    def _patch(self, owner, attribute, replacement):
        self.patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_function(self, function, name, after=None):
        """Rebind every ``repro`` module global that is *function* —
        ``from x import f`` copies the binding, so patching only the
        defining module would miss its callers."""
        wrapper = self.traced(function, name, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._patch(module, attribute, wrapper)

    def _agent_handler(self, original, kind):
        """Wrap one ``Agent`` handler, naming the span after the
        receiving agent's bucket and counting what crosses it."""
        begin, end = self.begin, self.end
        name_ids = {}

        def wrapper(agent, *args):
            if self.in_handler:  # an override calling up to its base
                return original(agent, *args)
            bucket = AGENT_BUCKETS.get(type(agent).__name__, "agents.base")
            what = kind
            if kind == "handle" and not args[0].in_reply_to:
                verb = args[0].performative.value
                if verb.startswith("ask"):
                    self.counts[bucket + ".asks"] += 1
                elif verb.startswith("recommend") and bucket == "agents.broker":
                    what = "recommend"
            name_id = name_ids.get((bucket, what))
            if name_id is None:
                name_id = name_ids[bucket, what] = self.name_id(f"{bucket}.{what}")
            self.in_handler = True
            begin(name_id)
            try:
                result = original(agent, *args)
            finally:
                end()
                self.in_handler = False
            sent = SENT_VERBS.get(bucket)
            if sent is not None:
                for message, _size in result.outbox:
                    if message.performative.value.startswith(sent) \
                            and not message.in_reply_to:
                        self.counts[bucket + ".sent"] += 1
            return result

        return wrapper

    def install(self):
        """Replace the public entry points of every layer."""
        for cls, attribute, name in METHOD_TARGETS:
            self._patch(cls, attribute,
                        self.traced(vars(cls)[attribute], name))
        for cls in (Agent, *_subclasses(Agent)):
            for attribute, kind in AGENT_HANDLERS:
                if attribute in vars(cls):
                    self._patch(cls, attribute, self._agent_handler(
                        vars(cls)[attribute], kind))
        self._patch_function(union_all, "relational.combine")
        self._patch_function(join_on_key, "relational.combine")
        self._patch_function(execute_select, "sql.execute", self._count_rows)

    def _count_rows(self, result):
        self.counts["sql.rows_scanned"] += result.rows_scanned

    def uninstall(self):
        while self.patches:
            owner, attribute, original = self.patches.pop()
            setattr(owner, attribute, original)

    def observe(self, observer):
        """A proxy that times every hook call into *observer*."""
        return TimedObserver(observer, self)

    # -- output ---------------------------------------------------------
    def dump(self, path, **meta):
        """Write the spans as ``[name id, start µs, end µs, parent]``
        rows, times relative to the first span."""
        origin = self.starts[0] if self.starts else 0.0
        rows = [
            [name_id, round((start - origin) * 1e6, 1),
             round((end - origin) * 1e6, 1), parent]
            for name_id, start, end, parent in zip(
                self.span_names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**meta, "names": self.names, "spans": rows}, handle)
            handle.write("\n")


class TimedObserver(obs.Observer):
    """Forwards every observer hook to *inner* inside an ``obs.hook``
    span — the benchmark's stand-in for instrumenting the fan-out."""

    enabled = True

    def __init__(self, inner, recorder):
        self.inner = inner
        self.wants_metrics = inner.wants_metrics
        self.wants_dedup = inner.wants_dedup
        for hook in OBSERVER_HOOKS:
            setattr(self, hook, recorder.traced(getattr(inner, hook), "obs.hook"))


@contextmanager
def tracing():
    """Install the wrappers for the duration of the block."""
    recorder = SpanRecorder()
    try:
        recorder.install()
        yield recorder
    finally:
        recorder.uninstall()  # also after an install that failed half-way


def patch_targets():
    """``(owner, attribute, current value)`` of everything a recorder
    replaces — the self-test compares this before and after a traced
    run to show the wrappers are gone."""
    with tracing() as recorder:
        return list(recorder.patches)
