"""Always-on hot-path phase profiler.

A :class:`PhaseProfiler` aggregates nested, named activity phases —
``bus.deliver``, ``match.columnar.sweep``, ``cache.lookup``,
``journal.append`` — into per-stack wall-clock totals.  Instrumented code talks to the process-wide :data:`PROFILER`
singleton and pays exactly one attribute load plus one branch when the
profiler is idle::

    from repro.obs.profiler import PROFILER
    ...
    if PROFILER.enabled:
        PROFILER.begin("cache.lookup")
    try:
        work()
    finally:
        if PROFILER.enabled:
            PROFILER.end("cache.lookup")

The singleton is *always the same object* — enabling is a flag flip,
never a rebind — so modules may import it once at module scope.  The
``end(name)`` form is self-healing: if the profiler was switched on (or
off) mid-phase, an ``end`` whose name does not match the innermost open
phase is discarded instead of corrupting the stack.

Aggregation is keyed by the full phase *stack* (``bus.deliver`` →
``cache.lookup`` is distinct from a bare ``cache.lookup``), which makes
two exports cheap:

* :meth:`PhaseProfiler.collapsed` — the flamegraph "collapsed stack"
  text format (``a;b;c <self-time-in-microseconds>`` per line);
* :meth:`PhaseProfiler.self_report` — a per-phase self-time table, the
  body of ``python -m repro profile <scenario>``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple


class PhaseStat:
    """Aggregated timings for one phase stack."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # inclusive wall seconds
        self.self_time = 0.0  # exclusive wall seconds

    def as_dict(self) -> Dict[str, float]:
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
        }


class PhaseProfiler:
    """Nested phase timers aggregated by stack path.

    ``enabled`` is an instance flag (not a class attribute): the
    :data:`PROFILER` singleton stays importable-by-value while
    :func:`profiling` flips it on for the duration of a run.
    """

    def __init__(self, clock=time.perf_counter):
        self.enabled = False
        self._clock = clock
        #: (name, start, child_time) frames, innermost last.
        self._stack: List[list] = []
        #: stack path tuple -> PhaseStat
        self._stats: Dict[Tuple[str, ...], PhaseStat] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def end(self, name: Optional[str] = None) -> None:
        """Close the innermost phase.  With *name*, the close is ignored
        unless it matches the innermost open phase — the safe form for
        hot paths that may observe an enable/disable mid-phase."""
        if not self._stack:
            return
        if name is not None and self._stack[-1][0] != name:
            return
        frame_name, start, child_time = self._stack.pop()
        elapsed = self._clock() - start
        path = tuple(frame[0] for frame in self._stack) + (frame_name,)
        stat = self._stats.get(path)
        if stat is None:
            stat = self._stats[path] = PhaseStat()
        stat.calls += 1
        stat.total += elapsed
        stat.self_time += max(0.0, elapsed - child_time)
        if self._stack:
            self._stack[-1][2] += elapsed

    @contextmanager
    def phase(self, name: str):
        """Context-manager convenience for non-hot-path phases."""
        if not self.enabled:
            yield
            return
        self.begin(name)
        try:
            yield
        finally:
            self.end(name)

    def reset(self) -> None:
        self._stack.clear()
        self._stats.clear()

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def stacks(self) -> Dict[Tuple[str, ...], PhaseStat]:
        return dict(self._stats)

    def collapsed(self) -> str:
        """The profile in collapsed-stack (flamegraph) text format: one
        ``root;child;leaf <self-microseconds>`` line per stack path."""
        lines = []
        for path in sorted(self._stats):
            stat = self._stats[path]
            micros = int(round(stat.self_time * 1_000_000))
            lines.append(f"{';'.join(path)} {micros}")
        return "\n".join(lines) + "\n" if lines else ""

    def self_times(self) -> Dict[str, PhaseStat]:
        """Per-phase-name aggregation across all stacks (self time only
        ever counted once, so the column sums to total profiled time)."""
        merged: Dict[str, PhaseStat] = {}
        for path, stat in self._stats.items():
            name = path[-1]
            agg = merged.get(name)
            if agg is None:
                agg = merged[name] = PhaseStat()
            agg.calls += stat.calls
            agg.total += stat.total
            agg.self_time += stat.self_time
        return merged

    def self_report(self) -> str:
        """A self-time table, hottest phase first."""
        merged = self.self_times()
        if not merged:
            return "(no phases recorded)"
        total_self = sum(s.self_time for s in merged.values()) or 1.0
        width = max(len(name) for name in merged) + 2
        lines = [
            f"{'phase':<{width}}{'calls':>10}{'self(ms)':>12}"
            f"{'total(ms)':>12}{'self%':>8}"
        ]
        for name, stat in sorted(
            merged.items(), key=lambda kv: -kv[1].self_time
        ):
            lines.append(
                f"{name:<{width}}{stat.calls:>10}"
                f"{stat.self_time * 1000:>12.2f}"
                f"{stat.total * 1000:>12.2f}"
                f"{100 * stat.self_time / total_self:>7.1f}%"
            )
        return "\n".join(lines)

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable dump (deterministic key order)."""
        return {
            "schema": 1,
            "stacks": {
                ";".join(path): stat.as_dict()
                for path, stat in sorted(self._stats.items())
            },
        }


#: The process-wide profiler.  Import the object, check ``.enabled`` on
#: the hot path; :func:`profiling` flips the flag without rebinding.
PROFILER = PhaseProfiler()


@contextmanager
def profiling(profiler: PhaseProfiler = PROFILER, reset: bool = True):
    """Enable *profiler* for the duration of the block."""
    if reset:
        profiler.reset()
    previous = profiler.enabled
    profiler.enabled = True
    try:
        yield profiler
    finally:
        profiler.enabled = previous
