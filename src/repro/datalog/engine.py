"""Bottom-up Datalog evaluation with stratified negation.

The engine computes the full model of the program lazily (on the first
query after a change) using semi-naive iteration within each stratum.
Strata are computed from the predicate dependency graph; a negative
dependency inside a cycle is rejected with :class:`StratificationError`.

Any assertion or retraction after a query simply discards the model; the
next query evaluates it again from scratch (:attr:`Engine.stats` counts
the evaluations).

One performance layer sits under the classic evaluator: the
materialized model is a :class:`FactStore`, which lazily builds
``(predicate, position) -> value -> tuples`` hash indexes the first time
a join probes a bound argument position, and keeps them current as
derivation inserts new tuples.  Joins over large extensions become hash
lookups instead of scans.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.datalog import builtins
from repro.datalog.program import Fact, Program, Rule, as_literal
from repro.datalog.terms import Var, substitute
from repro.datalog.unify import match


class DatalogError(Exception):
    """Base error for evaluation problems."""


class StratificationError(DatalogError):
    """Raised when negation occurs inside a recursive cycle."""


_EMPTY: frozenset = frozenset()


@dataclass
class EngineStats:
    """Evaluation-work counter: ``full_recomputes`` counts whole-model
    evaluations (one per query that follows a change)."""

    full_recomputes: int = 0


class FactStore:
    """The materialized model: fact sets plus lazy per-position indexes.

    ``lookup(pred, pos, value)`` returns the tuples whose argument at
    *pos* equals *value*, building the ``(pred, pos)`` index on first
    use.  :meth:`add` keeps existing indexes consistent, so indexes stay
    valid while semi-naive derivation inserts new tuples.
    """

    __slots__ = ("facts", "_indexes")

    def __init__(self):
        self.facts: Dict[str, Set[Tuple]] = {}
        self._indexes: Dict[str, Dict[int, Dict[object, Set[Tuple]]]] = {}

    def add(self, predicate: str, args: Tuple) -> bool:
        """Insert a tuple; True when it was new."""
        bucket = self.facts.setdefault(predicate, set())
        if args in bucket:
            return False
        bucket.add(args)
        for pos, index in self._indexes.get(predicate, {}).items():
            if pos < len(args):
                index.setdefault(args[pos], set()).add(args)
        return True

    def get(self, predicate: str) -> Set[Tuple]:
        return self.facts.get(predicate, _EMPTY)

    def lookup(self, predicate: str, pos: int, value) -> Set[Tuple]:
        """Tuples of *predicate* whose argument *pos* equals *value*."""
        by_pos = self._indexes.setdefault(predicate, {})
        index = by_pos.get(pos)
        if index is None:
            index = {}
            for args in self.facts.get(predicate, ()):
                if pos < len(args):
                    index.setdefault(args[pos], set()).add(args)
            by_pos[pos] = index
        return index.get(value, _EMPTY)

    def snapshot(self) -> Dict[str, Set[Tuple]]:
        return {pred: set(tuples) for pred, tuples in self.facts.items()}


class Engine:
    """A Datalog knowledge base: assert facts and rules, then query.

    The public surface accepts plain tuples for literals, so callers do
    not need to import :class:`Literal`:

    >>> e = Engine()
    >>> e.fact("edge", 1, 2)
    >>> e.rule(("path", Var("X"), Var("Y")), [("edge", Var("X"), Var("Y"))])
    >>> e.query("path", 1, Var("Y"))
    [(1, 2)]
    """

    def __init__(self):
        self._program = Program()
        self._model: Optional[FactStore] = None  # None = stale
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # assertion API
    # ------------------------------------------------------------------
    def fact(self, predicate: str, *args) -> None:
        """Assert the ground fact ``predicate(*args)``."""
        self._program.add_fact(Fact(predicate, tuple(args)))
        self._model = None

    def rule(self, head, body: Sequence = (), negative: Sequence = ()) -> None:
        """Assert a rule.

        *head* and each element of *body* are ``(predicate, arg, ...)``
        tuples (or Literal objects); *negative* lists body literals that
        are negated.
        """
        head_lit = as_literal(head)
        body_lits = [as_literal(b) for b in body]
        body_lits += [as_literal(n, negated=True) for n in negative]
        self._program.add_rule(Rule(head_lit, tuple(body_lits)))
        self._model = None

    def retract_predicate(self, predicate: str) -> None:
        """Remove all facts stored under *predicate* (rules are kept)."""
        self._program.facts.pop(predicate, None)
        self._model = None

    def retract_fact(self, predicate: str, *args) -> bool:
        """Remove one asserted ground fact; True when it was present."""
        stored = self._program.facts.get(predicate)
        if stored is None or tuple(args) not in stored:
            return False
        stored.discard(tuple(args))
        if not stored:
            del self._program.facts[predicate]
        self._model = None
        return True

    # ------------------------------------------------------------------
    # query API
    # ------------------------------------------------------------------
    def query(self, predicate: str, *pattern) -> List[Tuple]:
        """Return the sorted list of fact tuples matching *pattern*.

        Pattern positions holding a :class:`Var` match anything (with
        repeated variables constrained to be equal); constants must match
        exactly.  The returned tuples are full fact argument tuples.
        """
        model = self._materialize()
        results = []
        for args in model.get(predicate):
            if len(pattern) != len(args):
                continue
            if match(tuple(pattern), args) is not None:
                results.append(args)
        return sorted(results, key=_sort_key)

    def ask(self, predicate: str, *args) -> bool:
        """Return True if the ground fact ``predicate(*args)`` is derivable."""
        return tuple(args) in self._materialize().get(predicate)

    def bindings(self, predicate: str, *pattern) -> List[Dict[Var, object]]:
        """Like :meth:`query` but returns variable-binding dictionaries."""
        model = self._materialize()
        out = []
        for args in model.get(predicate):
            env = match(tuple(pattern), args)
            if env is not None:
                out.append(env)
        return out

    def model(self) -> Dict[str, Set[Tuple]]:
        """Return the full materialized model (predicate -> fact tuples)."""
        return self._materialize().snapshot()

    def fact_count(self) -> int:
        """Number of facts in the materialized model (reasoning workload)."""
        return sum(len(v) for v in self._materialize().facts.values())

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _materialize(self) -> FactStore:
        if self._model is None:
            model = FactStore()
            for pred, tuples in self._program.facts.items():
                for args in tuples:
                    model.add(pred, args)
            for layer in stratify(self._program):
                rules = [r for r in self._program.rules if r.head.predicate in layer]
                _seminaive(rules, model)
            self._model = model
            self.stats.full_recomputes += 1
        return self._model


def _sort_key(args: Tuple):
    return tuple((repr(type(a)), repr(a)) for a in args)


def stratify(program: Program) -> List[Set[str]]:
    """Partition the program's predicates into evaluation strata.

    Returns a list of predicate sets; stratum *i* may depend positively
    on strata <= i and negatively only on strata < i.
    """
    pos_deps: Dict[str, Set[str]] = defaultdict(set)
    neg_deps: Dict[str, Set[str]] = defaultdict(set)
    preds = program.predicates()
    for rule in program.rules:
        head = rule.head.predicate
        for lit in rule.body:
            if lit.is_builtin:
                continue
            if lit.negated:
                neg_deps[head].add(lit.predicate)
            else:
                pos_deps[head].add(lit.predicate)

    stratum: Dict[str, int] = {p: 0 for p in preds}
    changed = True
    iterations = 0
    limit = max(1, len(preds)) ** 2 + len(preds) + 1
    while changed:
        changed = False
        iterations += 1
        if iterations > limit:
            raise StratificationError("negation occurs through recursion")
        for head in preds:
            for dep in pos_deps.get(head, ()):
                if stratum.get(dep, 0) > stratum[head]:
                    stratum[head] = stratum[dep]
                    changed = True
            for dep in neg_deps.get(head, ()):
                if stratum.get(dep, 0) + 1 > stratum[head]:
                    stratum[head] = stratum[dep] + 1
                    changed = True

    height = max(stratum.values(), default=0)
    layers: List[Set[str]] = [set() for _ in range(height + 1)]
    for pred, level in stratum.items():
        layers[level].add(pred)
    return [layer for layer in layers if layer]


def _seminaive(rules: List[Rule], model: FactStore) -> None:
    """Semi-naive fixpoint of *rules* over (and into) *model*: one naive
    pass, then delta iteration."""
    delta: Dict[str, Set[Tuple]] = defaultdict(set)
    # Initial round: plain naive pass so rules with empty bodies and
    # rules over pre-existing facts fire at least once.
    for rule in rules:
        for derived in _apply_rule(rule, model, None, None):
            if model.add(rule.head.predicate, derived):
                delta[rule.head.predicate].add(derived)

    while delta:
        new_delta: Dict[str, Set[Tuple]] = defaultdict(set)
        for rule in rules:
            for idx, lit in enumerate(rule.body):
                if lit.negated or lit.is_builtin:
                    continue
                if lit.predicate not in delta:
                    continue
                for derived in _apply_rule(rule, model, idx, delta[lit.predicate]):
                    if model.add(rule.head.predicate, derived):
                        new_delta[rule.head.predicate].add(derived)
        delta = new_delta


def _apply_rule(
    rule: Rule,
    model: FactStore,
    delta_index: Optional[int],
    delta_tuples: Optional[Set[Tuple]],
) -> Iterable[Tuple]:
    """Yield head tuples derived by *rule*.

    When *delta_index* is given, the body literal at that index iterates
    only over *delta_tuples* (the semi-naive restriction).  Join steps
    probe the model's per-position hash indexes whenever the pattern has
    a bound argument, and fall back to a scan only for fully-open
    patterns.
    """
    envs: List[Dict[Var, object]] = [{}]
    for idx, lit in enumerate(rule.body):
        if lit.is_builtin:
            envs = [
                env
                for env in envs
                if builtins.evaluate(lit.predicate, substitute(lit.args, env))
            ]
        elif lit.negated:
            envs = [
                env
                for env in envs
                if substitute(lit.args, env) not in model.get(lit.predicate)
            ]
        else:
            use_delta = idx == delta_index and delta_tuples is not None
            next_envs = []
            for env in envs:
                pattern = tuple(
                    env.get(t, t) if isinstance(t, Var) else t for t in lit.args
                )
                if use_delta:
                    source: Iterable[Tuple] = delta_tuples
                else:
                    source = _candidate_tuples(model, lit.predicate, pattern)
                for args in source:
                    extended = match(pattern, args, env)
                    if extended is not None:
                        next_envs.append(extended)
            envs = next_envs
        if not envs:
            return
    for env in envs:
        yield substitute(rule.head.args, env)


def _candidate_tuples(model: FactStore, predicate: str, pattern: Tuple):
    """The narrowest indexed posting list for *pattern*, or the full
    extension when every position is open."""
    for pos, term in enumerate(pattern):
        if not isinstance(term, Var):
            try:
                return model.lookup(predicate, pos, term)
            except TypeError:  # unhashable constant: scan instead
                return model.get(predicate)
    return model.get(predicate)
