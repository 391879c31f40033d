"""Bottom-up Datalog evaluation.

The store keeps one relation per predicate as a set of tuples of IRI
strings, with hash indexes built lazily for whatever bound column
patterns the joins ask for.  One cost-based planner orders the
bodies of rules and queries alike: each atom is estimated from the
store's exact index buckets for its constants and bound columns, the
cheapest atom goes first, and every later atom shares a variable with
those before it unless the body is disconnected.

One compile step turns every planned body into a join chain: the
fixpoint's rule tasks, the sink rules, queries and the prefixes
`explain_conjunctive_query` counts.  It walks the atoms in plan order
and gives each variable the row column of its first occurrence, where a
row concatenates the tuples matched so far.  The chain is a left-deep
sequence of set-at-a-time stages.  The first atom filters a fixpoint
delta, or starts from its constants' index bucket; every later atom
extends each row with its key's bucket, or, when the key covers every
column, keeps the rows whose key is in the relation and builds no index.
The stages are generators that stream into the head, so no intermediate
rows are held, and nothing runs when a relation of the body is empty.

The fixpoint is computed semi-naive.  In the first round the delta is
the whole store, so each rule joins once, planned like a query.  Every
later round joins each rule against the previous round's delta in each
body position, with the delta atom pinned first, so nothing is rederived
from scratch.  Rules whose head no body reads (the consistency rules)
cannot feed the fixpoint; they run once after it, planned like queries.

A rule of the shape `p(X, Y) :- p(X, M), p(M, Y)` (in the catalogue,
`isacCC` and `isarRR`) gets no join tasks: joined, it emits every pair
once per path.  Instead `p` is kept transitively closed over its
generating edges, those asserted and those the other rules emit, which
are kept as one adjacency list per node for the length of the fixpoint.
The asserted relation is closed once before the first round; after that,
each round's new edges of `p` go through one closure step, which
searches depth-first from every node whose reach can have grown (the
tail of a new edge and, since `p` is closed, the nodes that reach it)
and adds the pairs found that are not yet in `p`.  Those pairs are `p`'s
delta for the next round, and the model is the one the rule derives.

A rule `q(..Y..) :- q(..C..), p(C, Y)` (or `p(Y, C)`) over such a closed
`p` (27 in the catalogue, `instc` along `isacCC` among them) derives
facts that are closed under it: `q(..Y..)` from `q(..C..)` and `p(C, Y)`,
joined with `p(Y, Z)`, gives `q(..Z..)`, which `q(..C..)` and `p(C, Z)`,
in the closed `p`, gave by the same round.  So its `q` atom reads the
delta of `q` less what the rule itself derived; new `p` edges still
reach those facts through its `p` atom.

The cyclic garbage collector is paused while the fixpoint runs: nothing
it allocates refers back to itself, so reference counting frees it all,
and a collection would only scan the growing store in vain.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from itertools import filterfalse, repeat
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import ArityMismatch, UnknownPredicate
from .model import (
    Atom,
    ConjunctiveQuery,
    Entity,
    Fact,
    KNOWN_ARITY,
    Rule,
    Var,
    facts_to_dl,
)
from .rules import RuleCatalogue


def _columns(cols: Sequence[int]) -> Callable[[tuple], tuple]:
    """The function taking a tuple to the tuple of its columns `cols`."""
    if not cols:
        return lambda t: ()
    if len(cols) == 1:
        return itemgetter(slice(cols[0], cols[0] + 1))
    return itemgetter(*cols)


def _picker(srcs: Sequence[tuple[str, int | str]], width: int) -> Callable[[tuple], tuple]:
    """The function taking a tuple of `width` columns to the tuple `srcs`
    names: ('s', column) picks a column, ('c', IRI) is a constant."""
    consts = tuple(v for kind, v in srcs if kind == "c")
    cols, extra = [], width
    for kind, v in srcs:
        if kind == "c":
            v, extra = extra, extra + 1
        cols.append(v)
    pick = _columns(cols)
    return (lambda t: pick(t + consts)) if consts else pick


class FactStore:
    """Per-predicate indexed relations over tuples of IRI strings."""

    def __init__(self):
        self.relations: dict[str, set[tuple[str, ...]]] = {}
        self._arity: dict[str, int] = {}
        self._indexes: dict[tuple[str, tuple[int, ...]], dict[tuple[str, ...], list[tuple[str, ...]]]] = {}

    def _check_arity(self, pred: str, arity: int):
        expected = self._arity.get(pred, KNOWN_ARITY.get(pred))
        if expected is None:
            self._arity[pred] = arity
        elif expected != arity:
            raise ArityMismatch(f"{pred} expects {expected} argument(s), got {arity}")

    def add_tuples(self, pred: str, tuples: Iterable[tuple[str, ...]]) -> int:
        rel = self.relations.setdefault(pred, set())
        added = 0
        arity = self._arity.get(pred, KNOWN_ARITY.get(pred))
        indexes = [
            (_columns(key_pos), index) for (p, key_pos), index in self._indexes.items() if p == pred
        ]
        for t in tuples:
            if len(t) != arity:
                self._check_arity(pred, len(t))
                arity = len(t)
            if t not in rel:
                rel.add(t)
                added += 1
                for key, index in indexes:
                    index.setdefault(key(t), []).append(t)
        return added

    def assert_facts(self, facts: Iterable[Fact]) -> int:
        """Insert (predicate, IRI tuple) facts; duplicates are ignored.
        Returns the number of new tuples.  Each predicate's tuples are
        added in one `add_tuples` call."""
        by_pred: dict[str, list[tuple[str, ...]]] = {}
        for pred, iris in facts:
            by_pred.setdefault(pred, []).append(iris)
        return sum(self.add_tuples(pred, tuples) for pred, tuples in by_pred.items())

    def relation(self, pred: str) -> set[tuple[str, ...]]:
        return self.relations.get(pred, set())

    def index(self, pred: str, key_pos: tuple[int, ...]):
        got = self._indexes.get((pred, key_pos))
        if got is None:
            got = {}
            key = _columns(key_pos)
            for t in self.relations.get(pred, ()):
                got.setdefault(key(t), []).append(t)
            self._indexes[(pred, key_pos)] = got
        return got

    def size(self) -> int:
        return sum(len(r) for r in self.relations.values())

    def canonical_dump(self) -> str:
        """Sorted fact lines; byte-identical for equal models."""
        return facts_to_dl(self.string_facts())

    def string_facts(self) -> set[Fact]:
        """The model as (predicate, IRI tuple) facts."""
        return {(pred, t) for pred, rel in self.relations.items() for t in rel}


@dataclass
class EvalStats:
    rounds: int = 0
    facts_derived: dict[str, int] = field(default_factory=dict)
    wall_ms: float = 0.0

    def total_derived(self) -> int:
        return sum(self.facts_derived.values())

    def summary(self) -> str:
        return f"rounds={self.rounds} derived={self.total_derived()} wall_ms={self.wall_ms:.1f}"


# ==============================================================================
# Join planning and compilation
# ==============================================================================
#
# One planner orders the body of every rule and query.  An atom's cost is
# its estimated rows per incoming binding, read off the store's exact
# index buckets: with only constants in its key, the size of their bucket;
# with bound variables in it too, the average bucket of that key; with
# every column in it, 1.  The cheapest atom goes first, then repeatedly
# the cheapest atom sharing a variable with those placed, so no cross
# product is built unless the body itself is disconnected.  One pass over
# the ordered body gives each variable the row column of its first
# occurrence and compiles the chain of join stages that reads them.


def _estimate(a: Atom, bound: set[str], store: FactStore) -> float:
    """Rows of `a` expected per binding of the variables in `bound`."""
    key_pos = tuple(p for p, t in enumerate(a.args) if isinstance(t, Entity) or t.name in bound)
    if len(key_pos) == len(a.args):
        return 1.0
    rel = store.relation(a.pred)
    if not key_pos:
        return float(len(rel))
    index = store.index(a.pred, key_pos)
    if all(isinstance(a.args[p], Entity) for p in key_pos):
        key = tuple(a.args[p].iri for p in key_pos)
        return float(len(index.get(key, ())))
    return len(rel) / len(index) if index else 0.0


def _plan(body: Sequence[Atom], store: FactStore, first: int | None = None) -> list[tuple[int, float]]:
    """Join order for `body` as (atom index, estimated rows per binding)
    pairs; `first`, the delta atom of a fixpoint round, is pinned first.
    Raises ArityMismatch for an atom whose arity is not its predicate's."""
    for a in body:
        store._check_arity(a.pred, len(a.args))
    remaining = list(range(len(body)))
    names = [{t.name for t in a.args if isinstance(t, Var)} for a in body]
    bound: set[str] = set()
    order = []
    while remaining:
        if first is not None and not order:
            pick, cost = first, _estimate(body[first], bound, store)
        else:
            connected = [i for i in remaining if names[i] & bound or not names[i]]
            pick, cost = min(
                ((i, _estimate(body[i], bound, store)) for i in (connected or remaining)),
                key=lambda ic: (ic[1], ic[0]),
            )
        remaining.remove(pick)
        order.append((pick, cost))
        bound |= names[pick]
    return order


def _matcher(pairs: Sequence[tuple[int, tuple[str, int | str]]], width: int):
    """The test that each column `pos` of a tuple of `width` columns equals
    what its source names, for the (pos, source) `pairs` (constants, or an
    earlier column of a repeated variable); None when there is nothing to
    test."""
    if not pairs:
        return None
    lhs, rhs = _columns([pos for pos, _ in pairs]), _picker([src for _, src in pairs], width)
    return lambda t: lhs(t) == rhs(t)


# The stages of a join chain.  Each is a generator made inside its own
# function, so the names it reads are bound when it is made, not when the
# chain is finally drained.


def _probe(rows, get, key, keep):
    """Each row extended with every tuple of its key's bucket that `keep`
    (when given) accepts."""
    if keep is None:
        return (r + u for r in rows for u in get(key(r), ()))
    return (r + u for r in rows for u in get(key(r), ()) if keep(u))


def _member(rows, rel, key):
    """The rows whose key is a tuple of `rel`."""
    return (r for r in rows if key(r) in rel)


def _compile(head_terms: Sequence[Var | Entity], body: Sequence[Atom], order: Sequence[int], store: FactStore):
    """Compile `body`, joined in `order`, to one left-deep chain of
    set-at-a-time stages, `run(seed, out)`, which adds the tuple of
    `head_terms` of every match to `out`.

    A row is the concatenation of the tuples it matched, and each variable
    is read from the row column of its first occurrence, so no binding is
    kept.  The first atom filters `seed` (a fixpoint delta) on its constants
    and repeated variables; with no seed it starts from its constants'
    bucket instead.  Its tuple is always in the row, even when its key
    covers every column.  Every later atom extends each row with its key's
    index bucket, or, when its key covers every column, keeps the rows
    whose key is in the relation and adds no column.  The stages are
    generators, so no intermediate rows are held: the last one streams
    through the head into `out`.  Nothing runs when a relation of the body
    is empty.
    """
    col: dict[str, int] = {}  # variable -> row column of its first occurrence
    width = 0
    preds, stages = [], []
    for n, idx in enumerate(order):
        a = body[idx]
        arity = len(a.args)
        # key: (position, source) for constants and variables bound by an
        # earlier atom; same: (position, source) for a variable repeated
        # within this atom, read from its first position here
        key, same, new = [], [], {}
        for pos, t in enumerate(a.args):
            if isinstance(t, Entity):
                key.append((pos, ("c", t.iri)))
            elif t.name in col:
                key.append((pos, ("s", col[t.name])))
            elif t.name in new:
                same.append((pos, ("s", new[t.name])))
            else:
                new[t.name] = pos
        key_pos = tuple(pos for pos, _ in key)
        full = len(key_pos) == arity
        preds.append(a.pred)
        if n == 0:
            key0, full0, consts0 = key_pos, full, tuple(iri for _, (_, iri) in key)
            keep_seed, keep_start = _matcher(key + same, arity), _matcher(same, arity)
        else:
            key_of = _picker([src for _, src in key], width)
            stages.append((a.pred, key_pos, full, key_of, _matcher(same, arity)))
        if n == 0 or not full:
            col.update((name, width + pos) for name, pos in new.items())
            width += arity
    head = _picker(
        [("c", t.iri) if isinstance(t, Entity) else ("s", col[t.name]) for t in head_terms],
        width,
    )

    def run(seed: Iterable[tuple[str, ...]] | None, out: set):
        rels = [store.relations.get(pred) for pred in preds]
        if not all(rels):
            return
        keep0 = keep_seed
        if seed is None:
            keep0 = keep_start
            if full0:
                seed = (consts0,) if consts0 in rels[0] else ()
            else:
                seed = store.index(preds[0], key0).get(consts0, ()) if key0 else rels[0]
        rows = filter(keep0, seed) if keep0 else seed
        for (pred, key_pos, full, key, keep), rel in zip(stages, rels[1:]):
            rows = _member(rows, rel, key) if full else _probe(rows, store.index(pred, key_pos).get, key, keep)
        out.update(map(head, rows))

    return run


def _rule_join(rule: Rule, store: FactStore, first: int | None = None):
    """The compiled join of `rule`'s body, planned with `first` pinned."""
    order = [i for i, _ in _plan(rule.body, store, first)]
    return _compile(rule.head.args, rule.body, order, store)


# ==============================================================================
# Fixpoint
# ==============================================================================


def _pivot(rule: Rule) -> tuple[int, int, bool] | None:
    """Match `rule` against `q(..Y..) :- q(..C..), p(C, Y)`, or `p(Y, C)`:
    two body atoms, one binary, and a head that is the other body atom with
    its variable C replaced by Y, that atom's variables and Y all distinct.
    Returns the `q` atom's body position, C's position in it and whether
    `p` reads (C, Y); None for a rule of another shape."""
    head, body = rule.head, rule.body
    if len(body) != 2:
        return None
    for n, (a, p) in enumerate((body, body[::-1])):
        diff = [i for i, (s, t) in enumerate(zip(a.args, head.args)) if s != t]
        if a.pred != head.pred or len(a.args) != len(head.args) or len(p.args) != 2 or len(diff) != 1:
            continue
        c, y = a.args[diff[0]], head.args[diff[0]]
        terms = (*a.args, y)
        if all(isinstance(t, Var) for t in terms) and len(set(terms)) == len(terms) and p.args in ((c, y), (y, c)):
            return n, diff[0], p.args == (c, y)
    return None


def _transitive(rule: Rule) -> bool:
    """Whether `rule` is `p(X, Y) :- p(X, M), p(M, Y)` for three distinct
    variables, its body atoms in either order."""
    shape = _pivot(rule)
    same = len(rule.head.args) == 2 and all(a.pred == rule.head.pred for a in rule.body)
    # p(X, C), p(C, Y) with C in the second column, or p(C, Y), p(X, C) in the first
    return bool(shape and same and shape[2] == (shape[1] == 1))


def _close(store: FactStore, pred: str, succ: dict[str, list[str]], edges: Iterable[tuple[str, str]]) -> set:
    """Add `edges` to `succ`, the generating edges of `pred`, and add the
    pairs of their transitive closure that `pred` lacks; returns them.
    Either `pred` is closed over `succ`, so a tail's predecessors in it
    are all the nodes that reach the tail, or `succ` is empty and `edges`
    hold all of `pred`, so those predecessors are tails themselves."""
    before = store.index(pred, (1,)) if succ else {}
    sources = set()
    for a, b in edges:
        succ.setdefault(a, []).append(b)
        sources.add(a)
        sources.update(x for x, _ in before.get((a,), ()))
    known = store.relation(pred).__contains__
    added: set[tuple[str, str]] = set()
    for s in sources:
        seen: set[str] = set()
        stack = [s]
        while stack:
            for n in succ.get(stack.pop(), ()):
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        added.update(filterfalse(known, zip(repeat(s), seen)))
    if added:
        store.add_tuples(pred, added)
    return added


def evaluate_fixpoint(store: FactStore, catalogue: RuleCatalogue | Sequence[Rule]) -> EvalStats:
    """Extend the store to the minimal model of its facts plus the rules.

    Rules whose head no rule body reads (sinks, such as the consistency
    rules) cannot feed the fixpoint; they run once, after it, planned
    like a query.  The result is independent of rule order, join order
    and insertion order; termination is guaranteed because the Herbrand
    base is finite.  The cyclic garbage collector is paused meanwhile:
    what the fixpoint allocates holds no reference cycles.
    """
    rules = catalogue.rules if isinstance(catalogue, RuleCatalogue) else tuple(catalogue)
    was = gc.isenabled()
    gc.disable()
    try:
        return _saturate(store, rules)
    finally:
        if was:
            gc.enable()


def _saturate(store: FactStore, rules: Sequence[Rule]) -> EvalStats:
    t0 = time.perf_counter()
    stats = EvalStats()

    for rule in rules:
        if not rule.body:
            store.add_tuples(rule.head.pred, [tuple(t.iri for t in rule.head.args)])
    read = {a.pred for rule in rules for a in rule.body}
    # pred -> generating edges of each relation kept transitively closed
    closed: dict[str, dict[str, list[str]]] = {rule.head.pred: {} for rule in rules if _transitive(rule)}
    recursive = [rule for rule in rules if rule.body and rule.head.pred in read and not _transitive(rule)]
    sinks = [rule for rule in rules if rule.body and rule.head.pred not in read]
    # id(rule) -> body position of q in q(..Y..) :- q(..C..), p(C, Y) over a closed p
    pivots = {
        id(r): s[0] for r in recursive if (s := _pivot(r)) and r.body[1 - s[0]].pred in closed.keys() - {r.head.pred}
    }

    def merge(new: dict[str, set[tuple[str, ...]]], mine=()) -> dict[str, set[tuple[str, ...]]]:
        # `new` (emptied as it goes) holds what the rules derived, `mine`
        # what each pivot rule derived that is not in the store
        delta = {}
        for pred in list(new):
            fresh = new.pop(pred) - store.relation(pred)
            fresh.update(*(own for rule, own in mine if rule.head.pred == pred))
            if fresh:
                if pred in closed:
                    fresh = _close(store, pred, closed[pred], fresh)
                else:
                    store.add_tuples(pred, fresh)
                delta[pred] = fresh
                stats.facts_derived[pred] = stats.facts_derived.get(pred, 0) + len(fresh)
        return delta

    for pred, succ in closed.items():
        store._check_arity(pred, 2)
        added = _close(store, pred, succ, store.relation(pred))
        if added:
            stats.facts_derived[pred] = len(added)

    # None: the first round, whose delta is the whole store
    delta: dict[str, set[tuple[str, ...]]] | None = None
    trimmed: dict[int, set[tuple[str, ...]] | None] = {}  # id(rule) -> its q atom's delta
    tasks: dict[tuple[int, int], Callable] = {}

    while True:
        stats.rounds += 1
        # Every join of the round reads the store as it stood at the
        # round's start; what they derive is merged only afterwards.
        new: dict[str, set[tuple[str, ...]]] = {}
        mine = []  # (pivot rule, what it derived that is not in the store)
        for rule in recursive:
            pivot = pivots.get(id(rule))
            shared = new.setdefault(rule.head.pred, set())
            out = shared if pivot is None else set()
            if delta is None:
                _rule_join(rule, store)(None, out)
            else:
                for pos, a in enumerate(rule.body):
                    seed = trimmed[id(rule)] if pos == pivot else delta.get(a.pred)
                    if not seed:
                        continue
                    task = tasks.get((id(rule), pos))
                    if task is None:
                        task = tasks[(id(rule), pos)] = _rule_join(rule, store, first=pos)
                    task(seed, out)
            if pivot is not None:
                mine.append((rule, out - store.relation(rule.head.pred)))
        delta = merge(new, mine)
        if not delta:
            break
        # what a pivot rule derived is in the store, so in its head's delta
        trimmed = {id(rule): delta[rule.head.pred] - own if own else delta.get(rule.head.pred) for rule, own in mine}

    new = {}
    for rule in sinks:
        _rule_join(rule, store)(None, new.setdefault(rule.head.pred, set()))
    merge(new)

    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return stats


# ==============================================================================
# Conjunctive queries over a computed model
# ==============================================================================


def _query_plan(store: FactStore, q: ConjunctiveQuery) -> list[tuple[int, float]]:
    """The planned order of `q`."""
    for a in q.body:
        if a.pred not in KNOWN_ARITY and a.pred not in store.relations:
            raise UnknownPredicate(a.pred)
    return _plan(q.body, store)


def answer_conjunctive_query(store: FactStore, q: ConjunctiveQuery) -> list[tuple[str, ...]]:
    """Distinct answer bindings, sorted lexicographically by IRI."""
    out: set[tuple[str, ...]] = set()
    _compile(q.answer_vars, q.body, [i for i, _ in _query_plan(store, q)], store)(None, out)
    return sorted(out)


@dataclass(frozen=True)
class PlanStep:
    """One step of a query plan as `explain_conjunctive_query` reports it."""

    atom: Atom
    key: tuple[int, ...]  # the columns looked up by value
    estimated: float  # bindings expected after this step
    actual: int  # bindings found after this step


def explain_conjunctive_query(store: FactStore, q: ConjunctiveQuery) -> list[PlanStep]:
    """The join order chosen for `q`, with estimated against actual rows.

    The estimate after a step is the product of the planner's per-binding
    estimates so far.  Actual rows are the distinct bindings of each prefix
    of the plan, compiled on its own with the variables bound so far as
    its head, so answering itself keeps no counters.
    """
    order = _query_plan(store, q)
    report = []
    estimated = 1.0
    bound: dict[Var, None] = {}  # the variables of the prefix, in order of first occurrence
    for n, (idx, cost) in enumerate(order, start=1):
        a = q.body[idx]
        key = tuple(p for p, t in enumerate(a.args) if isinstance(t, Entity) or t in bound)
        bound.update(dict.fromkeys(t for t in a.args if isinstance(t, Var)))
        estimated *= cost
        rows: set[tuple[str, ...]] = set()
        _compile(tuple(bound), q.body, [i for i, _ in order[:n]], store)(None, rows)
        report.append(PlanStep(a, key, estimated, len(rows)))
    return report
