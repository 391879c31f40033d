"""Bottom-up Datalog evaluation.

The store keeps one relation per predicate as a set of tuples over
interned symbol ids, with hash indexes built lazily for whatever bound
column patterns the joins ask for.  One cost-based planner orders the
bodies of rules and queries alike: each atom is estimated from the
store's exact index buckets for its constants and bound columns, the
cheapest atom goes first, and every later atom shares a variable with
those before it unless the body is disconnected.  A query's first step
probes its constants' bucket rather than scanning the relation, and a
step whose key covers every column is a membership test, never an index.

The fixpoint is computed semi-naive: each round joins every rule against
the previous round's delta in each body position, so nothing is
rederived from scratch.  A body of one or two atoms runs set-at-a-time,
as one hash join of the whole delta against the other atom's index (or
a membership test when the delta binds every column of it), and is
skipped for the round when that other atom's relation is empty.  Longer
bodies go through the planner with the delta atom pinned first.  Rules
whose head no body reads (the consistency rules) cannot feed the
fixpoint; they run once after it, planned like queries.  A deliberately
dumb naive evaluator (string-level, index-free) exists purely as a
differential-testing twin.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import ArityMismatch, UnknownPredicate, UnsafeQuery
from .model import (
    Atom,
    ConjunctiveQuery,
    Const,
    KNOWN_ARITY,
    Rule,
    Var,
)
from .rules import RuleCatalogue


def _columns(cols: Sequence[int]) -> Callable[[tuple], tuple]:
    """The function taking a tuple to the tuple of its columns `cols`."""
    if not cols:
        return lambda t: ()
    if len(cols) == 1:
        return itemgetter(slice(cols[0], cols[0] + 1))
    return itemgetter(*cols)


def _picker(srcs: Sequence[tuple[str, int]], width: int) -> Callable[[tuple], tuple]:
    """The function taking a tuple of `width` columns to the tuple `srcs`
    names: ('s', column) picks a column, ('c', symbol id) is a constant."""
    consts = tuple(v for kind, v in srcs if kind == "c")
    cols, extra = [], width
    for kind, v in srcs:
        if kind == "c":
            v, extra = extra, extra + 1
        cols.append(v)
    pick = _columns(cols)
    return (lambda t: pick(t + consts)) if consts else pick


class FactStore:
    """Per-predicate indexed relations over interned symbols."""

    def __init__(self):
        self._sym_ids: dict[str, int] = {}
        self._symbols: list[str] = []
        self.relations: dict[str, set[tuple[int, ...]]] = {}
        self._arity: dict[str, int] = {}
        self._indexes: dict[tuple[str, tuple[int, ...]], dict[tuple[int, ...], list[tuple[int, ...]]]] = {}

    # -- symbols ---------------------------------------------------------

    def intern(self, symbol: str) -> int:
        sid = self._sym_ids.get(symbol)
        if sid is None:
            sid = len(self._symbols)
            self._sym_ids[symbol] = sid
            self._symbols.append(symbol)
        return sid

    def symbol(self, sid: int) -> str:
        return self._symbols[sid]

    # -- facts -----------------------------------------------------------

    def _check_arity(self, pred: str, arity: int):
        expected = self._arity.get(pred, KNOWN_ARITY.get(pred))
        if expected is None:
            self._arity[pred] = arity
        elif expected != arity:
            raise ArityMismatch(f"{pred} expects {expected} argument(s), got {arity}")

    def add_tuples(self, pred: str, tuples: Iterable[tuple[int, ...]]) -> int:
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

    def assert_facts(self, facts: Iterable[Atom]) -> int:
        """Insert ground atoms; duplicates are ignored.  Returns the number
        of new tuples."""
        added = 0
        for f in facts:
            if not f.is_ground():
                raise ValueError(f"fact is not ground: {f}")
            t = tuple(self.intern(a.value.iri) for a in f.args)  # type: ignore[union-attr]
            added += self.add_tuples(f.pred, [t])
        return added

    def relation(self, pred: str) -> set[tuple[int, ...]]:
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
        lines = []
        for pred in sorted(self.relations):
            rows = sorted(tuple(self.symbol(s) for s in t) for t in self.relations[pred])
            for row in rows:
                args = ", ".join(f'"{s}"' for s in row)
                lines.append(f"{pred}({args}).")
        return "\n".join(lines) + ("\n" if lines else "")

    def string_facts(self) -> set[tuple[str, tuple[str, ...]]]:
        """The model as string-level atoms, for oracle comparisons."""
        return {
            (pred, tuple(self.symbol(s) for s in t))
            for pred, rel in self.relations.items()
            for t in rel
        }


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
# Join planning and rule compilation
# ==============================================================================
#
# One planner orders the body of every rule and query.  An atom's cost is
# its estimated rows per incoming binding, read off the store's exact
# index buckets: with only constants in its key, the size of their bucket;
# with bound variables in it too, the average bucket of that key; with
# every column in it, 1.  The cheapest atom goes first, then repeatedly
# the cheapest atom sharing a variable with those placed, so no cross
# product is built unless the body itself is disconnected.  The ordered
# body is compiled to steps; slots hold variable bindings positionally.


@dataclass(frozen=True)
class _Step:
    pred: str
    # key columns, ascending: positions holding a constant or a variable
    # bound by an earlier step; the source of each key value is
    # ('c', symbol id) or ('s', slot)
    key_pos: tuple[int, ...]
    key_src: tuple[tuple[str, int], ...]
    # the key covers every column: test membership, build no index
    full: bool
    # first occurrences introduced here: (position, slot); repeated new
    # variables within the atom appear once here plus in `same`
    out: tuple[tuple[int, int], ...]
    same: tuple[tuple[int, int], ...]  # (position, position-of-first-occurrence)


@dataclass(frozen=True)
class _Plan:
    steps: tuple[_Step, ...]
    head_pred: str
    # head argument sources: ('c', symbol id) or ('s', slot)
    head_src: tuple[tuple[str, int], ...]
    nslots: int


def _estimate(a: Atom, bound: set[str], store: FactStore) -> float:
    """Rows of `a` expected per binding of the variables in `bound`."""
    key_pos = tuple(p for p, t in enumerate(a.args) if isinstance(t, Const) or t.name in bound)
    if len(key_pos) == len(a.args):
        return 1.0
    rel = store.relation(a.pred)
    if not key_pos:
        return float(len(rel))
    index = store.index(a.pred, key_pos)
    if all(isinstance(a.args[p], Const) for p in key_pos):
        return float(len(index.get(tuple(store.intern(a.args[p].value.iri) for p in key_pos), ())))
    return len(rel) / len(index) if index else 0.0


def _plan(body: Sequence[Atom], store: FactStore, first: int | None = None) -> list[tuple[int, float]]:
    """Join order for `body` as (atom index, estimated rows per binding)
    pairs; `first`, the delta atom of a fixpoint round, is pinned first."""
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


def _compile(head: Atom | None, body: Sequence[Atom], order: Sequence[int], store: FactStore) -> _Plan:
    slots: dict[str, int] = {}
    steps = []
    for idx in order:
        a = body[idx]
        key, out, same = [], [], []
        first_pos: dict[str, int] = {}
        seen_before = set(slots)  # bound by earlier atoms, not this one
        for pos, t in enumerate(a.args):
            if isinstance(t, Const):
                key.append((pos, ("c", store.intern(t.value.iri))))
            elif t.name in seen_before:
                key.append((pos, ("s", slots[t.name])))
            elif t.name in first_pos:
                same.append((pos, first_pos[t.name]))
            else:
                first_pos[t.name] = pos
                slot = slots.setdefault(t.name, len(slots))
                out.append((pos, slot))
        steps.append(
            _Step(
                a.pred,
                tuple(p for p, _ in key),
                tuple(src for _, src in key),
                len(key) == len(a.args),
                tuple(out),
                tuple(same),
            )
        )
    if head is None:
        head_pred, head_src = "", ()
    else:
        head_pred = head.pred
        src = []
        for t in head.args:
            if isinstance(t, Const):
                src.append(("c", store.intern(t.value.iri)))
            else:
                src.append(("s", slots[t.name]))
        head_src = tuple(src)
    return _Plan(tuple(steps), head_pred, head_src, len(slots))


def _lookup(step: _Step, store: FactStore):
    """What a probing step looks its key up in: the relation itself when
    the key covers every column, else the index on the key columns."""
    if step.full:
        return store.relation(step.pred)
    if not step.key_pos:
        return {(): store.relation(step.pred)}
    return store.index(step.pred, step.key_pos)


def _execute(plan: _Plan, store: FactStore, seed: Iterable[tuple[int, ...]] | None, out: set):
    """Run a compiled plan.  Step 0 scans `seed` (a fixpoint delta), or
    probes like every later step when `seed` is None.  A probing step
    tests membership when its key covers every column, and otherwise
    takes its key's bucket from an index."""
    steps = plan.steps
    nsteps = len(steps)
    head_src = plan.head_src
    binding = [0] * plan.nslots
    lookups = [None if i == 0 and seed is not None else _lookup(s, store) for i, s in enumerate(steps)]

    def key(step: _Step) -> tuple[int, ...]:
        return tuple(v if kind == "c" else binding[v] for kind, v in step.key_src)

    def bind(step: _Step, t: tuple[int, ...]) -> bool:
        for pos, first in step.same:
            if t[pos] != t[first]:
                return False
        for pos, slot in step.out:
            binding[slot] = t[pos]
        return True

    def rec(i: int):
        if i == nsteps:
            out.add(tuple(v if kind == "c" else binding[v] for kind, v in head_src))
            return
        step = steps[i]
        if step.full:
            if key(step) in lookups[i]:
                rec(i + 1)
            return
        for t in lookups[i].get(key(step), ()):
            if bind(step, t):
                rec(i + 1)

    if seed is None:
        rec(0)
        return
    step0 = steps[0]
    consts = tuple(zip(step0.key_pos, (v for _, v in step0.key_src)))
    for t in seed:
        for pos, sym in consts:
            if t[pos] != sym:
                break
        else:
            if bind(step0, t):
                rec(1)


def _matcher(cols: Sequence[int], srcs: Sequence[tuple[str, int]], width: int):
    """The test that the columns `cols` of a tuple equal what `srcs` names
    (constants, or earlier columns of a repeated variable); None when
    there is nothing to test."""
    if not cols:
        return None
    lhs, rhs = _columns(cols), _picker(srcs, width)
    return lambda t: lhs(t) == rhs(t)


def _bulk_join(plan: _Plan, arities: Sequence[int]):
    """Compile a rule plan of one or two steps to one set-at-a-time join,
    `run(store, delta, out)`: every tuple of `delta` that matches step 0
    is joined with its key's bucket of step 1 in one comprehension, and
    the head of each tuple pair goes into `out`.  Columns of the pair
    `t + u` stand in for the plan's slots, so no binding is kept.  The
    join is skipped whenever step 1's relation is empty."""
    s0, w0 = plan.steps[0], arities[0]
    col = {slot: pos for pos, slot in s0.out}

    def columns(srcs):  # slot sources to column sources
        return [(k, v if k == "c" else col[v]) for k, v in srcs]

    keep = _matcher(
        [*s0.key_pos, *(pos for pos, _ in s0.same)],
        [*s0.key_src, *(("s", first) for _, first in s0.same)],
        w0,
    )
    if len(plan.steps) == 1:
        head = _picker(columns(plan.head_src), w0)

        def run(store: FactStore, delta, out: set):
            out.update(map(head, filter(keep, delta) if keep else delta))

        return run

    s1 = plan.steps[1]
    col.update((slot, w0 + pos) for pos, slot in s1.out)
    key = _picker(columns(s1.key_src), w0)
    head = _picker(columns(plan.head_src), w0 if s1.full else w0 + arities[1])
    keep_u = _matcher([pos for pos, _ in s1.same], [("s", first) for _, first in s1.same], arities[1])

    def run(store: FactStore, delta, out: set):
        if not store.relations.get(s1.pred):
            return
        seed = filter(keep, delta) if keep else delta
        if s1.full:
            rel = store.relations[s1.pred]
            out.update(head(t) for t in seed if key(t) in rel)
            return
        get = _lookup(s1, store).get
        if keep_u:
            out.update(head(t + u) for t in seed for u in get(key(t), ()) if keep_u(u))
        else:
            out.update(head(t + u) for t in seed for u in get(key(t), ()))

    return run


# ==============================================================================
# Fixpoint
# ==============================================================================


def evaluate_fixpoint(store: FactStore, catalogue: RuleCatalogue | Sequence[Rule]) -> EvalStats:
    """Extend the store to the minimal model of its facts plus the rules.

    Rules whose head no rule body reads (sinks, such as the consistency
    rules) cannot feed the fixpoint; they run once, after it, planned
    like a query.  The result is independent of rule order, join order
    and insertion order; termination is guaranteed because the Herbrand
    base is finite.
    """
    rules = catalogue.rules if isinstance(catalogue, RuleCatalogue) else tuple(catalogue)
    t0 = time.perf_counter()
    stats = EvalStats()

    for rule in rules:
        if not rule.body:
            store.assert_facts([rule.head])
    read = {a.pred for rule in rules for a in rule.body}
    recursive = [rule for rule in rules if rule.body and rule.head.pred in read]
    sinks = [rule for rule in rules if rule.body and rule.head.pred not in read]

    def merge(new: dict[str, set[tuple[int, ...]]]) -> dict[str, set[tuple[int, ...]]]:
        delta = {}
        for pred, tuples in new.items():
            fresh = tuples - store.relation(pred)
            if fresh:
                store.add_tuples(pred, fresh)
                delta[pred] = fresh
                stats.facts_derived[pred] = stats.facts_derived.get(pred, 0) + len(fresh)
        return delta

    # The first round's delta is the whole store; the relations themselves
    # serve, since nothing is added to them before the round ends.
    delta: dict[str, set[tuple[int, ...]]] = {p: r for p, r in store.relations.items() if r}
    tasks: dict[tuple[int, int], Callable] = {}

    while True:
        stats.rounds += 1
        # Every join of the round reads the store as it stood at the
        # round's start; what they derive is merged only afterwards.
        new: dict[str, set[tuple[int, ...]]] = {}
        for rule in recursive:
            for pos, a in enumerate(rule.body):
                seed = delta.get(a.pred)
                if not seed:
                    continue
                task = tasks.get((id(rule), pos))
                if task is None:
                    if len(rule.body) <= 2:
                        order = [pos, 1 - pos][: len(rule.body)]
                        plan = _compile(rule.head, rule.body, order, store)
                        task = _bulk_join(plan, [len(rule.body[i].args) for i in order])
                    else:
                        order = [i for i, _ in _plan(rule.body, store, first=pos)]
                        task = partial(_execute, _compile(rule.head, rule.body, order, store))
                    tasks[(id(rule), pos)] = task
                task(store, seed, new.setdefault(rule.head.pred, set()))
        delta = merge(new)
        if not delta:
            break

    new = {}
    for rule in sinks:
        order = [i for i, _ in _plan(rule.body, store)]
        _execute(_compile(rule.head, rule.body, order, store), store, None, new.setdefault(rule.head.pred, set()))
    merge(new)

    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return stats


# ==============================================================================
# Naive evaluation (differential-testing twin)
# ==============================================================================


def naive_evaluate(
    facts: Iterable[Atom], rules: RuleCatalogue | Sequence[Rule]
) -> set[tuple[str, tuple[str, ...]]]:
    """Minimal model by naive iteration over string-level atoms.

    Re-evaluates every rule against the whole model each round; no
    deltas, no indexes, no interning.  Only suitable for small inputs.
    """
    rule_list = rules.rules if isinstance(rules, RuleCatalogue) else list(rules)
    model: set[tuple[str, tuple[str, ...]]] = set()
    for f in facts:
        model.add((f.pred, tuple(a.value.iri for a in f.args)))  # type: ignore[union-attr]
    for r in rule_list:
        if not r.body:
            model.add((r.head.pred, tuple(a.value.iri for a in r.head.args)))  # type: ignore[union-attr]

    def matches(a: Atom, env: dict[str, str]):
        for pred, args in model:
            if pred != a.pred or len(args) != len(a.args):
                continue
            new_env = dict(env)
            ok = True
            for t, v in zip(a.args, args):
                if isinstance(t, Const):
                    if t.value.iri != v:
                        ok = False
                        break
                elif t.name in new_env:
                    if new_env[t.name] != v:
                        ok = False
                        break
                else:
                    new_env[t.name] = v
            if ok:
                yield new_env

    changed = True
    while changed:
        changed = False
        for r in rule_list:
            if not r.body:
                continue
            envs = [{}]
            for a in r.body:
                envs = [e2 for e in envs for e2 in matches(a, e)]
                if not envs:
                    break
            for env in envs:
                head = (
                    r.head.pred,
                    tuple(
                        t.value.iri if isinstance(t, Const) else env[t.name] for t in r.head.args
                    ),
                )
                if head not in model:
                    model.add(head)
                    changed = True
    return model


# ==============================================================================
# Conjunctive queries over a computed model
# ==============================================================================


def _query_plan(store: FactStore, q: ConjunctiveQuery) -> tuple[list[tuple[int, float]], _Plan] | None:
    """The planned order and compiled plan of `q`, or None when a constant
    of `q` does not occur in the store, so nothing can match."""
    for a in q.body:
        if a.pred not in KNOWN_ARITY and a.pred not in store.relations:
            raise UnknownPredicate(a.pred)
        for t in a.args:
            if isinstance(t, Const) and t.value.iri not in store._sym_ids:
                return None
    order = _plan(q.body, store)
    head = Atom("q", tuple(q.answer_vars))
    try:
        plan = _compile(head, q.body, [i for i, _ in order], store)
    except KeyError as exc:  # head var absent from body
        raise UnsafeQuery(str(exc))
    return order, plan


def answer_conjunctive_query(store: FactStore, q: ConjunctiveQuery) -> list[tuple[str, ...]]:
    """Distinct answer bindings, sorted lexicographically by IRI."""
    planned = _query_plan(store, q)
    if planned is None:
        return []
    out: set[tuple[int, ...]] = set()
    _execute(planned[1], store, None, out)
    answers = {tuple(store.symbol(s) for s in t) for t in out}
    return sorted(answers)


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
    estimates so far.  Actual rows are counted by running each prefix of
    the plan on its own, so answering itself keeps no counters.  Empty
    when a constant of `q` does not occur in the store.
    """
    planned = _query_plan(store, q)
    if planned is None:
        return []
    order, plan = planned
    report = []
    estimated = 1.0
    for n, ((idx, cost), step) in enumerate(zip(order, plan.steps), start=1):
        estimated *= cost
        prefix = plan.steps[:n]
        slots = tuple(("s", slot) for s in prefix for _, slot in s.out)
        rows: set[tuple[int, ...]] = set()
        _execute(_Plan(prefix, "", slots, plan.nslots), store, None, rows)
        report.append(PlanStep(q.body[idx], step.key_pos, estimated, len(rows)))
    return report
