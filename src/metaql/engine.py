"""Bottom-up Datalog evaluation.

The store keeps one relation per predicate as a set of tuples of IRI
strings, with hash indexes built lazily for whatever bound column
patterns the joins ask for.  A one-column index is keyed by the IRI
string itself, so no key tuple is built for it; a wider one is keyed by
the tuple of its columns.

One walk over a body plans it and compiles it to a join chain, for the
fixpoint's rule tasks, the sink rules and queries alike.  Each step
estimates the atoms with no variable or one shared with those placed
(every atom left, when there is none) from the store's exact index
buckets for their constants and bound columns, and takes the cheapest;
an atom is re-estimated only when one of its variables is bound, so a
long body needs one estimate per atom and variable bound, not one per
atom and step.  It gives that atom's new variables
row columns, where a row concatenates the columns matched so far, so a
term's source is that column, an int, or, for a constant, its IRI
string, the value the store's tuples hold; and it compiles the atom's
stage of the chain, a left-deep sequence of set-at-a-time stages.  A
chain starts from a later round's delta, which its pinned first atom
filters, or else from one empty row.  Every other atom extends each row
with its key's bucket, the whole relation for an empty key, or, when the
key covers every column, keeps the rows whose key is in the relation and
builds no index.  When such a key holds both constants and row columns,
and the store already holds the index on the constants' positions, the
stage keeps instead the rows whose columns are in a value set, the
distinct values of those columns in the constants' bucket, which the
store caches until the predicate grows; so `?s a tx:EndangeredSpecies`
after a join is one string lookup per row, and no key tuple is built.
A variable is dead when it occurs once in the body and
not in the head, so nothing reads it: a stage with no key and some dead
new variables reads the distinct values of its live columns off the keys
of an index on them, when the store already holds one, and its row
carries no dead column.  The stages are generators that stream into the
head, so no intermediate rows are held, and nothing runs when a relation
of the body is empty.  `explain_conjunctive_query` runs the query's own
chain once and counts, for each stage, the distinct bindings of the
variables still read, those placed less the dead ones.

The fixpoint is computed semi-naive.  In the first round the delta is
the whole store, so each rule joins once, planned like a query.  Every
later round joins each rule against the previous round's delta in each
body position, with the delta atom pinned first, so nothing is rederived
from scratch.  A delta is the list of the distinct tuples its round
added, not a second hash set beside the store's.  Rules whose head no
body reads (the consistency rules) cannot feed the fixpoint; they run
once after it, planned like queries.

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
and a collection would only scan the growing store in vain.  For the same
reason a fixpoint entered with the collector on ends, if it returns,
with `gc.freeze()`: the saturated store is acyclic and lives as long as
its queries, so every later full collection would rescan it in vain.
Such a fixpoint starts with one full collection, so the freeze finds no
cyclic garbage to keep: none is left at the start and the fixpoint makes
none.  (At the start the heap is smaller than at the end: 6 ms against
22 ms on `meta_taxo`.)  The freeze is process-wide: it moves every
object then alive, the caller's and the rest of the process's too, into
the collector's permanent generation, where it is never scanned again; a
cycle among those objects that later becomes garbage stays until
`gc.unfreeze()` or the end of the process.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from itertools import accumulate, filterfalse, repeat
from operator import itemgetter, mul
from typing import Callable, Collection, Container, Iterable, Sequence

from .errors import ArityMismatch, UnknownPredicate
from .model import (
    Atom,
    ConjunctiveQuery,
    Fact,
    KNOWN_ARITY,
    Rule,
    Var,
    facts_to_dl,
)
from .rules import RuleCatalogue


def _key(cols: Sequence[int]) -> Callable[[tuple], object]:
    """The function taking a tuple to its index key on columns `cols`: the
    column itself for one column, the tuple of them otherwise."""
    return itemgetter(*cols) if cols else lambda t: ()


def _columns(cols: Sequence[int]) -> Callable[[tuple], tuple]:
    """The function taking a tuple to the tuple of its columns `cols`."""
    return itemgetter(slice(cols[0], cols[0] + 1)) if len(cols) == 1 else _key(cols)


def _picker(srcs: Sequence[int | str], width: int, columns=_columns) -> Callable[[tuple], object]:
    """The function taking a tuple of `width` columns to what `columns`
    makes of the sources `srcs`: an int picks that column, an IRI string
    is a constant."""
    consts = tuple(v for v in srcs if isinstance(v, str))
    cols, extra = [], width
    for v in srcs:
        if isinstance(v, str):
            v, extra = extra, extra + 1
        cols.append(v)
    pick = columns(cols)
    return (lambda t: pick(t + consts)) if consts else pick


class FactStore:
    """Per-predicate indexed relations over tuples of IRI strings.

    Besides the indexes, which `add_tuples` keeps up to date, the store
    caches value sets: the distinct values of some columns among the
    tuples of one index bucket.  Each is built on first use, and
    `add_tuples` drops all of a predicate's value sets at once whenever it
    adds to that predicate."""

    def __init__(self):
        self.relations: dict[str, set[tuple[str, ...]]] = {}
        self._arity: dict[str, int] = {}
        self._indexes: dict[tuple[str, tuple[int, ...]], dict[object, list[tuple[str, ...]]]] = {}
        # pred -> (key columns, key, value columns) -> value set
        self._values: dict[str, dict[tuple, set]] = {}

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
            (_key(key_pos), index) for (p, key_pos), index in self._indexes.items() if p == pred
        ]
        # dropped before the loop, so none goes stale even if it raises
        self._values.pop(pred, None)
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

    def index(self, pred: str, key_pos: tuple[int, ...]) -> dict[object, Collection[tuple[str, ...]]]:
        """The tuples of `pred` bucketed by their columns `key_pos`, built
        on first use and kept up to date by `add_tuples`.  A one-column
        index is keyed by the IRI string itself, a wider one by the tuple
        of its columns.  With no columns, the one bucket `()` is the
        relation itself, and no index is kept."""
        if not key_pos:
            return {(): self.relation(pred)}
        got = self._indexes.get((pred, key_pos))
        if got is None:
            got = {}
            key = _key(key_pos)
            for t in self.relations.get(pred, ()):
                got.setdefault(key(t), []).append(t)
            self._indexes[(pred, key_pos)] = got
        return got

    def values(self, pred: str, key_pos: tuple[int, ...], key: object, cols: tuple[int, ...]) -> set:
        """The distinct values of the columns `cols` (keyed as an index is:
        the IRI string for one column, their tuple for more) among the
        tuples of `pred` in the bucket `key` of its index on `key_pos`;
        built on first use and cached until `add_tuples` adds to `pred`."""
        cached = self._values.setdefault(pred, {})
        got = cached.get((key_pos, key, cols))
        if got is None:
            got = cached[(key_pos, key, cols)] = set(map(_key(cols), self.index(pred, key_pos).get(key, ())))
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
# One walk over the body of every rule and query both plans and compiles
# it.  An atom's cost is its estimated rows per incoming binding, read off
# the store's exact index buckets: with only constants in its key, the
# size of their bucket; with bound variables in it too, the average bucket
# of that key; with every column in it, 1.  Each step takes the cheapest
# atom with no variable or one shared with those placed (any atom left,
# when there is none), so no cross product is built unless the body
# itself is disconnected.  The same step gives the atom's new variables
# the row columns its stage adds for them and compiles that stage.


def _estimate(a: Atom, bound: Container[str], store: FactStore) -> float:
    """Rows of `a` expected per binding of the variables in `bound`."""
    key_pos = tuple(p for p, t in enumerate(a.args) if isinstance(t, str) or t.name in bound)
    if len(key_pos) == len(a.args):
        return 1.0
    index = store.index(a.pred, key_pos)
    consts = tuple(a.args[p] for p in key_pos)
    if all(isinstance(c, str) for c in consts):
        return float(len(index.get(consts[0] if len(consts) == 1 else consts, ())))
    return len(store.relation(a.pred)) / len(index) if index else 0.0


def _matcher(pairs: Sequence[tuple[int, int | str]], width: int):
    """The test that each column `pos` of a tuple of `width` columns equals
    what its source names, for the (pos, source) `pairs` (constants, or an
    earlier column of a repeated variable); None when there is nothing to
    test."""
    if not pairs:
        return None
    lhs, rhs = _key([pos for pos, _ in pairs]), _picker([src for _, src in pairs], width, _key)
    return lambda t: lhs(t) == rhs(t)


# The stages of a join chain.  Each is made by its own function, which
# binds the names its generators read when the stage is made, not when the
# chain is finally drained, and looks up its relation or index at each run.
# A chain with no delta starts from `_START`, one empty row.  A chain
# longer than `_DRAIN` stages is drained into a list every `_DRAIN`
# stages, so its generators never nest deeper than that.

_START = ((),)
_DRAIN = 256


def _probe(store: FactStore, pred: str, key_pos: tuple[int, ...], key, keep):
    """The stage extending each row with every tuple of its key's bucket
    that `keep` (when given) accepts; from `_START`, the bucket's own
    tuples."""

    def stage(rows):
        get = store.index(pred, key_pos).get
        if rows is _START:
            bucket = get(key(()), ())
            return filter(keep, bucket) if keep else bucket
        if keep is None:
            return (r + u for r in rows for u in get(key(r), ()))
        return (r + u for r in rows for u in get(key(r), ()) if keep(u))

    return stage


def _member(store: FactStore, pred: str, key: Sequence[tuple[int, int | str]], width: int):
    """The stage keeping the rows whose key, the (position, source) `key`
    of every column, is a tuple of `pred`.  With constants and row columns
    both in it, when the store already holds the index on the constants'
    positions, the stage keeps the rows whose columns are in the value set
    of the constants' bucket instead, and builds no tuple."""
    consts, bound = [], []
    for pair in key:
        (consts if isinstance(pair[1], str) else bound).append(pair)
    if consts and bound:
        const_pos, names = zip(*consts)
        if (pred, const_pos) in store._indexes:
            bound_pos, cols = zip(*bound)
            spec = (pred, const_pos, names[0] if len(names) == 1 else names, bound_pos)
            pick = itemgetter(*cols)

            def stage(rows):
                values = store.values(*spec)
                return (r for r in rows if pick(r) in values)

            return stage

    pick = _picker([src for _, src in key], width)

    def stage(rows):
        rel = store.relation(pred)
        return (r for r in rows if pick(r) in rel)

    return stage


def _project(store: FactStore, pred: str, live: tuple[int, ...]):
    """The stage extending each row with every distinct value of the
    columns `live` of `pred`, the keys of its index on them."""
    one = len(live) == 1

    def stage(rows):
        index = store.index(pred, live)
        if rows is _START:
            return zip(index) if one else index
        if one:
            return (r + (k,) for r in rows for k in index)
        return (r + k for r in rows for k in index)

    return stage


def _uses(head_terms: Sequence[Var | str], body: Sequence[Atom]) -> tuple[dict[str, list[int]], set[str]]:
    """Each variable of `body` with the atom of each of its occurrences, and
    the dead variables: those that occur once in `body` and not in
    `head_terms`, which nothing reads."""
    occurs: dict[str, list[int]] = {}
    for i, a in enumerate(body):
        for t in a.args:
            if isinstance(t, Var):
                occurs.setdefault(t.name, []).append(i)
    dead = {name for name, at in occurs.items() if len(at) == 1} - {t.name for t in head_terms if isinstance(t, Var)}
    return occurs, dead


def _compile(
    head_terms: Sequence[Var | str],
    body: Sequence[Atom],
    store: FactStore,
    first: int | None = None,
    uses: tuple[dict[str, list[int]], set[str]] | None = None,
):
    """Plan `body` and compile it, in one walk, to one left-deep chain of
    set-at-a-time stages, `run(seed, out, counts=None)`, which adds the
    tuple of `head_terms` of every match to `out`.  Returns `run` and the
    plan, one (atom index, key columns, estimated rows per binding) per
    step; `first`, the delta atom of a fixpoint round, is pinned first.
    `uses` is `_uses(head_terms, body)`, for a caller that compiles one
    rule several times.  The callers check the body's arities.

    Each candidate's estimate is kept and redone only when one of its
    variables is bound, so a connected body of n atoms needs one estimate
    per atom and variable bound, and a scan of the kept estimates per step.

    A row is the concatenation of the columns the stages added, and each
    variable is read from the row column it was given, so no binding is
    kept.  The pinned atom filters `seed` (a fixpoint delta) on its
    constants and repeated variables, and its tuple starts the row; with
    no seed, the row starts empty.  Every other atom is a stage:
    - when its key covers every column, it keeps the rows whose key is in
      the relation and adds no column; when that key holds constants and
      row columns both, and the index on the constants' positions is
      already in the store, it keeps the rows whose columns are in the
      store's value set for the constants' bucket instead;
    - when it has no key, no repeated variable and some dead new
      variables, and the index on the columns of the live ones is already
      in the store, it extends each row with each key of that index, the
      distinct values of those columns, and the dead ones get no column;
    - otherwise it extends each row with its key's index bucket, dead
      columns too.
    The stages are generators, so no intermediate rows are held: the last
    one streams through the head into `out`, and a chain longer than
    `_DRAIN` stages is drained into a list every `_DRAIN` stages.  Nothing
    runs when a relation of the body is empty, unless `counts` is given:
    then every stage runs, its rows are held in a list, and the number of
    distinct bindings of its prefix's variables less the dead ones is
    appended to `counts`.  No stage emits a row twice, so with no seed,
    when the row carries no dead column, that is its number of rows.
    """
    occurs, dead = uses or _uses(head_terms, body)
    left = set(range(len(body)))
    # each candidate's estimate given the variables with a column, a
    # candidate being an atom with no variable or one with a column (a dead
    # variable may get none, but no other atom reads it)
    cost = dict.fromkeys(left.difference(*occurs.values()), 1.0)
    col: dict[str, int] = {}  # variable -> its row column
    width = 0
    plan, stages, widths, keep_seed = [], [], [], None
    while left:
        if not plan and first is not None:
            est, idx = _estimate(body[first], col, store), first
        elif cost:
            est, idx = min((c, i) for i, c in cost.items())
        else:
            # the body is disconnected: any atom left will do
            est, idx = min((_estimate(body[i], col, store), i) for i in left)
        left.remove(idx)
        cost.pop(idx, None)
        a = body[idx]
        arity = len(a.args)
        # key: (position, source) for constants (an IRI string) and
        # variables bound by an earlier atom (a row column); same:
        # (position, column) for a variable repeated within this atom,
        # read from its first position here
        key, same, new = [], [], {}
        for pos, t in enumerate(a.args):
            if isinstance(t, str):
                key.append((pos, t))
            elif t.name in col:
                key.append((pos, col[t.name]))
            elif t.name in new:
                same.append((pos, new[t.name]))
            else:
                new[t.name] = pos
        key_pos = tuple(pos for pos, _ in key)
        srcs = [src for _, src in key]
        if idx == first:
            keep_seed = _matcher(key + same, arity)
        elif len(key_pos) == arity:
            stages.append(_member(store, a.pred, key, width))
            arity = 0
        elif (
            not key
            and not same
            and not dead.isdisjoint(new)
            and (a.pred, live := tuple(pos for name, pos in new.items() if name not in dead)) in store._indexes
        ):
            stages.append(_project(store, a.pred, live))
            # the new variables' columns within what the stage adds to the row
            new, arity = {name: live.index(pos) for name, pos in new.items() if pos in live}, len(live)
        else:
            stages.append(_probe(store, a.pred, key_pos, _picker(srcs, width, _key), _matcher(same, arity)))
        col.update((name, width + pos) for name, pos in new.items())
        width += arity
        for i in {i for name in new for i in occurs[name] if i in left}:
            cost[i] = _estimate(body[i], col, store)
        if idx != first:
            widths.append(width)
        plan.append((idx, key_pos, est))
    head = _picker([t if isinstance(t, str) else col[t.name] for t in head_terms], width)

    def run(seed: Iterable[tuple[str, ...]] | None, out: set, counts: list[int] | None = None):
        if counts is None and not all(store.relations.get(a.pred) for a in body):
            return
        rows = _START if seed is None else filter(keep_seed, seed) if keep_seed else seed
        for n, (stage, end) in enumerate(zip(stages, widths), 1):
            rows = stage(rows)
            if counts is not None:
                rows = list(rows)
                view = _key([c for name, c in col.items() if c < end and name not in dead])
                counts.append(len(set(map(view, rows))))
            elif n % _DRAIN == 0:
                rows = list(rows)
        out.update(map(head, rows))

    return run, plan


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


def _close(store: FactStore, pred: str, succ: dict[str, list[str]], edges: Iterable[tuple[str, str]]) -> list:
    """Add `edges` to `succ`, the generating edges of `pred`, and add the
    pairs of their transitive closure that `pred` lacks; returns them,
    each once.  Either `pred` is closed over `succ`, so a tail's
    predecessors in it are all the nodes that reach the tail, or `succ` is
    empty and `edges` hold all of `pred`, so those predecessors are tails
    themselves."""
    before = store.index(pred, (1,)) if succ else {}
    sources = set()
    for a, b in edges:
        succ.setdefault(a, []).append(b)
        sources.add(a)
        sources.update(x for x, _ in before.get(a, ()))
    known = store.relation(pred).__contains__
    # the pairs of distinct sources are distinct
    added: list[tuple[str, str]] = []
    for s in sources:
        seen: set[str] = set()
        stack = [s]
        while stack:
            for n in succ.get(stack.pop(), ()):
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        added.extend(filterfalse(known, zip(repeat(s), seen)))
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
    what the fixpoint allocates holds no reference cycles.  If it was on,
    a full collection first frees the cyclic garbage pending, and if the
    fixpoint returns, `gc.freeze()` moves every object still alive in the
    process, the store among them, out of all later collections before
    the collector is switched back on (see the module docstring for the
    cost).
    """
    rules = catalogue.rules if isinstance(catalogue, RuleCatalogue) else tuple(catalogue)
    was = gc.isenabled()
    gc.disable()
    try:
        if was:
            gc.collect()
        stats = _saturate(store, rules)
        if was:
            gc.freeze()
        return stats
    finally:
        if was:
            gc.enable()


def _saturate(store: FactStore, rules: Sequence[Rule]) -> EvalStats:
    t0 = time.perf_counter()
    stats = EvalStats()

    for rule in rules:
        for a in rule.body:
            store._check_arity(a.pred, len(a.args))
        if not rule.body and store.add_tuples(rule.head.pred, [rule.head.args]):
            stats.facts_derived[rule.head.pred] = stats.facts_derived.get(rule.head.pred, 0) + 1
    read = {a.pred for rule in rules for a in rule.body}
    # pred -> generating edges of each relation kept transitively closed
    closed: dict[str, dict[str, list[str]]] = {rule.head.pred: {} for rule in rules if _transitive(rule)}
    recursive = [rule for rule in rules if rule.body and rule.head.pred in read and not _transitive(rule)]
    sinks = [rule for rule in rules if rule.body and rule.head.pred not in read]
    # id(rule) -> body position of q in q(..Y..) :- q(..C..), p(C, Y) over a closed p
    pivots = {
        id(r): s[0] for r in recursive if (s := _pivot(r)) and r.body[1 - s[0]].pred in closed.keys() - {r.head.pred}
    }
    uses = {id(rule): _uses(rule.head.args, rule.body) for rule in recursive}

    def merge(new: dict[str, set[tuple[str, ...]]], mine=()) -> dict[str, list[tuple[str, ...]]]:
        # `new` (emptied as it goes) holds what the rules derived, `mine`
        # what each pivot rule derived that is not in the store; a delta
        # is the list of the distinct tuples it adds
        delta = {}
        for pred in list(new):
            fresh = new.pop(pred)
            fresh.update(*(own for rule, own in mine if rule.head.pred == pred))
            fresh -= store.relation(pred)
            if fresh:
                if pred in closed:
                    fresh = _close(store, pred, closed[pred], fresh)
                else:
                    store.add_tuples(pred, fresh)
                    fresh = list(fresh)
                delta[pred] = fresh
                stats.facts_derived[pred] = stats.facts_derived.get(pred, 0) + len(fresh)
        return delta

    for pred, succ in closed.items():
        added = _close(store, pred, succ, store.relation(pred))
        if added:
            stats.facts_derived[pred] = stats.facts_derived.get(pred, 0) + len(added)

    # None: the first round, whose delta is the whole store
    delta: dict[str, list[tuple[str, ...]]] | None = None
    trimmed: dict[int, list[tuple[str, ...]] | None] = {}  # id(rule) -> its q atom's delta
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
                _compile(rule.head.args, rule.body, store, None, uses[id(rule)])[0](None, out)
            else:
                for pos, a in enumerate(rule.body):
                    seed = trimmed[id(rule)] if pos == pivot else delta.get(a.pred)
                    if not seed:
                        continue
                    task = tasks.get((id(rule), pos))
                    if task is None:
                        task = _compile(rule.head.args, rule.body, store, pos, uses[id(rule)])[0]
                        tasks[(id(rule), pos)] = task
                    task(seed, out)
            if pivot is not None:
                mine.append((rule, out - store.relation(rule.head.pred)))
        delta = merge(new, mine)
        if not delta:
            break
        # what a pivot rule derived is in the store, so in its head's delta
        trimmed = {
            id(rule): [t for t in delta[rule.head.pred] if t not in own] if own else delta.get(rule.head.pred)
            for rule, own in mine
        }

    new = {}
    for rule in sinks:
        _compile(rule.head.args, rule.body, store)[0](None, new.setdefault(rule.head.pred, set()))
    merge(new)

    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return stats


# ==============================================================================
# Conjunctive queries over a computed model
# ==============================================================================


def _check_query(store: FactStore, q: ConjunctiveQuery):
    """Raises UnknownPredicate or ArityMismatch for an atom of `q` the
    store cannot answer."""
    for a in q.body:
        if a.pred not in KNOWN_ARITY and a.pred not in store.relations:
            raise UnknownPredicate(a.pred)
        store._check_arity(a.pred, len(a.args))


def answer_conjunctive_query(store: FactStore, q: ConjunctiveQuery) -> list[tuple[str, ...]]:
    """Distinct answer bindings, sorted lexicographically by IRI.  A query
    over an empty relation is answered before it is planned."""
    _check_query(store, q)
    if not all(store.relations.get(a.pred) for a in q.body):
        return []
    out: set[tuple[str, ...]] = set()
    _compile(q.answer_vars, q.body, store)[0](None, out)
    return sorted(out)


@dataclass(frozen=True)
class PlanStep:
    """One step of a query plan as `explain_conjunctive_query` reports it."""

    atom: Atom
    key: tuple[int, ...]  # the columns looked up by value
    estimated: float  # bindings expected after this step, dead variables' too
    actual: int  # bindings found after this step of the variables still read


def explain_conjunctive_query(store: FactStore, q: ConjunctiveQuery) -> list[PlanStep]:
    """The join order chosen for `q`, with estimated against actual rows.

    The estimate after a step is the product of the planner's per-binding
    estimates so far, over every variable placed.  Actual rows are the
    distinct bindings of each prefix of the plan, projected onto the
    variables still read (the prefix's variables less the dead ones, which
    occur once in the body and not in the head), counted from one run of
    the query's own compiled chain; answering itself keeps no counters.
    So on a step with a dead variable, the estimate counts its values and
    the actual rows do not.
    """
    _check_query(store, q)
    run, plan = _compile(q.answer_vars, q.body, store)
    counts: list[int] = []
    run(None, set(), counts)
    estimates = accumulate((cost for _, _, cost in plan), mul)
    return [PlanStep(q.body[i], key, est, n) for (i, key, _), est, n in zip(plan, estimates, counts)]
