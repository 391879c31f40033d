"""Brute-force reference semantics, used to cross-check the engine.

Two deliberately independent code paths compute what the rule catalogue
is supposed to derive:

* ``tbox_closure`` saturates basic-concept inclusions, role inclusions,
  disjointness and reflexivity by exhaustively applying semantic
  composition laws to pairs until nothing changes.  No rule catalogue,
  no Datalog machinery.

* ``chase`` builds the canonical model over the named individuals,
  introducing labeled nulls for existential right-hand sides.  Restricted
  to ontologies whose existential dependencies are acyclic, which the
  caller's test generators guarantee and the function checks.

``certain_answers_oracle`` evaluates a conjunctive query against those
structures by plain substitution enumeration.  Nulls are never returned
in answers; whether they may witness existential (non-answer) variables
is a switch, because the engine derives named consequences only and the
difference is exactly the documented anonymous-join gap.

Single-threaded and happily quadratic: this module exists for test-size
inputs, not production ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CyclicTBox
from .model import (
    Atomic,
    ClassAssertion,
    ClassDisjoint,
    ClassInclusion,
    ConjunctiveQuery,
    DifferentIndividuals,
    Entity,
    Irreflexive,
    PropAssertion,
    PropDisjoint,
    PropInclusion,
    Reflexive,
    Some,
    TOP_CLASS,
    Var,
)
from .owl import Ontology

TOP = TOP_CLASS.iri

# Basic concepts are ('C', class), ('R', role) or ('I', role); inclusion
# right-hand sides are ('C', class), ('R', role, filler) or
# ('I', role, filler).
Basic = tuple
Rhs = tuple

_NULL_PREFIX = "_:n"


def is_null(symbol: str) -> bool:
    return symbol.startswith(_NULL_PREFIX)


def _basic_of_expr(ce) -> Basic:
    if isinstance(ce, Atomic):
        return ("C", ce.cls.iri)
    return ("I" if ce.prop.inverse else "R", ce.prop.prop.iri)


def _rhs_of_expr(ce) -> Rhs:
    if isinstance(ce, Atomic):
        return ("C", ce.cls.iri)
    return ("I" if ce.prop.inverse else "R", ce.prop.prop.iri, ce.filler.iri)


def _basic_of_rhs(rhs: Rhs) -> Basic:
    return rhs if rhs[0] == "C" else (rhs[0], rhs[1])


@dataclass(frozen=True)
class TBoxClosure:
    incl: frozenset[tuple[Basic, Rhs]]
    role_incl: frozenset[tuple[str, str, bool]]  # (sub, sup, to-inverse?)
    disj: frozenset[frozenset[Basic]]
    role_disj: frozenset[tuple[str, frozenset[str]]]  # ('plain'|'inv', {r, s})
    refl: frozenset[str]
    irrefl: frozenset[str]

    def to_atoms(self) -> set[tuple[str, tuple[str, ...]]]:
        """Encode the closure in the fact signature, for differential tests
        against the engine's saturated TBox predicates."""
        atoms: set[tuple[str, tuple[str, ...]]] = set()
        for b, rhs in self.incl:
            if rhs[0] == "C":
                atoms.add((f"isac{b[0]}C", (b[1], rhs[1])))
            else:
                atoms.add((f"isac{b[0]}{rhs[0]}", (b[1], rhs[1], rhs[2])))
        for r, s, flip in self.role_incl:
            atoms.add(("isarRI" if flip else "isarRR", (r, s)))
        for pair in self.disj:
            ops = sorted(pair)
            arrangements = {(ops[0], ops[-1]), (ops[-1], ops[0])}
            for b1, b2 in arrangements:
                pred = f"disjc{b1[0]}{b2[0]}"
                if (b1[0], b2[0]) != ("C", "R"):
                    atoms.add((pred, (b1[1], b2[1])))
        for kind, pair in self.role_disj:
            pred = "disjrRI" if kind == "inv" else "disjrRR"
            ops = sorted(pair)
            atoms.add((pred, (ops[0], ops[-1])))
            atoms.add((pred, (ops[-1], ops[0])))
        for r in self.refl:
            atoms.add(("refl", (r,)))
        for r in self.irrefl:
            atoms.add(("irrefl", (r,)))
        return atoms


def tbox_closure(o: Ontology) -> TBoxClosure:
    """Fixpoint of pairwise semantic composition over the TBox."""
    incl: set[tuple[Basic, Rhs]] = set()
    role_incl: set[tuple[str, str, bool]] = set()
    disj: set[frozenset[Basic]] = set()
    role_disj: set[tuple[str, frozenset[str]]] = set()
    refl: set[str] = set()
    irrefl: set[str] = set()

    for ax in o.tbox:
        if isinstance(ax, ClassInclusion):
            incl.add((_basic_of_expr(ax.sub), _rhs_of_expr(ax.sup)))
        elif isinstance(ax, PropInclusion):
            role_incl.add((ax.sub.prop.iri, ax.sup.prop.iri, ax.sup.inverse))
        elif isinstance(ax, ClassDisjoint):
            disj.add(frozenset({_basic_of_expr(ax.left), _basic_of_expr(ax.right)}))
        elif isinstance(ax, PropDisjoint):
            kind = "inv" if ax.right.inverse else "plain"
            role_disj.add((kind, frozenset({ax.left.prop.iri, ax.right.prop.iri})))
        elif isinstance(ax, Reflexive):
            refl.add(ax.prop.iri)
        elif isinstance(ax, Irreflexive):
            irrefl.add(ax.prop.iri)

    changed = True
    while changed:
        before = (len(incl), len(role_incl), len(disj), len(role_disj), len(refl), len(irrefl))

        # A role inclusion bounds its domain and range.
        for r, s, flip in list(role_incl):
            incl.add((("R", r), ("I" if flip else "R", s, TOP)))
            incl.add((("I", r), ("R" if flip else "I", s, TOP)))

        # Per-pass lookup tables; rebuilt each pass because the sets grow.
        by_lhs: dict[Basic, list[Rhs]] = {}
        for b, rhs in incl:
            by_lhs.setdefault(b, []).append(rhs)
        atomic_sups: dict[str, list[str]] = {}
        for b, rhs in incl:
            if b[0] == "C" and rhs[0] == "C":
                atomic_sups.setdefault(b[1], []).append(rhs[1])
        by_rhs_basic: dict[Basic, list[Basic]] = {}
        for b, rhs in incl:
            by_rhs_basic.setdefault(_basic_of_rhs(rhs), []).append(b)
        role_sups: dict[str, list[tuple[str, bool]]] = {}
        for r, s, flip in role_incl:
            role_sups.setdefault(r, []).append((s, flip))

        # Compose inclusions through the basic concept a right side implies.
        for b1, rhs1 in list(incl):
            for rhs2 in by_lhs.get(_basic_of_rhs(rhs1), ()):
                incl.add((b1, rhs2))

        # Widen qualified fillers along class inclusions.
        for b, rhs in list(incl):
            if rhs[0] != "C":
                for wider in atomic_sups.get(rhs[2], ()):
                    incl.add((b, (rhs[0], rhs[1], wider)))

        # Push role inclusions into qualified existentials.
        for b, rhs in list(incl):
            if rhs[0] != "C":
                for s, flip in role_sups.get(rhs[1], ()):
                    if rhs[0] == "R":
                        incl.add((b, ("I" if flip else "R", s, rhs[2])))
                    else:
                        incl.add((b, ("R" if flip else "I", s, rhs[2])))

        # Compose role inclusions; inverse markers cancel pairwise.
        for r1, s1, f1 in list(role_incl):
            for s2, f2 in role_sups.get(s1, ()):
                role_incl.add((r1, s2, f1 != f2))

        # Disjointness is inherited downwards along inclusions.
        for pair in list(disj):
            ops = sorted(pair)
            for target, other in {(ops[0], ops[-1]), (ops[-1], ops[0])}:
                for b3 in by_rhs_basic.get(target, ()):
                    disj.add(frozenset({b3, other}))
        role_subs: dict[str, list[tuple[str, bool]]] = {}
        for r, s, flip in role_incl:
            role_subs.setdefault(s, []).append((r, flip))
        for kind, pair in list(role_disj):
            ops = sorted(pair)
            for target, other in {(ops[0], ops[-1]), (ops[-1], ops[0])}:
                for r, flip in role_subs.get(target, ()):
                    if kind == "plain":
                        role_disj.add(("inv" if flip else "plain", frozenset({r, other})))
                    else:
                        role_disj.add(("plain" if flip else "inv", frozenset({r, other})))

        # Reflexivity travels up role inclusions, irreflexivity down.
        for r, s, flip in list(role_incl):
            if r in refl:
                refl.add(s)
            if s in irrefl:
                irrefl.add(r)

        after = (len(incl), len(role_incl), len(disj), len(role_disj), len(refl), len(irrefl))
        changed = after != before

    return TBoxClosure(
        frozenset(incl),
        frozenset(role_incl),
        frozenset(disj),
        frozenset(role_disj),
        frozenset(refl),
        frozenset(irrefl),
    )


# ==============================================================================
# Chase
# ==============================================================================


@dataclass
class CanonicalModel:
    elements: set[str]
    named: set[str]
    class_ext: dict[str, set[str]]
    prop_ext: dict[str, set[tuple[str, str]]]
    depth: int

    def basic_ext(self, basic: Basic) -> set[str]:
        kind, name = basic
        if kind == "C":
            if name == TOP:
                return set(self.elements)
            return set(self.class_ext.get(name, ()))
        pairs = self.prop_ext.get(name, ())
        return {x for x, _ in pairs} if kind == "R" else {y for _, y in pairs}


def _check_acyclic(o: Ontology, closure: TBoxClosure):
    """Reject ontologies whose chase could create nulls forever.

    Membership edges record that every member of one basic concept is a
    member of another without any null being created (atomic inclusions,
    role hierarchies, reflexivity making a role's ends universal).
    Creation edges come from the ontology's own existential axioms: the
    fresh witness lands in the filler, in the incident end of the role,
    and in the top class.  The chase can diverge exactly when a creation
    edge lies on a cycle, so that is what gets rejected.
    """
    membership: dict[Basic, set[Basic]] = {}
    creation: list[tuple[Basic, set[Basic]]] = []

    def add_membership(src: Basic, dst: Basic):
        membership.setdefault(src, set()).add(dst)

    for b, rhs in closure.incl:
        if rhs[0] == "C":
            add_membership(b, ("C", rhs[1]))
        else:
            # Weakening: members of b end up in the role's subject end,
            # whether the witness is fresh or reused.
            add_membership(b, (rhs[0], rhs[1]))
    for r, s, flip in closure.role_incl:
        add_membership(("R", r), ("I", s) if flip else ("R", s))
        add_membership(("I", r), ("R", s) if flip else ("I", s))
    for r in closure.refl:
        # Every element, nulls included, relates to itself.
        add_membership(("C", TOP), ("R", r))
        add_membership(("C", TOP), ("I", r))

    for ax in o.tbox:
        if isinstance(ax, ClassInclusion) and isinstance(ax.sup, Some):
            role = ax.sup.prop.prop.iri
            incident = ("R", role) if ax.sup.prop.inverse else ("I", role)
            targets = {("C", ax.sup.filler.iri), incident, ("C", TOP)}
            creation.append((_basic_of_expr(ax.sub), targets))

    edges: dict[Basic, set[Basic]] = {k: set(v) for k, v in membership.items()}
    for src, targets in creation:
        edges.setdefault(src, set()).update(targets)

    def reaches(start: Basic, goal: Basic) -> bool:
        stack, seen = [start], {start}
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            for nxt in edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    for src, targets in creation:
        for target in targets:
            if reaches(target, src):
                raise CyclicTBox(
                    f"existential dependency cycle: witnesses in {target} feed {src}"
                )


def chase(o: Ontology, closure: TBoxClosure | None = None) -> CanonicalModel:
    """Canonical model of a normalized, existentially acyclic ontology."""
    if closure is None:
        closure = tbox_closure(o)
    _check_acyclic(o, closure)

    model = CanonicalModel(set(), set(), {}, {}, 0)
    generation: dict[str, int] = {}

    for ax in o.abox:
        if isinstance(ax, ClassAssertion):
            model.class_ext.setdefault(ax.cls.iri, set()).add(ax.individual.iri)
            model.elements.add(ax.individual.iri)
        elif isinstance(ax, PropAssertion):
            model.prop_ext.setdefault(ax.prop.iri, set()).add((ax.subject.iri, ax.object.iri))
            model.elements.add(ax.subject.iri)
            model.elements.add(ax.object.iri)
    model.named = set(model.elements)
    for e in model.elements:
        generation[e] = 0

    positive = sorted(
        (ax for ax in o.tbox if isinstance(ax, (ClassInclusion, PropInclusion, Reflexive))),
        key=repr,
    )
    null_counter = itertools.count(1)
    # Bounds acyclic TBoxes whose chase branches exponentially.
    element_cap = max(1000, 50 * (len(model.elements) + 1))

    def class_members(name: str) -> set[str]:
        if name == TOP:
            return set(model.elements)
        return model.class_ext.get(name, set())

    changed = True
    while changed:
        changed = False
        for ax in positive:
            if isinstance(ax, ClassInclusion):
                members = sorted(model.basic_ext(_basic_of_expr(ax.sub)))
                sup = ax.sup
                if isinstance(sup, Atomic):
                    if sup.cls == TOP_CLASS:
                        continue
                    ext = model.class_ext.setdefault(sup.cls.iri, set())
                    for e in members:
                        if e not in ext:
                            ext.add(e)
                            changed = True
                else:
                    prop = sup.prop.prop.iri
                    filler = sup.filler.iri
                    pairs = model.prop_ext.setdefault(prop, set())
                    for e in members:
                        if sup.prop.inverse:
                            witnesses = {x for x, y in pairs if y == e}
                        else:
                            witnesses = {y for x, y in pairs if x == e}
                        if filler != TOP:
                            witnesses &= class_members(filler)
                        if witnesses:
                            continue
                        gen = generation[e] + 1
                        if len(model.elements) > element_cap:
                            raise CyclicTBox("chase created too many labeled nulls")
                        null = f"{_NULL_PREFIX}{next(null_counter)}"
                        model.elements.add(null)
                        generation[null] = gen
                        model.depth = max(model.depth, gen)
                        pairs.add((null, e) if sup.prop.inverse else (e, null))
                        if filler != TOP:
                            model.class_ext.setdefault(filler, set()).add(null)
                        changed = True
            elif isinstance(ax, PropInclusion):
                sub_pairs = model.prop_ext.get(ax.sub.prop.iri, set())
                sup_ext = model.prop_ext.setdefault(ax.sup.prop.iri, set())
                for x, y in sorted(sub_pairs):
                    pair = (y, x) if ax.sup.inverse else (x, y)
                    if pair not in sup_ext:
                        sup_ext.add(pair)
                        changed = True
            else:  # Reflexive
                ext = model.prop_ext.setdefault(ax.prop.iri, set())
                for e in sorted(model.elements):
                    if (e, e) not in ext:
                        ext.add((e, e))
                        changed = True
    return model


# ==============================================================================
# Certain answers
# ==============================================================================


def _semantic_relations(o: Ontology, closure: TBoxClosure, model: CanonicalModel):
    rels: dict[str, set[tuple[str, ...]]] = {}
    for pred, args in closure.to_atoms():
        rels.setdefault(pred, set()).add(args)
    instc = rels.setdefault("instc", set())
    for cls, members in model.class_ext.items():
        for m in members:
            instc.add((cls, m))
    for e in model.elements:
        instc.add((TOP, e))
    instr = rels.setdefault("instr", set())
    for prop, pairs in model.prop_ext.items():
        for x, y in pairs:
            instr.add((prop, x, y))
    diff = rels.setdefault("diff", set())
    for ax in o.abox:
        if isinstance(ax, DifferentIndividuals):
            diff.add((ax.a.iri, ax.b.iri))
    return rels


class OracleEvaluator:
    """Closure + chase computed once, reusable across queries."""

    def __init__(self, o: Ontology):
        self.ontology = o
        self.closure = tbox_closure(o)
        self.model = chase(o, closure=self.closure)
        self._rels = _semantic_relations(o, self.closure, self.model)
        self._named_rels = {
            pred: {t for t in tuples if not any(is_null(s) for s in t)}
            for pred, tuples in self._rels.items()
        }

    def answers(self, q: ConjunctiveQuery, allow_null_witnesses: bool = True) -> list[tuple[str, ...]]:
        rels = self._rels if allow_null_witnesses else self._named_rels

        # Most-constrained-first ordering keeps the enumeration small.
        remaining = list(q.body)
        ordered: list = []
        bound: set[str] = set()
        while remaining:
            def rank(a):
                unbound = sum(1 for t in a.args if isinstance(t, Var) and t.name not in bound)
                return (unbound, len(rels.get(a.pred, ())), a.pred)

            nxt = min(remaining, key=rank)
            remaining.remove(nxt)
            ordered.append(nxt)
            bound |= {t.name for t in nxt.args if isinstance(t, Var)}

        answer_names = [v.name for v in q.answer_vars]
        envs: set[tuple] = {()}  # frozen (name, value) items, sorted
        for idx, a in enumerate(ordered):
            rel = rels.get(a.pred, set())
            # Keep only the variables later atoms or the answer still need.
            needed = set(answer_names)
            for later in ordered[idx + 1:]:
                needed |= {t.name for t in later.args if isinstance(t, Var)}
            new_envs: set[tuple] = set()
            for env_items in envs:
                env = dict(env_items)
                for tup in rel:
                    cand = dict(env)
                    ok = True
                    for t, v in zip(a.args, tup):
                        if isinstance(t, Entity):
                            if t.iri != v:
                                ok = False
                                break
                        elif cand.get(t.name, v) != v:
                            ok = False
                            break
                        else:
                            cand[t.name] = v
                    if ok:
                        new_envs.add(tuple(sorted((k, x) for k, x in cand.items() if k in needed)))
            envs = new_envs
            if not envs:
                break

        answers = set()
        for env_items in envs:
            env = dict(env_items)
            tup = tuple(env[n] for n in answer_names)
            if not any(is_null(s) for s in tup):
                answers.add(tup)
        return sorted(answers)


def certain_answers_oracle(
    o: Ontology,
    q: ConjunctiveQuery,
    allow_null_witnesses: bool = True,
) -> list[tuple[str, ...]]:
    """Answers by exhaustive substitution enumeration over the chase model
    and the TBox closure.  Answer variables only ever bind named symbols;
    labeled nulls may witness the remaining variables unless disabled."""
    return OracleEvaluator(o).answers(q, allow_null_witnesses=allow_null_witnesses)
