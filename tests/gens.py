"""Random instance generators shared by the differential test suites.

Ontologies are small (bounded classes/properties/individuals) and
existentially acyclic by rejection sampling; punning is generated on
purpose: class names show up in individual positions and vice versa.
"""

from __future__ import annotations

import random

from metaql import (
    Atom,
    Atomic,
    ClassAssertion,
    ClassDisjoint,
    ClassInclusion,
    ConjunctiveQuery,
    DifferentIndividuals,
    Entity,
    Irreflexive,
    Ontology,
    PropAssertion,
    PropDisjoint,
    PropExpr,
    PropInclusion,
    Reflexive,
    Rule,
    Some,
    TOP_CLASS,
    Var,
    normalize_ontology,
)
from metaql.errors import CyclicTBox
from metaql.oracle import _check_acyclic, tbox_closure

NS = "http://test.example/o#"
CLASSES = [Entity(f"{NS}C{i}") for i in range(8)]
PROPS = [Entity(f"{NS}p{i}") for i in range(4)]
INDS = [Entity(f"{NS}a{i}") for i in range(10)]


def _basic(rng: random.Random):
    roll = rng.random()
    if roll < 0.6:
        return Atomic(rng.choice(CLASSES))
    return Some(PropExpr(rng.choice(PROPS), inverse=roll >= 0.8), TOP_CLASS)


def _rhs(rng: random.Random):
    roll = rng.random()
    if roll < 0.5:
        return Atomic(rng.choice(CLASSES))
    filler = rng.choice(CLASSES) if rng.random() < 0.6 else TOP_CLASS
    return Some(PropExpr(rng.choice(PROPS), inverse=roll >= 0.75), filler)


def _symbol(rng: random.Random):
    # Punning: any vocabulary name can stand in an individual position.
    pool = INDS + CLASSES + PROPS
    return pool[rng.randrange(len(pool))] if rng.random() < 0.35 else rng.choice(INDS)


def random_ontology(rng: random.Random, max_tbox: int = 12, max_abox: int = 30) -> Ontology:
    """A normalized, existentially acyclic random ontology."""
    while True:
        tbox = set()
        for _ in range(rng.randint(0, max_tbox)):
            kind = rng.choice(("ci", "ci", "ci", "pi", "pi", "cd", "pd", "refl", "irrefl"))
            if kind == "ci":
                tbox.add(ClassInclusion(_basic(rng), _rhs(rng)))
            elif kind == "pi":
                tbox.add(
                    PropInclusion(
                        PropExpr(rng.choice(PROPS)),
                        PropExpr(rng.choice(PROPS), inverse=rng.random() < 0.3),
                    )
                )
            elif kind == "cd":
                tbox.add(ClassDisjoint(_basic(rng), _basic(rng)))
            elif kind == "pd":
                tbox.add(
                    PropDisjoint(
                        PropExpr(rng.choice(PROPS)),
                        PropExpr(rng.choice(PROPS), inverse=rng.random() < 0.3),
                    )
                )
            elif kind == "refl":
                tbox.add(Reflexive(rng.choice(PROPS)))
            else:
                tbox.add(Irreflexive(rng.choice(PROPS)))

        abox = set()
        for _ in range(rng.randint(0, max_abox)):
            kind = rng.choice(("instc", "instc", "instr", "instr", "diff"))
            if kind == "instc":
                abox.add(ClassAssertion(rng.choice(CLASSES), _symbol(rng)))
            elif kind == "instr":
                abox.add(PropAssertion(rng.choice(PROPS), _symbol(rng), _symbol(rng)))
            else:
                abox.add(DifferentIndividuals(rng.choice(INDS), rng.choice(INDS)))

        o = normalize_ontology(Ontology(frozenset(tbox), frozenset(abox), {}))
        try:
            _check_acyclic(o, tbox_closure(o))
        except CyclicTBox:
            continue
        return o


QUERY_PREDS = (
    ("instc", 2),
    ("instc", 2),
    ("instr", 3),
    ("isacCC", 2),
    ("isarRR", 2),
    ("disjcCC", 2),
    ("disjrRR", 2),
    ("diff", 2),
)


def random_query(rng: random.Random, o: Ontology, max_atoms: int = 3) -> ConjunctiveQuery:
    """A safe conjunctive query over the queryable predicates; variables
    are shared across atoms to force joins and may sit in class or
    property positions."""
    var_pool = [Var(f"v{i}") for i in range(3)]
    symbols = sorted({e.iri for ax in o.axioms for e in _axiom_entities(ax)})

    def term(rng):
        if rng.random() < 0.55:
            return rng.choice(var_pool)
        if symbols and rng.random() < 0.9:
            return Entity(rng.choice(symbols))
        return rng.choice(CLASSES)

    while True:
        body = []
        for _ in range(rng.randint(1, max_atoms)):
            pred, arity = rng.choice(QUERY_PREDS)
            body.append(Atom(pred, tuple(term(rng) for _ in range(arity))))
        body_vars = sorted({t.name for a in body for t in a.args if isinstance(t, Var)})
        if not body_vars:
            continue
        k = rng.randint(1, len(body_vars))
        answer_vars = tuple(Var(v) for v in rng.sample(body_vars, k))
        return ConjunctiveQuery(answer_vars, tuple(body))


def _axiom_entities(ax):
    if isinstance(ax, ClassInclusion):
        return _expr_entities(ax.sub) + _expr_entities(ax.sup)
    if isinstance(ax, PropInclusion):
        return [ax.sub.prop, ax.sup.prop]
    if isinstance(ax, ClassDisjoint):
        return _expr_entities(ax.left) + _expr_entities(ax.right)
    if isinstance(ax, PropDisjoint):
        return [ax.left.prop, ax.right.prop]
    if isinstance(ax, (Reflexive, Irreflexive)):
        return [ax.prop]
    if isinstance(ax, ClassAssertion):
        return [ax.cls, ax.individual]
    if isinstance(ax, PropAssertion):
        return [ax.prop, ax.subject, ax.object]
    if isinstance(ax, DifferentIndividuals):
        return [ax.a, ax.b]
    return []


def _expr_entities(ce):
    if isinstance(ce, Atomic):
        return [ce.cls]
    return [ce.prop.prop, ce.filler]


# ------------------------------------------------------------------------------
# Random positive Datalog programs (for the naive/semi-naive differential)
# ------------------------------------------------------------------------------

PROG_CONSTS = [Entity(f"{NS}k{i}") for i in range(6)]


def random_program(rng: random.Random, max_rules: int = 8, max_facts: int = 25):
    """(facts, rules) over predicates q0..q4 of arity 1..3, the facts as
    (predicate, IRI tuple) pairs; rules are safe by construction."""
    preds = [(f"q{i}", rng.randint(1, 3)) for i in range(5)]
    facts = []
    for _ in range(rng.randint(1, max_facts)):
        pred, arity = rng.choice(preds)
        facts.append((pred, tuple(rng.choice(PROG_CONSTS).iri for _ in range(arity))))

    var_pool = [Var(f"X{i}") for i in range(4)]
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        body = []
        for _ in range(rng.randint(1, 3)):
            pred, arity = rng.choice(preds)
            body.append(
                Atom(
                    pred,
                    tuple(
                        rng.choice(var_pool) if rng.random() < 0.7 else rng.choice(PROG_CONSTS)
                        for _ in range(arity)
                    ),
                )
            )
        body_vars = sorted({t.name for a in body for t in a.args if isinstance(t, Var)})
        head_pred, head_arity = rng.choice(preds)
        head_args = tuple(
            Var(rng.choice(body_vars)) if body_vars and rng.random() < 0.8 else rng.choice(PROG_CONSTS)
            for _ in range(head_arity)
        )
        rules.append(Rule(Atom(head_pred, head_args), tuple(body)))
    return facts, rules
