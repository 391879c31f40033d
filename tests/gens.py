"""Random instance generators shared by the differential test suites.

Ontologies are small (bounded classes/properties/individuals) and
existentially acyclic by rejection sampling; punning is generated on
purpose: class names show up in individual positions and vice versa.
"""

from __future__ import annotations

import random

from metaql import (
    Atom,
    ClassDisjoint,
    ClassInclusion,
    ConjunctiveQuery,
    Entity,
    Ontology,
    PropDisjoint,
    PropInclusion,
    Rule,
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


# Sides of facts (see `metaql.model`), drawn in a fixed order so that a
# seed makes the same ontology.
def _basic(rng: random.Random):
    roll = rng.random()
    if roll < 0.6:
        return "C", rng.choice(CLASSES).iri
    return ("I" if roll >= 0.8 else "R"), rng.choice(PROPS).iri, TOP_CLASS.iri


def _rhs(rng: random.Random):
    roll = rng.random()
    if roll < 0.5:
        return "C", rng.choice(CLASSES).iri
    filler = rng.choice(CLASSES) if rng.random() < 0.6 else TOP_CLASS
    return ("I" if roll >= 0.75 else "R"), rng.choice(PROPS).iri, filler.iri


def _prop_pair(rng: random.Random):
    """A property and, with probability 0.3 inverted, another."""
    left, right = rng.choice(PROPS).iri, rng.choice(PROPS).iri
    return ("R", left), ("I" if rng.random() < 0.3 else "R", right)


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
                tbox.add(PropInclusion(*_prop_pair(rng)))
            elif kind == "cd":
                tbox.add(ClassDisjoint(_basic(rng), _basic(rng)))
            elif kind == "pd":
                tbox.add(PropDisjoint(*_prop_pair(rng)))
            else:
                tbox.add((kind, (rng.choice(PROPS).iri,)))

        abox = set()
        for _ in range(rng.randint(0, max_abox)):
            kind = rng.choice(("instc", "instc", "instr", "instr", "diff"))
            if kind == "instc":
                abox.add(("instc", (rng.choice(CLASSES).iri, _symbol(rng).iri)))
            elif kind == "instr":
                abox.add(("instr", (rng.choice(PROPS).iri, _symbol(rng).iri, _symbol(rng).iri)))
            else:
                abox.add(("diff", (rng.choice(INDS).iri, rng.choice(INDS).iri)))

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
    symbols = sorted({iri for ax in o.axioms for iri in _axiom_symbols(ax)})

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


def _axiom_symbols(ax) -> list[str]:
    """The IRIs of an axiom's entities: its fact's arguments, and the top
    class, the filler of a basic existential, when one side is one."""
    pred, args = ax
    # The kind letters of the sides that are basic concepts.
    basic = pred[4] if pred.startswith("isac") else pred[5:] if pred.startswith("disjc") else ""
    return [*args, TOP_CLASS.iri] if {"R", "I"} & set(basic) else list(args)


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
