"""Axiom-to-fact translation.

Every axiom maps to exactly one ground fact over the fixed
signature.  Inclusion predicates are keyed on the shapes of the two
sides: C for a named class, R for a domain-side existential, I for a
range-side one; qualified right-hand existentials carry their filler as
the last argument, with the unqualified case represented by a top-class
filler.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .model import (
    Atom,
    Atomic,
    Axiom,
    ClassAssertion,
    ClassDisjoint,
    ClassInclusion,
    DifferentIndividuals,
    Irreflexive,
    PropAssertion,
    PropDisjoint,
    PropInclusion,
    Reflexive,
    basic_kind,
)
from .owl import Ontology


def tau(ax: Axiom) -> Atom:
    """Translate one axiom to its fact, whose arguments are the axiom's own
    entities.  The constructors in `model` store every axiom in the
    orientation its predicate needs."""
    if isinstance(ax, ClassInclusion):
        lk, lname = basic_kind(ax.sub)
        sup = ax.sup
        if isinstance(sup, Atomic):
            return Atom(f"isac{lk}C", (lname, sup.cls))
        rk = "I" if sup.prop.inverse else "R"
        return Atom(f"isac{lk}{rk}", (lname, sup.prop.prop, sup.filler))

    if isinstance(ax, PropInclusion):
        pred = "isarRI" if ax.sup.inverse else "isarRR"
        return Atom(pred, (ax.sub.prop, ax.sup.prop))

    if isinstance(ax, ClassDisjoint):
        lk, lname = basic_kind(ax.left)
        rk, rname = basic_kind(ax.right)
        return Atom(f"disjc{lk}{rk}", (lname, rname))

    if isinstance(ax, PropDisjoint):
        pred = "disjrRI" if ax.right.inverse else "disjrRR"
        return Atom(pred, (ax.left.prop, ax.right.prop))

    if isinstance(ax, Reflexive):
        return Atom("refl", (ax.prop,))
    if isinstance(ax, Irreflexive):
        return Atom("irrefl", (ax.prop,))

    if isinstance(ax, ClassAssertion):
        return Atom("instc", (ax.cls, ax.individual))
    if isinstance(ax, PropAssertion):
        return Atom("instr", (ax.prop, ax.subject, ax.object))
    if isinstance(ax, DifferentIndividuals):
        return Atom("diff", (ax.a, ax.b))

    raise TypeError(f"unknown axiom {ax!r}")


# ==============================================================================
# Whole-ontology translation
# ==============================================================================


def _sort_key(a: Atom):
    return (a.pred, tuple(t.iri for t in a.args))  # type: ignore[union-attr]


@dataclass(frozen=True)
class FactBase:
    """Translated ontology: one ground fact per axiom."""

    facts: frozenset[Atom]

    def sorted_facts(self) -> list[Atom]:
        return sorted(self.facts, key=_sort_key)

    def to_dl(self) -> str:
        return "".join(f"{a.to_dl()}.\n" for a in self.sorted_facts())

    def __len__(self) -> int:
        return len(self.facts)


def translate_ontology(o: Ontology) -> FactBase:
    """Translate every axiom of a normalized ontology; one fact per axiom."""
    return FactBase(frozenset(map(tau, chain(o.tbox, o.abox))))
