"""Axiom-to-fact translation.

Every axiom maps to exactly one ground fact over the fixed signature,
a (predicate, IRI tuple) pair as the store holds it.  Inclusion
predicates are keyed on the shapes of the two sides: C for a named
class, R for a domain-side existential, I for a range-side one;
qualified right-hand existentials carry their filler as the last
argument, with the unqualified case represented by a top-class filler.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .model import (
    Axiom,
    ClassAssertion,
    ClassDisjoint,
    ClassInclusion,
    DifferentIndividuals,
    Fact,
    Irreflexive,
    PropAssertion,
    PropDisjoint,
    PropInclusion,
    Reflexive,
    basic_kind,
    facts_to_dl,
)
from .owl import Ontology


def tau(ax: Axiom) -> Fact:
    """Translate one axiom to its fact, the pair of a predicate and the
    IRIs of the axiom's entities.  The constructors in `model` store every
    axiom in the orientation its predicate needs."""
    if isinstance(ax, ClassInclusion):
        lk, lname = basic_kind(ax.sub)
        rk, rname = basic_kind(ax.sup)
        if rk == "C":
            return f"isac{lk}C", (lname.iri, rname.iri)
        return f"isac{lk}{rk}", (lname.iri, rname.iri, ax.sup.filler.iri)

    if isinstance(ax, PropInclusion):
        pred = "isarRI" if ax.sup.inverse else "isarRR"
        return pred, (ax.sub.prop.iri, ax.sup.prop.iri)

    if isinstance(ax, ClassDisjoint):
        lk, lname = basic_kind(ax.left)
        rk, rname = basic_kind(ax.right)
        return f"disjc{lk}{rk}", (lname.iri, rname.iri)

    if isinstance(ax, PropDisjoint):
        pred = "disjrRI" if ax.right.inverse else "disjrRR"
        return pred, (ax.left.prop.iri, ax.right.prop.iri)

    if isinstance(ax, Reflexive):
        return "refl", (ax.prop.iri,)
    if isinstance(ax, Irreflexive):
        return "irrefl", (ax.prop.iri,)

    if isinstance(ax, ClassAssertion):
        return "instc", (ax.cls.iri, ax.individual.iri)
    if isinstance(ax, PropAssertion):
        return "instr", (ax.prop.iri, ax.subject.iri, ax.object.iri)
    if isinstance(ax, DifferentIndividuals):
        return "diff", (ax.a.iri, ax.b.iri)

    raise TypeError(f"unknown axiom {ax!r}")


# ==============================================================================
# Whole-ontology translation
# ==============================================================================


@dataclass(frozen=True)
class FactBase:
    """Translated ontology: one (predicate, IRI tuple) fact per axiom."""

    facts: frozenset[Fact]

    def to_dl(self) -> str:
        return facts_to_dl(self.facts)

    def __len__(self) -> int:
        return len(self.facts)


def translate_ontology(o: Ontology) -> FactBase:
    """Translate every axiom of a normalized ontology; one fact per axiom."""
    return FactBase(frozenset(map(tau, chain(o.tbox, o.abox))))
