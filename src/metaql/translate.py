"""Axiom-to-fact translation.

Every normalized axiom maps to exactly one ground fact over the fixed
signature.  Inclusion predicates are keyed on the shapes of the two
sides: C for a named class, R for a domain-side existential, I for a
range-side one; qualified right-hand existentials carry their filler as
the last argument, with the unqualified case represented by a top-class
filler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import NonNormalizedAxiom
from .model import (
    Atom,
    Atomic,
    Axiom,
    ClassAssertion,
    ClassDisjoint,
    ClassExpr,
    ClassInclusion,
    Const,
    DifferentIndividuals,
    Entity,
    Irreflexive,
    PropAssertion,
    PropDisjoint,
    PropExpr,
    PropInclusion,
    Reflexive,
    Some,
    TOP_CLASS,
)
from .owl import Ontology


def _basic_kind(ce: ClassExpr) -> tuple[str, Entity]:
    """Kind letter and carrier entity of a basic concept."""
    if isinstance(ce, Atomic):
        return "C", ce.cls
    if ce.filler != TOP_CLASS:
        raise NonNormalizedAxiom(f"qualified existential on the left: {ce}")
    return ("I", ce.prop.prop) if ce.prop.inverse else ("R", ce.prop.prop)


def tau(ax: Axiom) -> Atom:
    """Translate one normalized axiom to its fact."""
    return _tau(ax, Const)


def _tau(ax: Axiom, const: Callable[[Entity], Const]) -> Atom:
    """`tau`, with every argument built by `const`."""
    if isinstance(ax, ClassInclusion):
        lk, lname = _basic_kind(ax.sub)
        sup = ax.sup
        if isinstance(sup, Atomic):
            return Atom(f"isac{lk}C", (const(lname), const(sup.cls)))
        rk = "I" if sup.prop.inverse else "R"
        return Atom(f"isac{lk}{rk}", (const(lname), const(sup.prop.prop), const(sup.filler)))

    if isinstance(ax, PropInclusion):
        if ax.sub.inverse:
            raise NonNormalizedAxiom(f"inverse on the left of a property inclusion: {ax}")
        pred = "isarRI" if ax.sup.inverse else "isarRR"
        return Atom(pred, (const(ax.sub.prop), const(ax.sup.prop)))

    if isinstance(ax, ClassDisjoint):
        lk, lname = _basic_kind(ax.left)
        rk, rname = _basic_kind(ax.right)
        if (lk, rk) == ("C", "R"):
            # No CR form exists; normalize_ontology flips it to RC.
            raise NonNormalizedAxiom(f"class disjointness in CR orientation: {ax}")
        return Atom(f"disjc{lk}{rk}", (const(lname), const(rname)))

    if isinstance(ax, PropDisjoint):
        if ax.left.inverse:
            raise NonNormalizedAxiom(f"inverse on the left of a property disjointness: {ax}")
        pred = "disjrRI" if ax.right.inverse else "disjrRR"
        return Atom(pred, (const(ax.left.prop), const(ax.right.prop)))

    if isinstance(ax, Reflexive):
        return Atom("refl", (const(ax.prop),))
    if isinstance(ax, Irreflexive):
        return Atom("irrefl", (const(ax.prop),))

    if isinstance(ax, ClassAssertion):
        return Atom("instc", (const(ax.cls), const(ax.individual)))
    if isinstance(ax, PropAssertion):
        return Atom("instr", (const(ax.prop), const(ax.subject), const(ax.object)))
    if isinstance(ax, DifferentIndividuals):
        return Atom("diff", (const(ax.a), const(ax.b)))

    raise TypeError(f"unknown axiom {ax!r}")


# Inverse direction, used for the bijectivity check and for reading fact
# dumps back as axioms.

def _basic_of(kind: str, name: Entity) -> ClassExpr:
    if kind == "C":
        return Atomic(name)
    return Some(PropExpr(name, inverse=(kind == "I")), TOP_CLASS)


def axiom_of_fact(fact: Atom) -> Axiom:
    """Reconstruct the unique axiom a fact encodes."""
    args = [t.value for t in fact.args if isinstance(t, Const)]
    if len(args) != len(fact.args):
        raise ValueError(f"fact is not ground: {fact}")
    p = fact.pred

    if p.startswith("isac"):
        lk, rk = p[4], p[5]
        if rk == "C":
            return ClassInclusion(_basic_of(lk, args[0]), Atomic(args[1]))
        return ClassInclusion(
            _basic_of(lk, args[0]), Some(PropExpr(args[1], inverse=(rk == "I")), args[2])
        )
    if p == "isarRR":
        return PropInclusion(PropExpr(args[0]), PropExpr(args[1]))
    if p == "isarRI":
        return PropInclusion(PropExpr(args[0]), PropExpr(args[1], inverse=True))
    if p.startswith("disjc"):
        lk, rk = p[5], p[6]
        return ClassDisjoint(_basic_of(lk, args[0]), _basic_of(rk, args[1]))
    if p == "disjrRR":
        return PropDisjoint(PropExpr(args[0]), PropExpr(args[1]))
    if p == "disjrRI":
        return PropDisjoint(PropExpr(args[0]), PropExpr(args[1], inverse=True))
    if p == "refl":
        return Reflexive(args[0])
    if p == "irrefl":
        return Irreflexive(args[0])
    if p == "instc":
        return ClassAssertion(args[0], args[1])
    if p == "instr":
        return PropAssertion(args[0], args[1], args[2])
    if p == "diff":
        return DifferentIndividuals(args[0], args[1])
    raise ValueError(f"not a signature fact: {fact}")


# ==============================================================================
# Whole-ontology translation
# ==============================================================================


def _sort_key(a: Atom):
    return (a.pred, tuple(t.value.iri for t in a.args))  # type: ignore[union-attr]


@dataclass(frozen=True)
class FactBase:
    """Translated ontology, split into the terminological and assertional
    fact portions."""

    tbox_facts: frozenset[Atom]
    abox_facts: frozenset[Atom]

    @property
    def facts(self) -> frozenset[Atom]:
        return self.tbox_facts | self.abox_facts

    def sorted_facts(self) -> list[Atom]:
        return sorted(self.facts, key=_sort_key)

    def to_dl(self) -> str:
        return "".join(f"{a.to_dl()}.\n" for a in self.sorted_facts())

    def __len__(self) -> int:
        return len(self.tbox_facts) + len(self.abox_facts)


class _Consts(dict):
    """`Entity` to `Const` for one translation: each distinct entity gets
    one shared `Const`."""

    def __missing__(self, ent: Entity) -> Const:
        c = self[ent] = Const(ent)
        return c


def translate_ontology(o: Ontology) -> FactBase:
    """Translate every axiom of a normalized ontology; one fact per axiom."""
    const = _Consts().__getitem__
    tbox = frozenset(_tau(ax, const) for ax in o.tbox)
    abox = frozenset(_tau(ax, const) for ax in o.abox)
    return FactBase(tbox, abox)
