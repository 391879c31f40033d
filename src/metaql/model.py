"""Shared abstract syntax.

Entities and class/property expressions mirror the restricted ontology
language; terms, atoms, rules and conjunctive queries mirror the Datalog
side.  All values are immutable after construction and safe to share
across threads.  An axiom is the one fact it translates to: each axiom
constructor returns the fact of the axiom's normal form, the one shape
with a predicate in `SIGNATURE`, so an axiom written either way is one
value and no other module orients axioms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import ArityMismatch, InvalidIri, UnknownPrefix, UnsafeQuery, UnsafeRule

# ==============================================================================
# Entities
# ==============================================================================

OWL_NS = "http://www.w3.org/2002/07/owl#"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

# Reserved top/bottom names live in a tool namespace; input files spell them
# owl:Thing etc. and intern() maps those spellings onto the reserved entities.
_RESERVED_NS = "urn:metaql:"

# Characters SPARQL 1.1's IRIREF excludes, plus every Unicode whitespace
# character: none of them can be carried by a quoted fact argument.
_find_bad_iri_char = re.compile(r'[\s\x00-\x20<>"{}|^`\\]').search


@dataclass(frozen=True, slots=True)
class Entity:
    """An IRI-denoted name; under punning one entity may act as class,
    property and individual at the same time."""

    iri: str

    def __post_init__(self):
        if not self.iri or _find_bad_iri_char(self.iri):
            raise InvalidIri(f"bad entity IRI {self.iri!r}")

    def __hash__(self) -> int:
        # The IRI's own hash: the generated one would build a 1-tuple per call.
        return hash(self.iri)

    def __str__(self) -> str:
        return self.iri


TOP_CLASS = Entity(_RESERVED_NS + "topClass")
BOTTOM_CLASS = Entity(_RESERVED_NS + "botClass")
TOP_PROPERTY = Entity(_RESERVED_NS + "topProperty")
BOTTOM_PROPERTY = Entity(_RESERVED_NS + "botProperty")

OWL_TO_RESERVED = {
    OWL_NS + "Thing": TOP_CLASS,
    OWL_NS + "Nothing": BOTTOM_CLASS,
    OWL_NS + "topObjectProperty": TOP_PROPERTY,
    OWL_NS + "bottomObjectProperty": BOTTOM_PROPERTY,
}
RESERVED_TO_OWL = {e.iri: iri for iri, e in OWL_TO_RESERVED.items()}


def intern(name: str, prefixes: dict[str, str]) -> Entity:
    """Resolve a token to an Entity with a fully expanded IRI.

    Accepts ``<full-iri>`` or ``prefix:local`` (the empty prefix is
    spelled ``:local``).  Idempotent: interning the same token twice
    yields equal entities.
    """
    if name.startswith("<") and name.endswith(">"):
        iri = name[1:-1]
    else:
        prefix, sep, local = name.partition(":")
        if not sep:
            raise UnknownPrefix(name)
        if prefix not in prefixes:
            raise UnknownPrefix(prefix)
        iri = prefixes[prefix] + local
    reserved = OWL_TO_RESERVED.get(iri)
    return reserved if reserved is not None else Entity(iri)


def display_iri(iri: str) -> str:
    """Spell reserved entities with their OWL names for output."""
    return RESERVED_TO_OWL.get(iri, iri)


# ==============================================================================
# Class and property expressions
# ==============================================================================


@dataclass(frozen=True, slots=True)
class PropExpr:
    """An object property or its inverse.  Double inverses cannot be
    represented; parsers fold them away by flipping the flag."""

    prop: Entity
    inverse: bool = False

    def flipped(self) -> "PropExpr":
        return PropExpr(self.prop, not self.inverse)

    def __str__(self) -> str:
        return f"{self.prop}^-" if self.inverse else str(self.prop)


@dataclass(frozen=True, slots=True)
class Some:
    """Existential restriction with an atomic filler.  ``filler == TOP_CLASS``
    plays the role of the unqualified domain/range concept."""

    prop: PropExpr
    filler: Entity

    def __str__(self) -> str:
        return f"some({self.prop}, {self.filler})"


# A named class is its `Entity`: the fragment's only other class
# expression is `Some`, so no wrapper is needed to tell the two apart.
ClassExpr = Union[Entity, Some]


def is_basic(ce: ClassExpr) -> bool:
    """Basic concepts: a named class, or an unqualified existential."""
    return isinstance(ce, Entity) or ce.filler == TOP_CLASS


def basic_kind(ce: ClassExpr) -> tuple[str, Entity]:
    """Kind letter and carrier entity of a class expression: C and the
    class for a named class, R or I and the property for a domain-side or
    range-side existential (a qualified one's filler is left out)."""
    if isinstance(ce, Entity):
        return "C", ce
    return ("I", ce.prop.prop) if ce.prop.inverse else ("R", ce.prop.prop)


# ==============================================================================
# Axioms
# ==============================================================================

# An axiom is its fact: the pair of a predicate of `SIGNATURE` and the IRIs
# of the axiom's entities, as the store holds it.  Each constructor below
# takes the entities and expressions of one axiom form, written either
# way, and returns the fact of its normal form, so equal axioms are equal
# facts.  Inclusion and disjointness predicates are keyed on the shapes of
# their sides: C for a named class, R for a domain-side existential, I for
# a range-side one; a qualified right-hand existential carries its filler
# as the last argument, the unqualified one the top class.
Fact = tuple[str, tuple[str, ...]]


def ClassInclusion(sub: ClassExpr, sup: ClassExpr) -> Fact:
    if not is_basic(sub):
        raise ValueError(f"inclusion left side must be basic: {sub}")
    lk, lname = basic_kind(sub)
    rk, rname = basic_kind(sup)
    if rk == "C":
        return f"isac{lk}C", (lname.iri, rname.iri)
    return f"isac{lk}{rk}", (lname.iri, rname.iri, sup.filler.iri)


def PropInclusion(sub: PropExpr, sup: PropExpr) -> Fact:
    # r^- <= s is stored as r <= s^-.
    inverse = sup.inverse != sub.inverse
    return ("isarRI" if inverse else "isarRR"), (sub.prop.iri, sup.prop.iri)


def ClassDisjoint(left: ClassExpr, right: ClassExpr) -> Fact:
    # Two basic concepts with an empty intersection.  The signature has no
    # disjcCR, so disjointness of a class and a domain-side existential is
    # stored with the existential on the left.
    if not (is_basic(left) and is_basic(right)):
        raise ValueError("disjointness operands must be basic concepts")
    (lk, lname), (rk, rname) = basic_kind(left), basic_kind(right)
    if f"disjc{lk}{rk}" not in SIGNATURE:
        (lk, lname), (rk, rname) = (rk, rname), (lk, lname)
    return f"disjc{lk}{rk}", (lname.iri, rname.iri)


def PropDisjoint(left: PropExpr, right: PropExpr) -> Fact:
    # r^- disjoint with s is stored as r disjoint with s^-.
    inverse = right.inverse != left.inverse
    return ("disjrRI" if inverse else "disjrRR"), (left.prop.iri, right.prop.iri)


def Reflexive(prop: Entity) -> Fact:
    return "refl", (prop.iri,)


def Irreflexive(prop: Entity) -> Fact:
    return "irrefl", (prop.iri,)


def ClassAssertion(cls: Entity, individual: Entity) -> Fact:
    return "instc", (cls.iri, individual.iri)


def PropAssertion(prop: Entity, subject: Entity, object: Entity) -> Fact:
    return "instr", (prop.iri, subject.iri, object.iri)


def DifferentIndividuals(a: Entity, b: Entity) -> Fact:
    return "diff", (a.iri, b.iri)


# The predicates of assertions; every other axiom belongs to the TBox.
ABOX_PREDICATES = frozenset({"instc", "instr", "diff"})


# ==============================================================================
# The fixed Datalog signature
# ==============================================================================

# Predicate name -> arity.  isac*/isar* encode positive inclusions, disj*
# negative ones, instc/instr/diff the assertions.
SIGNATURE: dict[str, int] = {
    "isacCC": 2,
    "isacCI": 3,
    "isacRR": 3,
    "isacIC": 2,
    "isacIR": 3,
    "isacII": 3,
    "isarRR": 2,
    "isarRI": 2,
    "isacCR": 3,
    "isacRC": 2,
    "isacRI": 3,
    "refl": 1,
    "disjrRR": 2,
    "disjcCC": 2,
    "disjcCI": 2,
    "disjcRC": 2,
    "disjcRR": 2,
    "disjcRI": 2,
    "disjcIC": 2,
    "disjcIR": 2,
    "disjcII": 2,
    "disjrRI": 2,
    "irrefl": 1,
    "instc": 2,
    "instr": 3,
    "diff": 2,
}

# Auxiliary predicates used by the rule base but never produced by the
# axiom translation.
AUX_ARITY = {"named": 1, "violation": 0}

KNOWN_ARITY = {**SIGNATURE, **AUX_ARITY}


# ==============================================================================
# Terms, atoms, rules, queries
# ==============================================================================


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


# An entity is a constant term of a rule or query.  Facts are no atoms:
# each is a (predicate, IRI tuple) pair, as the store holds it.
Term = Union[Entity, Var]
_quoted = '"{}"'.format


def facts_to_dl(facts: Iterable[Fact]) -> str:
    """One `pred("iri", ...).` line per fact, sorted by predicate and then
    IRIs: byte-identical for equal sets of facts."""
    return "".join(f"{pred}({', '.join(map(_quoted, iris))}).\n" for pred, iris in sorted(facts))


@dataclass(frozen=True, slots=True)
class Atom:
    pred: str
    args: tuple[Term, ...]

    def __post_init__(self):
        expected = KNOWN_ARITY.get(self.pred)
        if expected is not None and expected != len(self.args):
            raise ArityMismatch(
                f"{self.pred} expects {expected} argument(s), got {len(self.args)}"
            )

    def variables(self) -> set[Var]:
        return {t for t in self.args if isinstance(t, Var)}

    def to_dl(self) -> str:
        args = ", ".join(f'"{t.iri}"' if isinstance(t, Entity) else t.name for t in self.args)
        return f"{self.pred}({args})"

    def __str__(self) -> str:
        return self.to_dl()


def atom(pred: str, *args) -> Atom:
    """Build an Atom, reading strings as variables."""
    return Atom(pred, tuple(Var(a) if isinstance(a, str) else a for a in args))


@dataclass(frozen=True, slots=True)
class Rule:
    head: Atom
    body: tuple[Atom, ...] = ()

    def __post_init__(self):
        body_vars = set().union(*(a.variables() for a in self.body)) if self.body else set()
        missing = self.head.variables() - body_vars
        if missing:
            raise UnsafeRule(f"unsafe rule, {sorted(v.name for v in missing)} not in body: {self}")

    def to_dl(self) -> str:
        if not self.body:
            return f"{self.head.to_dl()}."
        return f"{self.head.to_dl()} :- {', '.join(a.to_dl() for a in self.body)}."

    def __str__(self) -> str:
        return self.to_dl()


@dataclass(frozen=True, slots=True)
class ConjunctiveQuery:
    """Datalog-level conjunctive query: distinguished variables plus a
    non-empty conjunction of body atoms."""

    answer_vars: tuple[Var, ...]
    body: tuple[Atom, ...]

    def __post_init__(self):
        if not self.body:
            raise UnsafeQuery("query body must be non-empty")
        body_vars = set().union(*(a.variables() for a in self.body))
        missing = set(self.answer_vars) - body_vars
        if missing:
            raise UnsafeQuery(
                f"answer variable(s) {sorted(v.name for v in missing)} do not occur in the body"
            )


def alpha_equivalent(r1: Rule, r2: Rule) -> bool:
    """Rule equality up to a consistent renaming of variables."""

    def canon(rule: Rule):
        mapping: dict[str, str] = {}
        out = []
        for a in (rule.head, *rule.body):
            args = []
            for t in a.args:
                if isinstance(t, Var):
                    args.append(mapping.setdefault(t.name, f"V{len(mapping)}"))
                else:
                    args.append(t)
            out.append((a.pred, tuple(args)))
        return out

    return canon(r1) == canon(r2)
