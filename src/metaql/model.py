"""Shared abstract syntax.

Entities name the classes, properties and individuals of the restricted
ontology language; terms, atoms, rules and conjunctive queries mirror the
Datalog side.  All values are immutable after construction and safe to
share across threads.  An axiom is the one fact it translates to, and an
operand of an axiom is its side of that fact: a kind letter and IRIs.
The four constructors that decide a normal form (the inclusions and the
disjointness axioms) take sides and return the fact of that normal form,
the one shape with a predicate in `SIGNATURE`, so an axiom written either
way is one value and no other module orients axioms.
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
# Axioms
# ==============================================================================

# An axiom is its fact: the pair of a predicate of `SIGNATURE` and the IRIs
# of the axiom's entities, as the store holds it.  Inclusion and
# disjointness predicates are keyed on the kind letters of their sides, and
# a side is a tuple of its kind letter and its IRIs:
#
#   ("C", class)                a named class
#   ("R" | "I", prop)           a property expression, `prop` or its inverse
#   ("R" | "I", prop, filler)   an existential on the domain (R) or range (I)
#                               side of `prop`; unqualified, `filler` is the
#                               top class
#
# Each constructor below takes the sides of one axiom form, written either
# way, and returns the fact of its normal form, so equal axioms are equal
# facts.  A qualified right-hand existential carries its filler as the
# fact's last argument, the unqualified one the top class.  The other
# axioms name their predicate only, and are spelled as facts directly:
# ("refl", (p,)), ("irrefl", (p,)), ("instc", (class, a)),
# ("instr", (p, a, b)) and ("diff", (a, b)).
Fact = tuple[str, tuple[str, ...]]
Side = tuple[str, ...]


def is_basic(side: Side) -> bool:
    """Basic concepts: a named class, or an unqualified existential."""
    return side[0] == "C" or side[2] == TOP_CLASS.iri


def ClassInclusion(sub: Side, sup: Side) -> Fact:
    if not is_basic(sub):
        raise ValueError(f"inclusion left side must be basic: {sub}")
    return f"isac{sub[0]}{sup[0]}", (sub[1], *sup[1:])


def PropInclusion(sub: Side, sup: Side) -> Fact:
    # r^- <= s is stored as r <= s^-.
    return ("isarRR" if sub[0] == sup[0] else "isarRI"), (sub[1], sup[1])


def ClassDisjoint(left: Side, right: Side) -> Fact:
    # Two basic concepts with an empty intersection.  The signature has no
    # disjcCR, so disjointness of a class and a domain-side existential is
    # stored with the existential on the left.
    if not (is_basic(left) and is_basic(right)):
        raise ValueError("disjointness operands must be basic concepts")
    pred = f"disjc{left[0]}{right[0]}"
    if pred not in SIGNATURE:
        return f"disjc{right[0]}{left[0]}", (right[1], left[1])
    return pred, (left[1], right[1])


def PropDisjoint(left: Side, right: Side) -> Fact:
    # r^- disjoint with s is stored as r disjoint with s^-.
    return ("disjrRR" if left[0] == right[0] else "disjrRI"), (left[1], right[1])


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
