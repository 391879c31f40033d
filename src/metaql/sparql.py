"""Conjunctive SPARQL SELECT queries and their Datalog translation.

Only basic graph patterns are supported: PREFIX declarations followed by
a single SELECT with a projection list (or ``*``) and a WHERE block of
dot-separated triple patterns.  Variables may appear in any position,
including class and property positions; that freedom is the whole point.
OPTIONAL, FILTER, UNION, property paths, blank nodes, literals,
predicate-object and object lists (`;` and `,`), schema predicates other
than those of `_RESERVED`, and schema classes other than owl:Thing and
owl:Nothing as the object of rdf:type are rejected as unsupported rather
than silently mistranslated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import UnsupportedFeature
from .model import (
    Atom,
    ConjunctiveQuery,
    Entity,
    OWL_NS,
    RDF_NS,
    RDFS_NS,
    Term,
    Var,
    display_iri,
    intern,
)
from .owl import DEFAULT_PREFIXES, Cursor, Tok, check_dots

RDF_TYPE = RDF_NS + "type"
_SCHEMA_NS = (RDF_NS, RDFS_NS, OWL_NS)
# The schema classes a query may ask for members of.
_SCHEMA_CLASSES = {OWL_NS + "Thing", OWL_NS + "Nothing"}

# Schema IRIs with a fixed predicate, and whether the atom takes the
# object before the subject; matching is case-insensitive on the full IRI
# (the literature itself mixes rdfs:SubClassOf and rdfs:subClassOf).
_RESERVED = {
    RDF_TYPE.lower(): ("instc", True),
    (RDFS_NS + "subClassOf").lower(): ("isacCC", False),
    (RDFS_NS + "subPropertyOf").lower(): ("isarRR", False),
    (OWL_NS + "disjointWith").lower(): ("disjcCC", False),
    (OWL_NS + "propertyDisjointWith").lower(): ("disjrRR", False),
    (OWL_NS + "differentFrom").lower(): ("diff", False),
}


@dataclass(frozen=True, slots=True)
class TriplePattern:
    s: Term
    p: Term
    o: Term


@dataclass(frozen=True)
class SparqlQuery:
    answer_vars: tuple[Var, ...]
    patterns: tuple[TriplePattern, ...]


# A name may hold a `.` but neither starts nor ends with one, nor has one
# next to its `:` (SPARQL's PN_PREFIX and PN_LOCAL; see `owl.check_dots`).
_Q_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<iriref><[^<>\s]*>)
      | (?P<var>[?$][A-Za-z_][A-Za-z0-9_]*)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<lbrace>\{)
      | (?P<rbrace>\})
      | (?P<dot>\.)
      | (?P<punct>[()\[\];,/|^+*!=<>-])
      | (?P<name>[^\s{}()\[\];,?$"<>#/|^*+=!]+(?<!\.))
    """,
    re.VERBOSE,
)

_UNSUPPORTED_KEYWORDS = {
    "OPTIONAL": "OPTIONAL",
    "FILTER": "FILTER",
    "UNION": "UNION",
    "MINUS": "MINUS",
    "BIND": "BIND",
    "VALUES": "VALUES",
    "GRAPH": "named graphs",
    "SERVICE": "SERVICE",
    "ASK": "ASK queries",
    "CONSTRUCT": "CONSTRUCT queries",
    "DESCRIBE": "DESCRIBE queries",
    "ORDER": "solution modifiers",
    "GROUP": "solution modifiers",
    "LIMIT": "solution modifiers",
    "OFFSET": "solution modifiers",
    "HAVING": "solution modifiers",
}


# The abbreviations that share a subject, or a subject and predicate,
# between triple patterns.
_LISTS = {";": "predicate-object lists (';')", ",": "object lists (',')"}


def _keyword(tok: Tok | None) -> str | None:
    """The upper-cased text of a name token; SPARQL keywords ignore case."""
    return tok[1].upper() if tok is not None and tok[0] == "name" else None


def _check_unsupported(tok: Tok):
    kind, text, _ = tok
    feature = _UNSUPPORTED_KEYWORDS.get(_keyword(tok))
    if feature:
        raise UnsupportedFeature(feature)
    if kind == "string":
        raise UnsupportedFeature("literals")
    if kind == "punct":
        if text.startswith("["):
            raise UnsupportedFeature("blank nodes")
        if text in _LISTS:
            raise UnsupportedFeature(_LISTS[text])
        raise UnsupportedFeature(f"punctuation {text!r} (property paths / expressions)")
    if kind == "name" and text.startswith("_:"):
        raise UnsupportedFeature("blank nodes")


def _term(cur: Cursor, prefixes, position: str) -> Term:
    tok = cur.next()
    _check_unsupported(tok)
    kind, text, _ = tok
    if kind == "lbrace":
        raise UnsupportedFeature("grouped graph patterns")
    if kind == "var":
        return Var(text[1:])
    if kind == "iriref":
        return intern(text, prefixes)
    if kind == "name":
        if text == "a":
            if position != "predicate":
                raise cur.error("'a' is only valid in predicate position", tok)
            return intern("<" + RDF_TYPE + ">", prefixes)
        check_dots(cur, tok)
        return intern(text, prefixes)
    raise cur.error(f"expected a term, found {text!r}", tok)


def parse_query(text: str) -> SparqlQuery:
    cur = Cursor(_Q_TOKEN_RE, text, "query")

    prefixes = dict(DEFAULT_PREFIXES)
    while _keyword(cur.peek()) == "PREFIX":
        cur.next()
        name = cur.next()
        if name[0] != "name" or not name[1].endswith(":"):
            raise cur.error("expected prefix name ending in ':'", name)
        check_dots(cur, name)
        iri = cur.expect("iriref", "expected <iri> after prefix name")
        prefixes[name[1][:-1]] = iri[1][1:-1]

    t = cur.next()
    _check_unsupported(t)
    if _keyword(t) != "SELECT":
        raise cur.error(f"expected SELECT, found {t[1]!r}", t)

    projection: list[Var] = []
    if _keyword(cur.peek()) == "DISTINCT":
        cur.next()  # answers are sets anyway
    # SPARQL's projection is `Var+ | '*'`.
    star = cur.at("punct", "*")
    if star:
        cur.next()
    else:
        while cur.at("var"):
            projection.append(Var(cur.next()[1][1:]))
        if not projection:
            raise cur.error("projection must list variables or *", cur.peek() or 0)
    if cur.at("punct", "*"):
        raise cur.error("'*' must be the whole projection", cur.next())

    t = cur.next()
    _check_unsupported(t)
    if _keyword(t) != "WHERE":
        raise cur.error(f"expected WHERE, found {t[1]!r}", t)
    open_tok = cur.expect("lbrace", "expected '{' after WHERE")

    patterns: list[TriplePattern] = []
    while not cur.at("rbrace"):
        if cur.peek() is None:
            raise cur.error("unterminated WHERE block", open_tok)
        s = _term(cur, prefixes, "subject")
        p = _term(cur, prefixes, "predicate")
        o = _term(cur, prefixes, "object")
        patterns.append(TriplePattern(s, p, o))
        t = cur.peek()
        if t is not None and t[0] == "dot":
            cur.next()
        elif t is not None and t[0] != "rbrace":
            _check_unsupported(t)
            raise cur.error(f"expected '.' or '}}' after a triple pattern, found {t[1]!r}", t)
    cur.next()

    trailing = cur.peek()
    if trailing is not None:
        _check_unsupported(trailing)
        raise cur.error(f"unexpected input after WHERE block: {trailing[1]!r}", trailing)
    if not patterns:
        raise cur.error("WHERE block must contain at least one triple pattern", open_tok)

    if star:  # every variable, in the order of its first occurrence
        projection = list(dict.fromkeys(t for tp in patterns for t in (tp.s, tp.p, tp.o) if isinstance(t, Var)))
    return SparqlQuery(tuple(projection), tuple(patterns))


# ==============================================================================
# Translation to Datalog
# ==============================================================================


def _pattern_atom(tp: TriplePattern) -> Atom:
    s, p, o = tp.s, tp.p, tp.o
    if isinstance(p, Entity):
        mapped = _RESERVED.get(p.iri.lower())
        if mapped is not None:
            pred, swap = mapped
            # A schema class, such as owl:Class, has no members in the model.
            if swap and isinstance(o, Entity):
                iri = display_iri(o.iri)
                if iri.startswith(_SCHEMA_NS) and iri not in _SCHEMA_CLASSES:
                    raise UnsupportedFeature(f"schema class {iri} as an rdf:type object")
            return Atom(pred, (o, s) if swap else (s, o))
        # Other schema vocabulary gets rejected rather than guessed at.
        if p.iri.startswith(_SCHEMA_NS):
            raise UnsupportedFeature(f"schema predicate {p.iri}")
    return Atom("instr", (p, s, o))


def to_conjunctive_query(q: SparqlQuery) -> ConjunctiveQuery:
    """The query as one body atom per triple pattern; raises UnsafeQuery
    for an answer variable that does not occur in the body.  No variable
    typing restriction applies: the same variable may stand in
    individual, class and property positions at once."""
    return ConjunctiveQuery(tuple(q.answer_vars), tuple(_pattern_atom(tp) for tp in q.patterns))
