"""Conjunctive SPARQL SELECT queries and their Datalog translation.

Only basic graph patterns are supported: PREFIX declarations followed by
a single SELECT with a projection list (or ``*``) and a WHERE block of
dot-separated triple patterns.  Variables may appear in any position,
including class and property positions; that freedom is the whole point.
OPTIONAL, FILTER, UNION, property paths, blank nodes and literals are
rejected as unsupported rather than silently mistranslated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import UnsafeQuery, UnsupportedFeature
from .model import (
    Atom,
    ConjunctiveQuery,
    Const,
    Entity,
    OWL_NS,
    RDF_NS,
    RDFS_NS,
    Rule,
    Var,
    intern,
)
from .owl import DEFAULT_PREFIXES, Cursor, Tok

RDF_TYPE = RDF_NS + "type"

# Schema IRIs with a fixed predicate mapping; matching is case-insensitive
# on the full IRI (the literature itself mixes rdfs:SubClassOf and
# rdfs:subClassOf).
_RESERVED = {
    (RDF_NS + "type").lower(): "type",
    (RDFS_NS + "subClassOf").lower(): "subclass",
    (RDFS_NS + "subPropertyOf").lower(): "subproperty",
    (OWL_NS + "disjointWith").lower(): "disjointclass",
    (OWL_NS + "propertyDisjointWith").lower(): "disjointproperty",
    (OWL_NS + "differentFrom").lower(): "different",
}

PatternTerm = Union[Var, Entity]


@dataclass(frozen=True, slots=True)
class TriplePattern:
    s: PatternTerm
    p: PatternTerm
    o: PatternTerm


@dataclass(frozen=True)
class SparqlQuery:
    answer_vars: tuple[Var, ...]
    patterns: tuple[TriplePattern, ...]

    def variables(self) -> list[Var]:
        out: list[Var] = []
        for tp in self.patterns:
            for t in (tp.s, tp.p, tp.o):
                if isinstance(t, Var) and t not in out:
                    out.append(t)
        return out


_Q_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<iriref><[^<>\s]*>)
      | (?P<var>[?$][A-Za-z_][A-Za-z0-9_]*)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<lbrace>\{)
      | (?P<rbrace>\})
      | (?P<dot>\.(?=\s|\}|$))
      | (?P<punct>[()\[\];,/|^+*!=<>-]+)
      | (?P<name>[^\s{}()\[\];,?$"<>#/|^*+=!]+)
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
        raise UnsupportedFeature(f"punctuation {text!r} (property paths / expressions)")
    if kind == "name" and text.startswith("_:"):
        raise UnsupportedFeature("blank nodes")


def _term(cur: Cursor, prefixes, position: str) -> PatternTerm:
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
        iri = cur.expect("iriref", "expected <iri> after prefix name")
        prefixes[name[1][:-1]] = iri[1][1:-1]

    t = cur.next()
    _check_unsupported(t)
    if _keyword(t) != "SELECT":
        raise cur.error(f"expected SELECT, found {t[1]!r}", t)

    star = False
    projection: list[Var] = []
    if _keyword(cur.peek()) == "DISTINCT":
        cur.next()  # answers are sets anyway
    while True:
        if cur.at("var"):
            projection.append(Var(cur.next()[1][1:]))
        elif cur.at("punct", "*"):
            cur.next()
            star = True
        else:
            break
    if not star and not projection:
        raise cur.error("projection must list variables or *", cur.peek() or 0)

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
            raise cur.error(f"expected '.' or '}}' after a triple pattern, found {t[1]!r}", t)
    cur.next()

    trailing = cur.peek()
    if trailing is not None:
        _check_unsupported(trailing)
        raise cur.error(f"unexpected input after WHERE block: {trailing[1]!r}", trailing)
    if not patterns:
        raise cur.error("WHERE block must contain at least one triple pattern", open_tok)

    q = SparqlQuery((), tuple(patterns))
    answer_vars = tuple(q.variables()) if star else tuple(projection)
    return SparqlQuery(answer_vars, tuple(patterns))


# ==============================================================================
# Translation to Datalog
# ==============================================================================


def _pattern_atom(tp: TriplePattern) -> Atom:
    def as_term(t: PatternTerm):
        return t if isinstance(t, Var) else Const(t)

    s, p, o = as_term(tp.s), as_term(tp.p), as_term(tp.o)
    if isinstance(tp.p, Entity):
        mapped = _RESERVED.get(tp.p.iri.lower())
        if mapped == "type":
            return Atom("instc", (o, s))
        if mapped == "subclass":
            return Atom("isacCC", (s, o))
        if mapped == "subproperty":
            return Atom("isarRR", (s, o))
        if mapped == "disjointclass":
            return Atom("disjcCC", (s, o))
        if mapped == "disjointproperty":
            return Atom("disjrRR", (s, o))
        if mapped == "different":
            return Atom("diff", (s, o))
        # Other schema vocabulary gets rejected rather than guessed at.
        if tp.p.iri.startswith((RDF_NS, RDFS_NS, OWL_NS)):
            raise UnsupportedFeature(f"schema predicate {tp.p.iri}")
    return Atom("instr", (p, s, o))


def translate_query(q: SparqlQuery) -> tuple[Rule, Atom]:
    """One body atom per triple pattern, plus a head rule and the atomic
    query accounting for the projection.  No variable typing restriction
    applies: the same variable may stand in individual, class and
    property positions at once."""
    body = tuple(_pattern_atom(tp) for tp in q.patterns)
    body_vars = set().union(*(a.variables() for a in body))
    missing = [v.name for v in q.answer_vars if v not in body_vars]
    if missing:
        raise UnsafeQuery(f"answer variable(s) {missing} do not occur in the query body")
    head = Atom("q", tuple(q.answer_vars))
    return Rule(head, body), head


def to_conjunctive_query(q: SparqlQuery) -> ConjunctiveQuery:
    rule, head = translate_query(q)
    return ConjunctiveQuery(tuple(q.answer_vars), rule.body)
