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

from .errors import OwlSyntaxError, UnsafeQuery, UnsupportedFeature
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
from .owl import DEFAULT_PREFIXES, Token, tokenize

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


def parse_query(text: str) -> SparqlQuery:
    toks = tokenize(_Q_TOKEN_RE, text)
    pos = 0

    def peek() -> Token | None:
        return toks[pos] if pos < len(toks) else None

    def nxt() -> Token:
        nonlocal pos
        t = peek()
        if t is None:
            last = toks[-1] if toks else Token("name", "", 1, 1)
            raise OwlSyntaxError("unexpected end of query", last.line, last.col)
        pos += 1
        return t

    def check_unsupported(t: Token):
        if t.kind == "name" and t.text.upper() in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedFeature(_UNSUPPORTED_KEYWORDS[t.text.upper()])
        if t.kind == "string":
            raise UnsupportedFeature("literals")
        if t.kind == "punct":
            if t.text.startswith("["):
                raise UnsupportedFeature("blank nodes")
            raise UnsupportedFeature(f"punctuation {t.text!r} (property paths / expressions)")
        if t.kind == "name" and t.text.startswith("_:"):
            raise UnsupportedFeature("blank nodes")

    prefixes = dict(DEFAULT_PREFIXES)
    while (t := peek()) is not None and t.kind == "name" and t.text.upper() == "PREFIX":
        nxt()
        name_tok = nxt()
        if name_tok.kind != "name" or not name_tok.text.endswith(":"):
            raise OwlSyntaxError("expected prefix name ending in ':'", name_tok.line, name_tok.col)
        iri_tok = nxt()
        if iri_tok.kind != "iriref":
            raise OwlSyntaxError("expected <iri> after prefix name", iri_tok.line, iri_tok.col)
        prefixes[name_tok.text[:-1]] = iri_tok.text[1:-1]

    t = nxt()
    check_unsupported(t)
    if t.kind != "name" or t.text.upper() != "SELECT":
        raise OwlSyntaxError(f"expected SELECT, found {t.text!r}", t.line, t.col)

    star = False
    projection: list[Var] = []
    if (t := peek()) is not None and t.kind == "name" and t.text.upper() == "DISTINCT":
        nxt()  # answers are sets anyway
    while (t := peek()) is not None:
        if t.kind == "var":
            projection.append(Var(nxt().text[1:]))
        elif t.kind == "punct" and t.text == "*":
            nxt()
            star = True
        else:
            break
    if not star and not projection:
        t = peek()
        raise OwlSyntaxError(
            "projection must list variables or *", t.line if t else 1, t.col if t else 1
        )

    t = nxt()
    check_unsupported(t)
    if t.kind != "name" or t.text.upper() != "WHERE":
        raise OwlSyntaxError(f"expected WHERE, found {t.text!r}", t.line, t.col)
    open_tok = nxt()
    if open_tok.kind != "lbrace":
        raise OwlSyntaxError("expected '{' after WHERE", open_tok.line, open_tok.col)

    def term(position: str) -> PatternTerm:
        t = nxt()
        check_unsupported(t)
        if t.kind == "lbrace":
            raise UnsupportedFeature("grouped graph patterns")
        if t.kind == "var":
            return Var(t.text[1:])
        if t.kind == "iriref":
            return intern(t.text, prefixes)
        if t.kind == "name":
            if t.text == "a":
                if position != "predicate":
                    raise OwlSyntaxError("'a' is only valid in predicate position", t.line, t.col)
                return intern("<" + RDF_TYPE + ">", prefixes)
            return intern(t.text, prefixes)
        raise OwlSyntaxError(f"expected a term, found {t.text!r}", t.line, t.col)

    patterns: list[TriplePattern] = []
    while True:
        t = peek()
        if t is None:
            raise OwlSyntaxError("unterminated WHERE block", open_tok.line, open_tok.col)
        if t.kind == "rbrace":
            nxt()
            break
        s = term("subject")
        p = term("predicate")
        o = term("object")
        patterns.append(TriplePattern(s, p, o))
        t = peek()
        if t is not None and t.kind == "dot":
            nxt()
        elif t is not None and t.kind not in ("rbrace",):
            raise OwlSyntaxError(
                f"expected '.' or '}}' after a triple pattern, found {t.text!r}", t.line, t.col
            )

    trailing = peek()
    if trailing is not None:
        check_unsupported(trailing)
        raise OwlSyntaxError(
            f"unexpected input after WHERE block: {trailing.text!r}", trailing.line, trailing.col
        )
    if not patterns:
        raise OwlSyntaxError("WHERE block must contain at least one triple pattern", open_tok.line, open_tok.col)

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


def translate_query(q: SparqlQuery, head_name: str = "q") -> tuple[Rule, Atom]:
    """One body atom per triple pattern, plus a head rule and the atomic
    query accounting for the projection.  No variable typing restriction
    applies: the same variable may stand in individual, class and
    property positions at once."""
    body = tuple(_pattern_atom(tp) for tp in q.patterns)
    body_vars = set().union(*(a.variables() for a in body))
    missing = [v.name for v in q.answer_vars if v not in body_vars]
    if missing:
        raise UnsafeQuery(f"answer variable(s) {missing} do not occur in the query body")
    head = Atom(head_name, tuple(q.answer_vars))
    return Rule(head, body), head


def to_conjunctive_query(q: SparqlQuery) -> ConjunctiveQuery:
    rule, head = translate_query(q)
    return ConjunctiveQuery(tuple(q.answer_vars), rule.body)
