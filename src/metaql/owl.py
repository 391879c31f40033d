"""Frontend for ontologies in OWL functional-style syntax.

The accepted grammar is the restricted fragment needed here:

    Prefix(p:=<iri>) ...
    Ontology( [<ontology-iri> [<version-iri>]]
       SubClassOf(CE CE)  SubObjectPropertyOf(PE PE)
       DisjointClasses(CE CE ...)  DisjointObjectProperties(PE PE ...)
       EquivalentClasses(CE CE ...)  EquivalentObjectProperties(PE PE ...)
       InverseObjectProperties(PE PE)
       ObjectPropertyDomain(PE CE)  ObjectPropertyRange(PE CE)
       ReflexiveObjectProperty(PE)  IrreflexiveObjectProperty(PE)
       ClassAssertion(C i)  ObjectPropertyAssertion(PE i i)
       DifferentIndividuals(i i ...)
       Declaration(...)          # parsed and discarded
       AnnotationAssertion(...)  # parsed and discarded
    )

with CE either an IRI or ObjectSomeValuesFrom(PE IRI), and PE either an
IRI or ObjectInverseOf(PE).  ``#`` starts a comment outside strings.
Equivalences, domains, ranges, inverse declarations and n-ary
disjointness are rewritten into the core axiom forms; anything else is
rejected explicitly rather than guessed at.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import OwlSyntaxError, UnsupportedAxiom
from .model import (
    OWL_NS,
    RDF_NS,
    RDFS_NS,
    TBOX_KINDS,
    TOP_CLASS,
    TOP_PROPERTY,
    XSD_NS,
    Atomic,
    Axiom,
    ClassAssertion,
    ClassDisjoint,
    ClassExpr,
    ClassInclusion,
    DifferentIndividuals,
    Entity,
    Irreflexive,
    PropAssertion,
    PropDisjoint,
    PropExpr,
    PropInclusion,
    Reflexive,
    Some,
    display_iri,
    intern,
)

# Implicitly declared, as in the OWL 2 structural specification.
DEFAULT_PREFIXES = {"owl": OWL_NS, "rdf": RDF_NS, "rdfs": RDFS_NS, "xsd": XSD_NS}


@dataclass(frozen=True)
class Ontology:
    tbox: frozenset[Axiom]
    abox: frozenset[Axiom]
    prefixes: dict[str, str] = field(compare=False, default_factory=dict)

    @property
    def axioms(self) -> frozenset[Axiom]:
        return self.tbox | self.abox

    def __len__(self) -> int:
        return len(self.tbox) + len(self.abox)


# ==============================================================================
# Tokenizer
# ==============================================================================

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<iriref><[^<>\s]*>)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<equals>=)
      | (?P<caret>\^\^)
      | (?P<langtag>@[A-Za-z][A-Za-z0-9-]*)
      | (?P<name>[^\s()<>"=^@#]+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(pattern: re.Pattern, text: str) -> list[Token]:
    """Split `text` into the tokens of `pattern`, whose named groups are
    the token kinds; `ws` and `comment` tokens are dropped.  The lexer of
    both the ontology and the query parser."""
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = pattern.match(text, pos)
        if m is None:
            raise OwlSyntaxError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, pos - line_start + 1))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = pos + chunk.rfind("\n") + 1
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("name", "", 1, 1)
            raise OwlSyntaxError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise OwlSyntaxError(f"expected {kind}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def skip_balanced(self):
        """Consume a parenthesized group, used for discarded axioms."""
        self.expect("lparen")
        depth = 1
        while depth:
            tok = self.next()
            if tok.kind == "lparen":
                depth += 1
            elif tok.kind == "rparen":
                depth -= 1


# ==============================================================================
# Parsing proper
# ==============================================================================

# OWL keywords we recognise but deliberately reject: outside the profile
# handled here, or excluded (data properties, imports).
_REJECTED = {
    "Import",
    "ObjectComplementOf",
    "ObjectIntersectionOf",
    "ObjectUnionOf",
    "ObjectOneOf",
    "ObjectAllValuesFrom",
    "ObjectHasValue",
    "ObjectHasSelf",
    "ObjectMinCardinality",
    "ObjectMaxCardinality",
    "ObjectExactCardinality",
    "DataPropertyAssertion",
    "DataPropertyDomain",
    "DataPropertyRange",
    "SubDataPropertyOf",
    "DataSomeValuesFrom",
    "SameIndividual",
    "FunctionalObjectProperty",
    "InverseFunctionalObjectProperty",
    "TransitiveObjectProperty",
    "SymmetricObjectProperty",
    "AsymmetricObjectProperty",
    "HasKey",
    "NegativeObjectPropertyAssertion",
}

_DISCARDED = {"Declaration", "AnnotationAssertion", "Annotation"}


def parse_ontology(text: str) -> Ontology:
    p = _Parser(tokenize(_TOKEN_RE, text))
    prefixes = dict(DEFAULT_PREFIXES)

    while (tok := p.peek()) is not None and tok.kind == "name" and tok.text == "Prefix":
        p.next()
        p.expect("lparen")
        name_tok = p.expect("name")
        if not name_tok.text.endswith(":"):
            raise OwlSyntaxError("prefix name must end in ':'", name_tok.line, name_tok.col)
        p.expect("equals")
        iri_tok = p.expect("iriref")
        p.expect("rparen")
        prefixes[name_tok.text[:-1]] = iri_tok.text[1:-1]

    head = p.expect("name")
    if head.text != "Ontology":
        raise OwlSyntaxError(f"expected Ontology(...), found {head.text!r}", head.line, head.col)
    p.expect("lparen")
    # Optional ontology IRI and version IRI.
    while (tok := p.peek()) is not None and tok.kind == "iriref":
        p.next()

    tbox: set[Axiom] = set()
    abox: set[Axiom] = set()
    while True:
        tok = p.peek()
        if tok is None:
            raise OwlSyntaxError("unterminated Ontology(...)", head.line, head.col)
        if tok.kind == "rparen":
            p.next()
            break
        if tok.kind != "name":
            raise OwlSyntaxError(f"expected an axiom, found {tok.text!r}", tok.line, tok.col)
        for ax in _parse_axiom(p, prefixes):
            (tbox if isinstance(ax, TBOX_KINDS) else abox).add(ax)

    trailing = p.peek()
    if trailing is not None:
        raise OwlSyntaxError(
            f"unexpected input after Ontology(...): {trailing.text!r}", trailing.line, trailing.col
        )
    return Ontology(frozenset(tbox), frozenset(abox), prefixes)


def _entity(p: _Parser, prefixes) -> Entity:
    tok = p.next()
    if tok.kind not in ("name", "iriref"):
        raise OwlSyntaxError(f"expected an IRI, found {tok.text!r}", tok.line, tok.col)
    return intern(tok.text, prefixes)


def _prop_expr(p: _Parser, prefixes) -> PropExpr:
    # Nested inverses are counted, not recursed into, so no depth of
    # nesting can exhaust the stack.
    depth = 0
    while (tok := p.peek()) is not None and tok.kind == "name" and tok.text == "ObjectInverseOf":
        p.next()
        p.expect("lparen")
        depth += 1
    pe = PropExpr(_entity(p, prefixes))
    for _ in range(depth):
        p.expect("rparen")
    return pe.flipped() if depth % 2 else pe


def _class_expr(p: _Parser, prefixes) -> ClassExpr:
    tok = p.peek()
    if tok is not None and tok.kind == "name" and tok.text == "ObjectSomeValuesFrom":
        p.next()
        p.expect("lparen")
        prop = _prop_expr(p, prefixes)
        filler_tok = p.peek()
        if filler_tok is not None and filler_tok.kind == "name" and filler_tok.text in _REJECTED | {
            "ObjectSomeValuesFrom"
        }:
            raise UnsupportedAxiom(filler_tok.text, "existential fillers must be named classes")
        filler = _entity(p, prefixes)
        p.expect("rparen")
        return Some(prop, filler)
    if tok is not None and tok.kind == "name" and tok.text in _REJECTED:
        raise UnsupportedAxiom(tok.text)
    return Atomic(_entity(p, prefixes))


def _normalize_prop_inclusion(sub: PropExpr, sup: PropExpr) -> PropInclusion:
    # r^- <= s  is stored as  r <= s^-  (and r^- <= s^- as r <= s).
    if sub.inverse:
        sub, sup = sub.flipped(), sup.flipped()
    return PropInclusion(sub, sup)


def _normalize_prop_disjoint(left: PropExpr, right: PropExpr) -> PropDisjoint:
    if left.inverse:
        left, right = left.flipped(), right.flipped()
    return PropDisjoint(left, right)


def _check_basic(ce: ClassExpr, keyword: str):
    if isinstance(ce, Some) and ce.filler != TOP_CLASS:
        raise UnsupportedAxiom(keyword, "qualified existential not allowed in this position")


def _parse_axiom(p: _Parser, prefixes) -> list[Axiom]:
    kw_tok = p.next()
    kw = kw_tok.text

    if kw in _DISCARDED:
        p.skip_balanced()
        return []
    if kw in _REJECTED:
        raise UnsupportedAxiom(kw)

    if kw == "SubClassOf":
        p.expect("lparen")
        sub = _class_expr(p, prefixes)
        sup = _class_expr(p, prefixes)
        p.expect("rparen")
        _check_basic(sub, kw)
        return [ClassInclusion(sub, sup)]

    if kw == "SubObjectPropertyOf":
        p.expect("lparen")
        sub = _prop_expr(p, prefixes)
        sup = _prop_expr(p, prefixes)
        p.expect("rparen")
        return [_normalize_prop_inclusion(sub, sup)]

    if kw == "DisjointClasses":
        p.expect("lparen")
        operands = []
        while p.peek() is not None and p.peek().kind != "rparen":
            ce = _class_expr(p, prefixes)
            _check_basic(ce, kw)
            operands.append(ce)
        p.expect("rparen")
        if len(operands) < 2:
            raise OwlSyntaxError("DisjointClasses needs at least two operands", kw_tok.line, kw_tok.col)
        return [
            ClassDisjoint(operands[i], operands[j])
            for i in range(len(operands))
            for j in range(i + 1, len(operands))
        ]

    if kw == "DisjointObjectProperties":
        p.expect("lparen")
        operands = []
        while p.peek() is not None and p.peek().kind != "rparen":
            operands.append(_prop_expr(p, prefixes))
        p.expect("rparen")
        if len(operands) < 2:
            raise OwlSyntaxError(
                "DisjointObjectProperties needs at least two operands", kw_tok.line, kw_tok.col
            )
        return [
            _normalize_prop_disjoint(operands[i], operands[j])
            for i in range(len(operands))
            for j in range(i + 1, len(operands))
        ]

    if kw == "EquivalentClasses":
        p.expect("lparen")
        operands = []
        while p.peek() is not None and p.peek().kind != "rparen":
            ce = _class_expr(p, prefixes)
            _check_basic(ce, kw)
            operands.append(ce)
        p.expect("rparen")
        if len(operands) < 2:
            raise OwlSyntaxError("EquivalentClasses needs at least two operands", kw_tok.line, kw_tok.col)
        axioms: list[Axiom] = []
        for a, b in zip(operands, operands[1:]):
            axioms.append(ClassInclusion(a, b))
            axioms.append(ClassInclusion(b, a))
        return axioms

    if kw == "EquivalentObjectProperties":
        p.expect("lparen")
        operands = []
        while p.peek() is not None and p.peek().kind != "rparen":
            operands.append(_prop_expr(p, prefixes))
        p.expect("rparen")
        if len(operands) < 2:
            raise OwlSyntaxError(
                "EquivalentObjectProperties needs at least two operands", kw_tok.line, kw_tok.col
            )
        axioms = []
        for a, b in zip(operands, operands[1:]):
            axioms.append(_normalize_prop_inclusion(a, b))
            axioms.append(_normalize_prop_inclusion(b, a))
        return axioms

    if kw == "InverseObjectProperties":
        p.expect("lparen")
        a = _prop_expr(p, prefixes)
        b = _prop_expr(p, prefixes)
        p.expect("rparen")
        return [
            _normalize_prop_inclusion(a, b.flipped()),
            _normalize_prop_inclusion(b, a.flipped()),
        ]

    if kw == "ObjectPropertyDomain":
        p.expect("lparen")
        pe = _prop_expr(p, prefixes)
        ce = _class_expr(p, prefixes)
        p.expect("rparen")
        return [ClassInclusion(Some(pe, TOP_CLASS), ce)]

    if kw == "ObjectPropertyRange":
        p.expect("lparen")
        pe = _prop_expr(p, prefixes)
        ce = _class_expr(p, prefixes)
        p.expect("rparen")
        return [ClassInclusion(Some(pe.flipped(), TOP_CLASS), ce)]

    if kw == "ReflexiveObjectProperty":
        p.expect("lparen")
        pe = _prop_expr(p, prefixes)
        p.expect("rparen")
        # refl(r^-) and irrefl(r^-) coincide with refl(r) / irrefl(r).
        return [Reflexive(pe.prop)]

    if kw == "IrreflexiveObjectProperty":
        p.expect("lparen")
        pe = _prop_expr(p, prefixes)
        p.expect("rparen")
        return [Irreflexive(pe.prop)]

    if kw == "ClassAssertion":
        p.expect("lparen")
        ce = _class_expr(p, prefixes)
        if not isinstance(ce, Atomic):
            raise UnsupportedAxiom(kw, "class assertions must use a named class")
        ind = _entity(p, prefixes)
        p.expect("rparen")
        return [ClassAssertion(ce.cls, ind)]

    if kw == "ObjectPropertyAssertion":
        p.expect("lparen")
        pe = _prop_expr(p, prefixes)
        s = _entity(p, prefixes)
        o = _entity(p, prefixes)
        p.expect("rparen")
        if pe.inverse:
            s, o = o, s
        return [PropAssertion(pe.prop, s, o)]

    if kw == "DifferentIndividuals":
        p.expect("lparen")
        operands = []
        while p.peek() is not None and p.peek().kind != "rparen":
            operands.append(_entity(p, prefixes))
        p.expect("rparen")
        if len(operands) < 2:
            raise OwlSyntaxError(
                "DifferentIndividuals needs at least two operands", kw_tok.line, kw_tok.col
            )
        return [
            DifferentIndividuals(operands[i], operands[j])
            for i in range(len(operands))
            for j in range(i + 1, len(operands))
        ]

    raise UnsupportedAxiom(kw)


# ==============================================================================
# Normalization
# ==============================================================================


def normalize_ontology(o: Ontology) -> Ontology:
    """Bring a parsed ontology into the translatable shape.

    Every class/property used in an assertion gains its top-inclusion
    axiom, and class disjointness written as ``c excludes some r`` is
    flipped into the domain-side orientation (the only one the fact
    encoding provides).  Idempotent.
    """
    tbox = set()
    for ax in o.tbox:
        if (
            isinstance(ax, ClassDisjoint)
            and isinstance(ax.left, Atomic)
            and isinstance(ax.right, Some)
            and not ax.right.prop.inverse
        ):
            tbox.add(ClassDisjoint(ax.right, ax.left))
        else:
            tbox.add(ax)

    for ax in o.abox:
        if isinstance(ax, ClassAssertion):
            tbox.add(ClassInclusion(Atomic(ax.cls), Atomic(TOP_CLASS)))
        elif isinstance(ax, PropAssertion):
            tbox.add(PropInclusion(PropExpr(ax.prop), PropExpr(TOP_PROPERTY)))

    return Ontology(frozenset(tbox), o.abox, dict(o.prefixes))


# ==============================================================================
# Serialization
# ==============================================================================


def _iri_text(e: Entity) -> str:
    return f"<{display_iri(e.iri)}>"


def _ce_text(ce: ClassExpr) -> str:
    if isinstance(ce, Atomic):
        return _iri_text(ce.cls)
    return f"ObjectSomeValuesFrom({_pe_text(ce.prop)} {_iri_text(ce.filler)})"


def _pe_text(pe: PropExpr) -> str:
    if pe.inverse:
        return f"ObjectInverseOf({_iri_text(pe.prop)})"
    return _iri_text(pe.prop)


def _axiom_text(ax: Axiom) -> str:
    if isinstance(ax, ClassInclusion):
        return f"SubClassOf({_ce_text(ax.sub)} {_ce_text(ax.sup)})"
    if isinstance(ax, PropInclusion):
        return f"SubObjectPropertyOf({_pe_text(ax.sub)} {_pe_text(ax.sup)})"
    if isinstance(ax, ClassDisjoint):
        return f"DisjointClasses({_ce_text(ax.left)} {_ce_text(ax.right)})"
    if isinstance(ax, PropDisjoint):
        return f"DisjointObjectProperties({_pe_text(ax.left)} {_pe_text(ax.right)})"
    if isinstance(ax, Reflexive):
        return f"ReflexiveObjectProperty({_iri_text(ax.prop)})"
    if isinstance(ax, Irreflexive):
        return f"IrreflexiveObjectProperty({_iri_text(ax.prop)})"
    if isinstance(ax, ClassAssertion):
        return f"ClassAssertion({_iri_text(ax.cls)} {_iri_text(ax.individual)})"
    if isinstance(ax, PropAssertion):
        return f"ObjectPropertyAssertion({_iri_text(ax.prop)} {_iri_text(ax.subject)} {_iri_text(ax.object)})"
    if isinstance(ax, DifferentIndividuals):
        return f"DifferentIndividuals({_iri_text(ax.a)} {_iri_text(ax.b)})"
    raise TypeError(f"unknown axiom {ax!r}")


def serialize_ontology(o: Ontology) -> str:
    """Render with full IRIs only; reparsing yields an equal axiom set."""
    lines = ["Ontology("]
    for ax in sorted(o.tbox | o.abox, key=_axiom_text):
        lines.append(f"  {_axiom_text(ax)}")
    lines.append(")")
    return "\n".join(lines) + "\n"
