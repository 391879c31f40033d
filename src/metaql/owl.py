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
disjointness are rewritten into the core axiom forms, whose constructors
store the orientation the fact translation needs; anything else is
rejected explicitly rather than guessed at.  An unsupported constructor
is known by its shape: a name with no `:` followed by `(` where an
entity is expected (a class, property, individual or filler position)
raises `UnsupportedAxiom` naming it, as an unknown axiom keyword does.

Both this parser and the query parser in `sparql.py` read their input
through one `Cursor`: a single `finditer` pass splits the text into
`(kind, text, offset)` tuples, and line and column are worked out from an
offset only when a syntax error is raised.  A `flat` token is a whole
ClassAssertion, SubClassOf or ObjectPropertyAssertion over IRIs and
prefixed names, nearly every axiom of a large ontology; other axioms are
read from two tables, `_NARY` for the keywords with two or more operands
of one kind and `_FIXED` for those with a fixed list of operands;
`_parse_axiom` reads the parentheses and operands for all of them in one
place.  Every error comes from the token-by-token parse: a text whose
parse with `flat` tokens fails is parsed again without them.  Each parse
resolves every distinct IRI text once, through its own `_Entities` dict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations

from .errors import MetaqlError, OwlSyntaxError, UnsupportedAxiom
from .model import (
    OWL_NS,
    RDF_NS,
    RDFS_NS,
    TBOX_KINDS,
    TOP_CLASS,
    TOP_PROPERTY,
    XSD_NS,
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
    is_basic,
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
# Tokenizer: the cursor shared by the ontology and the query parser
# ==============================================================================

_TOKENS = r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<iriref><[^<>\s]*>)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<equals>=)
      | (?P<caret>\^\^)
      | (?P<langtag>@[A-Za-z][A-Za-z0-9-]*)
      | (?P<name>[^\s()<>"=^@#]+)
    """
# A `flat` operand is an IRI or a name holding a `:` whose dots `check_dots`
# accepts, so never a keyword; an axiom `flat` does not match falls through.
_OPERAND = r"""(?:<[^<>\s]*> | [^\s()<>"=^@\#:]*(?<!\.):(?!\.)[^\s()<>"=^@\#]*(?<!\.))"""
_TOKEN_RE = re.compile(
    rf"""(?P<flat>(?:ClassAssertion|SubClassOf)\s*\(\s*{_OPERAND}\s+{_OPERAND}\s*\)
          | ObjectPropertyAssertion\s*\(\s*{_OPERAND}\s+{_OPERAND}\s+{_OPERAND}\s*\))
      | {_TOKENS}""",
    re.VERBOSE,
)
_PLAIN_TOKEN_RE = re.compile(_TOKENS, re.VERBOSE)

# A token is a (kind, text, offset) tuple: the name of the pattern group it
# matched, its text, and where it starts in the input.
Tok = tuple[str, str, int]


class Cursor:
    """The tokens of one input text and a position in them; the lexer and
    token reader of both the ontology and the query parser.

    `pattern`'s named groups are the token kinds (`_TOKEN_RE`'s, `flat`
    first, or `sparql._Q_TOKEN_RE`'s); `ws` and `comment` tokens are
    dropped.  `name` says what the text is in the message for running out
    of tokens.  Every syntax error either parser raises comes from
    `error`, which works out line and column from a token's offset.
    """

    def __init__(self, pattern: re.Pattern, text: str, name: str):
        self.text = text
        self.name = name
        self.tokens: list[Tok] = []
        self.pos = 0
        end = 0
        for m in pattern.finditer(text):
            if m.start() != end:
                break
            end = m.end()
            if m.lastgroup != "ws" and m.lastgroup != "comment":
                self.tokens.append((m.lastgroup, m.group(), m.start()))
        if end < len(text):
            raise self.error(f"unexpected character {text[end]!r}", end)

    def error(self, message: str, at: Tok | int) -> OwlSyntaxError:
        """The syntax error `message` at token or offset `at`, for the
        caller to raise."""
        offset = at if isinstance(at, int) else at[2]
        line_start = self.text.rfind("\n", 0, offset) + 1
        return OwlSyntaxError(message, self.text.count("\n", 0, offset) + 1, offset - line_start + 1)

    def peek(self) -> Tok | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    # `at` and `next` index `tokens` themselves rather than call `peek`:
    # they run once or more per token.
    def at(self, kind: str, text: str | None = None) -> bool:
        """Whether the next token is of `kind` and, if given, spells `text`."""
        tokens, pos = self.tokens, self.pos
        return pos < len(tokens) and tokens[pos][0] == kind and (text is None or tokens[pos][1] == text)

    def next(self) -> Tok:
        pos = self.pos
        if pos >= len(self.tokens):
            raise self.error(f"unexpected end of {self.name}", self.tokens[-1] if self.tokens else 0)
        self.pos = pos + 1
        return self.tokens[pos]

    def expect(self, kind: str, message: str | None = None) -> Tok:
        tok = self.next()
        if tok[0] != kind:
            raise self.error(message or f"expected {kind}, found {tok[1]!r}", tok)
        return tok


def check_dots(cur: Cursor, tok: Tok):
    """Reject a prefixed name that SPARQL's PN_PREFIX and PN_LOCAL reject for a `.`."""
    prefix, sep, local = tok[1].partition(":")
    if sep and (prefix.endswith(".") or local.startswith(".") or local.endswith(".")):
        raise cur.error(f"a prefix may not end, nor a local name start or end, with '.': {tok[1]!r}", tok)


# ==============================================================================
# Parsing proper
# ==============================================================================

_DISCARDED = {"Declaration", "AnnotationAssertion", "Annotation"}


def parse_ontology(text: str) -> Ontology:
    try:
        return _parse(Cursor(_TOKEN_RE, text, "input"))
    except MetaqlError:
        # A `flat` token anywhere but at the start of an axiom changes the
        # error, so every error comes from the token-by-token parse.
        return _parse(Cursor(_PLAIN_TOKEN_RE, text, "input"))


def _parse(cur: Cursor) -> Ontology:
    prefixes = dict(DEFAULT_PREFIXES)

    while cur.at("name", "Prefix"):
        cur.next()
        cur.expect("lparen")
        name = cur.expect("name")
        if not name[1].endswith(":"):
            raise cur.error("prefix name must end in ':'", name)
        check_dots(cur, name)
        cur.expect("equals")
        iri = cur.expect("iriref")
        cur.expect("rparen")
        prefixes[name[1][:-1]] = iri[1][1:-1]

    head = cur.expect("name")
    if head[1] != "Ontology":
        raise cur.error(f"expected Ontology(...), found {head[1]!r}", head)
    cur.expect("lparen")
    # Optional ontology IRI and version IRI.
    while cur.at("iriref"):
        cur.next()

    entities = _Entities(prefixes)
    tbox: set[Axiom] = set()
    abox: set[Axiom] = set()
    while not cur.at("rparen"):
        tok = cur.peek()
        if tok is None:
            raise cur.error("unterminated Ontology(...)", head)
        if tok[0] != "name" and tok[0] != "flat":
            raise cur.error(f"expected an axiom, found {tok[1]!r}", tok)
        for ax in _parse_axiom(cur, entities):
            (tbox if isinstance(ax, TBOX_KINDS) else abox).add(ax)
    cur.next()

    trailing = cur.peek()
    if trailing is not None:
        raise cur.error(f"unexpected input after Ontology(...): {trailing[1]!r}", trailing)
    return Ontology(frozenset(tbox), frozenset(abox), prefixes)


class _Entities(dict):
    """Token text to `Entity` for one parse, under that parse's prefixes:
    each distinct IRI text is interned and validated once.  A text whose
    `intern` raises is not stored."""

    def __init__(self, prefixes: dict[str, str]):
        super().__init__()
        self.prefixes = prefixes

    def __missing__(self, text: str) -> Entity:
        ent = self[text] = intern(text, self.prefixes)
        return ent


def _reject_constructor(cur: Cursor, detail: str = ""):
    """Raise `UnsupportedAxiom` if the next tokens are a constructor, a
    name with no `:` (so no entity) followed by `(`."""
    tokens, pos = cur.tokens, cur.pos
    if pos + 1 < len(tokens) and tokens[pos + 1][0] == "lparen":
        kind, text, _ = tokens[pos]
        if kind == "name" and ":" not in text:
            raise UnsupportedAxiom(text, detail)


def _entity(cur: Cursor, entities: _Entities) -> Entity:
    _reject_constructor(cur)
    tok = cur.next()
    if tok[0] == "name":
        check_dots(cur, tok)
    elif tok[0] != "iriref":
        raise cur.error(f"expected an IRI, found {tok[1]!r}", tok)
    return entities[tok[1]]


def _prop_expr(cur: Cursor, entities: _Entities) -> PropExpr:
    # Nested inverses are counted, not recursed into, so no depth of
    # nesting can exhaust the stack.
    depth = 0
    while cur.at("name", "ObjectInverseOf"):
        cur.next()
        cur.expect("lparen")
        depth += 1
    pe = PropExpr(_entity(cur, entities))
    for _ in range(depth):
        cur.expect("rparen")
    return pe.flipped() if depth % 2 else pe


def _class_expr(cur: Cursor, entities: _Entities) -> ClassExpr:
    if cur.at("name", "ObjectSomeValuesFrom"):
        cur.next()
        cur.expect("lparen")
        prop = _prop_expr(cur, entities)
        _reject_constructor(cur, "existential fillers must be named classes")
        filler = _entity(cur, entities)
        cur.expect("rparen")
        return Some(prop, filler)
    return _entity(cur, entities)


def _basic_class_expr(keyword: str):
    """The operand reader of `keyword` for a class expression that may not
    be a qualified existential."""
    return lambda cur, entities: _check_basic(_class_expr(cur, entities), keyword)


def _check_basic(ce: ClassExpr, keyword: str) -> ClassExpr:
    if not is_basic(ce):
        raise UnsupportedAxiom(keyword, "qualified existential not allowed in this position")
    return ce


def _named_class(cur: Cursor, entities: _Entities) -> Entity:
    ce = _class_expr(cur, entities)
    if not isinstance(ce, Entity):
        raise UnsupportedAxiom("ClassAssertion", "class assertions must use a named class")
    return ce


# The n-ary keywords, each with at least two operands: the operand reader,
# the axioms for one pair of operands, and whether every pair gets them
# (True) or only neighbours (False).
_NARY = {
    "DisjointClasses": (_basic_class_expr("DisjointClasses"), lambda a, b: [ClassDisjoint(a, b)], True),
    "DisjointObjectProperties": (_prop_expr, lambda a, b: [PropDisjoint(a, b)], True),
    "EquivalentClasses": (
        _basic_class_expr("EquivalentClasses"),
        lambda a, b: [ClassInclusion(a, b), ClassInclusion(b, a)],
        False,
    ),
    "EquivalentObjectProperties": (
        _prop_expr,
        lambda a, b: [PropInclusion(a, b), PropInclusion(b, a)],
        False,
    ),
    "DifferentIndividuals": (_entity, lambda a, b: [DifferentIndividuals(a, b)], True),
}

# The fixed-arity keywords: one reader per operand, and the axioms built
# from the operands once the closing parenthesis is read.
_FIXED = {
    "SubClassOf": (
        (_class_expr, _class_expr),
        lambda sub, sup: [ClassInclusion(_check_basic(sub, "SubClassOf"), sup)],
    ),
    "SubObjectPropertyOf": ((_prop_expr, _prop_expr), lambda sub, sup: [PropInclusion(sub, sup)]),
    "InverseObjectProperties": (
        (_prop_expr, _prop_expr),
        lambda a, b: [PropInclusion(a, b.flipped()), PropInclusion(b, a.flipped())],
    ),
    "ObjectPropertyDomain": ((_prop_expr, _class_expr), lambda pe, ce: [ClassInclusion(Some(pe, TOP_CLASS), ce)]),
    "ObjectPropertyRange": (
        (_prop_expr, _class_expr),
        lambda pe, ce: [ClassInclusion(Some(pe.flipped(), TOP_CLASS), ce)],
    ),
    # refl(r^-) and irrefl(r^-) coincide with refl(r) / irrefl(r).
    "ReflexiveObjectProperty": ((_prop_expr,), lambda pe: [Reflexive(pe.prop)]),
    "IrreflexiveObjectProperty": ((_prop_expr,), lambda pe: [Irreflexive(pe.prop)]),
    "ClassAssertion": ((_named_class, _entity), lambda cls, ind: [ClassAssertion(cls, ind)]),
    "ObjectPropertyAssertion": (
        (_prop_expr, _entity, _entity),
        lambda pe, s, o: [PropAssertion(pe.prop, o, s) if pe.inverse else PropAssertion(pe.prop, s, o)],
    ),
}


# The axiom of a `flat` token, from its operands' entities in order.
_FLAT = {
    "ClassAssertion": ClassAssertion,
    "SubClassOf": ClassInclusion,
    "ObjectPropertyAssertion": PropAssertion,
}


def _parse_axiom(cur: Cursor, entities: _Entities) -> list[Axiom]:
    kw_tok = cur.next()
    kw = kw_tok[1]
    if kw_tok[0] == "flat":
        keyword, _, operands = kw.partition("(")
        return [_FLAT[keyword.rstrip()](*[entities[op] for op in operands[:-1].split()])]

    if kw in _DISCARDED:
        cur.expect("lparen")
        depth = 1
        while depth:
            kind = cur.next()[0]
            if kind == "lparen":
                depth += 1
            elif kind == "rparen":
                depth -= 1
        return []
    if kw not in _FIXED and kw not in _NARY:
        raise UnsupportedAxiom(kw)

    nary = _NARY.get(kw)
    cur.expect("lparen")
    if nary is None:
        readers, build = _FIXED[kw]
        operands = [read(cur, entities) for read in readers]
    else:
        read, pair_axioms, every_pair = nary
        operands = []
        while cur.peek() is not None and not cur.at("rparen"):
            operands.append(read(cur, entities))
    cur.expect("rparen")

    if nary is None:
        return build(*operands)
    if len(operands) < 2:
        raise cur.error(f"{kw} needs at least two operands", kw_tok)
    pairs = combinations(operands, 2) if every_pair else zip(operands, operands[1:])
    return [ax for a, b in pairs for ax in pair_axioms(a, b)]


# ==============================================================================
# Normalization
# ==============================================================================


def normalize_ontology(o: Ontology) -> Ontology:
    """Add the top-inclusion axiom of every distinct class/property used
    in an assertion.  Idempotent.  Orientation needs no pass here: the
    axiom constructors in `model` store the normal form.
    """
    tbox = set(o.tbox)
    classes = {ax.cls for ax in o.abox if isinstance(ax, ClassAssertion)}
    props = {ax.prop for ax in o.abox if isinstance(ax, PropAssertion)}
    tbox.update(ClassInclusion(c, TOP_CLASS) for c in classes)
    tbox.update(PropInclusion(PropExpr(p), PropExpr(TOP_PROPERTY)) for p in props)

    return Ontology(frozenset(tbox), o.abox, dict(o.prefixes))


# ==============================================================================
# Serialization
# ==============================================================================


def _iri_text(e: Entity) -> str:
    return f"<{display_iri(e.iri)}>"


def _ce_text(ce: ClassExpr) -> str:
    if isinstance(ce, Entity):
        return _iri_text(ce)
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
