"""Frontend for ontologies in OWL functional-style syntax.

The accepted grammar is the restricted fragment needed here:

    Prefix(p:=<iri>) ...
    Ontology( [<ontology-iri> [<version-iri>]]
       SubClassOf(CE SCE)  SubObjectPropertyOf(PE PE)
       DisjointClasses(CE CE ...)  DisjointObjectProperties(PE PE ...)
       EquivalentClasses(CE CE ...)  EquivalentObjectProperties(PE PE ...)
       InverseObjectProperties(PE PE)
       ObjectPropertyDomain(PE SCE)  ObjectPropertyRange(PE SCE)
       ReflexiveObjectProperty(PE)  IrreflexiveObjectProperty(PE)
       SymmetricObjectProperty(PE)  AsymmetricObjectProperty(PE)
       ClassAssertion(C i)  ObjectPropertyAssertion(PE i i)
       DifferentIndividuals(i i ...)
       Declaration(...)               # parsed and discarded
       AnnotationAssertion(...)       # parsed and discarded
       SubAnnotationPropertyOf(...)   # parsed and discarded
       AnnotationPropertyDomain(...)  # parsed and discarded
       AnnotationPropertyRange(...)   # parsed and discarded
    )

with CE either an IRI or ObjectSomeValuesFrom(PE IRI), SCE a CE,
ObjectIntersectionOf(SCE SCE ...) or ObjectComplementOf(CE) of a basic
CE, and PE either an IRI or ObjectInverseOf(PE).  ``#`` starts a comment
outside strings.  An axiom's leading Annotation(...) operands are
discarded.  Equivalences, domains, ranges, inverse declarations,
(a)symmetry, n-ary disjointness, and intersections and complements in a
superclass are rewritten into the core axiom forms.  Each operand is read
straight to its side of the fact (see `model`): a property expression to
its kind letter and property, a class expression to its kind letter and
IRIs.  The constructors in `model` return the fact of a core form's
normal form from its sides; assertions, (ir)reflexivity and different
individuals name their predicate only and are spelled as facts here.
Anything else is rejected explicitly rather than guessed at.  An
unsupported constructor is known by its shape: a name with no `:`
followed by `(` where an entity is expected (a class, property,
individual or filler position) raises `UnsupportedAxiom` naming it, as an
unknown axiom keyword does.

A parse is one scan of the text, and an ontology is its facts.  At each
axiom start the scan first tries `_FLAT_RE`, which matches a whole
ClassAssertion, SubClassOf or ObjectPropertyAssertion over IRIs and
prefixed names, nearly every axiom of a large ontology, with the blanks
and comments before it.  A match becomes its fact at once and the scan
moves past it: no token is made for it.  The header, every other axiom
and the trailer are read token by token through the `Cursor` that the
query parser in `sparql.py` shares, which tokenizes up to the next
parenthesis at a time, so the text a match covers is never tokenized;
offsets stay offsets into the whole text.  The text is parsed once, so
its errors come in reading order: an unexpected character when the
parser asks for a token past the ones before it, any other error when
its token or flat operand is read.  `_NARY` holds the keywords with two
or more operands of one kind and `_FIXED` those with a fixed list of
operands; `_parse_axiom` reads the parentheses and operands for all of
them in one place.  Each parse resolves every distinct operand
text to its IRI once, through its own `_Entities` dict, so a flat match
makes no object but its fact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations

from .errors import OwlSyntaxError, UnsupportedAxiom
from .model import (
    ABOX_PREDICATES,
    OWL_NS,
    RDF_NS,
    RDFS_NS,
    TOP_CLASS,
    TOP_PROPERTY,
    XSD_NS,
    ClassDisjoint,
    ClassInclusion,
    Fact,
    PropDisjoint,
    PropInclusion,
    Side,
    display_iri,
    intern,
    facts_to_dl,
    is_basic,
)

# Implicitly declared, as in the OWL 2 structural specification.
DEFAULT_PREFIXES = {"owl": OWL_NS, "rdf": RDF_NS, "rdfs": RDFS_NS, "xsd": XSD_NS}


@dataclass(frozen=True)
class Ontology:
    """The facts of an ontology's axioms: the assertions in `abox`, every
    other axiom in `tbox`."""

    tbox: frozenset[Fact]
    abox: frozenset[Fact]
    prefixes: dict[str, str] = field(compare=False, default_factory=dict)

    @property
    def axioms(self) -> frozenset[Fact]:
        return self.tbox | self.abox

    def __len__(self) -> int:
        return len(self.tbox) + len(self.abox)


# ==============================================================================
# Tokenizer: the cursor shared by the ontology and the query parser
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
# A flat operand is an IRI or a name holding a `:` whose dots `check_dots`
# accepts, so never a keyword: one token of `_TOKEN_RE`.  The blanks and
# comments before an axiom match in one way only (a comment runs to the end
# of its line), so a text that is no flat axiom fails in linear time.
_OPERAND = r"""(<[^<>\s]*> | [^\s()<>"=^@\#:]*(?<!\.):(?!\.)[^\s()<>"=^@\#]*(?<!\.))"""
_FLAT_RE = re.compile(
    rf"""(?:\s|\#[^\n]*(?![^\n]))*
      (?: (ClassAssertion|SubClassOf)\s*\(\s*{_OPERAND}\s+{_OPERAND}\s*\)
        | ObjectPropertyAssertion\s*\(\s*{_OPERAND}\s+{_OPERAND}\s+{_OPERAND}\s*\) )""",
    re.VERBOSE,
)

# A token is a (kind, text, offset) tuple: the name of the pattern group it
# matched, its text, and where it starts in the input.
Tok = tuple[str, str, int]


class Cursor:
    """The tokens of one input text and a position in them; the lexer and
    token reader of both the ontology and the query parser.

    `pattern`'s named groups are the token kinds (`_TOKEN_RE`'s or
    `sparql._Q_TOKEN_RE`'s); `ws` and `comment` tokens are dropped.  `name`
    says what the text is in the message for running out of tokens.  A
    cursor tokenizes from offset `end` whenever it runs out of tokens,
    through the next `lparen` or `rparen` token or else to the first
    character no token matches or the end of the text (the query lexer has
    neither kind, so a query is read in one stretch); while no token is
    pending, its owner may move `end` past text it has read itself.  Every
    syntax error either parser raises comes from `error`, which works out
    line and column from a token's offset.
    """

    def __init__(self, pattern: re.Pattern, text: str, name: str):
        self.pattern = pattern
        self.text = text
        self.name = name
        self.tokens: list[Tok] = []
        self.pos = 0
        self.end = 0
        self._scan()

    def _scan(self) -> bool:
        """Tokenize from `end` through the next parenthesis, or else to the
        end of the text or a character no token matches.  Whether a token
        was added; such a character is an error only when no token comes
        before it, so the tokens before it are read first."""
        text, end, count = self.text, self.end, len(self.tokens)
        for m in self.pattern.finditer(text, end):
            if m.start() != end:
                break
            end = m.end()
            kind = m.lastgroup
            if kind != "ws" and kind != "comment":
                self.tokens.append((kind, m.group(), m.start()))
                if kind == "lparen" or kind == "rparen":
                    self.end = end
                    return True
        self.end = end
        if end < len(text) and len(self.tokens) == count:
            raise self.error(f"unexpected character {text[end]!r}", end)
        return len(self.tokens) > count

    def error(self, message: str, at: Tok | int) -> OwlSyntaxError:
        """The syntax error `message` at token or offset `at`, for the
        caller to raise."""
        offset = at if isinstance(at, int) else at[2]
        line_start = self.text.rfind("\n", 0, offset) + 1
        return OwlSyntaxError(message, self.text.count("\n", 0, offset) + 1, offset - line_start + 1)

    def peek(self) -> Tok | None:
        if self.pos >= len(self.tokens) and not self._scan():
            return None
        return self.tokens[self.pos]

    # `at` and `next` index `tokens` themselves rather than call `peek`:
    # they run once or more per token.
    def at(self, kind: str, text: str | None = None) -> bool:
        """Whether the next token is of `kind` and, if given, spells `text`."""
        tokens, pos = self.tokens, self.pos
        if pos >= len(tokens) and not self._scan():
            return False
        return tokens[pos][0] == kind and (text is None or tokens[pos][1] == text)

    def next(self) -> Tok:
        pos = self.pos
        if pos >= len(self.tokens) and not self._scan():
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

# Annotations carry no meaning under the Direct Semantics.
_DISCARDED = {
    "Declaration",
    "AnnotationAssertion",
    "SubAnnotationPropertyOf",
    "AnnotationPropertyDomain",
    "AnnotationPropertyRange",
    "Annotation",
}


def parse_ontology(text: str) -> Ontology:
    return _parse(text, flat=True)


def _parse(text: str, flat: bool) -> Ontology:
    """The ontology `text` holds; with `flat`, a flat axiom is matched by
    `_FLAT_RE` instead of being tokenized."""
    cur = Cursor(_TOKEN_RE, text, "input")
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
    # An optional ontology IRI, and after it an optional version IRI.
    for _ in range(2):
        if cur.at("iriref"):
            cur.next()

    entities = _Entities(prefixes)
    tbox: set[Fact] = set()
    abox: set[Fact] = set()
    match = _FLAT_RE.match
    while True:
        if flat and cur.pos == len(cur.tokens):
            end = cur.end
            while (m := match(text, end)) is not None:
                keyword, a, b, p, s, o = m.groups()
                if keyword is None:
                    abox.add(("instr", (entities[p], entities[s], entities[o])))
                elif keyword == "SubClassOf":
                    tbox.add(("isacCC", (entities[a], entities[b])))
                else:
                    abox.add(("instc", (entities[a], entities[b])))
                end = m.end()
            cur.end = end
        if cur.at("rparen"):
            break
        tok = cur.peek()
        if tok is None:
            raise cur.error("unterminated Ontology(...)", head)
        if tok[0] != "name":
            raise cur.error(f"expected an axiom, found {tok[1]!r}", tok)
        for fact in _parse_axiom(cur, entities):
            (abox if fact[0] in ABOX_PREDICATES else tbox).add(fact)
    cur.next()

    trailing = cur.peek()
    if trailing is not None:
        raise cur.error(f"unexpected input after Ontology(...): {trailing[1]!r}", trailing)
    return Ontology(frozenset(tbox), frozenset(abox), prefixes)


class _Entities(dict):
    """Token text to the IRI it names for one parse, under that parse's
    prefixes: each distinct IRI text is interned and validated once.  A
    text whose `intern` raises is not stored."""

    def __init__(self, prefixes: dict[str, str]):
        super().__init__()
        self.prefixes = prefixes

    def __missing__(self, text: str) -> str:
        iri = self[text] = intern(text, self.prefixes)
        return iri


def _reject_constructor(cur: Cursor, detail: str = ""):
    """Raise `UnsupportedAxiom` if the next tokens are a constructor, a
    name with no `:` (so no entity) followed by `(`."""
    tok = cur.peek()
    tokens, pos = cur.tokens, cur.pos
    if tok is not None and tok[0] == "name" and ":" not in tok[1]:
        # A name never ends a cursor's stretch, so its successor is read.
        if pos + 1 < len(tokens) and tokens[pos + 1][0] == "lparen":
            raise UnsupportedAxiom(tok[1], detail)


def _entity(cur: Cursor, entities: _Entities) -> str:
    _reject_constructor(cur)
    tok = cur.next()
    if tok[0] == "name":
        check_dots(cur, tok)
    elif tok[0] != "iriref":
        raise cur.error(f"expected an IRI, found {tok[1]!r}", tok)
    return entities[tok[1]]


def _flip(pe: Side) -> Side:
    """The inverse of a property expression."""
    return ("I" if pe[0] == "R" else "R"), pe[1]


def _prop_expr(cur: Cursor, entities: _Entities) -> Side:
    # Nested inverses are counted, not recursed into, so no depth of
    # nesting can exhaust the stack.
    depth = 0
    while cur.at("name", "ObjectInverseOf"):
        cur.next()
        cur.expect("lparen")
        depth += 1
    prop = _entity(cur, entities)
    for _ in range(depth):
        cur.expect("rparen")
    return ("I" if depth % 2 else "R"), prop


def _class_expr(cur: Cursor, entities: _Entities) -> Side:
    if cur.at("name", "ObjectSomeValuesFrom"):
        cur.next()
        cur.expect("lparen")
        prop = _prop_expr(cur, entities)
        _reject_constructor(cur, "existential fillers must be named classes")
        filler = _entity(cur, entities)
        cur.expect("rparen")
        return (*prop, filler)
    return "C", _entity(cur, entities)


def _super_class_expr(cur: Cursor, entities: _Entities) -> list[tuple]:
    """A superclass as one (constructor, side) pair per conjunct:
    `ClassInclusion` of a class expression, `ClassDisjoint` of a complement's
    basic operand.  Open intersections are a stack of [keyword token,
    operands read], so no depth of nesting can exhaust the call stack."""
    parts, opened = [], []
    while True:
        if opened:
            opened[-1][1] += 1
        if cur.at("name", "ObjectIntersectionOf"):
            opened.append([cur.next(), 0])
            cur.expect("lparen")
            continue
        if cur.at("name", "ObjectComplementOf"):
            cur.next()
            cur.expect("lparen")
            parts.append((ClassDisjoint, _check_basic(_class_expr(cur, entities), "ObjectComplementOf")))
            cur.expect("rparen")
        else:
            parts.append((ClassInclusion, _class_expr(cur, entities)))
        while opened and cur.at("rparen"):
            kw_tok, count = opened.pop()
            cur.next()
            if count < 2:
                raise cur.error("ObjectIntersectionOf needs at least two operands", kw_tok)
        if not opened:
            return parts


def _basic_class_expr(keyword: str):
    """The operand reader of `keyword` for a class expression that may not
    be a qualified existential."""
    return lambda cur, entities: _check_basic(_class_expr(cur, entities), keyword)


def _check_basic(ce: Side, keyword: str) -> Side:
    if not is_basic(ce):
        raise UnsupportedAxiom(keyword, "qualified existential not allowed in this position")
    return ce


def _named_class(cur: Cursor, entities: _Entities) -> str:
    ce = _class_expr(cur, entities)
    if ce[0] != "C":
        raise UnsupportedAxiom("ClassAssertion", "class assertions must use a named class")
    return ce[1]


# The n-ary keywords, each with at least two operands: the operand reader,
# the facts for one pair of operands, and whether every pair gets them
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
    "DifferentIndividuals": (_entity, lambda a, b: [("diff", (a, b))], True),
}

# The fixed-arity keywords: one reader per operand, and the facts built
# from the operands once the closing parenthesis is read.
_FIXED = {
    "SubClassOf": (
        (_class_expr, _super_class_expr),
        lambda sub, sup: [make(_check_basic(sub, "SubClassOf"), ce) for make, ce in sup],
    ),
    "SubObjectPropertyOf": ((_prop_expr, _prop_expr), lambda sub, sup: [PropInclusion(sub, sup)]),
    "InverseObjectProperties": (
        (_prop_expr, _prop_expr),
        lambda a, b: [PropInclusion(a, _flip(b)), PropInclusion(b, _flip(a))],
    ),
    "ObjectPropertyDomain": (
        (_prop_expr, _super_class_expr),
        lambda pe, sup: [make((*pe, TOP_CLASS), ce) for make, ce in sup],
    ),
    "ObjectPropertyRange": (
        (_prop_expr, _super_class_expr),
        lambda pe, sup: [make((*_flip(pe), TOP_CLASS), ce) for make, ce in sup],
    ),
    # refl(r^-) and irrefl(r^-) coincide with refl(r) / irrefl(r).
    "ReflexiveObjectProperty": ((_prop_expr,), lambda pe: [("refl", (pe[1],))]),
    "IrreflexiveObjectProperty": ((_prop_expr,), lambda pe: [("irrefl", (pe[1],))]),
    # OWL 2 QL's (a)symmetry: P is included in, or disjoint with, its inverse.
    "SymmetricObjectProperty": ((_prop_expr,), lambda pe: [PropInclusion(pe, _flip(pe))]),
    "AsymmetricObjectProperty": ((_prop_expr,), lambda pe: [PropDisjoint(pe, _flip(pe))]),
    "ClassAssertion": ((_named_class, _entity), lambda cls, ind: [("instc", (cls, ind))]),
    "ObjectPropertyAssertion": (
        (_prop_expr, _entity, _entity),
        lambda pe, s, o: [("instr", (pe[1], o, s) if pe[0] == "I" else (pe[1], s, o))],
    ),
}


def _skip_group(cur: Cursor):
    """Read a `(` and everything up to the `)` that matches it."""
    cur.expect("lparen")
    depth = 1
    while depth:
        kind = cur.next()[0]
        if kind == "lparen":
            depth += 1
        elif kind == "rparen":
            depth -= 1


def _parse_axiom(cur: Cursor, entities: _Entities) -> list[Fact]:
    kw_tok = cur.next()
    kw = kw_tok[1]
    if kw in _DISCARDED:
        _skip_group(cur)
        return []
    if kw not in _FIXED and kw not in _NARY:
        raise UnsupportedAxiom(kw)

    nary = _NARY.get(kw)
    cur.expect("lparen")
    while cur.at("name", "Annotation"):
        cur.next()
        _skip_group(cur)
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
# Normalization and translation
# ==============================================================================


def normalize_ontology(o: Ontology) -> Ontology:
    """Add the top inclusion of every distinct class and property used in
    an assertion.  Idempotent.  Orientation needs no pass here: the axiom
    constructors in `model` return the normal form.
    """
    classes = {args[0] for pred, args in o.abox if pred == "instc"}
    props = {args[0] for pred, args in o.abox if pred == "instr"}
    tbox = o.tbox.union(
        [("isacCC", (c, TOP_CLASS)) for c in classes],
        [("isarRR", (p, TOP_PROPERTY)) for p in props],
    )
    return Ontology(tbox, o.abox, dict(o.prefixes))


@dataclass(frozen=True)
class FactBase:
    """Translated ontology: one (predicate, IRI tuple) fact per axiom."""

    facts: frozenset[Fact]

    def to_dl(self) -> str:
        return facts_to_dl(self.facts)

    def __len__(self) -> int:
        return len(self.facts)


def translate_ontology(o: Ontology) -> FactBase:
    """The facts of a normalized ontology: each axiom already is its fact
    (see `model`), so translation is their union."""
    return FactBase(o.axioms)


# ==============================================================================
# Serialization
# ==============================================================================

_TOP_TEXT = f"<{display_iri(TOP_CLASS)}>"


def _pe_text(kind: str, prop: str) -> str:
    return prop if kind == "R" else f"ObjectInverseOf({prop})"


def _ce_text(kind: str, carrier: str, filler: str = _TOP_TEXT) -> str:
    """A class expression from its kind letter, its carrier and, for an
    existential, its filler, each already spelled as an IRI."""
    if kind == "C":
        return carrier
    return f"ObjectSomeValuesFrom({_pe_text(kind, carrier)} {filler})"


# The keyword of each fact's axiom: for the inclusions and disjointness by
# the predicate less its two kind letters.
_KEYWORDS = {
    "isac": "SubClassOf",
    "disjc": "DisjointClasses",
    "isar": "SubObjectPropertyOf",
    "disjr": "DisjointObjectProperties",
    "refl": "ReflexiveObjectProperty",
    "irrefl": "IrreflexiveObjectProperty",
    "instc": "ClassAssertion",
    "instr": "ObjectPropertyAssertion",
    "diff": "DifferentIndividuals",
}


def _axiom_text(fact: Fact) -> str:
    pred, args = fact
    texts = [f"<{display_iri(a)}>" for a in args]
    stem, kinds = pred[:-2], pred[-2:]
    if stem in ("isac", "disjc"):
        operands = [_ce_text(kinds[0], texts[0]), _ce_text(kinds[1], *texts[1:])]
    elif stem in ("isar", "disjr"):
        operands = [texts[0], _pe_text(kinds[1], texts[1])]
    else:
        stem, operands = pred, texts
    return f"{_KEYWORDS[stem]}({' '.join(operands)})"


def serialize_ontology(o: Ontology) -> str:
    """Render with full IRIs only; reparsing yields an equal axiom set."""
    lines = sorted(f"  {_axiom_text(ax)}" for ax in o.tbox | o.abox)
    return "\n".join(["Ontology(", *lines, ")"]) + "\n"
