"""Input-boundary properties: any text, however malformed, either parses
or raises a `MetaqlError`; nothing else escapes the parsers.  The ontology
parser's flat matches change no value and no error.  Bench's
`--timeout` and `--repeat` either validate or are usage errors, and the
`query` command ends every input in exit 0, 1 or 2."""

import contextlib
import io
import math
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, example, given, settings, strategies as st

from helpers import EXAMPLE_SPECIES, parse_token_by_token
from metaql import MetaqlError, normalize_ontology, parse_ontology, parse_query, to_conjunctive_query
from metaql import cli
from metaql.cli import main

OWL_TOKENS = (
    "Prefix", "Ontology", "(", ")", "=", ":", "ex:", "<http://x#a>", "<http://x#>", "<>", "<a b>",
    ":A", ":B", ":p", "ex:C", "nope:x", "owl:Thing", "owl:Nothing", "owl:topObjectProperty",
    "owl:bottomObjectProperty", "SubClassOf", "EquivalentClasses", "DisjointClasses",
    "ClassAssertion", "ObjectPropertyAssertion", "ObjectSomeValuesFrom", "ObjectInverseOf",
    "SubObjectPropertyOf", "EquivalentObjectProperties", "InverseObjectProperties",
    "DisjointObjectProperties", "ObjectPropertyDomain", "ObjectPropertyRange",
    "ReflexiveObjectProperty", "IrreflexiveObjectProperty", "DifferentIndividuals",
    "Declaration", "Class", "Annotation", "ObjectUnionOf", "ObjectIntersectionOf", "ObjectComplementOf",
    "Import", '"lit"', '"x\\"', "^^", "@en", "xsd:string", "# note\n", "\n", " ", "\x00",
    "ClassAssertion(ex:C :A)", "SubClassOf(:A <http://x#a>)", "ObjectPropertyAssertion(:p :A <http://x#a>)",
)

SPARQL_TOKENS = (
    "PREFIX", "BASE", "SELECT", "DISTINCT", "*", "WHERE", "{", "}", ".", " . ", "?x", "?y", "$z",
    "?", "a", "rdf:type", "<http://x#p>", "<>", "<a b>", "ex:", ":", ":A", "ex:C", "nope:x",
    "owl:Thing", "FILTER", "OPTIONAL", "UNION", "LIMIT", "ASK", ";", ",", "(", ")", "[", "]",
    '"s"', "_:b", "/", "^", "# c\n", "\n", "\x00",
)

OWL_CHARS = "()<>:=\"#@^ \n\t\\aAbSx_-.0 \x00"
SPARQL_CHARS = "{}()<>:?$.*;,[]/|^!=\"#_ \n\taAxSWE \x00"

fuzz = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

BENCH_NUMBERS = st.one_of(
    st.sampled_from(("nan", "-nan", "inf", "-inf", "1e400", "-1", "0", "-0.0", "0.5", "3")),
    st.floats().map(repr),
    st.integers().map(str),
    st.text(max_size=10),
)


def _tokens(vocab):
    return st.lists(st.sampled_from(vocab), max_size=40).map(" ".join)


def _ontology_ok_or_error(text):
    try:
        normalize_ontology(parse_ontology(text))
    except MetaqlError:
        pass


def _query_ok_or_error(text):
    try:
        to_conjunctive_query(parse_query(text))
    except MetaqlError:
        pass


@fuzz
@given(st.text(max_size=200))
def test_ontology_from_any_text(text):
    _ontology_ok_or_error(text)


@fuzz
@given(st.text(alphabet=OWL_CHARS, max_size=120))
def test_ontology_from_syntax_characters(text):
    _ontology_ok_or_error(text)


@fuzz
@given(_tokens(OWL_TOKENS))
def test_ontology_from_token_sequences(text):
    _ontology_ok_or_error(text)


@fuzz
@given(st.lists(st.sampled_from(OWL_TOKENS), max_size=30).map(lambda ts: "Ontology(" + " ".join(ts) + ")"))
@example("Ontology(DifferentIndividuals ( )")
@example("Ontology(DifferentIndividuals ( <http://x#a> ))")
@example("Ontology(DisjointClasses ( <http://x#a> ))")
@example("Ontology(DisjointObjectProperties ( <http://x#a> ))")
@example("Ontology(EquivalentClasses ( <http://x#a> ))")
@example("Ontology(EquivalentObjectProperties ( <http://x#a> ))")
def test_axioms_from_token_sequences(text):
    _ontology_ok_or_error(text)


# Operands that resolve, and (in messy texts) some that do not.
FLAT_OPERANDS = (":A", ":p", "ex:C", "ex:", ":", "owl:Thing", "<http://x#a>", "<http://x#(b)>")
BAD_OPERANDS = ("nope:x", "<>", "ObjectInverseOf", "ObjectUnionOf", "Class", "ex:.a", "ex:A.")
# Spacing between the parts of an axiom: none (so `<a><b>` and `ex:C:A`
# occur), Unicode spaces, and a comment.
FLAT_GAPS = ("", " ", "  ", "\n\t", "\u00a0", "\x1c", " # c\n")
FLAT_ARITY = {"ClassAssertion": 2, "SubClassOf": 2, "ObjectPropertyAssertion": 3}
NON_FLAT_AXIOMS = (
    "SubClassOf(ObjectSomeValuesFrom(:p owl:Thing) ex:C)", "SubClassOf(:A ObjectSomeValuesFrom(ObjectInverseOf(:p) :B))",
    "ObjectPropertyAssertion(ObjectInverseOf(:p) :a :b)", "EquivalentClasses(:A :B)", "DisjointClasses(:A :B :C)",
    "Declaration(Class(:A))", "AnnotationAssertion(:x :a \"s\"@en)",
    "SubClassOf(Annotation(:note \"(x)\") :A ex:C)",
    "ObjectPropertyRange(:p ObjectIntersectionOf(:A ObjectComplementOf(ex:C)))",
)
BAD_AXIOMS = (
    "ClassAssertion(ObjectSomeValuesFrom(:p :A) :a)", "ClassAssertion(ObjectUnionOf(:A :B) :a)",
    "Declaration(ClassAssertion(ex:C :a)",
    "SubObjectPropertyOf(ObjectPropertyChain(:p :q) :r)", "DifferentIndividuals(:a ObjectOneOf(:b))",
)
ONTOLOGY_FRAMES = ("Ontology({})", "Ontology(<http://x#o>\n{}\n)")
BAD_FRAMES = ("Ontology({}", "{}", "Ontology() {}", "Ontology({}) {}")
# Places where an axiom is not expected, to hold a flat axiom in messy texts.
NESTINGS = ("EquivalentClasses(:A {})", "ClassAssertion({} :a)", "Declaration({})", "Declaration({}", "Prefix({})")


@st.composite
def _flat_axioms(draw, messy):
    """ClassAssertion, SubClassOf and ObjectPropertyAssertion, spaced in any
    way; in messy texts with any operands, one to four of them."""
    keyword = draw(st.sampled_from(sorted(FLAT_ARITY)))
    arity = draw(st.sampled_from((FLAT_ARITY[keyword], 1, 2, 3, 4))) if messy else FLAT_ARITY[keyword]
    operand = st.sampled_from(FLAT_OPERANDS + BAD_OPERANDS if messy else FLAT_OPERANDS)
    gap = st.sampled_from(FLAT_GAPS)
    text = keyword + draw(gap) + "(" + draw(gap)
    for _ in range(arity - 1):
        text += draw(operand) + draw(gap if messy else st.sampled_from(FLAT_GAPS[1:]))
    return text + draw(operand) + draw(gap) + ")"


@st.composite
def _ontologies_with_flat_axioms(draw):
    """Flat axioms mixed with other axioms in an Ontology(...); messy texts
    add stray tokens, bad operands and axioms, flat axioms where no axiom
    may start, and broken frames."""
    messy = draw(st.booleans())
    flat = _flat_axioms(messy)
    others = st.sampled_from(NON_FLAT_AXIOMS + BAD_AXIOMS if messy else NON_FLAT_AXIOMS)
    if messy:
        nested = st.tuples(st.sampled_from(NESTINGS), flat).map(lambda t: t[0].replace("{}", t[1]))
        piece = st.one_of(flat, nested, others, st.sampled_from(OWL_TOKENS))
    else:
        piece = st.one_of(flat, flat, others)
    body = "".join(draw(st.sampled_from(FLAT_GAPS[1:])) + p for p in draw(st.lists(piece, max_size=6)))
    frame = draw(st.sampled_from(ONTOLOGY_FRAMES + BAD_FRAMES if messy else ONTOLOGY_FRAMES))
    return "Prefix(ex:=<http://x#>)\nPrefix(:=<http://d#>)\n" + frame.replace("{}", body)


def _parse_outcome(parse, text):
    try:
        o = parse(text)
    except MetaqlError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    return o.tbox, o.abox, o.prefixes


_EX = "Prefix(ex:=<http://e#>)\n"


@fuzz
@given(_ontologies_with_flat_axioms())
@example(_EX + "ClassAssertion(ex:C ex:a)")
@example(_EX + "Ontology(ClassAssertion(ex:C ex:a)) SubClassOf(ex:A ex:B)")
@example(_EX + "Ontology(EquivalentClasses(ex:A SubClassOf(ex:B ex:C)))")
@example(_EX + "Ontology(Declaration(ClassAssertion(ex:C ex:a)")
@example(_EX + "Ontology(ClassAssertion(ex:C ex:.a) SubClassOf(ex:A. ex:B))")
def test_flat_tokens_parse_as_token_by_token(text):
    # The same value, or the same error at the same place.
    assert _parse_outcome(parse_ontology, text) == _parse_outcome(parse_token_by_token, text)


@fuzz
@given(st.text(max_size=200))
def test_query_from_any_text(text):
    _query_ok_or_error(text)


@fuzz
@given(st.text(alphabet=SPARQL_CHARS, max_size=120))
def test_query_from_syntax_characters(text):
    _query_ok_or_error(text)


@fuzz
@given(_tokens(SPARQL_TOKENS))
def test_query_from_token_sequences(text):
    _query_ok_or_error(text)


@fuzz
@given(st.lists(st.sampled_from(SPARQL_TOKENS), max_size=30).map(lambda ts: "SELECT * WHERE { " + " ".join(ts) + " }"))
def test_patterns_from_token_sequences(text):
    _query_ok_or_error(text)


# No subject is a prefixed name: SPARQL reads `ex:C.ex:D` as one name.
DOTTED_SUBJECTS = ("?x", "?y", "<http://x#c>")
DOTTED_PREDICATES = ("a", "?p", "ex:p", "ex:p.q", "<http://x#p>")
DOTTED_OBJECTS = DOTTED_SUBJECTS + ("ex:C", "ex:a.b")
DOTS = (".", " .", ". ", " . ", ".# c\n", "\n.\n")


@st.composite
def _dotted_patterns(draw):
    """Triple patterns, each with the text that follows it: a `.` with or
    without spaces or a comment around it, or, after the last, nothing."""
    pattern = st.tuples(*map(st.sampled_from, (DOTTED_SUBJECTS, DOTTED_PREDICATES, DOTTED_OBJECTS)))
    patterns = draw(st.lists(pattern, min_size=1, max_size=4))
    seps = [draw(st.sampled_from(DOTS)) for _ in patterns[1:]] + [draw(st.sampled_from(("", " ") + DOTS))]
    return list(zip(patterns, seps))


@fuzz
@given(_dotted_patterns())
@example([(("?x", "a", "ex:C"), ".")])
@example([(("?x", "a", "ex:C"), ". ")])
@example([(("?x", "a", "ex:C"), ". "), (("?x", "ex:p", "ex:C"), " ")])
@example([(("?x", "a", "ex:C"), " .# comment\n")])
def test_a_dot_ends_a_pattern_with_or_without_spaces(parts):
    # A `.` that is not inside a name separates patterns, so the text
    # parses as the same patterns written with ` . ` between them.
    prefix = "PREFIX ex: <http://x#>\nSELECT * WHERE { "
    tight = prefix + "".join(" ".join(p) + sep for p, sep in parts) + "}"
    spaced = prefix + " . ".join(" ".join(p) for p, _ in parts) + " }"
    assert parse_query(tight) == parse_query(spaced)


class _RunStarted(Exception):
    pass


@fuzz
@given(BENCH_NUMBERS, BENCH_NUMBERS)
@example("nan", "1")
@example("inf", "1")
@example("0", "1")
@example("1", "0")
@example("2147484", "1")
@example("1e20", "1")
def test_bench_flags_validate_or_are_a_usage_error(timeout, repeat):
    def first_run(ontology, query, timeout_s):
        raise _RunStarted(timeout_s)

    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_bench_one_run", first_run):
        out = Path(tmp) / "out.csv"
        argv = ["bench", "a.ofn", "-q", "q.rq", f"--timeout={timeout}", f"--repeat={repeat}", "-o", str(out)]
        try:
            with contextlib.redirect_stderr(stderr):
                code = main(argv)
        except _RunStarted as started:
            # A run starts only when --repeat is at least 1, and with a
            # timeout that subprocess's poll() can wait for.
            (timeout_s,) = started.args
            assert math.isfinite(timeout_s) and 0 < timeout_s <= 2_147_483
            return
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert not out.exists()
    assert stderr.getvalue().startswith(("error: ", "usage: "))
    assert "Traceback" not in stderr.getvalue()


@fuzz
@given(
    st.one_of(st.binary(max_size=200), _tokens(OWL_TOKENS).map(str.encode), st.just(EXAMPLE_SPECIES.encode())),
    st.one_of(st.binary(max_size=200), _tokens(SPARQL_TOKENS).map(str.encode)),
)
def test_query_command_on_any_bytes_exits_0_1_or_2(ontology, query):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "o.ofn", Path(tmp) / "q.rq"]
        for path, data in zip(paths, (ontology, query)):
            path.write_bytes(data)
        assert main(["query", str(paths[0]), "-q", str(paths[1])]) in (0, 1, 2)
