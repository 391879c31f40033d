"""Input-boundary properties: any text, however malformed, either parses
or raises a `MetaqlError`; nothing else escapes the parsers.  Bench
configs either validate or are usage errors, and the `query` command
ends every input in exit 0, 1 or 2."""

import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from helpers import EXAMPLE_SPECIES
from metaql import MetaqlError, normalize_ontology, parse_ontology, parse_query, to_conjunctive_query
from metaql.cli import _parse_bench_config, _Usage, main

OWL_TOKENS = (
    "Prefix", "Ontology", "(", ")", "=", ":", "ex:", "<http://x#a>", "<http://x#>", "<>", "<a b>",
    ":A", ":B", ":p", "ex:C", "nope:x", "owl:Thing", "owl:Nothing", "owl:topObjectProperty",
    "owl:bottomObjectProperty", "SubClassOf", "EquivalentClasses", "DisjointClasses",
    "ClassAssertion", "ObjectPropertyAssertion", "ObjectSomeValuesFrom", "ObjectInverseOf",
    "SubObjectPropertyOf", "EquivalentObjectProperties", "InverseObjectProperties",
    "DisjointObjectProperties", "ObjectPropertyDomain", "ObjectPropertyRange",
    "ReflexiveObjectProperty", "IrreflexiveObjectProperty", "DifferentIndividuals",
    "Declaration", "Class", "Annotation", "ObjectUnionOf", "Import", '"lit"', '"x\\"', "^^",
    "@en", "xsd:string", "# note\n", "\n", " ", "\x00",
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
BENCH_LINES = st.one_of(
    st.builds("timeout_s = {}".format, BENCH_NUMBERS),
    st.builds("repeat = {}".format, BENCH_NUMBERS),
    st.builds("{} = {}".format, st.sampled_from(("ontologies", "queries", "output_csv")), st.text(max_size=20)),
)
# Any text, or a config listing its inputs followed by arbitrary settings.
BENCH_CONFIGS = st.one_of(
    st.text(max_size=200),
    st.lists(BENCH_LINES, max_size=6).map(lambda lines: "\n".join(["ontologies = a.ofn", "queries = q.rq", *lines])),
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


@fuzz
@given(BENCH_CONFIGS)
@example("ontologies = a.ofn\nqueries = q.rq\ntimeout_s = nan")
def test_bench_config_validates_or_is_a_usage_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.cfg"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        try:
            config = _parse_bench_config(str(path))
        except _Usage:
            return
    assert math.isfinite(config["timeout_s"]) and config["timeout_s"] > 0
    assert config["repeat"] >= 1


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
