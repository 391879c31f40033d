"""Input-boundary properties: any text, however malformed, either parses
or raises a `MetaqlError`; nothing else escapes the parsers."""

from hypothesis import HealthCheck, given, settings, strategies as st

from metaql import MetaqlError, normalize_ontology, parse_ontology, parse_query, to_conjunctive_query

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
