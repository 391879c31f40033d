import re

import pytest

from helpers import EXAMPLE_SPECIES_ZOO, SPECIES, saturate
from metaql import (
    Atom,
    BOTTOM_CLASS,
    TOP_CLASS,
    Var,
    answer_conjunctive_query,
    atom,
    parse_query,
    to_conjunctive_query,
)
from metaql.errors import OwlSyntaxError, UnknownPrefix, UnsafeQuery, UnsupportedFeature
from metaql.sparql import RDF_TYPE, TriplePattern
from metaql.synthetic import UNI, university_ontology

PFX = f"PREFIX : <{SPECIES}>\n"


def test_parse_zoo_meta_query():
    q = parse_query(PFX + "SELECT ?z WHERE { ?y a :ES . ?z a ?y . ?z :Lives_in :CPZ }")
    assert len(q.patterns) == 3
    assert q.answer_vars == (Var("z"),)
    assert q.patterns[1] == TriplePattern(Var("z"), "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", Var("y"))


def test_parse_accepts_capitalized_subclassof():
    q = parse_query("SELECT ?x ?y ?z WHERE { ?x rdf:type ?y . ?y rdfs:SubClassOf ?z }")
    assert len(q.patterns) == 2
    cq = to_conjunctive_query(q)
    assert cq.body == (atom("instc", "y", "x"), atom("isacCC", "y", "z"))
    assert cq.answer_vars == (Var("x"), Var("y"), Var("z"))


def test_empty_where_is_a_syntax_error():
    with pytest.raises(OwlSyntaxError):
        parse_query("SELECT ?x WHERE { }")


@pytest.mark.parametrize(
    "where, order",
    [
        ("?b :p ?a . ?a :p ?c", "bac"),
        # a predicate-position variable, and every variable repeated
        ("?b ?p ?a . ?a ?p ?b", "bpa"),
    ],
    ids=["subject-object", "predicate-repeats"],
)
def test_star_projection_uses_first_occurrence_order(where, order):
    q = parse_query(PFX + f"SELECT * WHERE {{ {where} }}")
    assert q.answer_vars == tuple(Var(name) for name in order)


def test_distinct_is_accepted():
    q = parse_query(PFX + "SELECT DISTINCT ?x WHERE { ?x a :C }")
    assert q.answer_vars == (Var("x"),)


@pytest.mark.parametrize(
    "text",
    [
        "SELECT ?x WHERE { ?x a :C . OPTIONAL { ?x :p ?y } }",
        "SELECT ?x WHERE { ?x a :C . FILTER(?x > 3) }",
        "SELECT ?x WHERE { { ?x a :C } UNION { ?x a :D } }",
        "SELECT ?x WHERE { ?x :p/:q ?y }",
        "SELECT ?x WHERE { ?x :p [ :q ?y ] }",
        "SELECT ?x WHERE { _:b :p ?x }",
        'SELECT ?x WHERE { ?x :label "bird" }',
        "ASK WHERE { ?x a :C }",
    ],
)
def test_unsupported_features_are_named(text):
    with pytest.raises(UnsupportedFeature):
        parse_query(PFX + text)


def test_other_schema_vocabulary_is_not_guessed():
    with pytest.raises(UnsupportedFeature):
        to_conjunctive_query(parse_query(PFX + "SELECT ?x ?y WHERE { ?x owl:equivalentClass ?y }"))


def test_translate_zoo_query_bodies():
    q = parse_query(PFX + "SELECT ?z WHERE { ?y a :ES . ?z a ?y . ?z :Lives_in :CPZ }")
    cq = to_conjunctive_query(q)
    es = SPECIES + "ES"
    lives = SPECIES + "Lives_in"
    cpz = SPECIES + "CPZ"
    assert cq.body == (
        Atom("instc", (es, Var("y"))),
        atom("instc", "y", "z"),
        Atom("instr", (lives, Var("z"), cpz)),
    )
    assert cq.answer_vars == (Var("z"),)


def test_translate_self_membership_meta_query():
    # Classes that are themselves members of another class.
    q = parse_query(PFX + "SELECT ?x WHERE { ?x a :c . ?y a ?x }")
    assert to_conjunctive_query(q).body == (Atom("instc", (SPECIES + "c", Var("x"))), atom("instc", "x", "y"))


def test_translate_plain_property_pattern():
    q = parse_query(PFX + "SELECT ?s ?o WHERE { ?s :p ?o }")
    cq = to_conjunctive_query(q)
    assert cq.body == (Atom("instr", (SPECIES + "p", Var("s"), Var("o"))),)
    assert cq.answer_vars == (Var("s"), Var("o"))


def test_reserved_predicate_mappings():
    cases = [
        ("?a rdfs:subPropertyOf ?b", atom("isarRR", "a", "b")),
        ("?a owl:disjointWith ?b", atom("disjcCC", "a", "b")),
        ("?a owl:propertyDisjointWith ?b", atom("disjrRR", "a", "b")),
        ("?a owl:differentFrom ?b", atom("diff", "a", "b")),
    ]
    for pattern, expected in cases:
        assert to_conjunctive_query(parse_query(f"SELECT ?a ?b WHERE {{ {pattern} }}")).body == (expected,)


def test_pattern_count_is_preserved():
    q = parse_query(PFX + "SELECT ?x WHERE { ?x a :C . ?x :p ?y . ?y :q ?z . ?z a :D }")
    assert len(to_conjunctive_query(q).body) == len(q.patterns) == 4


@pytest.mark.parametrize(
    "text, missing",
    [(PFX + "SELECT ?missing WHERE { ?x a :C }", "missing"), ("SELECT ?m WHERE { ?x a ?y }", "m")],
)
def test_unsafe_projection_is_rejected(text, missing):
    message = f"answer variable(s) ['{missing}'] do not occur in the body"
    with pytest.raises(UnsafeQuery, match=re.escape(message) + "$"):
        to_conjunctive_query(parse_query(text))


def test_same_variable_in_every_position_translates():
    # The regime's point: no variable typing constraint at all.
    q = parse_query("SELECT ?x WHERE { ?x ?x ?x }")
    assert to_conjunctive_query(q).body == (atom("instr", "x", "x", "x"),)


def test_variable_in_predicate_position():
    q = parse_query(PFX + "SELECT ?p WHERE { :Harry ?p :CPZ }")
    assert to_conjunctive_query(q).body == (
        Atom("instr", (Var("p"), SPECIES + "Harry", SPECIES + "CPZ")),
    )


def test_end_to_end_zoo_answer():
    _, store, _ = saturate(EXAMPLE_SPECIES_ZOO)
    q = parse_query(
        PFX + "SELECT ?z WHERE { ?y a :EndangeredSpecies . ?z a ?y . ?z :Lives_in :CPZ }"
    )
    assert answer_conjunctive_query(store, to_conjunctive_query(q)) == [(SPECIES + "Harry",)]


# A `.` after a name ends the triple pattern, with or without a space:
# each form answers like its spaced twin.
@pytest.mark.parametrize(
    "where, spaced",
    [
        ("{ ?x a uni:GraduateStudent.}", "{ ?x a uni:GraduateStudent . }"),
        ("{ ?x a uni:GraduateStudent. }", "{ ?x a uni:GraduateStudent . }"),
        (
            "{ ?x a uni:GraduateStudent. ?x uni:memberOf uni:dept0_0 }",
            "{ ?x a uni:GraduateStudent . ?x uni:memberOf uni:dept0_0 }",
        ),
        ("{ ?x a uni:GraduateStudent .# comment\n}", "{ ?x a uni:GraduateStudent . }"),
    ],
)
def test_a_dot_after_a_name_ends_the_pattern(where, spaced):
    _, store, _ = saturate(university_ontology(1))

    def answers(w):
        q = parse_query(f"PREFIX uni: <{UNI}>\nSELECT ?x WHERE {w}")
        return answer_conjunctive_query(store, to_conjunctive_query(q))

    assert len(answers(spaced)) == 6
    assert answers(where) == answers(spaced)


def test_a_name_keeps_a_dot_inside_it():
    q = parse_query("PREFIX ex: <http://ex/>\nSELECT ?x WHERE { ?x a ex:a.b.c. }")
    assert q.patterns == (TriplePattern(Var("x"), RDF_TYPE, "http://ex/a.b.c"),)


# One malformed input per place the query parser raises: the exception
# class, its message and, for syntax errors, its line and column.
@pytest.mark.parametrize(
    "text, error, message, position",
    [
        ("SELECT ?x WHERE {\n  ?x a ? }", OwlSyntaxError, "unexpected character '?'", (2, 8)),
        ("", OwlSyntaxError, "unexpected end of query", (1, 1)),
        ("SELECT ?x WHERE {\n  ?x a", OwlSyntaxError, "unexpected end of query", (2, 6)),
        (PFX + "SELECT ?x WHERE { ?x a :C .\n  OPTIONAL { ?x :p ?y } }", UnsupportedFeature, "OPTIONAL", None),
        (PFX + 'SELECT ?x WHERE { ?x :label "bird" }', UnsupportedFeature, "literals", None),
        (PFX + "SELECT ?x WHERE { ?x :p [ :q ?y ] }", UnsupportedFeature, "blank nodes", None),
        (
            PFX + "SELECT ?x WHERE { ?x :p/:q ?y }",
            UnsupportedFeature,
            "punctuation '/' (property paths / expressions)",
            None,
        ),
        (
            "SELECT ?x WHERE { ?x <http://e#p>/<http://e#q> ?y }",
            UnsupportedFeature,
            "punctuation '/' (property paths / expressions)",
            None,
        ),
        ("SELECT ?x WHERE { _:b <http://ex/p> ?x }", UnsupportedFeature, "blank nodes", None),
        ("SELECT ?x WHERE { ?x a ?y ; ?p ?z }", UnsupportedFeature, "predicate-object lists (';')", None),
        ("SELECT ?x WHERE { ?x a ?y , ?z }", UnsupportedFeature, "object lists (',')", None),
        ("PREFIX ex <http://ex/>\nSELECT ?x WHERE { ?x a ex:C }", OwlSyntaxError, "expected prefix name ending in ':'", (1, 8)),
        ("PREFIX ex: ex:C\nSELECT ?x WHERE { ?x a ex:C }", OwlSyntaxError, "expected <iri> after prefix name", (1, 12)),
        (PFX + "SELEKT ?x WHERE { ?x a :C }", OwlSyntaxError, "expected SELECT, found 'SELEKT'", (2, 1)),
        ("ASK WHERE { ?x a <http://ex/C> }", UnsupportedFeature, "ASK queries", None),
        ("SELECT\n  WHERE { ?x a :C }", OwlSyntaxError, "projection must list variables or *", (2, 3)),
        ("SELECT DISTINCT", OwlSyntaxError, "projection must list variables or *", (1, 1)),
        ("SELECT ?x * WHERE { ?x a ?y }", OwlSyntaxError, "'*' must be the whole projection", (1, 11)),
        ("SELECT * * WHERE { ?x a ?y }", OwlSyntaxError, "'*' must be the whole projection", (1, 10)),
        ("SELECT *\n  ?x WHERE { ?x a ?y }", OwlSyntaxError, "expected WHERE, found '?x'", (2, 3)),
        ("SELECT ?x\n  { ?x a :C }", OwlSyntaxError, "expected WHERE, found '{'", (2, 3)),
        ("SELECT ?x WHERE\n  ?x a :C", OwlSyntaxError, "expected '{' after WHERE", (2, 3)),
        ("SELECT ?x WHERE {\n  { ?x a :C } }", UnsupportedFeature, "grouped graph patterns", None),
        ("SELECT ?x WHERE {\n  a ?p ?x }", OwlSyntaxError, "'a' is only valid in predicate position", (2, 3)),
        ("SELECT ?x WHERE {\n  ?x a } }", OwlSyntaxError, "expected a term, found '}'", (2, 8)),
        ("SELECT ?x WHERE {\n  ?x a <http://ex/C> .", OwlSyntaxError, "unterminated WHERE block", (1, 17)),
        (
            "SELECT ?x WHERE {\n  ?x a <http://ex/C> ?y }",
            OwlSyntaxError,
            "expected '.' or '}' after a triple pattern, found '?y'",
            (2, 22),
        ),
        (PFX + "SELECT ?x WHERE { ?x a :C FILTER(?x != :D) }", UnsupportedFeature, "FILTER", None),
        (PFX + "SELECT ?x WHERE { ?x a :C OPTIONAL { ?x :p ?y } }", UnsupportedFeature, "OPTIONAL", None),
        ("SELECT ?x WHERE { ?x a <http://ex/C> }\n  ?y", OwlSyntaxError, "unexpected input after WHERE block: '?y'", (2, 3)),
        ("SELECT ?x WHERE { ?x a <http://ex/C> }\n  LIMIT 3", UnsupportedFeature, "solution modifiers", None),
        ("SELECT ?x WHERE\n  { }", OwlSyntaxError, "WHERE block must contain at least one triple pattern", (2, 3)),
        ("SELECT ?x WHERE { ?x a nope:C }", UnknownPrefix, "undeclared prefix 'nope'", None),
        # The first error in reading order, not the unexpected character after it.
        ('SELECT ?x WHERE { ?x nope:p "a }', UnknownPrefix, "undeclared prefix 'nope'", None),
        (
            "PREFIX ex: <http://ex/>\nSELECT ?x WHERE {\n  ?x a ex:.b }",
            OwlSyntaxError,
            "a prefix may not end, nor a local name start or end, with '.': 'ex:.b'",
            (3, 8),
        ),
        (
            "PREFIX ex.: <http://ex/>\nSELECT ?x WHERE { ?x a ex.:b }",
            OwlSyntaxError,
            "a prefix may not end, nor a local name start or end, with '.': 'ex.:'",
            (1, 8),
        ),
    ],
)
def test_every_parser_error_site_reports_its_message_and_position(text, error, message, position):
    with pytest.raises(error) as exc:
        parse_query(text)
    if position is None:
        assert str(exc.value) == message
    else:
        assert str(exc.value) == f"{message} (line {position[0]}, column {position[1]})"
        assert (exc.value.line, exc.value.col) == position


# One query per place the translation to Datalog raises, with its message.
@pytest.mark.parametrize(
    "text, message",
    [
        (
            "SELECT ?x ?y WHERE { ?x owl:equivalentClass ?y }",
            "schema predicate http://www.w3.org/2002/07/owl#equivalentClass",
        ),
        ("SELECT ?c WHERE { ?c a owl:Class }", "schema class http://www.w3.org/2002/07/owl#Class as an rdf:type object"),
        (
            "SELECT ?c WHERE { ?c rdf:type rdfs:Class }",
            "schema class http://www.w3.org/2000/01/rdf-schema#Class as an rdf:type object",
        ),
        (
            "SELECT ?x WHERE { ?x a owl:topObjectProperty }",
            "schema class http://www.w3.org/2002/07/owl#topObjectProperty as an rdf:type object",
        ),
    ],
)
def test_every_translation_error_site_reports_its_message(text, message):
    with pytest.raises(UnsupportedFeature) as exc:
        to_conjunctive_query(parse_query(text))
    assert str(exc.value) == message


def test_owl_thing_and_nothing_are_the_classes_of_the_schema_a_query_may_ask_for():
    for name, reserved in (("Thing", TOP_CLASS), ("Nothing", BOTTOM_CLASS)):
        cq = to_conjunctive_query(parse_query(f"SELECT ?x WHERE {{ ?x a owl:{name} }}"))
        assert cq.body == (Atom("instc", (reserved, Var("x"))),)
