import random
from pathlib import Path

import pytest

from gens import random_ontology
from helpers import BASIC_OF_KIND, EXAMPLE_SPECIES, SPECIES, fact, parse_token_by_token
from metaql import (
    ClassDisjoint,
    ClassInclusion,
    Ontology,
    PropInclusion,
    TOP_CLASS,
    TOP_PROPERTY,
    normalize_ontology,
    parse_ontology,
    serialize_ontology,
)
from metaql.errors import OwlSyntaxError, UnknownPrefix, UnsupportedAxiom
from metaql.oracle import tbox_closure


def ent(local: str) -> str:
    return SPECIES + local


def parse_axioms(body: str):
    text = f"Prefix(:=<{SPECIES}>)\nOntology(\n{body}\n)"
    o = parse_ontology(text)
    return o.tbox | o.abox


def test_parse_example_species():
    o = parse_ontology(EXAMPLE_SPECIES)
    assert fact("isacCC", ent("Eagle"), ent("Birds")) in o.tbox
    assert fact("isacCC", ent("GoldenEagle"), ent("Eagle")) in o.tbox
    assert fact("instc", ent("GoldenEagle"), ent("Harry")) in o.abox
    assert fact("instc", ent("EndangeredSpecies"), ent("GoldenEagle")) in o.abox
    assert len(o) == 4


def test_parse_empty_ontology():
    o = parse_ontology("Ontology()")
    assert len(o) == 0


def test_parse_ontology_iri_and_comments():
    o = parse_ontology(
        "# species data\nOntology(<http://ex/onto> <http://ex/onto/1.0>\n"
        "  SubClassOf(<http://a/X> <http://a/Y>)  # inline comment\n)"
    )
    assert len(o) == 1


def test_equivalent_classes_become_two_inclusions():
    axs = parse_axioms("EquivalentClasses(:A :B)")
    assert axs == {
        fact("isacCC", ent("A"), ent("B")),
        fact("isacCC", ent("B"), ent("A")),
    }


def test_domain_and_range_become_existential_inclusions():
    axs = parse_axioms("ObjectPropertyDomain(:r :C) ObjectPropertyRange(:r :D)")
    assert fact("isacRC", ent("r"), ent("C")) in axs
    assert fact("isacIC", ent("r"), ent("D")) in axs


def test_inverse_object_properties_become_two_inclusions():
    axs = parse_axioms("InverseObjectProperties(:r :s)")
    assert axs == {
        fact("isarRI", ent("r"), ent("s")),
        fact("isarRI", ent("s"), ent("r")),
    }


def test_inverse_on_left_of_property_inclusion_is_normalized():
    axs = parse_axioms("SubObjectPropertyOf(ObjectInverseOf(:r) :s)")
    assert axs == {fact("isarRI", ent("r"), ent("s"))}
    # Double inverse folds away entirely.
    axs = parse_axioms("SubObjectPropertyOf(ObjectInverseOf(ObjectInverseOf(:r)) :s)")
    assert axs == {fact("isarRR", ent("r"), ent("s"))}


def test_inverse_on_left_of_property_disjointness_is_normalized():
    axs = parse_axioms("DisjointObjectProperties(ObjectInverseOf(:r) :s)")
    assert axs == {fact("disjrRI", ent("r"), ent("s"))}


@pytest.mark.parametrize("depth", [5000, 5001])
def test_deeply_nested_inverses_fold_by_parity(depth):
    nested = "ObjectInverseOf(" * depth + ":r" + ")" * depth
    axs = parse_axioms(f"SubObjectPropertyOf({nested} :s)")
    odd = depth % 2 == 1
    assert axs == {fact("isarRI" if odd else "isarRR", ent("r"), ent("s"))}
    with pytest.raises(OwlSyntaxError):
        parse_axioms(f"SubObjectPropertyOf({nested[:-1]} :s)")


def test_deeply_nested_intersections_flatten_to_their_conjuncts():
    # The superclass reader keeps its open intersections on a list, so no
    # depth of nesting exhausts the call stack.
    nested = "ObjectIntersectionOf(:B " * 5000 + "ObjectComplementOf(:C)" + ")" * 5000
    assert parse_axioms(f"SubClassOf(:A {nested})") == parse_axioms("SubClassOf(:A :B) DisjointClasses(:A :C)")
    with pytest.raises(OwlSyntaxError):
        parse_axioms(f"SubClassOf(:A {nested[:-1]})")


def test_nary_disjoint_classes_expand_to_all_pairs():
    axs = parse_axioms("DisjointClasses(:A :B :C)")
    assert len(axs) == 3
    assert all(pred.startswith("disjc") for pred, _ in axs)


def test_nary_different_individuals_expand_to_all_pairs():
    axs = parse_axioms("DifferentIndividuals(:a :b :c)")
    assert len(axs) == 3
    assert all(pred == "diff" for pred, _ in axs)


def test_inverse_property_assertion_swaps_arguments():
    axs = parse_axioms("ObjectPropertyAssertion(ObjectInverseOf(:r) :a :b)")
    assert axs == {fact("instr", ent("r"), ent("b"), ent("a"))}


@pytest.mark.parametrize(
    "text",
    [
        'Declaration(Class(:A)) AnnotationAssertion(rdfs:label :A "a label"@en)',
        'SubAnnotationPropertyOf(Annotation(rdfs:comment "x") :shortLabel rdfs:label)',
        "AnnotationPropertyDomain(rdfs:label :A)",
        "AnnotationPropertyRange(rdfs:label xsd:string)",
    ],
    ids=["declaration-and-assertion", "sub-property", "domain", "range"],
)
def test_declarations_and_annotations_are_discarded(text):
    assert parse_axioms(text) == set()


@pytest.mark.parametrize(
    "written, core",
    [
        ("SymmetricObjectProperty(:r)", "SubObjectPropertyOf(:r ObjectInverseOf(:r))"),
        ("SymmetricObjectProperty(ObjectInverseOf(:r))", "SubObjectPropertyOf(ObjectInverseOf(:r) :r)"),
        ("AsymmetricObjectProperty(:r)", "DisjointObjectProperties(:r ObjectInverseOf(:r))"),
        ("AsymmetricObjectProperty(ObjectInverseOf(:r))", "DisjointObjectProperties(ObjectInverseOf(:r) :r)"),
        ('SubClassOf(Annotation(rdfs:comment "x") :A :B)', "SubClassOf(:A :B)"),
        (
            'ClassAssertion(Annotation(rdfs:comment "x"@en) Annotation(rdfs:seeAlso <http://ex/d>) :A :a)',
            "ClassAssertion(:A :a)",
        ),
        (
            'DisjointClasses(Annotation(Annotation(rdfs:label "n") rdfs:comment "x") :A :B :C)',
            "DisjointClasses(:A :B :C)",
        ),
        (
            'ObjectPropertyDomain(Annotation(rdfs:comment "a (b)") ObjectInverseOf(:r) :C)',
            "ObjectPropertyDomain(ObjectInverseOf(:r) :C)",
        ),
        # OWL 2 QL's superclass expressions: an intersection is one inclusion
        # per conjunct, and a complement is a disjointness.
        ("SubClassOf(:A ObjectIntersectionOf(:B :C))", "SubClassOf(:A :B) SubClassOf(:A :C)"),
        ("SubClassOf(:A ObjectComplementOf(:B))", "DisjointClasses(:A :B)"),
        (
            "ObjectPropertyRange(:p ObjectIntersectionOf(:B :C))",
            "ObjectPropertyRange(:p :B) ObjectPropertyRange(:p :C)",
        ),
        (
            "ObjectPropertyDomain(ObjectInverseOf(:p) ObjectComplementOf(ObjectSomeValuesFrom(:q owl:Thing)))",
            "DisjointClasses(ObjectSomeValuesFrom(ObjectInverseOf(:p) owl:Thing) ObjectSomeValuesFrom(:q owl:Thing))",
        ),
        (
            "SubClassOf(:A ObjectIntersectionOf(:B\n"
            "  ObjectIntersectionOf(ObjectComplementOf(:C) ObjectSomeValuesFrom(:s :D))))",
            "SubClassOf(:A :B) DisjointClasses(:A :C) SubClassOf(:A ObjectSomeValuesFrom(:s :D))",
        ),
    ],
)
def test_a_form_parses_to_the_facts_of_its_core_form(written, core):
    assert parse_axioms(written) == parse_axioms(core) != set()


def _facts(*rows):
    """Facts written out by hand: each row a predicate and local names in
    the test namespace, `Thing` standing for the reserved top class."""
    return {(pred, tuple("urn:metaql:topClass" if n == "Thing" else SPECIES + n for n in names)) for pred, *names in rows}


_SOME = "ObjectSomeValuesFrom"
_INV = "ObjectInverseOf"


# Every axiom form, with an inverse on either side where the form takes a
# property expression, and the facts of its normal form as the signature
# spells them, written out independently of the axiom constructors.
FORM_TABLE = [
    ("SubClassOf(:A :B)", [("isacCC", "A", "B")]),
    (f"SubClassOf(:A {_SOME}(:r :B))", [("isacCR", "A", "r", "B")]),
    (f"SubClassOf(:A {_SOME}({_INV}(:r) :B))", [("isacCI", "A", "r", "B")]),
    (f"SubClassOf(:A {_SOME}(:r owl:Thing))", [("isacCR", "A", "r", "Thing")]),
    (f"SubClassOf({_SOME}(:r owl:Thing) :B)", [("isacRC", "r", "B")]),
    (f"SubClassOf({_SOME}({_INV}(:r) owl:Thing) :B)", [("isacIC", "r", "B")]),
    (f"SubClassOf({_SOME}(:r owl:Thing) {_SOME}(:s :B))", [("isacRR", "r", "s", "B")]),
    (f"SubClassOf({_SOME}(:r owl:Thing) {_SOME}({_INV}(:s) :B))", [("isacRI", "r", "s", "B")]),
    (f"SubClassOf({_SOME}({_INV}(:r) owl:Thing) {_SOME}(:s :B))", [("isacIR", "r", "s", "B")]),
    (f"SubClassOf({_SOME}({_INV}(:r) owl:Thing) {_SOME}({_INV}(:s) :B))", [("isacII", "r", "s", "B")]),
    ("SubObjectPropertyOf(:r :s)", [("isarRR", "r", "s")]),
    (f"SubObjectPropertyOf(:r {_INV}(:s))", [("isarRI", "r", "s")]),
    (f"SubObjectPropertyOf({_INV}(:r) :s)", [("isarRI", "r", "s")]),
    (f"SubObjectPropertyOf({_INV}(:r) {_INV}(:s))", [("isarRR", "r", "s")]),
    (f"SubObjectPropertyOf({_INV}({_INV}(:r)) :s)", [("isarRR", "r", "s")]),
    (f"InverseObjectProperties(:r {_INV}(:s))", [("isarRR", "r", "s"), ("isarRR", "s", "r")]),
    ("InverseObjectProperties(:r :s)", [("isarRI", "r", "s"), ("isarRI", "s", "r")]),
    (f"ObjectPropertyDomain({_INV}(:r) :A)", [("isacIC", "r", "A")]),
    (f"ObjectPropertyRange({_INV}(:r) :A)", [("isacRC", "r", "A")]),
    ("DisjointClasses(:A :B)", [("disjcCC", "A", "B")]),
    (f"DisjointClasses(:A {_SOME}(:r owl:Thing))", [("disjcRC", "r", "A")]),
    (f"DisjointClasses(:A {_SOME}({_INV}(:r) owl:Thing))", [("disjcCI", "A", "r")]),
    (f"DisjointClasses({_SOME}(:r owl:Thing) :A)", [("disjcRC", "r", "A")]),
    (f"DisjointClasses({_SOME}(:r owl:Thing) {_SOME}(:s owl:Thing))", [("disjcRR", "r", "s")]),
    (f"DisjointClasses({_SOME}(:r owl:Thing) {_SOME}({_INV}(:s) owl:Thing))", [("disjcRI", "r", "s")]),
    (f"DisjointClasses({_SOME}({_INV}(:r) owl:Thing) :A)", [("disjcIC", "r", "A")]),
    (f"DisjointClasses({_SOME}({_INV}(:r) owl:Thing) {_SOME}(:s owl:Thing))", [("disjcIR", "r", "s")]),
    (f"DisjointClasses({_SOME}({_INV}(:r) owl:Thing) {_SOME}({_INV}(:s) owl:Thing))", [("disjcII", "r", "s")]),
    ("DisjointObjectProperties(:r :s)", [("disjrRR", "r", "s")]),
    (f"DisjointObjectProperties(:r {_INV}(:s))", [("disjrRI", "r", "s")]),
    (f"DisjointObjectProperties({_INV}(:r) :s)", [("disjrRI", "r", "s")]),
    (f"DisjointObjectProperties({_INV}(:r) {_INV}(:s))", [("disjrRR", "r", "s")]),
    (f"ReflexiveObjectProperty({_INV}(:r))", [("refl", "r")]),
    (f"IrreflexiveObjectProperty({_INV}(:r))", [("irrefl", "r")]),
    ("ClassAssertion(:A :a)", [("instc", "A", "a")]),
    ("ObjectPropertyAssertion(:r :a :b)", [("instr", "r", "a", "b")]),
    (f"ObjectPropertyAssertion({_INV}(:r) :a :b)", [("instr", "r", "b", "a")]),
    ("DifferentIndividuals(:a :b)", [("diff", "a", "b")]),
]


@pytest.mark.parametrize("text, rows", FORM_TABLE)
def test_each_axiom_form_parses_and_serializes_to_its_written_out_facts(text, rows):
    o = parse_ontology(f"Prefix(:=<{SPECIES}>)\nOntology(\n{text}\n)")
    assert o.axioms == _facts(*rows)
    assert parse_ontology(serialize_ontology(o)).axioms == o.axioms


def test_unknown_prefix_error():
    with pytest.raises(UnknownPrefix):
        parse_ontology("Ontology(SubClassOf(zz:A zz:B))")


def test_the_same_token_resolves_under_each_parse_s_own_prefixes():
    first = parse_ontology("Prefix(:=<http://one#>)\nOntology(ClassAssertion(:A :i))")
    second = parse_ontology("Prefix(:=<http://two#>)\nOntology(ClassAssertion(:A :i))")
    assert {args[0] for _, args in first.abox} == {"http://one#A"}
    assert {args[0] for _, args in second.abox} == {"http://two#A"}


def test_an_entity_spelled_two_ways_in_two_parses_is_equal_and_hashes_equal():
    first = parse_ontology("Prefix(:=<http://ex/ns/>)\nOntology(SubClassOf(:A owl:Thing))")
    second = parse_ontology("Prefix(e:=<http://ex/>)\nOntology(SubClassOf(e:ns/A e:ns/B))")
    (ax1,), (ax2,) = first.tbox, second.tbox
    a1, a2 = ax1[1][0], ax2[1][0]
    assert a1 is not a2
    assert a1 == a2 == "http://ex/ns/A" and hash(a1) == hash(a2) == hash("http://ex/ns/A")
    assert ax1[1][1] is TOP_CLASS


def test_unknown_prefix_raises_at_its_first_occurrence():
    # An earlier parse that declares zz does not make it known to a later one.
    parse_ontology("Prefix(zz:=<http://zz#>)\nOntology(SubClassOf(zz:A zz:B))")
    with pytest.raises(UnknownPrefix, match="'zz'"):
        parse_ontology("Ontology(SubClassOf(zz:A zz:A) SubClassOf(zz:A zz:B) MadeUpAxiom(zz:A))")


def test_unsupported_axioms_are_rejected_by_keyword():
    for body in (
        "TransitiveObjectProperty(:r)",
        "Import(<http://ex/other>)",
        "SubClassOf(:A ObjectMinCardinality(2 :r))",
        "SubClassOf(ObjectComplementOf(:A) :B)",
        "DataPropertyAssertion(:age :a :b)",
        "MadeUpAxiom(:A)",
    ):
        with pytest.raises(UnsupportedAxiom):
            parse_axioms(body)


def test_class_assertion_requires_named_class():
    with pytest.raises(UnsupportedAxiom):
        parse_axioms("ClassAssertion(ObjectSomeValuesFrom(:r :C) :a)")


def test_qualified_existential_on_the_left_is_rejected():
    with pytest.raises(UnsupportedAxiom):
        parse_axioms("SubClassOf(ObjectSomeValuesFrom(:r :C) :D)")


def test_syntax_error_carries_position():
    with pytest.raises(OwlSyntaxError) as exc:
        parse_ontology("Ontology(\nSubClassOf(<http://a/X>)\n)")
    assert exc.value.line >= 2
    assert exc.value.col >= 1


@pytest.mark.parametrize(
    "axiom",
    [
        "DisjointClasses(:A)",
        "DisjointObjectProperties(:p)",
        "EquivalentClasses(:A)",
        "EquivalentObjectProperties(:p)",
        "DifferentIndividuals(:a)",
    ],
)
def test_nary_axiom_with_one_operand_reports_its_keyword_position(axiom):
    with pytest.raises(OwlSyntaxError) as exc:
        parse_ontology(f"Prefix(:=<{SPECIES}>)\nOntology(\n  {axiom}\n)")
    assert "needs at least two operands" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (3, 3)


def test_normalize_adds_top_inclusions():
    o = normalize_ontology(parse_ontology(EXAMPLE_SPECIES))
    assert fact("isacCC", ent("GoldenEagle"), TOP_CLASS) in o.tbox
    assert fact("isacCC", ent("EndangeredSpecies"), TOP_CLASS) in o.tbox

    zoo = parse_axioms("ObjectPropertyAssertion(:Lives_in :Harry :CPZ)")
    normalized = normalize_ontology(Ontology(frozenset(), frozenset(zoo), {}))
    assert fact("isarRR", ent("Lives_in"), TOP_PROPERTY) in normalized.tbox


def test_normalize_is_idempotent():
    once = normalize_ontology(parse_ontology(EXAMPLE_SPECIES))
    twice = normalize_ontology(once)
    assert once.tbox == twice.tbox and once.abox == twice.abox


def _normalize_per_assertion(o: Ontology) -> Ontology:
    """Reference for `normalize_ontology`: one top inclusion per assertion."""
    tbox = set(o.tbox)
    for pred, args in o.abox:
        if pred == "instc":
            tbox.add(ClassInclusion(("C", args[0]), ("C", TOP_CLASS)))
        elif pred == "instr":
            tbox.add(PropInclusion(("R", args[0]), ("R", TOP_PROPERTY)))
    return Ontology(frozenset(tbox), o.abox, {})


def test_normalize_agrees_with_the_per_assertion_reference():
    from metaql.synthetic import university_ontology

    rng = random.Random(8)
    cases = [random_ontology(rng) for _ in range(200)] + [parse_ontology(university_ontology(2))]
    for o in cases:
        got, want = normalize_ontology(o), _normalize_per_assertion(o)
        assert got.tbox == want.tbox and got.abox == want.abox


def test_normalize_flips_class_vs_domain_disjointness():
    # c excludes some r  has no direct fact form; the constructor stores it
    # in the domain-side orientation, and normalization keeps that.
    raw = Ontology(
        frozenset({ClassDisjoint(BASIC_OF_KIND["C"](ent("C")), BASIC_OF_KIND["R"](ent("r")))}),
        frozenset(),
        {},
    )
    normalized = normalize_ontology(raw)
    assert normalized.tbox == {
        ClassDisjoint(BASIC_OF_KIND["R"](ent("r")), BASIC_OF_KIND["C"](ent("C")))
    }


def test_flipped_disjointness_has_identical_consequences():
    # Oracle check: both orientations entail the same disjointness closure
    # over a small ontology with a subclass and a subrole feeding them.
    context = """
      SubClassOf(:C2 :C)
      SubObjectPropertyOf(:s :r)
    """
    flipped = normalize_ontology(
        parse_ontology(
            f"Prefix(:=<{SPECIES}>)\nOntology({context} DisjointClasses(:C ObjectSomeValuesFrom(:r owl:Thing)))"
        )
    )
    direct = normalize_ontology(
        parse_ontology(
            f"Prefix(:=<{SPECIES}>)\nOntology({context} DisjointClasses(ObjectSomeValuesFrom(:r owl:Thing) :C))"
        )
    )
    assert tbox_closure(flipped).disj == tbox_closure(direct).disj
    assert tbox_closure(flipped).to_atoms() == tbox_closure(direct).to_atoms()


def test_serialize_parse_round_trip_example():
    o = normalize_ontology(parse_ontology(EXAMPLE_SPECIES))
    again = parse_ontology(serialize_ontology(o))
    assert again.tbox == o.tbox and again.abox == o.abox


def test_serialize_parse_round_trip_random():
    rng = random.Random(1234)
    for _ in range(25):
        o = random_ontology(rng)
        again = parse_ontology(serialize_ontology(o))
        assert again.tbox == o.tbox and again.abox == o.abox


@pytest.mark.parametrize("workload", ["univ10k", "meta_taxo"])
def test_benchmark_workloads_parse_as_token_by_token(workload, monkeypatch):
    # Nearly every axiom of both workloads is a flat match.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    text = workloads.WORKLOADS[workload](1).ontology
    o, reference = parse_ontology(text), parse_token_by_token(text)
    assert (o.tbox, o.abox, o.prefixes) == (reference.tbox, reference.abox, reference.prefixes)


_P = "Prefix(:=<http://ex/>)\n"


# One malformed input per place the ontology parser raises: the exception
# class, its message and, for syntax errors, its line and column.
@pytest.mark.parametrize(
    "text, error, message, position",
    [
        ('Ontology(\n  SubClassOf(<http://a/A> "b)\n)', OwlSyntaxError, "unexpected character '\"'", (2, 27)),
        ("", OwlSyntaxError, "unexpected end of input", (1, 1)),
        ("  # only a comment\n", OwlSyntaxError, "unexpected end of input", (1, 1)),
        ("Ontology(\n  Declaration(Class(<http://a/A>)\n", OwlSyntaxError, "unexpected end of input", (2, 33)),
        (_P + "Ontology(\n  SubClassOf(:A :B :C)\n)", OwlSyntaxError, "expected rparen, found ':C'", (3, 20)),
        (
            _P + "Ontology(\n  SubObjectPropertyOf(ObjectInverseOf(:r :s)\n)",
            OwlSyntaxError,
            "expected rparen, found ':s'",
            (3, 42),
        ),
        ("Prefix(ex=<http://ex/>)\nOntology()", OwlSyntaxError, "prefix name must end in ':'", (1, 8)),
        (
            "Prefix(ex.:=<http://ex/>)\nOntology()",
            OwlSyntaxError,
            "a prefix may not end, nor a local name start or end, with '.': 'ex.:'",
            (1, 8),
        ),
        (
            _P + "Ontology(\n  ClassAssertion(:C :.a)\n)",
            OwlSyntaxError,
            "a prefix may not end, nor a local name start or end, with '.': ':.a'",
            (3, 21),
        ),
        (
            _P + "Ontology(\n  SubClassOf(ObjectSomeValuesFrom(:r :A.) :B)\n)",
            OwlSyntaxError,
            "a prefix may not end, nor a local name start or end, with '.': ':A.'",
            (3, 38),
        ),
        (_P + "Ontologie()", OwlSyntaxError, "expected Ontology(...), found 'Ontologie'", (2, 1)),
        ("Ontology(\n  SubClassOf(<http://a/A> <http://a/B>)", OwlSyntaxError, "unterminated Ontology(...)", (1, 1)),
        ("Ontology(\n  SubClassOf(<http://a/A> <http://a/B>) (\n)", OwlSyntaxError, "expected an axiom, found '('", (2, 41)),
        # An ontology IRI and a version IRI, and no third.
        ("Ontology(<a> <b> <c> <d>)", OwlSyntaxError, "expected an axiom, found '<c>'", (1, 18)),
        # The first error in reading order, not the unexpected character after it.
        ("Prefix(ex:=<http://e#>) Ontology(SubClassOf(ex:A) <)", OwlSyntaxError, "expected an IRI, found ')'", (1, 49)),
        ("Prefix(:=<http://e#>) Ontology(SubClassOf(:A nope:B <))", UnknownPrefix, "undeclared prefix 'nope'", None),
        ("Ontology(Foo <)", UnsupportedAxiom, "unsupported axiom 'Foo'", None),
        ("Ontology()\n\nOntology()", OwlSyntaxError, "unexpected input after Ontology(...): 'Ontology'", (3, 1)),
        (_P + "Ontology(\n  SubClassOf(:A =)\n)", OwlSyntaxError, "expected an IRI, found '='", (3, 17)),
        (
            'Ontology(\n  AnnotationAssertion(rdfs:label <http://a/A> "two\nlines") ObjectPropertyAssertion(<http://a/r> <http://a/a>)\n)',
            OwlSyntaxError,
            "expected an IRI, found ')'",
            (3, 58),
        ),
        (
            _P + "Ontology(\n  SubClassOf(:A ObjectSomeValuesFrom(:r ObjectSomeValuesFrom(:s :C)))\n)",
            UnsupportedAxiom,
            "unsupported axiom 'ObjectSomeValuesFrom': existential fillers must be named classes",
            None,
        ),
        (_P + "Ontology(\n  SubClassOf(:A ObjectUnionOf(:B :C))\n)", UnsupportedAxiom, "unsupported axiom 'ObjectUnionOf'", None),
        (
            _P + "Ontology(\n  SubClassOf(ObjectComplementOf(:A) :B)\n)",
            UnsupportedAxiom,
            "unsupported axiom 'ObjectComplementOf'",
            None,
        ),
        (
            _P + "Ontology(\n  SubClassOf(:A ObjectComplementOf(ObjectSomeValuesFrom(:r :C)))\n)",
            UnsupportedAxiom,
            "unsupported axiom 'ObjectComplementOf': qualified existential not allowed in this position",
            None,
        ),
        (
            _P + "Ontology(\n  EquivalentClasses(:A ObjectIntersectionOf(:B :C))\n)",
            UnsupportedAxiom,
            "unsupported axiom 'ObjectIntersectionOf'",
            None,
        ),
        (
            _P + "Ontology(\n  SubClassOf(:A ObjectIntersectionOf(:B))\n)",
            OwlSyntaxError,
            "ObjectIntersectionOf needs at least two operands",
            (3, 17),
        ),
        (
            _P + "Ontology(\n  SubObjectPropertyOf(ObjectPropertyChain(:p :q) :r)\n)",
            UnsupportedAxiom,
            "unsupported axiom 'ObjectPropertyChain'",
            None,
        ),
        (_P + "Ontology(\n  ClassAssertion(:A ObjectOneOf(:a))\n)", UnsupportedAxiom, "unsupported axiom 'ObjectOneOf'", None),
        (
            _P + "Ontology(\n  SubClassOf(:A ObjectSomeValuesFrom(:r ObjectInverseOf(:s)))\n)",
            UnsupportedAxiom,
            "unsupported axiom 'ObjectInverseOf': existential fillers must be named classes",
            None,
        ),
        (_P + "Ontology(\n  SubClassOf(:A Foo(:B))\n)", UnsupportedAxiom, "unsupported axiom 'Foo'", None),
        # Annotations are read only before an axiom's other operands.
        (
            _P + 'Ontology(\n  SubClassOf(:A Annotation(rdfs:comment "x") :B)\n)',
            UnsupportedAxiom,
            "unsupported axiom 'Annotation'",
            None,
        ),
        # A prefixed name is an entity even before a `(`.
        (_P + "Ontology(\n  SubClassOf(:A :B(:C))\n)", OwlSyntaxError, "expected rparen, found '('", (3, 19)),
        (
            _P + "Ontology(\n  SubClassOf(ObjectSomeValuesFrom(:r :C) :D)\n)",
            UnsupportedAxiom,
            "unsupported axiom 'SubClassOf': qualified existential not allowed in this position",
            None,
        ),
        (
            _P + "Ontology(\n  DisjointClasses(:A ObjectSomeValuesFrom(:r :C) ~)\n)",
            UnsupportedAxiom,
            "unsupported axiom 'DisjointClasses': qualified existential not allowed in this position",
            None,
        ),
        (
            _P + "Ontology(\n  EquivalentClasses(ObjectSomeValuesFrom(:r :C) :A)\n)",
            UnsupportedAxiom,
            "unsupported axiom 'EquivalentClasses': qualified existential not allowed in this position",
            None,
        ),
        (_P + "Ontology(\n  TransitiveObjectProperty(:r)\n)", UnsupportedAxiom, "unsupported axiom 'TransitiveObjectProperty'", None),
        (_P + "Ontology(\n  DisjointClasses(:A)\n)", OwlSyntaxError, "DisjointClasses needs at least two operands", (3, 3)),
        (
            _P + "Ontology(\n DisjointObjectProperties(:r)\n)",
            OwlSyntaxError,
            "DisjointObjectProperties needs at least two operands",
            (3, 2),
        ),
        (_P + "Ontology(\n  EquivalentClasses(:A)\n)", OwlSyntaxError, "EquivalentClasses needs at least two operands", (3, 3)),
        (
            _P + "Ontology(\n  EquivalentObjectProperties(ObjectInverseOf(:r))\n)",
            OwlSyntaxError,
            "EquivalentObjectProperties needs at least two operands",
            (3, 3),
        ),
        (_P + "Ontology(\n    DifferentIndividuals()\n)", OwlSyntaxError, "DifferentIndividuals needs at least two operands", (3, 5)),
        (
            _P + "Ontology(\n  ClassAssertion(ObjectSomeValuesFrom(:r owl:Thing) ~)\n)",
            UnsupportedAxiom,
            "unsupported axiom 'ClassAssertion': class assertions must use a named class",
            None,
        ),
        (_P + "Ontology(\n  MadeUpAxiom(:A)\n)", UnsupportedAxiom, "unsupported axiom 'MadeUpAxiom'", None),
        ("Ontology(\n  SubClassOf(zz:A zz:B)\n)", UnknownPrefix, "undeclared prefix 'zz'", None),
    ],
)
def test_every_parser_error_site_reports_its_message_and_position(text, error, message, position):
    with pytest.raises(error) as exc:
        parse_ontology(text)
    if position is None:
        assert str(exc.value) == message
    else:
        assert str(exc.value) == f"{message} (line {position[0]}, column {position[1]})"
        assert (exc.value.line, exc.value.col) == position
