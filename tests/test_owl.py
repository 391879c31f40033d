import random
from pathlib import Path

import pytest

from gens import random_ontology
from helpers import EXAMPLE_SPECIES, SPECIES, fact, parse_token_by_token
from metaql import (
    Atomic,
    ClassAssertion,
    ClassDisjoint,
    ClassInclusion,
    DifferentIndividuals,
    Entity,
    Ontology,
    PropAssertion,
    PropDisjoint,
    PropExpr,
    PropInclusion,
    Some,
    TOP_CLASS,
    TOP_PROPERTY,
    normalize_ontology,
    parse_ontology,
    serialize_ontology,
    tau,
    tbox_closure,
)
from metaql.errors import OwlSyntaxError, UnknownPrefix, UnsupportedAxiom


def ent(local: str) -> Entity:
    return Entity(SPECIES + local)


def parse_axioms(body: str):
    text = f"Prefix(:=<{SPECIES}>)\nOntology(\n{body}\n)"
    o = parse_ontology(text)
    return o.tbox | o.abox


def test_parse_example_species():
    o = parse_ontology(EXAMPLE_SPECIES)
    assert ClassInclusion(Atomic(ent("Eagle")), Atomic(ent("Birds"))) in o.tbox
    assert ClassInclusion(Atomic(ent("GoldenEagle")), Atomic(ent("Eagle"))) in o.tbox
    assert ClassAssertion(ent("GoldenEagle"), ent("Harry")) in o.abox
    assert ClassAssertion(ent("EndangeredSpecies"), ent("GoldenEagle")) in o.abox
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
        ClassInclusion(Atomic(ent("A")), Atomic(ent("B"))),
        ClassInclusion(Atomic(ent("B")), Atomic(ent("A"))),
    }


def test_domain_and_range_become_existential_inclusions():
    axs = parse_axioms("ObjectPropertyDomain(:r :C) ObjectPropertyRange(:r :D)")
    r = PropExpr(ent("r"))
    assert ClassInclusion(Some(r, TOP_CLASS), Atomic(ent("C"))) in axs
    assert ClassInclusion(Some(r.flipped(), TOP_CLASS), Atomic(ent("D"))) in axs


def test_inverse_object_properties_become_two_inclusions():
    axs = parse_axioms("InverseObjectProperties(:r :s)")
    assert axs == {
        PropInclusion(PropExpr(ent("r")), PropExpr(ent("s"), inverse=True)),
        PropInclusion(PropExpr(ent("s")), PropExpr(ent("r"), inverse=True)),
    }


def test_inverse_on_left_of_property_inclusion_is_normalized():
    axs = parse_axioms("SubObjectPropertyOf(ObjectInverseOf(:r) :s)")
    assert axs == {PropInclusion(PropExpr(ent("r")), PropExpr(ent("s"), inverse=True))}
    # Double inverse folds away entirely.
    axs = parse_axioms("SubObjectPropertyOf(ObjectInverseOf(ObjectInverseOf(:r)) :s)")
    assert axs == {PropInclusion(PropExpr(ent("r")), PropExpr(ent("s")))}


def test_inverse_on_left_of_property_disjointness_is_normalized():
    axs = parse_axioms("DisjointObjectProperties(ObjectInverseOf(:r) :s)")
    assert axs == {PropDisjoint(PropExpr(ent("r")), PropExpr(ent("s"), inverse=True))}
    assert [tau(ax) for ax in axs] == [fact("disjrRI", ent("r"), ent("s"))]


@pytest.mark.parametrize("depth", [5000, 5001])
def test_deeply_nested_inverses_fold_by_parity(depth):
    nested = "ObjectInverseOf(" * depth + ":r" + ")" * depth
    axs = parse_axioms(f"SubObjectPropertyOf({nested} :s)")
    odd = depth % 2 == 1
    assert axs == {PropInclusion(PropExpr(ent("r")), PropExpr(ent("s"), inverse=odd))}
    with pytest.raises(OwlSyntaxError):
        parse_axioms(f"SubObjectPropertyOf({nested[:-1]} :s)")


def test_nary_disjoint_classes_expand_to_all_pairs():
    axs = parse_axioms("DisjointClasses(:A :B :C)")
    assert len(axs) == 3
    assert all(isinstance(ax, ClassDisjoint) for ax in axs)


def test_nary_different_individuals_expand_to_all_pairs():
    axs = parse_axioms("DifferentIndividuals(:a :b :c)")
    assert len(axs) == 3
    assert all(isinstance(ax, DifferentIndividuals) for ax in axs)


def test_inverse_property_assertion_swaps_arguments():
    axs = parse_axioms("ObjectPropertyAssertion(ObjectInverseOf(:r) :a :b)")
    assert axs == {PropAssertion(ent("r"), ent("b"), ent("a"))}


def test_declarations_and_annotations_are_discarded():
    axs = parse_axioms(
        'Declaration(Class(:A)) AnnotationAssertion(rdfs:label :A "a label"@en)'
    )
    assert axs == set()


def test_unknown_prefix_error():
    with pytest.raises(UnknownPrefix):
        parse_ontology("Ontology(SubClassOf(zz:A zz:B))")


def test_the_same_token_resolves_under_each_parse_s_own_prefixes():
    first = parse_ontology("Prefix(:=<http://one#>)\nOntology(ClassAssertion(:A :i))")
    second = parse_ontology("Prefix(:=<http://two#>)\nOntology(ClassAssertion(:A :i))")
    assert {ax.cls for ax in first.abox} == {Entity("http://one#A")}
    assert {ax.cls for ax in second.abox} == {Entity("http://two#A")}


def test_an_entity_spelled_two_ways_in_two_parses_is_equal_and_hashes_equal():
    first = parse_ontology("Prefix(:=<http://ex/ns/>)\nOntology(SubClassOf(:A owl:Thing))")
    second = parse_ontology("Prefix(e:=<http://ex/>)\nOntology(SubClassOf(e:ns/A e:ns/B))")
    (ax1,), (ax2,) = first.tbox, second.tbox
    a1, a2 = ax1.sub.cls, ax2.sub.cls
    assert a1 is not a2
    assert a1 == a2 == Entity("http://ex/ns/A") and hash(a1) == hash(a2) == hash(Entity("http://ex/ns/A"))
    assert ax1.sup.cls is TOP_CLASS


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
        "SubClassOf(:A ObjectComplementOf(:B))",
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
    assert ClassInclusion(Atomic(ent("GoldenEagle")), Atomic(TOP_CLASS)) in o.tbox
    assert ClassInclusion(Atomic(ent("EndangeredSpecies")), Atomic(TOP_CLASS)) in o.tbox

    zoo = parse_axioms("ObjectPropertyAssertion(:Lives_in :Harry :CPZ)")
    normalized = normalize_ontology(Ontology(frozenset(), frozenset(zoo), {}))
    assert PropInclusion(PropExpr(ent("Lives_in")), PropExpr(TOP_PROPERTY)) in normalized.tbox


def test_normalize_is_idempotent():
    once = normalize_ontology(parse_ontology(EXAMPLE_SPECIES))
    twice = normalize_ontology(once)
    assert once.tbox == twice.tbox and once.abox == twice.abox


def _normalize_per_assertion(o: Ontology) -> Ontology:
    """Reference for `normalize_ontology`: one top inclusion per assertion."""
    tbox = set(o.tbox)
    for ax in o.abox:
        if isinstance(ax, ClassAssertion):
            tbox.add(ClassInclusion(Atomic(ax.cls), Atomic(TOP_CLASS)))
        elif isinstance(ax, PropAssertion):
            tbox.add(PropInclusion(PropExpr(ax.prop), PropExpr(TOP_PROPERTY)))
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
        frozenset({ClassDisjoint(Atomic(ent("C")), Some(PropExpr(ent("r")), TOP_CLASS))}),
        frozenset(),
        {},
    )
    normalized = normalize_ontology(raw)
    assert normalized.tbox == {
        ClassDisjoint(Some(PropExpr(ent("r")), TOP_CLASS), Atomic(ent("C")))
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
    # Nearly every axiom of both workloads is read as one `flat` token.
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
