import random

import pytest

from gens import random_ontology
from helpers import EXAMPLE_SPECIES, SPECIES
from metaql import (
    Atomic,
    ClassAssertion,
    ClassDisjoint,
    ClassInclusion,
    DifferentIndividuals,
    Entity,
    Ontology,
    PropAssertion,
    PropExpr,
    PropInclusion,
    Some,
    TOP_CLASS,
    TOP_PROPERTY,
    normalize_ontology,
    parse_ontology,
    serialize_ontology,
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


def test_normalize_flips_class_vs_domain_disjointness():
    # c excludes some r  has no direct fact form and flips to the
    # domain-side orientation.
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
