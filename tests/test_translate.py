import random
from itertools import product

import pytest

from gens import random_ontology
from helpers import BASIC_OF_KIND, EXAMPLE_SPECIES, SPECIES, fact
from metaql import (
    ClassDisjoint,
    ClassInclusion,
    SIGNATURE,
    TOP_CLASS,
    normalize_ontology,
    parse_ontology,
    translate_ontology,
)
from metaql.synthetic import scaled_university, university_ontology

C1, C2 = "http://t#c1", "http://t#c2"
R1, R2 = "http://t#r1", "http://t#r2"
X, Y = "http://t#x", "http://t#y"


def _some(pe, filler="owl:Thing"):  # an existential, unqualified by default
    return f"ObjectSomeValuesFrom({pe} {filler})"


def _inv(p):
    return f"ObjectInverseOf({p})"


# The complete fact-translation table: one row per axiom form, an OWL axiom
# text and its fact; positive inclusions and reflexivity first, negative
# forms next, assertions at the bottom.
TAU_TABLE = [
    # positive TBox rows
    ("SubClassOf(t:c1 t:c2)", fact("isacCC", C1, C2)),
    (f"SubClassOf(t:c1 {_some(_inv('t:r2'), 't:c2')})", fact("isacCI", C1, R2, C2)),
    (f"SubClassOf({_some('t:r1')} {_some('t:r2', 't:c2')})", fact("isacRR", R1, R2, C2)),
    (f"SubClassOf({_some(_inv('t:r1'))} t:c2)", fact("isacIC", R1, C2)),
    (f"SubClassOf({_some(_inv('t:r1'))} {_some('t:r2', 't:c2')})", fact("isacIR", R1, R2, C2)),
    (f"SubClassOf({_some(_inv('t:r1'))} {_some(_inv('t:r2'), 't:c2')})", fact("isacII", R1, R2, C2)),
    ("SubObjectPropertyOf(t:r1 t:r2)", fact("isarRR", R1, R2)),
    (f"SubObjectPropertyOf(t:r1 {_inv('t:r2')})", fact("isarRI", R1, R2)),
    (f"SubClassOf(t:c1 {_some('t:r2', 't:c2')})", fact("isacCR", C1, R2, C2)),
    (f"SubClassOf({_some('t:r1')} t:c2)", fact("isacRC", R1, C2)),
    (f"SubClassOf({_some('t:r1')} {_some(_inv('t:r2'), 't:c2')})", fact("isacRI", R1, R2, C2)),
    ("ReflexiveObjectProperty(t:r1)", fact("refl", R1)),
    # negative TBox rows
    ("DisjointObjectProperties(t:r1 t:r2)", fact("disjrRR", R1, R2)),
    ("DisjointClasses(t:c1 t:c2)", fact("disjcCC", C1, C2)),
    (f"DisjointClasses(t:c1 {_some(_inv('t:r2'))})", fact("disjcCI", C1, R2)),
    (f"DisjointClasses({_some('t:r1')} t:c2)", fact("disjcRC", R1, C2)),
    (f"DisjointClasses({_some('t:r1')} {_some('t:r2')})", fact("disjcRR", R1, R2)),
    (f"DisjointClasses({_some('t:r1')} {_some(_inv('t:r2'))})", fact("disjcRI", R1, R2)),
    (f"DisjointClasses({_some(_inv('t:r1'))} t:c2)", fact("disjcIC", R1, C2)),
    (f"DisjointClasses({_some(_inv('t:r1'))} {_some('t:r2')})", fact("disjcIR", R1, R2)),
    (f"DisjointClasses({_some(_inv('t:r1'))} {_some(_inv('t:r2'))})", fact("disjcII", R1, R2)),
    (f"DisjointObjectProperties(t:r1 {_inv('t:r2')})", fact("disjrRI", R1, R2)),
    ("IrreflexiveObjectProperty(t:r1)", fact("irrefl", R1)),
    # ABox rows
    ("ClassAssertion(t:c1 t:x)", fact("instc", C1, X)),
    ("ObjectPropertyAssertion(t:r1 t:x t:y)", fact("instr", R1, X, Y)),
    ("DifferentIndividuals(t:x t:y)", fact("diff", X, Y)),
]


def row_facts(axiom: str):
    """The facts of one axiom text of the table, under the prefix `t:`."""
    return parse_ontology(f"Prefix(t:=<http://t#>)\nOntology({axiom})").axioms


@pytest.mark.parametrize("axiom,expected", TAU_TABLE, ids=[pred for _, (pred, _) in TAU_TABLE])
def test_tau_table_row(axiom, expected):
    assert row_facts(axiom) == {expected}


def test_tau_table_is_complete():
    assert len(TAU_TABLE) == 26  # 23 TBox rows + 3 ABox rows
    assert len({pred for _, (pred, _) in TAU_TABLE}) == 26


def test_unqualified_existential_right_side_uses_top_filler():
    ax = ClassInclusion(BASIC_OF_KIND["C"](C1), BASIC_OF_KIND["R"](R2))
    assert ax == fact("isacCR", C1, R2, TOP_CLASS)


def test_tau_of_every_class_disjointness_is_a_signature_fact():
    for lk, rk in product("CRI", repeat=2):
        pred, iris = (ClassDisjoint(BASIC_OF_KIND[lk](C1), BASIC_OF_KIND[rk](C2)))
        assert pred.startswith("disjc") and pred in SIGNATURE
        assert set(iris) == {C1, C2}


def test_tau_is_injective_on_the_table():
    facts = [f for axiom, _ in TAU_TABLE for f in row_facts(axiom)]
    assert len(set(facts)) == len(facts) == len(TAU_TABLE)


def _assert_facts_hold_the_axioms_iris(o):
    fb = translate_ontology(o)
    assert fb.facts == o.axioms
    iris = {id(s): s for _, t in fb.facts for s in t}
    assert len(iris) == len(set(iris.values()))


def test_translation_shares_one_iri_string_per_iri():
    _assert_facts_hold_the_axioms_iris(normalize_ontology(parse_ontology(university_ontology(2))))
    rng = random.Random(1010)
    for _ in range(200):
        _assert_facts_hold_the_axioms_iris(random_ontology(rng))


def test_translate_example_species():
    o = normalize_ontology(parse_ontology(EXAMPLE_SPECIES))
    fb = translate_ontology(o)

    def e(local):
        return SPECIES + local

    assert fact("isacCC", e("Eagle"), e("Birds")) in fb.facts
    assert fact("isacCC", e("GoldenEagle"), e("Eagle")) in fb.facts
    assert fact("instc", e("GoldenEagle"), e("Harry")) in fb.facts
    assert fact("instc", e("EndangeredSpecies"), e("GoldenEagle")) in fb.facts
    # plus the two top-class normalization facts
    assert fact("isacCC", e("GoldenEagle"), TOP_CLASS) in fb.facts
    assert fact("isacCC", e("EndangeredSpecies"), TOP_CLASS) in fb.facts
    assert len(fb) == 6


def test_translate_empty_ontology():
    assert len(translate_ontology(parse_ontology("Ontology()"))) == 0


def test_one_fact_per_axiom():
    for seed, count in ((77, 30), (5150, 50)):
        rng = random.Random(seed)
        for _ in range(count):
            o = random_ontology(rng)
            fb = translate_ontology(o)
            assert len(fb) == len(o)
            assert fb.facts == o.axioms


def test_translation_count_at_benchmark_scale():
    text = scaled_university(10334)
    parsed = parse_ontology(text)
    o = normalize_ontology(parsed)
    fb = translate_ontology(o)
    assert len(parsed) >= 10334
    assert len(fb) == len(o)
    # Distinct-count oracle: the sorted dump has exactly one line per fact.
    lines = fb.to_dl().strip().splitlines()
    assert len(lines) == len(set(lines)) == len(fb)


def test_translation_output_is_deterministic():
    o = normalize_ontology(parse_ontology(EXAMPLE_SPECIES))
    assert translate_ontology(o).to_dl() == translate_ontology(o).to_dl()
    first = translate_ontology(o).to_dl().splitlines()
    assert first == sorted(first)


def test_fact_dump_format():
    o = normalize_ontology(parse_ontology(EXAMPLE_SPECIES))
    line = translate_ontology(o).to_dl().splitlines()[0]
    assert line == 'instc("http://ex/species#EndangeredSpecies", "http://ex/species#GoldenEagle").'
