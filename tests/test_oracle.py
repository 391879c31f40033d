import random

import pytest

from gens import random_ontology, random_query
from helpers import EXAMPLE_SPECIES, SPECIES
from metaql import (
    Atom,
    BOTTOM_CLASS,
    ConjunctiveQuery,
    Entity,
    FactStore,
    Var,
    answer_conjunctive_query,
    builtin_rules,
    certain_answers_oracle,
    chase,
    evaluate_fixpoint,
    normalize_ontology,
    parse_ontology,
    tbox_closure,
    translate_ontology,
)
from metaql.errors import CyclicTBox
from metaql.oracle import OracleEvaluator, is_null


def _parse(body: str):
    return normalize_ontology(parse_ontology(f"Prefix(:=<{SPECIES}>)\nOntology({body})"))


def test_closure_transitivity():
    o = _parse("SubClassOf(:a :b) SubClassOf(:b :c)")
    closure = tbox_closure(o)
    assert (("C", SPECIES + "a"), ("C", SPECIES + "c")) in closure.incl


def test_closure_composes_through_qualified_existential():
    o = _parse("SubClassOf(:c1 :c3) SubClassOf(:c3 ObjectSomeValuesFrom(:r2 :c2))")
    closure = tbox_closure(o)
    assert (("C", SPECIES + "c1"), ("R", SPECIES + "r2", SPECIES + "c2")) in closure.incl


def test_closure_matches_engine_saturation_on_random_tboxes():
    from metaql.model import SIGNATURE

    tbox_preds = {
        p for p in SIGNATURE if p.startswith(("isac", "isar", "disj")) or p in ("refl", "irrefl")
    }
    rng = random.Random(60)
    for _ in range(120):
        o = random_ontology(rng)
        store = FactStore()
        store.assert_facts(translate_ontology(o).facts)
        evaluate_fixpoint(store, builtin_rules())
        engine_side = {(p, t) for p, t in store.string_facts() if p in tbox_preds}
        assert engine_side == tbox_closure(o).to_atoms()


def test_chase_example_species():
    o = normalize_ontology(parse_ontology(EXAMPLE_SPECIES))
    model = chase(o)
    assert SPECIES + "Harry" in model.class_ext[SPECIES + "Birds"]
    assert SPECIES + "Harry" in model.class_ext[SPECIES + "Eagle"]


def test_chase_single_step_creates_labeled_null():
    o = _parse("SubClassOf(:c ObjectSomeValuesFrom(:r :d)) ClassAssertion(:c :a)")
    model = chase(o)
    pairs = model.prop_ext[SPECIES + "r"]
    assert len(pairs) == 1
    (subj, obj) = next(iter(pairs))
    assert subj == SPECIES + "a" and is_null(obj)
    assert obj in model.class_ext[SPECIES + "d"]
    assert model.depth == 1


def test_chase_empty_ontology():
    model = chase(parse_ontology("Ontology()"))
    assert not model.elements


def test_chase_is_deterministic():
    o = _parse(
        "SubClassOf(:c ObjectSomeValuesFrom(:r :d)) SubClassOf(:d ObjectSomeValuesFrom(:s :e)) "
        "ClassAssertion(:c :a) ClassAssertion(:c :b)"
    )
    m1, m2 = chase(o), chase(o)
    assert m1.class_ext == m2.class_ext and m1.prop_ext == m2.prop_ext


def test_cyclic_tbox_is_rejected():
    o = _parse("SubClassOf(:c ObjectSomeValuesFrom(:r :c)) ClassAssertion(:c :a)")
    with pytest.raises(CyclicTBox):
        chase(o)


def test_reflexive_universal_domain_is_rejected():
    # refl(r) makes every element a member of the domain of r, so an
    # existential on that domain would chase forever.
    o = _parse(
        "ReflexiveObjectProperty(:r) "
        "SubClassOf(ObjectSomeValuesFrom(:r owl:Thing) ObjectSomeValuesFrom(:s :d)) "
        "ClassAssertion(:c :a)"
    )
    with pytest.raises(CyclicTBox):
        chase(o)


def test_certain_answers_on_example_species():
    o = normalize_ontology(parse_ontology(EXAMPLE_SPECIES))
    q = ConjunctiveQuery(
        (Var("X"),),
        (Atom("instc", (Entity(SPECIES + "EndangeredSpecies"), Var("X"))),),
    )
    assert certain_answers_oracle(o, q) == [(SPECIES + "GoldenEagle",)]


def test_certain_answers_empty_class():
    o = normalize_ontology(parse_ontology(EXAMPLE_SPECIES))
    q = ConjunctiveQuery((Var("X"),), (Atom("instc", (BOTTOM_CLASS, Var("X"))),))
    assert certain_answers_oracle(o, q) == []


def test_nulls_never_appear_in_answers():
    o = _parse("SubClassOf(:c ObjectSomeValuesFrom(:r :d)) ClassAssertion(:c :a)")
    q = ConjunctiveQuery(
        (Var("Y"),), (Atom("instr", (Entity(SPECIES + "r"), Var("X"), Var("Y"))),)
    )
    assert certain_answers_oracle(o, q) == []


def test_null_witness_switch_isolates_anonymous_joins():
    o = _parse("SubClassOf(:c ObjectSomeValuesFrom(:r :d)) ClassAssertion(:c :a)")
    q = ConjunctiveQuery(
        (Var("X"),), (Atom("instr", (Entity(SPECIES + "r"), Var("X"), Var("Y"))),)
    )
    assert certain_answers_oracle(o, q, allow_null_witnesses=True) == [(SPECIES + "a",)]
    assert certain_answers_oracle(o, q, allow_null_witnesses=False) == []


def test_oracle_engine_agreement_quick():
    rng = random.Random(2025)
    for _ in range(120):
        o = random_ontology(rng)
        store = FactStore()
        store.assert_facts(translate_ontology(o).facts)
        evaluate_fixpoint(store, builtin_rules())
        oracle = OracleEvaluator(o)
        for _ in range(2):
            q = random_query(rng, o)
            engine = answer_conjunctive_query(store, q)
            assert engine == oracle.answers(q, allow_null_witnesses=False)
            assert set(engine) <= set(oracle.answers(q, allow_null_witnesses=True))


def test_oracle_agrees_with_engine_on_a_chain_of_65_existentials():
    # Acyclic, so the chase ends, however deep it nests labeled nulls.
    chain = " ".join(f"SubClassOf(:A{i} ObjectSomeValuesFrom(:r{i} :A{i + 1}))" for i in range(65))
    o = _parse(f"{chain} ClassAssertion(:A0 :a)")
    assert chase(o).depth == 65
    store = FactStore()
    store.assert_facts(translate_ontology(o).facts)
    evaluate_fixpoint(store, builtin_rules())
    oracle = OracleEvaluator(o)
    x, y = Var("X"), Var("Y")
    queries = [
        ConjunctiveQuery((x,), (Atom("instc", (Entity(SPECIES + "A0"), x)),)),
        ConjunctiveQuery((y, x), (Atom("instc", (y, x)),)),
        ConjunctiveQuery((x,), (Atom("instr", (Entity(SPECIES + "r64"), x, y)),)),
    ]
    for q in queries:
        engine = answer_conjunctive_query(store, q)
        assert engine == oracle.answers(q, allow_null_witnesses=False)
    assert answer_conjunctive_query(store, queries[0]) == [(SPECIES + "a",)]
