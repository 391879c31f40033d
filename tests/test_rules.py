import random

import pytest

from gens import random_ontology
from helpers import EXAMPLE_SPECIES, SPECIES, fact, saturate
from metaql import (
    FactStore,
    Rule,
    SIGNATURE,
    atom,
    builtin_rules,
    evaluate_fixpoint,
    tbox_closure,
    translate_ontology,
)
from metaql.cli import main
from metaql.model import Entity

A, B, C = Entity("http://t#a"), Entity("http://t#b"), Entity("http://t#c")


def test_anchor_rule_present():
    anchor = Rule(
        atom("isacCR", "C1", "R2", "C2"),
        (atom("isacCC", "C1", "C3"), atom("isacCR", "C3", "R2", "C2")),
    )
    assert builtin_rules().contains(anchor)


def test_instance_chain_rule_present():
    # Class-first argument order: instc(class, member).
    rule = Rule(
        atom("instc", "C2", "X"),
        (atom("instc", "C1", "X"), atom("isacCC", "C1", "C2")),
    )
    assert builtin_rules().contains(rule)


@pytest.mark.parametrize("flags", [[], ["--check-consistency"]], ids=["plain", "consistency"])
def test_rules_output_quotes_its_constants(capsys, flags):
    assert main(["rules", *flags]) == 0
    assert [line for line in capsys.readouterr().out.splitlines() if '"' in line] == [
        'isacRR(P, S, "urn:metaql:topClass") :- isarRR(P, S).',
        'isacII(P, S, "urn:metaql:topClass") :- isarRR(P, S).',
        'isacRI(P, S, "urn:metaql:topClass") :- isarRI(P, S).',
        'isacIR(P, S, "urn:metaql:topClass") :- isarRI(P, S).',
        'instc("urn:metaql:topClass", X) :- named(X).',
    ]


def test_all_rules_are_safe_and_signature_headed():
    for rule in builtin_rules(check_consistency=True).rules:
        body_vars = set().union(*(a.variables() for a in rule.body))
        assert rule.head.variables() <= body_vars
        assert rule.head.pred in SIGNATURE or rule.head.pred in ("named", "violation")


def test_family_counts_are_pinned():
    counts = builtin_rules().family_counts()
    assert counts == {
        "TBOX-CHAIN-ATOMIC": 9,
        "TBOX-CHAIN-EXIST": 18,
        "TBOX-FILLER": 6,
        "TBOX-ROLE-LIFT": 20,
        "ROLE-TRANS": 4,
        "DISJ-SYM": 9,
        "DISJ-DOWN": 31,
        "ABOX-CLASS": 3,
        "ABOX-ROLE": 2,
        "AUX-NAMED": 4,
        "ABOX-REFL": 1,
    }
    assert len(builtin_rules()) == 107
    assert 60 <= len(builtin_rules()) <= 110
    assert len(builtin_rules(check_consistency=True)) == 110


def test_subclass_chain_closes_transitively():
    store = FactStore()
    store.assert_facts([fact("isacCC", A, B), fact("isacCC", B, C)])
    evaluate_fixpoint(store, builtin_rules())
    assert ("isacCC", (A.iri, C.iri)) in store.string_facts()


def test_subclass_closure_matches_transitive_closure_oracle():
    rng = random.Random(31337)
    names = [Entity(f"http://t#n{i}") for i in range(8)]
    for _ in range(100):
        edges = {
            (rng.randrange(8), rng.randrange(8))
            for _ in range(rng.randint(0, 14))
        }
        store = FactStore()
        store.assert_facts([fact("isacCC", names[i], names[j]) for i, j in edges])
        evaluate_fixpoint(store, builtin_rules())
        derived = {
            (t[0], t[1])
            for p, t in store.string_facts()
            if p == "isacCC"
        }
        # Fixpoint of pairwise composition, written independently.
        closure = set(edges)
        while True:
            extra = {(i, l) for i, j in closure for k, l in closure if j == k} - closure
            if not extra:
                break
            closure |= extra
        expected = {(names[i].iri, names[j].iri) for i, j in closure}
        assert derived == expected


def test_example_species_inference_chain():
    _, store, _ = saturate(EXAMPLE_SPECIES)
    facts = store.string_facts()
    assert ("instc", (SPECIES + "Eagle", SPECIES + "Harry")) in facts
    assert ("instc", (SPECIES + "Birds", SPECIES + "Harry")) in facts


def test_violation_rules_are_opt_in_and_report_only():
    text = f"""
    Prefix(:=<{SPECIES}>)
    Ontology(
      DisjointClasses(:Cat :Dog)
      ClassAssertion(:Cat :felix)
      ClassAssertion(:Dog :felix)
    )
    """
    _, store, _ = saturate(text)
    assert not store.relation("violation")
    _, store, _ = saturate(text, check_consistency=True)
    assert store.relation("violation")
    # Query answering still behaves normally on the inconsistent ontology.
    assert ("instc", (SPECIES + "Cat", SPECIES + "felix")) in store.string_facts()


def test_saturated_tbox_matches_semantic_closure():
    tbox_preds = {
        p for p in SIGNATURE if p.startswith(("isac", "isar", "disj")) or p in ("refl", "irrefl")
    }
    rng = random.Random(4040)
    for _ in range(150):
        o = random_ontology(rng)
        store = FactStore()
        store.assert_facts(translate_ontology(o).facts)
        evaluate_fixpoint(store, builtin_rules())
        engine_side = {(p, t) for p, t in store.string_facts() if p in tbox_preds}
        assert engine_side == tbox_closure(o).to_atoms()


def test_monotonicity_under_fact_addition():
    rng = random.Random(24)
    for _ in range(25):
        o = random_ontology(rng)
        facts = sorted(translate_ontology(o).facts)
        cut = len(facts) // 2
        small = FactStore()
        small.assert_facts(facts[:cut])
        evaluate_fixpoint(small, builtin_rules())
        big = FactStore()
        big.assert_facts(facts)
        evaluate_fixpoint(big, builtin_rules())
        assert small.string_facts() <= big.string_facts()
