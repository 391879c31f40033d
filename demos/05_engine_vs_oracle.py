#!/usr/bin/env python3
"""Cross-check the engine against the brute-force reference semantics.

The oracle computes certain answers from first principles: a closure of
semantic composition laws for the schema plus a chase that builds the
canonical model with labeled nulls.  On the named-consequence scope the
engine must agree exactly; queries that can only be satisfied by joining
through an anonymous witness are the documented gap, visible here.
"""

import metaql as M
from metaql.model import Atom, Entity, Var
from metaql.oracle import OracleEvaluator

ONTOLOGY = """
Prefix(:=<http://ex/lab#>)
Ontology(
  SubClassOf(:Postdoc :Researcher)
  SubClassOf(:Researcher ObjectSomeValuesFrom(:memberOf :Lab))
  ObjectPropertyDomain(:memberOf :Person)
  ClassAssertion(:Postdoc :ada)
  ClassAssertion(:Lab :deepthought)
  ObjectPropertyAssertion(:memberOf :bob :deepthought)
)
"""

NS = "http://ex/lab#"
ontology = M.normalize_ontology(M.parse_ontology(ONTOLOGY))
store = M.FactStore()
store.assert_facts(M.translate_ontology(ontology).facts)
M.evaluate_fixpoint(store, M.builtin_rules())
oracle = OracleEvaluator(ontology)

print("== chase model (labeled nulls witness the existential axiom)")
for prop, pairs in sorted(oracle.model.prop_ext.items()):
    for x, y in sorted(pairs):
        print(f"   {prop.removeprefix(NS)}({x.removeprefix(NS)}, {y.removeprefix(NS)})")

print("\n== agreement on a named-consequence query: every Person")
q = M.ConjunctiveQuery((Var("x"),), (Atom("instc", (Entity(NS + "Person"), Var("x"))),))
print("   engine:", [r[0].removeprefix(NS) for r in M.answer_conjunctive_query(store, q)])
print("   oracle:", [r[0].removeprefix(NS) for r in oracle.answers(q)])

print("\n== the anonymous-join gap, measured honestly")
q2 = M.ConjunctiveQuery(
    (Var("x"),),
    (Atom("instr", (Entity(NS + "memberOf"), Var("x"), Var("y"))),),
)
engine = M.answer_conjunctive_query(store, q2)
named_scope = oracle.answers(q2, allow_null_witnesses=False)
with_nulls = oracle.answers(q2, allow_null_witnesses=True)
print("   members of something, engine:        ", [r[0].removeprefix(NS) for r in engine])
print("   oracle, named witnesses only:        ", [r[0].removeprefix(NS) for r in named_scope])
print("   oracle, null witnesses allowed:      ", [r[0].removeprefix(NS) for r in with_nulls])
print("""
ada's lab membership is only witnessed by a labeled null, so she shows
up once null witnesses are allowed.  The engine derives named
consequences only; it matches the named scope exactly and never invents
answers (engine results are always a subset of the null-witness oracle).""")
assert engine == named_scope
assert set(engine) <= set(with_nulls)
