#!/usr/bin/env python3
"""Walk through the whole pipeline on the endangered-species example.

The ontology says golden eagles are eagles, eagles are birds, Harry is a
golden eagle, and — the metamodeling part — the class GoldenEagle is
itself an instance of EndangeredSpecies.  Under the direct semantics a
query mixing those levels is not even allowed; here it is just a query.
"""

import metaql as M

ONTOLOGY = """
Prefix(:=<http://ex/species#>)
Ontology(
  SubClassOf(:Eagle :Birds)
  SubClassOf(:GoldenEagle :Eagle)
  ClassAssertion(:GoldenEagle :Harry)
  ClassAssertion(:EndangeredSpecies :GoldenEagle)
  ObjectPropertyAssertion(:Lives_in :Harry :CPZ)
  ClassAssertion(:Elephant :Dumbo)
  ObjectPropertyAssertion(:Lives_in :Dumbo :CPZ)
)
"""

QUERY = """
PREFIX : <http://ex/species#>
SELECT ?z WHERE {
  ?y a :EndangeredSpecies .
  ?z a ?y .
  ?z :Lives_in :CPZ
}
"""

print("== 1. Parse and normalize")
ontology = M.normalize_ontology(M.parse_ontology(ONTOLOGY))
print(f"   {len(ontology)} axioms after normalization (top-class inclusions added)")

print("\n== 2. Translate every axiom to one Datalog fact")
facts = M.translate_ontology(ontology)
for line in facts.to_dl().splitlines():
    print("  ", line)

print("\n== 3. Saturate with the fixed rule base (semi-naive fixpoint)")
store = M.FactStore()
store.assert_facts(facts.facts)
stats = M.evaluate_fixpoint(store, M.builtin_rules())
print(f"   {stats.summary()}; model holds {store.size()} facts")
derived = store.string_facts()
print("   derived instc(Eagle, Harry):", ("instc", ("http://ex/species#Eagle", "http://ex/species#Harry")) in derived)
print("   derived instc(Birds, Harry):", ("instc", ("http://ex/species#Birds", "http://ex/species#Harry")) in derived)

print("\n== 4. Ask who lives in Central Park Zoo and belongs to an endangered species")
print(QUERY)
cq = M.to_conjunctive_query(M.parse_query(QUERY))
print("   Datalog body:", ", ".join(a.to_dl() for a in cq.body))
answers = M.answer_conjunctive_query(store, cq)
for row in answers:
    print("   answer:", *row)
assert answers == [("http://ex/species#Harry",)]
print("\nDumbo also lives in the zoo, but elephants are not listed as endangered here.")
