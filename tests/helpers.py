"""Shared fixtures and independent checking utilities."""

from __future__ import annotations

import itertools

from metaql import (
    Atomic,
    ConjunctiveQuery,
    Entity,
    FactStore,
    PropExpr,
    Some,
    TOP_CLASS,
    Var,
    builtin_rules,
    evaluate_fixpoint,
    normalize_ontology,
    parse_ontology,
    translate_ontology,
)

SPECIES = "http://ex/species#"

# One basic concept of each kind letter over a given entity.
BASIC_OF_KIND = {
    "C": Atomic,
    "R": lambda e: Some(PropExpr(e), TOP_CLASS),
    "I": lambda e: Some(PropExpr(e, inverse=True), TOP_CLASS),
}

# The golden-eagle ontology: subclass chain plus a metaclass assertion.
EXAMPLE_SPECIES = f"""
Prefix(:=<{SPECIES}>)
Ontology(
  SubClassOf(:Eagle :Birds)
  SubClassOf(:GoldenEagle :Eagle)
  ClassAssertion(:GoldenEagle :Harry)
  ClassAssertion(:EndangeredSpecies :GoldenEagle)
)
"""

# Same scenario with habitat data, so the zoo meta-query has a join target
# and a non-answer distractor.
EXAMPLE_SPECIES_ZOO = f"""
Prefix(:=<{SPECIES}>)
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


def saturate(text: str, check_consistency: bool = False):
    """Parse, normalize, translate and run the fixpoint; returns
    (ontology, store, stats)."""
    ontology = normalize_ontology(parse_ontology(text))
    store = FactStore()
    store.assert_facts(translate_ontology(ontology).facts)
    stats = evaluate_fixpoint(store, builtin_rules(check_consistency))
    return ontology, store, stats


def brute_force_answers(store: FactStore, q: ConjunctiveQuery) -> list[tuple[str, ...]]:
    """Nested-loop evaluation: try every substitution of store symbols for
    the query variables.  Exponential and proud of it; keeps the check
    independent of the engine's join machinery."""
    symbols = [store.symbol(i) for i in range(len(store._symbols))]
    variables = sorted({t.name for a in q.body for t in a.args if isinstance(t, Var)})
    facts = store.string_facts()
    answers = set()
    for combo in itertools.product(symbols, repeat=len(variables)):
        env = dict(zip(variables, combo))
        ok = True
        for a in q.body:
            args = tuple(
                t.iri if isinstance(t, Entity) else env[t.name] for t in a.args
            )
            if (a.pred, args) not in facts:
                ok = False
                break
        if ok:
            answers.add(tuple(env[v.name] for v in q.answer_vars))
    return sorted(answers)
