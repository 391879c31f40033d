"""Shared fixtures and independent checking utilities."""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from metaql import (
    Atom,
    ConjunctiveQuery,
    FactStore,
    Ontology,
    Rule,
    RuleCatalogue,
    TOP_CLASS,
    Var,
    builtin_rules,
    evaluate_fixpoint,
    normalize_ontology,
    parse_ontology,
    translate_ontology,
)
from metaql import owl

SPECIES = "http://ex/species#"

# One basic concept of each kind letter over a given IRI, as the side of
# a fact (see `metaql.model`).
BASIC_OF_KIND = {
    "C": lambda iri: ("C", iri),
    "R": lambda iri: ("R", iri, TOP_CLASS),
    "I": lambda iri: ("I", iri, TOP_CLASS),
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


def fact(pred: str, *iris: str) -> tuple[str, tuple[str, ...]]:
    """The fact `pred` over `iris`, as the axiom constructors and the
    store spell it."""
    return pred, iris


def parse_token_by_token(text: str) -> Ontology:
    """`parse_ontology` without flat matches: every axiom read token by
    token.  The reference the flat matches are checked against."""
    return owl._parse(text, flat=False)


def saturate(text: str, check_consistency: bool = False):
    """Parse, normalize, translate and run the fixpoint; returns
    (ontology, store, stats)."""
    ontology = normalize_ontology(parse_ontology(text))
    store = FactStore()
    store.assert_facts(translate_ontology(ontology).facts)
    stats = evaluate_fixpoint(store, builtin_rules(check_consistency))
    return ontology, store, stats


def brute_force_answers(store: FactStore, q: ConjunctiveQuery) -> list[tuple[str, ...]]:
    """Nested-loop evaluation: try every substitution of the model's
    symbols for the query variables.  Exponential and proud of it; keeps
    the check independent of the engine's join machinery.  The symbols are
    those of the model's facts: one that occurs in no fact satisfies no
    atom, so the answers are the same as over any larger domain."""
    facts = store.string_facts()
    symbols = sorted({s for _, t in facts for s in t})
    variables = sorted({t.name for a in q.body for t in a.args if isinstance(t, Var)})
    answers = set()
    for combo in itertools.product(symbols, repeat=len(variables)):
        env = dict(zip(variables, combo))
        ok = True
        for a in q.body:
            args = tuple(
                t if isinstance(t, str) else env[t.name] for t in a.args
            )
            if (a.pred, args) not in facts:
                ok = False
                break
        if ok:
            answers.add(tuple(env[v.name] for v in q.answer_vars))
    return sorted(answers)


def naive_evaluate(
    facts: Iterable[tuple[str, tuple[str, ...]]], rules: RuleCatalogue | Sequence[Rule]
) -> set[tuple[str, tuple[str, ...]]]:
    """Minimal model by naive iteration over (predicate, IRI tuple) facts.

    Re-evaluates every rule against the whole model each round; no
    deltas, no indexes, no interning.  Only suitable for small inputs.
    The reference the differential tests hold `evaluate_fixpoint` to.
    """
    rule_list = rules.rules if isinstance(rules, RuleCatalogue) else list(rules)
    model = set(facts)
    for r in rule_list:
        if not r.body:
            model.add((r.head.pred, r.head.args))

    def matches(a: Atom, env: dict[str, str]):
        for pred, args in model:
            if pred != a.pred or len(args) != len(a.args):
                continue
            new_env = dict(env)
            ok = True
            for t, v in zip(a.args, args):
                if isinstance(t, str):
                    if t != v:
                        ok = False
                        break
                elif t.name in new_env:
                    if new_env[t.name] != v:
                        ok = False
                        break
                else:
                    new_env[t.name] = v
            if ok:
                yield new_env

    changed = True
    while changed:
        changed = False
        for r in rule_list:
            if not r.body:
                continue
            envs = [{}]
            for a in r.body:
                envs = [e2 for e in envs for e2 in matches(a, e)]
                if not envs:
                    break
            for env in envs:
                head = (
                    r.head.pred,
                    tuple(
                        t if isinstance(t, str) else env[t.name] for t in r.head.args
                    ),
                )
                if head not in model:
                    model.add(head)
                    changed = True
    return model
