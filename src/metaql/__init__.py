"""Meta-querying over OWL 2 QL ontologies by reduction to Datalog.

Pipeline: parse an ontology, normalize it, translate every axiom to a
fact over a fixed predicate signature, saturate with the built-in rule
base by semi-naive fixpoint, then translate and answer conjunctive
SPARQL queries over the minimal model.  Variables may appear in class
and property positions, so meta-queries work like any other query.
"""

from importlib import import_module

from .errors import (
    ArityMismatch,
    CyclicTBox,
    InvalidIri,
    MetaqlError,
    OwlSyntaxError,
    UnknownPredicate,
    UnknownPrefix,
    UnsafeQuery,
    UnsafeRule,
    UnsupportedAxiom,
    UnsupportedFeature,
)
from .model import (
    Atom,
    BOTTOM_CLASS,
    BOTTOM_PROPERTY,
    ClassAssertion,
    ClassDisjoint,
    ClassInclusion,
    ConjunctiveQuery,
    DifferentIndividuals,
    Entity,
    Irreflexive,
    PropAssertion,
    PropDisjoint,
    PropExpr,
    PropInclusion,
    Reflexive,
    Rule,
    SIGNATURE,
    Some,
    TOP_CLASS,
    TOP_PROPERTY,
    Var,
    atom,
    intern,
)
from .owl import FactBase, Ontology, normalize_ontology, parse_ontology, serialize_ontology, translate_ontology
from .rules import RuleCatalogue, builtin_rules
from .engine import (
    EvalStats,
    FactStore,
    answer_conjunctive_query,
    evaluate_fixpoint,
    explain_conjunctive_query,
)
from .sparql import SparqlQuery, TriplePattern, parse_query, to_conjunctive_query

# The oracle is a reference for tests and for `metaql oracle`; it is
# imported on first use, so `metaql query` never loads it.
_ORACLE = frozenset({"CanonicalModel", "TBoxClosure", "certain_answers_oracle", "chase", "tbox_closure"})


def __getattr__(name):
    if name == "oracle" or name in _ORACLE:
        oracle = import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "ArityMismatch", "Atom", "BOTTOM_CLASS", "BOTTOM_PROPERTY",
    "CanonicalModel", "ClassAssertion", "ClassDisjoint", "ClassInclusion",
    "ConjunctiveQuery", "CyclicTBox", "DifferentIndividuals",
    "Entity", "EvalStats", "FactBase", "FactStore", "InvalidIri",
    "Irreflexive", "MetaqlError", "Ontology", "OwlSyntaxError",
    "PropAssertion", "PropDisjoint", "PropExpr", "PropInclusion",
    "Reflexive", "Rule", "RuleCatalogue", "SIGNATURE", "Some",
    "SparqlQuery", "TBoxClosure", "TOP_CLASS", "TOP_PROPERTY",
    "TriplePattern", "UnknownPredicate", "UnknownPrefix", "UnsafeQuery",
    "UnsafeRule", "UnsupportedAxiom", "UnsupportedFeature", "Var",
    "answer_conjunctive_query", "atom",
    "builtin_rules", "certain_answers_oracle", "chase",
    "evaluate_fixpoint", "explain_conjunctive_query", "intern",
    "normalize_ontology", "parse_ontology", "parse_query", "serialize_ontology",
    "tbox_closure", "to_conjunctive_query", "translate_ontology",
]
