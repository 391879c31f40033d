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
    ClassDisjoint,
    ClassInclusion,
    ConjunctiveQuery,
    Entity,
    PropDisjoint,
    PropInclusion,
    Rule,
    SIGNATURE,
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


# `metaql.oracle`, the brute-force reference for tests and demos, is
# imported when first named, for two reasons: `metaql query` never loads
# it, and code that reads it as an attribute of the package after a bare
# `import metaql`, as `bench/test_workloads.py` does, still finds it.
def __getattr__(name):
    if name == "oracle":
        return import_module(".oracle", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "ArityMismatch", "Atom", "BOTTOM_CLASS", "BOTTOM_PROPERTY",
    "ClassDisjoint", "ClassInclusion", "ConjunctiveQuery", "CyclicTBox",
    "Entity", "EvalStats", "FactBase", "FactStore", "InvalidIri",
    "MetaqlError", "Ontology", "OwlSyntaxError", "PropDisjoint",
    "PropInclusion", "Rule", "RuleCatalogue", "SIGNATURE", "SparqlQuery",
    "TOP_CLASS", "TOP_PROPERTY", "TriplePattern", "UnknownPredicate", "UnknownPrefix", "UnsafeQuery",
    "UnsafeRule", "UnsupportedAxiom", "UnsupportedFeature", "Var",
    "answer_conjunctive_query", "atom", "builtin_rules",
    "evaluate_fixpoint", "explain_conjunctive_query", "intern",
    "normalize_ontology", "parse_ontology", "parse_query", "serialize_ontology",
    "to_conjunctive_query", "translate_ontology",
]
