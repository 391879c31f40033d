from itertools import product

import pytest

import metaql
from helpers import BASIC_OF_KIND
from metaql import (
    Atom,
    ClassDisjoint,
    ConjunctiveQuery,
    Entity,
    PropDisjoint,
    PropInclusion,
    Rule,
    SIGNATURE,
    TOP_CLASS,
    Var,
    atom,
    intern,
)
from metaql.errors import ArityMismatch, InvalidIri, UnknownPrefix, UnsafeQuery, UnsafeRule
from metaql.model import OWL_NS, alpha_equivalent


def test_intern_prefixed_name():
    assert intern("ub:Professor", {"ub": "http://ex/u#"}) == Entity("http://ex/u#Professor")


def test_intern_full_iri_is_identity():
    assert intern("<http://ex/a>", {}) == Entity("http://ex/a")


def test_intern_default_prefix():
    assert intern(":GoldenEagle", {"": "http://ex/z#"}) == Entity("http://ex/z#GoldenEagle")


def test_intern_is_idempotent_on_equal_tokens():
    prefixes = {"ub": "http://ex/u#"}
    assert intern("ub:X", prefixes) == intern("ub:X", prefixes)


def test_intern_undeclared_prefix():
    with pytest.raises(UnknownPrefix):
        intern("nope:X", {})
    with pytest.raises(UnknownPrefix):
        intern("bare-name", {})


def test_intern_maps_owl_spellings_to_reserved_entities():
    assert intern(f"<{OWL_NS}Thing>", {}) == TOP_CLASS
    assert intern("owl:Thing", {"owl": OWL_NS}) == TOP_CLASS


def test_entity_rejects_empty_and_whitespace():
    with pytest.raises(ValueError):
        Entity("")
    with pytest.raises(ValueError):
        Entity("http://ex/a b")


def test_entity_rejects_every_unicode_whitespace_character():
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert len(spaces) > 20
    for ch in spaces:
        with pytest.raises(InvalidIri):
            Entity(f"http://ex/a{ch}b")
    Entity("http://ex/a\u200bb")  # zero-width space is not whitespace


# The characters SPARQL 1.1's IRIREF excludes that are not whitespace.
IRIREF_EXCLUDED = [*'<>"{}|^`\\', *(chr(c) for c in range(0x21) if not chr(c).isspace())]


@pytest.mark.parametrize("ch", IRIREF_EXCLUDED, ids=[f"U+{ord(ch):04X}" for ch in IRIREF_EXCLUDED])
def test_entity_rejects_a_character_iriref_excludes(ch):
    with pytest.raises(InvalidIri):
        Entity(f"http://ex/a{ch}b")


def test_entity_equality_is_iri_equality():
    assert Entity("http://ex/a") == Entity("http://ex/a")
    assert Entity("http://ex/a") != Entity("http://ex/A")


def test_atom_arity_check():
    e = Entity("http://ex/a")
    with pytest.raises(ArityMismatch):
        atom("instc", e, e, e)
    with pytest.raises(ArityMismatch):
        atom("refl")
    # Unknown predicates (query heads) are unchecked here.
    Atom("q", (Var("X"),))


def test_signature_arities():
    assert SIGNATURE["isacCC"] == 2
    assert SIGNATURE["isacCR"] == 3
    assert SIGNATURE["instr"] == 3
    assert len(SIGNATURE) == 26


def test_rule_safety():
    with pytest.raises(UnsafeRule):
        Rule(atom("instc", "C", "X"), (atom("named", "X"),))  # C unbound
    with pytest.raises(UnsafeRule):
        Rule(atom("named", "X"))  # facts may not contain variables
    Rule(atom("named", "X"), (atom("instc", "C", "X"),))


def test_query_validation():
    with pytest.raises(UnsafeQuery):
        ConjunctiveQuery((Var("X"),), ())
    with pytest.raises(UnsafeQuery):
        ConjunctiveQuery((Var("Z"),), (atom("instc", "C", "X"),))


R, S = Entity("http://ex/r"), Entity("http://ex/s")


@pytest.mark.parametrize("axiom", [PropInclusion, PropDisjoint])
@pytest.mark.parametrize("right_inverse", [False, True])
def test_property_axiom_stores_an_inverse_left_side_flipped(axiom, right_inverse):
    # r^- op s is r op s^-, and r^- op s^- is r op s.
    written = axiom(("I", R.iri), ("I" if right_inverse else "R", S.iri))
    assert written == axiom(("R", R.iri), ("R" if right_inverse else "I", S.iri))


def test_class_disjointness_is_stored_in_an_orientation_the_signature_has():
    for lk, rk in product("CRI", repeat=2):
        left, right = BASIC_OF_KIND[lk](R), BASIC_OF_KIND[rk](S)
        ax = ClassDisjoint(left, right)
        # Only CR has no disjc predicate; it is stored as RC.
        stored = (("R", S), ("C", R)) if (lk, rk) == ("C", "R") else ((lk, R), (rk, S))
        assert ax == (f"disjc{stored[0][0]}{stored[1][0]}", (stored[0][1].iri, stored[1][1].iri))
    c, r = BASIC_OF_KIND["C"](R), BASIC_OF_KIND["R"](S)
    assert ClassDisjoint(c, r) == ClassDisjoint(r, c)


def test_alpha_equivalence_ignores_names_not_structure():
    r1 = Rule(atom("isacCC", "A", "B"), (atom("isacCC", "A", "M"), atom("isacCC", "M", "B")))
    r2 = Rule(atom("isacCC", "X", "Z"), (atom("isacCC", "X", "Y"), atom("isacCC", "Y", "Z")))
    r3 = Rule(atom("isacCC", "X", "Z"), (atom("isacCC", "X", "Y"), atom("isacCC", "Z", "Y")))
    assert alpha_equivalent(r1, r2)
    assert not alpha_equivalent(r1, r3)


def test_every_public_name_resolves_on_the_package():
    assert [name for name in metaql.__all__ if not hasattr(metaql, name)] == []
