import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from gens import random_ontology, random_program, random_query
from helpers import EXAMPLE_SPECIES, SPECIES, brute_force_answers, fact, naive_evaluate, saturate
from metaql import (
    Atom,
    ConjunctiveQuery,
    Entity,
    FactStore,
    Rule,
    Var,
    atom,
    builtin_rules,
    evaluate_fixpoint,
    explain_conjunctive_query,
    translate_ontology,
)
from metaql.engine import _close, _pivot, _transitive
from metaql.errors import ArityMismatch, UnknownPredicate

E = [Entity(f"http://t#e{i}") for i in range(60)]


def test_assert_facts_has_set_semantics():
    store = FactStore()
    f = fact("instc", E[0], E[1])
    assert store.assert_facts([f]) == 1
    assert store.assert_facts([f]) == 0
    assert len(store.relation("instc")) == 1


def test_assert_facts_empty_is_noop():
    store = FactStore()
    store.assert_facts([fact("instc", E[0], E[1])])
    size = store.size()
    assert store.assert_facts([]) == 0
    assert store.size() == size


def test_assert_facts_counts_distinct_bulk():
    from metaql import normalize_ontology, parse_ontology
    from metaql.synthetic import university_ontology

    fb = translate_ontology(normalize_ontology(parse_ontology(university_ontology(2))))
    store = FactStore()
    assert store.assert_facts(fb.facts) == len(fb.facts)


def test_bulk_load_matches_loading_one_fact_at_a_time():
    from metaql import normalize_ontology, parse_ontology
    from metaql.synthetic import university_ontology

    facts = list(translate_ontology(normalize_ontology(parse_ontology(university_ontology(2)))).facts)
    bulk = FactStore()
    bulk.assert_facts(facts)
    single = FactStore()
    for pred, iris in facts:
        single.add_tuples(pred, [iris])
    assert bulk.canonical_dump() == single.canonical_dump()


def test_relations_hold_the_iri_strings():
    store = FactStore()
    store.assert_facts([fact("instc", E[0], E[1])])
    assert store.relation("instc") == {(E[0].iri, E[1].iri)}


def test_arity_mismatch_within_one_assert_facts_call():
    store = FactStore()
    with pytest.raises(ArityMismatch):
        store.assert_facts([fact("aux", E[0], E[1]), fact("instc", E[0], E[1]), fact("aux", E[0], E[1], E[2])])


def test_arity_mismatch_on_dynamic_predicates():
    store = FactStore()
    store.add_tuples("aux", [(1, 2)])
    with pytest.raises(ArityMismatch):
        store.add_tuples("aux", [(1, 2, 3)])


def test_an_atom_is_not_a_fact():
    # Facts are (predicate, IRI tuple) pairs; an Atom, ground or not, fails.
    store = FactStore()
    for a in (atom("instc", E[0], E[1]), Atom("named", (Var("X"),))):
        with pytest.raises(TypeError):
            store.assert_facts([a])
    assert store.size() == 0


def test_fixpoint_example_species():
    _, store, stats = saturate(EXAMPLE_SPECIES)
    facts = store.string_facts()
    assert ("instc", (SPECIES + "Eagle", SPECIES + "Harry")) in facts
    assert ("instc", (SPECIES + "Birds", SPECIES + "Harry")) in facts
    assert stats.rounds >= 1
    assert "rounds=" in stats.summary()


def test_fixpoint_on_empty_store():
    store = FactStore()
    stats = evaluate_fixpoint(store, builtin_rules())
    assert store.size() == 0
    assert stats.rounds == 1


def test_subclass_chain_of_fifty_closes_completely():
    n = 50
    names = [Entity(f"http://t#k{i}") for i in range(n)]
    facts = [fact("isacCC", names[i], names[i + 1]) for i in range(n - 1)]
    store = FactStore()
    store.assert_facts(facts)
    evaluate_fixpoint(store, builtin_rules())
    derived = store.relation("isacCC")
    # i < j pairs of a linear chain: n(n-1)/2, checked against the naive twin.
    assert len(derived) == n * (n - 1) // 2 == 1225
    assert {(p, t) for p, t in naive_evaluate(facts, builtin_rules()) if p == "isacCC"} == {
        ("isacCC", t) for t in derived
    }


def test_rules_with_empty_bodies_become_facts():
    store = FactStore()
    rule_fact = Rule(Atom("named", (E[0],)))
    evaluate_fixpoint(store, [rule_fact])
    assert store.string_facts() == {("named", (E[0].iri,))}


def test_naive_evaluate_empty_program():
    assert naive_evaluate([], []) == set()
    assert naive_evaluate([], builtin_rules()) == set()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_naive_and_seminaive_agree(seed):
    rng = random.Random(seed)
    facts, rules = random_program(rng)
    store = FactStore()
    store.assert_facts(facts)
    evaluate_fixpoint(store, rules)
    assert store.string_facts() == naive_evaluate(facts, rules)


@pytest.mark.parametrize("check_consistency", [False, True])
def test_builtin_catalogue_agrees_with_naive_twin(check_consistency):
    rng = random.Random(5150)
    catalogue = builtin_rules(check_consistency)
    inconsistent = 0
    for _ in range(200):
        facts = translate_ontology(random_ontology(rng, max_tbox=6, max_abox=12)).facts
        store = FactStore()
        store.assert_facts(facts)
        evaluate_fixpoint(store, catalogue)
        assert store.string_facts() == naive_evaluate(facts, catalogue)
        inconsistent += bool(store.relation("violation"))
    # The consistency rules run after the fixpoint; some instance must
    # reach them.
    assert inconsistent > 0 if check_consistency else inconsistent == 0


def _rule(head, *body):
    return Rule(head, tuple(body))


def _program_agrees_with_naive_twin(facts, rules):
    store = FactStore()
    store.assert_facts(facts)
    evaluate_fixpoint(store, rules)
    model = store.string_facts()
    assert model == naive_evaluate(facts, rules)
    return model


def test_join_fires_once_its_empty_partner_fills():
    # q's task on p is skipped in the first round, while r is still empty;
    # it must fire when p(c) arrives in round 5, by then with r filled.
    a, c = E[0], E[1]
    facts = [fact("p", a), fact("s", a), fact("s", c)]
    rules = [
        _rule(atom("t", "X"), atom("s", "X")),
        _rule(atom("r", "X", "X"), atom("t", "X")),
        _rule(atom("q", "X", "Y"), atom("p", "X"), atom("r", "X", "Y")),
        _rule(Atom("w", (c,)), atom("q", "X", "Y")),
        _rule(atom("p", "X"), atom("w", "X")),
    ]
    model = _program_agrees_with_naive_twin(facts, rules)
    assert ("q", (E[1].iri, E[1].iri)) in model


def test_sink_rule_reads_facts_of_the_last_round():
    # The chain derives p3 only in its last round; the sink `done`, which
    # no body reads, still sees it.
    a = E[0]
    facts = [fact("p0", a)]
    rules = [_rule(atom(f"p{i + 1}", "X"), atom(f"p{i}", "X")) for i in range(3)]
    rules.append(_rule(atom("done", "X"), atom("p0", "X"), atom("p3", "X")))
    store = FactStore()
    store.assert_facts(facts)
    stats = evaluate_fixpoint(store, rules)
    assert store.string_facts() == naive_evaluate(facts, rules)
    assert ("done", (E[0].iri,)) in store.string_facts()
    assert stats.facts_derived["done"] == 1


def test_two_atom_body_with_constant_and_repeated_variable():
    c = E[9]
    facts = [
        fact("p", E[0], E[0]),
        fact("p", E[1], E[1]),
        fact("p", E[2], E[3]),
        fact("r", E[0], c),
        fact("r", E[1], E[8]),
        fact("r", E[2], c),
        fact("u", E[4], E[5], E[5]),
        fact("u", E[4], E[6], E[7]),
    ]
    rules = [
        _rule(atom("q", "X"), atom("p", "X", "X"), Atom("r", (Var("X"), c))),
        # the partner's repeated variable is not bound by the delta atom
        _rule(atom("q", "Y"), atom("q", "X"), atom("u", "Z", "Y", "Y")),
    ]
    model = _program_agrees_with_naive_twin(facts, rules)
    assert {args for pred, args in model if pred == "q"} == {(E[0].iri,), (E[5].iri,)}


def test_all_constant_seed_atom_fires_when_it_arrives():
    # p(c) and p(d) arrive together in round 3, after r is filled.  The
    # delta atom p(c) of q's first task must match p(c) alone, and w's
    # p(e) must match nothing.  `done` reads q and w, so they join inside
    # the fixpoint rather than once after it.
    c, d, e = E[1], E[2], E[5]
    facts = [fact("s", d), fact("r", E[3]), fact("r", E[4])]
    rules = [
        _rule(atom("t", "X"), atom("s", "X")),
        _rule(Atom("p", (c,)), atom("t", "X")),
        _rule(atom("p", "X"), atom("t", "X")),
        _rule(atom("q", "X"), Atom("p", (c,)), atom("r", "X")),
        _rule(atom("w", "X"), Atom("p", (e,)), atom("r", "X")),
        _rule(atom("done", "X"), atom("q", "X")),
        _rule(atom("done", "X"), atom("w", "X")),
    ]
    model = _program_agrees_with_naive_twin(facts, rules)
    assert {args for pred, args in model if pred == "q"} == {(E[3].iri,), (E[4].iri,)}
    assert not {args for pred, args in model if pred == "w"}


def test_disconnected_body_is_a_cross_product():
    facts = [fact("p", E[i]) for i in range(3)] + [fact("r", E[i]) for i in (3, 4)]
    rules = [_rule(atom("q", "X", "Y"), atom("p", "X"), atom("r", "Y"))]
    model = _program_agrees_with_naive_twin(facts, rules)
    assert len([1 for pred, _ in model if pred == "q"]) == 6


def test_repeated_variable_inside_a_later_atom():
    # u(Z, Y, Y) joins third, after p and r; only its tuples with equal
    # second and third columns may match.
    facts = [
        fact("p", E[0], E[1]),
        fact("r", E[1], E[2]),
        fact("u", E[2], E[5], E[5]),
        fact("u", E[2], E[6], E[7]),
    ]
    rules = [_rule(atom("q", "X", "Y"), atom("p", "X", "A"), atom("r", "A", "Z"), atom("u", "Z", "Y", "Y"))]
    model = _program_agrees_with_naive_twin(facts, rules)
    assert {args for pred, args in model if pred == "q"} == {(E[0].iri, E[5].iri)}
    store = FactStore()
    store.assert_facts(facts)
    q = ConjunctiveQuery(
        (Var("X"), Var("Y")),
        (atom("u", "Z", "Y", "Y"), atom("r", "A", "Z"), atom("p", "X", "A")),
    )
    assert store_answers(store, q) == brute_force_answers(store, q) == [(E[0].iri, E[5].iri)]


def test_rule_body_atom_of_the_wrong_arity_is_rejected():
    store = FactStore()
    store.assert_facts([fact("p", E[0], E[1])])
    with pytest.raises(ArityMismatch):
        evaluate_fixpoint(store, [_rule(atom("q", "X"), atom("p", "X"))])


# -- relations kept transitively closed ----------------------------------------


def _random_digraph(rng: random.Random, max_nodes: int = 12) -> list[tuple[int, int]]:
    """Edges over nodes 0..n-1 with a planted cycle, some self-loops, and
    usually a few nodes on no edge."""
    n = rng.randint(1, max_nodes)
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
    cycle = rng.sample(range(n), rng.randint(1, n))
    edges |= set(zip(cycle, cycle[1:] + cycle[:1]))
    edges |= {(v, v) for v in range(n) if rng.random() < 0.1}
    return sorted(edges)


def _brute_closure(edges) -> set[tuple[int, int]]:
    closure = set(edges)
    while True:
        more = {(a, d) for a, b in closure for c, d in closure if b == c} - closure
        if not more:
            return closure
        closure |= more


def _batches(rng: random.Random, edges: list, how: str) -> list[list]:
    if how == "whole":
        return [edges]
    if how == "single":
        return [[e] for e in edges]
    # a cut at 0 leaves nothing asserted
    cuts = sorted(rng.sample(range(len(edges)), rng.randint(0, len(edges) - 1)))
    return [edges[i:j] for i, j in zip([0] + cuts, cuts + [len(edges)])]


def test_closure_step_matches_brute_force_closure():
    rng = random.Random(2718)
    for _ in range(150):
        edges = _random_digraph(rng)
        for how in ("whole", "single", "random"):
            shuffled = rng.sample(edges, len(edges))
            batches = _batches(rng, shuffled, how)
            store = FactStore()
            # the first batch is asserted and closed at once, as before a
            # fixpoint's first round; the others arrive as rules emit them
            store.add_tuples("p", batches[0])
            succ: dict[int, list[int]] = {}
            added = _close(store, "p", succ, store.relation("p"))
            seen = list(batches[0])
            assert added == _brute_closure(seen) - set(seen)
            for batch in batches[1:]:
                before = set(store.relation("p"))
                fresh = set(batch) - before
                if fresh:
                    added = _close(store, "p", succ, fresh)
                    assert added == store.relation("p") - before
                seen += batch
                assert store.relation("p") == _brute_closure(seen)


def test_closed_relation_fed_in_a_later_round_agrees_with_naive_twin():
    # p is asserted in part, fed by edge in the first round, and by q only
    # once r arrives at the end of a three-rule chain.
    rng = random.Random(3141)
    rules = [
        _rule(atom("p", "X", "Y"), atom("edge", "X", "Y")),
        _rule(atom("p", "X", "Y"), atom("p", "X", "M"), atom("p", "M", "Y")),
        _rule(atom("p", "X", "Y"), atom("q", "X", "Y"), atom("r", "Y")),
        _rule(atom("r", "X"), atom("s2", "X")),
        _rule(atom("s2", "X"), atom("s1", "X")),
        _rule(atom("s1", "X"), atom("s0", "X")),
    ]
    for _ in range(40):
        facts = [fact(pred, E[a], E[b]) for pred in ("edge", "q") for a, b in _random_digraph(rng)]
        asserted_p = [fact("p", E[a], E[b]) for a, b in _random_digraph(rng)[:3]]
        facts += asserted_p + [fact("s0", e) for e in rng.sample(E[:12], 4)]
        store = FactStore()
        store.assert_facts(facts)
        stats = evaluate_fixpoint(store, rules)
        naive = naive_evaluate(facts, rules)
        assert store.string_facts() == naive
        assert stats.facts_derived.get("p", 0) == sum(1 for pred, _ in naive if pred == "p") - len(asserted_p)


def test_transitive_rule_over_a_ternary_relation_is_an_arity_error():
    store = FactStore()
    store.assert_facts([fact("p", *E[:3])])
    with pytest.raises(ArityMismatch):
        evaluate_fixpoint(store, [_rule(atom("p", "X", "Y"), atom("p", "X", "M"), atom("p", "M", "Y"))])


@pytest.mark.parametrize("check_consistency", [False, True])
def test_the_catalogue_closes_exactly_isacCC_and_isarRR(check_consistency):
    closed = [r.head.pred for r in builtin_rules(check_consistency).rules if _transitive(r)]
    assert sorted(closed) == ["isacCC", "isarRR"]


@pytest.mark.parametrize(
    "rule, closed",
    [
        (_rule(atom("p", "X", "Y"), atom("p", "X", "M"), atom("p", "M", "Y")), True),
        (_rule(atom("p", "X", "Y"), atom("p", "M", "Y"), atom("p", "X", "M")), True),
        (_rule(atom("p", "X", "Y"), atom("p", "X", "M"), atom("p", "Y", "M")), False),
        (_rule(atom("p", "X", "Y"), atom("p", "X", "M"), atom("q", "M", "Y")), False),
        (_rule(atom("p", "X", "X"), atom("p", "X", "M"), atom("p", "M", "X")), False),
        (_rule(atom("p", "X", E[2]), atom("p", "X", "M"), atom("p", "M", "Y")), False),
        (_rule(atom("t", "X", "Y", "F"), atom("t", "X", "M", "C0"), atom("t", "M", "Y", "F")), False),
    ],
    ids=["transitive", "body-swapped", "shared-target", "other-predicate", "head-x-x", "head-constant", "ternary"],
)
def test_only_the_transitive_shape_is_closed_and_every_rule_agrees_with_naive_twin(rule, closed):
    assert _transitive(rule) is closed
    rng = random.Random(1618)
    for _ in range(30):
        facts = [fact(pred, E[a], E[b]) for pred in "pq" for a, b in _random_digraph(rng, 8)]
        facts += [fact("t", *rng.choices(E[:8], k=3)) for _ in range(12)]
        _program_agrees_with_naive_twin(facts, [rule])


# -- rules that propagate along a closed relation -------------------------------


def _propagation_program(rule):
    """`rule` with rules that keep p closed and feed it from e in the first
    round and from q once r arrives, at the end of a three-rule chain, and
    that feed q from f once t arrives, at the end of a two-rule chain."""
    return [
        rule,
        _rule(atom("p", "X", "Y"), atom("p", "X", "M"), atom("p", "M", "Y")),
        _rule(atom("p", "X", "Y"), atom("e", "X", "Y")),
        _rule(atom("p", "X", "Y"), atom("q", "X", "Y"), atom("r", "Y")),
        _rule(atom("r", "X"), atom("s2", "X")),
        _rule(atom("s2", "X"), atom("s1", "X")),
        _rule(atom("s1", "X"), atom("s0", "X")),
        _rule(atom("q", "X", "Y"), atom("f", "X", "Y"), atom("t", "X")),
        _rule(atom("t", "X"), atom("u1", "X")),
        _rule(atom("u1", "X"), atom("u0", "X")),
    ]


def _propagation_facts(rng):
    facts = [fact(pred, E[a], E[b]) for pred in ("e", "f", "g") for a, b in _random_digraph(rng, 10)]
    facts += [fact(pred, E[a], E[b]) for pred in "pq" for a, b in _random_digraph(rng, 10)[:3]]
    facts += [fact("h", E[a], E[b], E[b]) for a, b in _random_digraph(rng, 10)[:3]]
    return facts + [fact(pred, e) for pred in ("s0", "u0", "w") for e in rng.sample(E[:10], 4)]


@pytest.mark.parametrize(
    "rule",
    [
        _rule(atom("q", "Y", "X"), atom("q", "C", "X"), atom("p", "C", "Y")),
        _rule(atom("q", "Y", "X"), atom("q", "C", "X"), atom("p", "Y", "C")),
        _rule(atom("q", "X", "Y"), atom("p", "C", "Y"), atom("q", "X", "C")),
        _rule(atom("q", "X", "Y"), atom("p", "Y", "C"), atom("q", "X", "C")),
    ],
    ids=["p(C,Y)", "p(Y,C)", "p(C,Y)-second-column", "p(Y,C)-second-column"],
)
def test_rule_propagating_along_a_closed_relation_agrees_with_naive_twin(rule):
    # Its q atom skips what the rule derived the round before; p gains
    # edges and q gains facts from other rules in later rounds.
    assert _pivot(rule) is not None
    rng = random.Random(2236)
    rules = _propagation_program(rule)
    late = 0
    for _ in range(40):
        facts = _propagation_facts(rng)
        store = FactStore()
        store.assert_facts(facts)
        stats = evaluate_fixpoint(store, rules)
        naive = naive_evaluate(facts, rules)
        assert store.string_facts() == naive
        asserted_q = {f for f in facts if f[0] == "q"}
        assert stats.facts_derived.get("q", 0) == sum(1 for f in naive if f[0] == "q") - len(asserted_q)
        late += stats.rounds > 4
    assert late > 20


@pytest.mark.parametrize(
    "rule, shape",
    [
        (_rule(atom("q", "Y", "X"), atom("q", "C", "X"), atom("p", "C", "Y")), (0, 0, True)),
        (_rule(atom("q", "X", "Y"), atom("p", "Y", "C"), atom("q", "X", "C")), (1, 1, False)),
        (_rule(atom("q", "Y", "X"), atom("q", "C", "X"), atom("g", "C", "Y")), (0, 0, True)),
        (_rule(atom("q", "Y", "X"), atom("q", "X", "C"), atom("p", "C", "Y")), None),
        (_rule(atom("h", "Y", "X", "X"), atom("h", "C", "X", "X"), atom("p", "C", "Y")), None),
        (_rule(atom("q", "Y", E[2]), atom("q", "C", E[2]), atom("p", "C", "Y")), None),
        (_rule(atom("q", "Y", "C"), atom("q", "C", "X"), atom("p", "C", "Y")), None),
        (_rule(atom("q", "Y", "Y"), atom("q", "C", "Y"), atom("p", "C", "Y")), None),
        (_rule(atom("q", "Y", "X"), atom("q", "C", "X"), atom("p", "C", "Y"), atom("w", "C")), None),
    ],
    ids=[
        "match",
        "match-swapped",
        "not-closed",
        "two-head-positions",
        "repeated-variable",
        "constant",
        "pivot-in-head",
        "head-variable-in-q",
        "pivot-in-a-third-atom",
    ],
)
def test_only_the_propagation_shape_skips_its_own_output_and_every_rule_agrees_with_naive_twin(rule, shape):
    # `g` has no transitive rule, so a rule along it must join its own
    # output again, although its shape matches.
    assert _pivot(rule) == shape
    rng = random.Random(1414)
    for _ in range(30):
        _program_agrees_with_naive_twin(_propagation_facts(rng), _propagation_program(rule))


@pytest.mark.parametrize("check_consistency", [False, True])
def test_the_catalogue_has_27_rules_propagating_along_a_closed_relation(check_consistency):
    rules = builtin_rules(check_consistency).rules
    closed = {r.head.pred for r in rules if _transitive(r)}
    along = [r for r in rules if not _transitive(r) and _pivot(r) and r.body[1 - _pivot(r)[0]].pred in closed]
    assert len(along) == 27
    assert any(r.head.pred == "instc" for r in along)


# -- the cyclic garbage collector ------------------------------------------------


@pytest.mark.parametrize("enabled", [True, False])
def test_fixpoint_leaves_the_collector_as_it_found_it(enabled):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        store = FactStore()
        store.assert_facts(translate_ontology(random_ontology(random.Random(7), max_tbox=6, max_abox=12)).facts)
        evaluate_fixpoint(store, builtin_rules())
        assert gc.isenabled() is enabled
        store.assert_facts([fact("p", E[0], E[1])])
        with pytest.raises(ArityMismatch):
            evaluate_fixpoint(store, [_rule(atom("q", "X"), atom("p", "X"))])
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_saturation_leaves_no_reference_cycles():
    # Why pausing the collector during the fixpoint is safe: reference
    # counting alone frees everything it allocates.
    from metaql import normalize_ontology, parse_ontology
    from metaql.synthetic import university_ontology

    facts = translate_ontology(normalize_ontology(parse_ontology(university_ontology(2)))).facts
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        store = FactStore()
        store.assert_facts(facts)
        stats = evaluate_fixpoint(store, builtin_rules(check_consistency=True))
        assert stats.facts_derived["instc"] and stats.facts_derived["isacCC"]
        del store
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def store_answers(store, q):
    from metaql import answer_conjunctive_query

    return answer_conjunctive_query(store, q)


def test_answer_meta_query_on_example_species():
    # Members of EndangeredSpecies that themselves have members.
    _, store, _ = saturate(EXAMPLE_SPECIES)
    es = Entity(SPECIES + "EndangeredSpecies")
    q = ConjunctiveQuery(
        (Var("X"),),
        (Atom("instc", (es, Var("X"))), Atom("instc", (Var("X"), Var("Y")))),
    )
    assert store_answers(store, q) == [(SPECIES + "GoldenEagle",)]


def test_answer_with_unknown_constant_is_empty():
    _, store, _ = saturate(EXAMPLE_SPECIES)
    q = ConjunctiveQuery(
        (Var("X"),), (Atom("instc", (Entity("http://nowhere#C"), Var("X"))),)
    )
    assert store_answers(store, q) == []


def test_unknown_predicate_is_an_error():
    _, store, _ = saturate(EXAMPLE_SPECIES)
    q = ConjunctiveQuery((Var("X"),), (Atom("mystery", (Var("X"),)),))
    with pytest.raises(UnknownPredicate):
        store_answers(store, q)


def test_answers_are_sorted_and_distinct():
    _, store, _ = saturate(EXAMPLE_SPECIES)
    q = ConjunctiveQuery((Var("X"),), (Atom("instc", (Var("C"), Var("X"))),))
    answers = store_answers(store, q)
    assert answers == sorted(set(answers))


def test_all_constant_atom_as_the_first_probing_step():
    # instc(Species, GoldenEagle) covers every column and costs 1, so it
    # is the query's first step: a membership test, not an index bucket.
    _, store, _ = saturate(EXAMPLE_SPECIES)
    es, ge = Entity(SPECIES + "EndangeredSpecies"), Entity(SPECIES + "GoldenEagle")
    for cls in (es, Entity(SPECIES + "Birds")):
        q = ConjunctiveQuery(
            (Var("X"),), (Atom("instc", (Var("X"), Var("Y"))), Atom("instc", (cls, ge)))
        )
        assert store_answers(store, q) == brute_force_answers(store, q)
    assert store_answers(store, q) == []


@pytest.mark.parametrize("args", [("X",), ("X", "Y", "Z")])
def test_query_atom_of_the_wrong_arity_is_rejected(args):
    store = FactStore()
    store.assert_facts([fact("p", E[0], E[1])])
    with pytest.raises(ArityMismatch):
        store_answers(store, ConjunctiveQuery((Var("X"),), (atom("p", *args),)))


@pytest.mark.parametrize("max_atoms", [3, 5])
def test_query_answers_match_brute_force_enumeration(max_atoms):
    rng = random.Random(8080)
    for _ in range(40):
        o = random_ontology(rng, max_tbox=6, max_abox=12)
        store = FactStore()
        store.assert_facts(translate_ontology(o).facts)
        evaluate_fixpoint(store, builtin_rules())
        for _ in range(2):
            q = random_query(rng, o, max_atoms)
            assert store_answers(store, q) == brute_force_answers(store, q)


def test_explain_rows_match_brute_force_per_prefix():
    # Each step's actual rows are the distinct bindings of the plan's prefix
    # up to it, which brute force counts independently of the join chain.
    rng = random.Random(4242)
    checked = 0
    for _ in range(40):
        o = random_ontology(rng, max_tbox=6, max_abox=12)
        store = FactStore()
        store.assert_facts(translate_ontology(o).facts)
        evaluate_fixpoint(store, builtin_rules())
        for _ in range(2):
            q = random_query(rng, o, 5)
            report = explain_conjunctive_query(store, q)
            atoms = [step.atom for step in report]
            assert sorted(atoms, key=str) == sorted(q.body, key=str)
            for n, step in enumerate(report, start=1):
                variables = tuple(dict.fromkeys(t for a in atoms[:n] for t in a.args if isinstance(t, Var)))
                prefix = ConjunctiveQuery(variables, tuple(atoms[:n]))
                assert step.actual == len(brute_force_answers(store, prefix))
                checked += 1
    assert checked > 50


def test_a_constant_absent_from_the_model_matches_nothing():
    from metaql import parse_query, to_conjunctive_query
    from metaql.synthetic import UNI, university_ontology

    _, store, _ = saturate(university_ontology(1))
    q = to_conjunctive_query(
        parse_query(f"PREFIX uni: <{UNI}>\nSELECT ?x WHERE {{ ?x a uni:GraduateStudent . ?x uni:memberOf uni:nowhere }}")
    )
    assert store_answers(store, q) == brute_force_answers(store, q) == []
    report = explain_conjunctive_query(store, q)
    assert [step.atom for step in report] == [q.body[1], q.body[0]]
    assert [step.actual for step in report] == [0, 0]


def test_answering_leaves_the_store_unchanged():
    # The benchmark's queries over the professor-type extension.
    from metaql import normalize_ontology, parse_ontology, parse_query, to_conjunctive_query
    from metaql import synthetic as S

    store = FactStore()
    for text in (S.university_ontology(1), S.professor_type_extension()):
        store.assert_facts(translate_ontology(normalize_ontology(parse_ontology(text))).facts)
    evaluate_fixpoint(store, builtin_rules())
    before = {pred: set(rel) for pred, rel in store.relations.items()}
    queries = S.standard_queries() + S.simple_meta_queries() + S.special_meta_queries()
    assert len(queries) == 20
    for _, text in queries:
        store_answers(store, to_conjunctive_query(parse_query(text)))
    assert store.relations == before


def test_fully_bound_steps_build_no_index():
    # A step whose key covers every column tests membership in the relation.
    from metaql import parse_query, to_conjunctive_query
    from metaql.synthetic import standard_queries, university_ontology

    _, store, _ = saturate(university_ontology(1), check_consistency=True)
    for _, text in standard_queries():
        store_answers(store, to_conjunctive_query(parse_query(text)))
    arity = {pred: len(next(iter(rel))) for pred, rel in store.relations.items() if rel}
    assert store._indexes
    assert all(len(key) < arity.get(pred, len(key) + 1) for pred, key in store._indexes)


def test_insertion_order_does_not_change_the_model():
    from metaql import normalize_ontology, parse_ontology
    from metaql.synthetic import university_ontology

    fb = translate_ontology(normalize_ontology(parse_ontology(university_ontology(1))))
    dumps = []
    for reverse in (False, True):
        store = FactStore()
        store.assert_facts(sorted(fb.facts, reverse=reverse))
        evaluate_fixpoint(store, builtin_rules())
        dumps.append(store.canonical_dump())
    assert dumps[0] == dumps[1]


def test_model_is_minimal_on_small_instances():
    # Dropping any derived fact leaves a rule applicable that puts it back.
    rng = random.Random(4321)
    catalogue = builtin_rules()
    for _ in range(5):
        o = random_ontology(rng, max_tbox=5, max_abox=8)
        base = translate_ontology(o).facts
        store = FactStore()
        store.assert_facts(base)
        evaluate_fixpoint(store, catalogue)
        model = store.string_facts()
        derived = model - base
        for d in sorted(derived)[:15]:
            without = model - {d}
            re_derived = _one_round(without, catalogue)
            assert d in re_derived


def _one_round(string_facts, catalogue):
    """One naive rule application over string-level facts."""
    out = set(string_facts)
    facts = list(string_facts)
    by_pred = {}
    for p, args in facts:
        by_pred.setdefault(p, []).append(args)

    def match(atom_, env):
        for args in by_pred.get(atom_.pred, ()):
            new = dict(env)
            ok = True
            for t, v in zip(atom_.args, args):
                if isinstance(t, Entity):
                    if t.iri != v:
                        ok = False
                        break
                elif new.setdefault(t.name, v) != v:
                    ok = False
                    break
            if ok:
                yield new

    for rule in catalogue.rules:
        envs = [{}]
        for a in rule.body:
            envs = [e2 for e in envs for e2 in match(a, e)]
            if not envs:
                break
        for env in envs:
            out.add(
                (
                    rule.head.pred,
                    tuple(
                        t.iri if isinstance(t, Entity) else env[t.name]
                        for t in rule.head.args
                    ),
                )
            )
    return out
