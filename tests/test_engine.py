import gc
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gens import PROG_CONSTS, random_ontology, random_program, random_query
from helpers import EXAMPLE_SPECIES, SPECIES, brute_force_answers, fact, naive_evaluate, saturate
from metaql import (
    Atom,
    ConjunctiveQuery,
    FactStore,
    Rule,
    Var,
    atom,
    builtin_rules,
    evaluate_fixpoint,
    explain_conjunctive_query,
    translate_ontology,
)
from metaql.engine import _close, _compile, _estimate, _pivot, _transitive
from metaql.errors import ArityMismatch, UnknownPredicate

E = [f"http://t#e{i}" for i in range(60)]


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
    assert store.relation("instc") == {(E[0], E[1])}


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
    for a in (Atom("instc", (E[0], E[1])), Atom("named", (Var("X"),))):
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
    names = [f"http://t#k{i}" for i in range(n)]
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
    assert store.string_facts() == {("named", (E[0],))}


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


def _catalogue_over_ontology(check_consistency):
    def program(rng):
        return translate_ontology(random_ontology(rng)).facts, builtin_rules(check_consistency)

    return program


def _program_with_a_bodiless_fact(rng):
    # The fact lands on a predicate the rules use; on a binary one, a
    # transitive rule may also keep it closed.
    facts, rules = random_program(rng)
    head = rng.choice(rules).head
    rules.append(Rule(Atom(head.pred, tuple(rng.choice(PROG_CONSTS) for _ in head.args)), ()))
    if len(head.args) == 2 and rng.random() < 0.5:
        x, m, y = Var("X"), Var("M"), Var("Y")
        rules.append(Rule(Atom(head.pred, (x, y)), (Atom(head.pred, (x, m)), Atom(head.pred, (m, y)))))
    return facts, rules


@pytest.mark.parametrize(
    "program",
    [_catalogue_over_ontology(False), _catalogue_over_ontology(True), _program_with_a_bodiless_fact],
    ids=["False", "True", "bodiless"],
)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_derived_counts_are_the_growth_of_the_model(program, seed):
    # Every tuple a round adds is counted once, whichever rules derived it,
    # and so is the fact of a rule with an empty body.
    facts, rules = program(random.Random(seed))
    store = FactStore()
    store.assert_facts(facts)
    before = {pred: len(rel) for pred, rel in store.relations.items()}
    size = store.size()
    stats = evaluate_fixpoint(store, rules)
    for pred, rel in store.relations.items():
        assert stats.facts_derived.get(pred, 0) == len(rel) - before.get(pred, 0), pred
    assert stats.total_derived() == store.size() - size


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
    assert ("q", (E[1], E[1])) in model


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
    assert ("done", (E[0],)) in store.string_facts()
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
    assert {args for pred, args in model if pred == "q"} == {(E[0],), (E[5],)}


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
    assert {args for pred, args in model if pred == "q"} == {(E[3],), (E[4],)}
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
    assert {args for pred, args in model if pred == "q"} == {(E[0], E[5])}
    store = FactStore()
    store.assert_facts(facts)
    q = ConjunctiveQuery(
        (Var("X"), Var("Y")),
        (atom("u", "Z", "Y", "Y"), atom("r", "A", "Z"), atom("p", "X", "A")),
    )
    assert store_answers(store, q) == brute_force_answers(store, q) == [(E[0], E[5])]


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
            assert len(added) == len(set(added))
            assert set(added) == _brute_closure(seen) - set(seen)
            for batch in batches[1:]:
                before = set(store.relation("p"))
                fresh = set(batch) - before
                if fresh:
                    added = _close(store, "p", succ, fresh)
                    assert len(added) == len(set(added))
                    assert set(added) == store.relation("p") - before
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
        (_rule(Atom("p", (Var("X"), E[2])), atom("p", "X", "M"), atom("p", "M", "Y")), False),
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
        (_rule(Atom("q", (Var("Y"), E[2])), Atom("q", (Var("C"), E[2])), atom("p", "C", "Y")), None),
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
def test_fixpoint_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    # A fixpoint entered with the collector on collects first and, if it
    # returns, freezes what is alive, the store among it, while the
    # collector is still off; one that raises does not freeze.
    calls = []
    monkeypatch.setattr(gc, "collect", lambda *args: calls.append(("collect", gc.isenabled())))
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(("freeze", gc.isenabled())))
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        store = FactStore()
        store.assert_facts(translate_ontology(random_ontology(random.Random(7), max_tbox=6, max_abox=12)).facts)
        evaluate_fixpoint(store, builtin_rules())
        assert gc.isenabled() is enabled
        assert calls == ([("collect", False), ("freeze", False)] if enabled else [])
        store.assert_facts([fact("p", E[0], E[1])])
        with pytest.raises(ArityMismatch):
            evaluate_fixpoint(store, [_rule(atom("q", "X"), atom("p", "X"))])
        assert gc.isenabled() is enabled
        assert calls == ([("collect", False), ("freeze", False), ("collect", False)] if enabled else [])
    finally:
        gc.enable() if was else gc.disable()


def test_a_fixpoint_freezes_no_garbage():
    # A cycle that is garbage when a fixpoint starts is freed, not frozen.
    class Node:
        pass

    node = Node()
    node.self = node
    alive = weakref.ref(node)
    del node
    was = gc.isenabled()
    gc.enable()
    try:
        evaluate_fixpoint(FactStore(), builtin_rules())
        assert alive() is None
    finally:
        gc.enable() if was else gc.disable()


def test_the_front_end_and_the_load_leave_no_reference_cycles():
    # Why no collection need run over parse, normalize, translate and
    # load: reference counting alone frees everything they allocate.
    from metaql import normalize_ontology, parse_ontology
    from metaql.synthetic import professor_type_extension, university_ontology

    texts = (university_ontology(2), professor_type_extension(), EXAMPLE_SPECIES)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            store = FactStore()
            store.assert_facts(translate_ontology(normalize_ontology(parse_ontology(text))).facts)
            assert store.size()
            del store
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


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
    es = SPECIES + "EndangeredSpecies"
    q = ConjunctiveQuery(
        (Var("X"),),
        (Atom("instc", (es, Var("X"))), Atom("instc", (Var("X"), Var("Y")))),
    )
    assert store_answers(store, q) == [(SPECIES + "GoldenEagle",)]


def test_answer_with_unknown_constant_is_empty():
    _, store, _ = saturate(EXAMPLE_SPECIES)
    q = ConjunctiveQuery(
        (Var("X"),), (Atom("instc", ("http://nowhere#C", Var("X"))),)
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
    es, ge = SPECIES + "EndangeredSpecies", SPECIES + "GoldenEagle"
    for cls in (es, SPECIES + "Birds"):
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
    # up to it, projected onto the variables the chain keeps reading: the
    # prefix's variables less the dead ones.  Brute force counts them
    # independently of the join chain.  Each drawn query is also asked for
    # its first answer variable alone, which leaves more variables dead.
    rng = random.Random(4242)
    checked = projected = 0
    for _ in range(40):
        o = random_ontology(rng, max_tbox=6, max_abox=12)
        store = FactStore()
        store.assert_facts(translate_ontology(o).facts)
        evaluate_fixpoint(store, builtin_rules())
        for _ in range(2):
            drawn = random_query(rng, o, 5)
            for q in dict.fromkeys((drawn, ConjunctiveQuery(drawn.answer_vars[:1], drawn.body))):
                # the variables that occur once in the body and not in the head
                uses = Counter(t for a in q.body for t in a.args if isinstance(t, Var))
                dead = {v for v, n in uses.items() if n == 1} - set(q.answer_vars)
                report = explain_conjunctive_query(store, q)
                atoms = [step.atom for step in report]
                assert sorted(atoms, key=str) == sorted(q.body, key=str)
                for n, step in enumerate(report, start=1):
                    variables = tuple(dict.fromkeys(t for a in atoms[:n] for t in a.args if isinstance(t, Var)))
                    live = tuple(v for v in variables if v not in dead)
                    rows = len(brute_force_answers(store, ConjunctiveQuery(live, tuple(atoms[:n]))))
                    assert step.actual == rows
                    checked += 1
                    # a step where a dead variable has several values per binding
                    projected += rows != len(brute_force_answers(store, ConjunctiveQuery(variables, tuple(atoms[:n]))))
    assert checked > 50 and projected > 0


def _rescan_plan(body, store, first=None):
    """The plan's (atom, estimate) steps when every step re-estimates every
    candidate: the atoms with no variable or one already bound, every atom
    left when there is none, or the pinned `first`."""
    names = [{t.name for t in a.args if isinstance(t, Var)} for a in body]
    remaining, bound, plan = list(range(len(body))), set(), []
    while remaining:
        if plan or first is None:
            candidates = [i for i in remaining if not names[i] or not names[i].isdisjoint(bound)] or remaining
        else:
            candidates = [first]
        cost, idx = min((_estimate(body[i], bound, store), i) for i in candidates)
        remaining.remove(idx)
        bound |= names[idx]
        plan.append((idx, cost))
    return plan


def test_the_plan_is_the_one_a_full_rescan_picks():
    # The planner keeps each atom's estimate and redoes it only when one of
    # its variables is bound; every step still takes the cheapest candidate.
    rng = random.Random(5151)
    for _ in range(30):
        o = random_ontology(rng, max_tbox=6, max_abox=12)
        store = FactStore()
        store.assert_facts(translate_ontology(o).facts)
        evaluate_fixpoint(store, builtin_rules())
        for _ in range(3):
            q = random_query(rng, o, 6)
            for first in (None, *range(len(q.body))):
                _, plan = _compile(q.answer_vars, q.body, store, first)
                assert [(i, cost) for i, _, cost in plan] == _rescan_plan(q.body, store, first)


def test_a_meta_query_reads_the_keys_of_an_index_it_finds_and_builds_none():
    # `?x a ?c` selecting `?c`: `?x` is dead, so with `instc(0,)` in the
    # store the step reads its keys, one row per class; without it, every
    # tuple, and no index is built.  Either way `--explain` counts the
    # distinct classes.
    from metaql import parse_query, to_conjunctive_query

    store = FactStore()
    store.assert_facts([fact("instc", E[c], E[10 + x]) for c in range(3) for x in range(c, 6)])
    q = to_conjunctive_query(parse_query("SELECT ?c WHERE { ?x a ?c }"))
    assert store_answers(store, q) == brute_force_answers(store, q) == [(E[0],), (E[1],), (E[2],)]
    assert [step.actual for step in explain_conjunctive_query(store, q)] == [3]
    assert not store._indexes
    store.index("instc", (0,))
    indexes = set(store._indexes)
    assert store_answers(store, q) == brute_force_answers(store, q)
    assert [step.actual for step in explain_conjunctive_query(store, q)] == [3]
    assert set(store._indexes) == indexes


def test_two_projected_steps_each_read_their_own_index():
    # Two steps with no key, each with a dead variable and its index in the
    # store: each stage reads its own index however late the chain runs.
    from metaql import parse_query, to_conjunctive_query

    _, store, _ = saturate(
        "Prefix(:=<http://e#>)\nOntology(ClassAssertion(:A :a) ClassAssertion(:B :b) "
        "ObjectPropertyAssertion(:p :a :b) ObjectPropertyAssertion(:q :b :b) ObjectPropertyAssertion(:r :a :a))"
    )
    store.index("instc", (0,))
    store.index("instr", (0,))
    q = to_conjunctive_query(parse_query("SELECT ?c ?p WHERE { ?x a ?c . ?u ?p ?v }"))
    classes = {c for c, _ in store.relation("instc")}
    props = {p for p, _, _ in store.relation("instr")}
    answers = store_answers(store, q)
    assert answers == brute_force_answers(store, q) == sorted((c, p) for c in classes for p in props)
    assert len(classes) > 1 and len(props) > 1
    counts = sorted(step.actual for step in explain_conjunctive_query(store, q))
    assert counts in ([len(classes), len(answers)], [len(props), len(answers)])


def test_a_keyed_step_whose_new_variables_are_all_dead_counts_the_bindings_still_read():
    # `?x :p ?y` selecting `?x`: once `?x` is bound, the step probes
    # `instr(0, 1)` and its rows carry `?y`, but `--explain` counts the
    # bindings of `?x` alone, one per `?x`, not one per `?y`.
    from metaql import parse_query, to_conjunctive_query

    text = "".join(f" ClassAssertion(:A :a{i})" for i in range(5)) + "".join(
        f" ObjectPropertyAssertion(:p :a{i} :b{j})" for i in range(2) for j in range(3)
    )
    _, store, _ = saturate(f"Prefix(:=<http://e#>)\nOntology({text})")
    q = to_conjunctive_query(parse_query("SELECT ?x WHERE { ?x a <http://e#A> . ?x <http://e#p> ?y }"))
    assert store_answers(store, q) == brute_force_answers(store, q) == [("http://e#a0",), ("http://e#a1",)]
    report = explain_conjunctive_query(store, q)
    assert [(step.atom, step.key, step.actual) for step in report] == [(q.body[0], (0,), 5), (q.body[1], (0, 1), 2)]


def _long_query(n, select):
    """The ontology `A(a)`, `p<i>(a, b<i>)` for i < n, and the query of `?x a :A`
    and every `?x :p<i> ?y<i>`."""
    from metaql import parse_query, to_conjunctive_query

    axioms = " ".join(f"ObjectPropertyAssertion(:p{i} :a :b{i})" for i in range(n))
    _, store, _ = saturate(f"Prefix(:=<http://e#>)\nOntology(ClassAssertion(:A :a) {axioms})")
    patterns = " . ".join(f"?x <http://e#p{i}> ?y{i}" for i in range(n))
    return store, to_conjunctive_query(parse_query(f"SELECT {select} WHERE {{ ?x a <http://e#A> . {patterns} }}"))


@pytest.mark.parametrize("n", [1000, 2000])
@pytest.mark.parametrize("select", ["?x", "*"])
def test_a_long_query_answers_without_nesting_every_stage(n, select):
    # Brute force cannot enumerate n variables; the one match is known:
    # `?x` is `a` and each `?y<i>` is `b<i>`.
    store, q = _long_query(n, select)
    row = ("http://e#a",) if select == "?x" else ("http://e#a", *(f"http://e#b{i}" for i in range(n)))
    assert store_answers(store, q) == [row]


def test_planning_a_long_body_estimates_each_atom_a_bounded_number_of_times(monkeypatch):
    # 2,001 atoms: each is estimated when it is found and again when one of
    # its variables is bound, not once per step.
    from metaql import engine

    store, q = _long_query(2000, "?x")
    calls = []
    monkeypatch.setattr(engine, "_estimate", lambda *args: calls.append(1) or _estimate(*args))
    _, plan = _compile(q.answer_vars, q.body, store)
    assert plan[0][0] == 0 and len(plan) == 2001
    assert len(calls) < 3 * len(q.body)


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


def test_a_long_query_over_an_empty_relation_is_answered_before_it_is_planned(monkeypatch):
    # Planning 2,001 atoms would estimate about two million candidates;
    # with no `instr` fact, no plan can match.
    from metaql import engine, parse_query, to_conjunctive_query

    _, store, _ = saturate("Prefix(:=<http://e#>)\nOntology(ClassAssertion(:A :a))")
    patterns = " . ".join(f"?x <http://e#p{i}> ?y{i}" for i in range(2000))
    q = to_conjunctive_query(parse_query(f"SELECT ?x WHERE {{ ?x a ?c . {patterns} }}"))
    assert len(q.body) == 2001 and "instr" not in store.relations
    monkeypatch.setattr(engine, "_compile", lambda *args: pytest.fail("the query was planned"))
    assert store_answers(store, q) == []


@pytest.mark.parametrize("bad, error", [(atom("mystery", "X"), UnknownPredicate), (atom("p", "X"), ArityMismatch)])
def test_a_query_over_an_empty_relation_still_checks_its_atoms(bad, error):
    store = FactStore()
    store.assert_facts([fact("p", E[0], E[1])])
    empty = atom("instr", "P", "X", "Y")
    with pytest.raises(error):
        store_answers(store, ConjunctiveQuery((Var("X"),), (empty, bad)))


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


def test_a_cross_product_reads_the_live_relation_and_keeps_no_index():
    # ABOX-REFL, instr(P, X, X) :- refl(P), named(X), and the query both
    # join a disconnected body.
    from metaql import parse_query, to_conjunctive_query
    text = "Prefix(:=<http://e#>)\nOntology(ReflexiveObjectProperty(:p) ClassAssertion(:A :a) ClassAssertion(:B :b))"
    _, store, _ = saturate(text)
    assert ("http://e#p", "http://e#a", "http://e#a") in store.relation("instr")
    q = to_conjunctive_query(parse_query("SELECT ?x ?c WHERE { ?x a <http://e#A> . ?y a ?c }"))
    answers = store_answers(store, q)
    assert ("http://e#a", "http://e#B") in answers and answers == brute_force_answers(store, q)
    assert all(key for _, key in store._indexes)
    # compiled once, a chain's cross product reads the relation as it is
    run, _ = _compile((Var("X"), Var("Y")), (atom("p", "X"), atom("r", "Y")), store)
    store.assert_facts([fact("p", E[0]), fact("r", E[1])])
    for y in (E[2], E[3]):
        store.assert_facts([fact("r", y)])
        out = set()
        run(None, out)
        assert (E[0], y) in out and (E[0], E[1]) in out
    assert all(key for _, key in store._indexes)


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
                if isinstance(t, str):
                    if t != v:
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
                        t if isinstance(t, str) else env[t.name]
                        for t in rule.head.args
                    ),
                )
            )
    return out
