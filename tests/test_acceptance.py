"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Budgeted criteria assert their own wall-clock bounds.
"""

import csv
import random
import time

from gens import random_ontology, random_program, random_query
from helpers import EXAMPLE_SPECIES_ZOO, SPECIES, naive_evaluate, saturate
from metaql import (
    FactStore,
    Ontology,
    Rule,
    answer_conjunctive_query,
    atom,
    builtin_rules,
    evaluate_fixpoint,
    normalize_ontology,
    parse_ontology,
    parse_query,
    to_conjunctive_query,
    translate_ontology,
)
from metaql.cli import main
from metaql.oracle import OracleEvaluator
from metaql.synthetic import (
    UNI,
    professor_type_extension,
    scaled_university,
    simple_meta_queries,
    special_meta_queries,
    standard_queries,
    university_ontology,
)
from test_translate import TAU_TABLE, row_facts


def _ok(n, label):
    print(f"\nACCEPTANCE {n} ({label}): PASS")


def test_criterion_1_tau_conformance():
    start = time.perf_counter()
    assert len(TAU_TABLE) == 26
    for axiom, expected in TAU_TABLE:
        assert row_facts(axiom) == {expected}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(1, f"tau conformance, 26/26 rows in {elapsed * 1000:.0f} ms")


def test_criterion_2_species_example_reproduction():
    _, store, _ = saturate(EXAMPLE_SPECIES_ZOO)
    facts = store.string_facts()
    assert ("instc", (SPECIES + "Eagle", SPECIES + "Harry")) in facts
    assert ("instc", (SPECIES + "Birds", SPECIES + "Harry")) in facts

    q = parse_query(
        f"PREFIX : <{SPECIES}>\n"
        "SELECT ?z WHERE { ?y a :EndangeredSpecies . ?z a ?y . ?z :Lives_in :CPZ }"
    )
    answers = answer_conjunctive_query(store, to_conjunctive_query(q))
    assert answers == [(SPECIES + "Harry",)]
    _ok(2, "species example: derived memberships and meta-query answer exactly {Harry}")


def test_criterion_3_anchor_rule_presence():
    anchor = Rule(
        atom("isacCR", "C1", "R2", "C2"),
        (atom("isacCC", "C1", "C3"), atom("isacCR", "C3", "R2", "C2")),
    )
    assert builtin_rules().contains(anchor)
    _ok(3, "anchor chain rule present up to variable renaming")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20260808)
    instances = 1000
    queries_per_instance = 2
    known_gaps = 0
    gap_queries = 0
    for _ in range(instances):
        o = random_ontology(rng)
        store = FactStore()
        store.assert_facts(translate_ontology(o).facts)
        evaluate_fixpoint(store, builtin_rules())
        oracle = OracleEvaluator(o)
        for _ in range(queries_per_instance):
            q = random_query(rng, o)
            engine = set(answer_conjunctive_query(store, q))
            named_scope = set(oracle.answers(q, allow_null_witnesses=False))
            with_nulls = set(oracle.answers(q, allow_null_witnesses=True))
            # Zero false positives, ever.
            assert engine <= with_nulls
            # Exact agreement on the named-consequence scope.
            assert engine == named_scope
            extra = with_nulls - engine
            if extra:
                known_gaps += len(extra)
                gap_queries += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _ok(
        4,
        f"oracle equivalence on {instances} ontologies x {queries_per_instance} queries "
        f"in {elapsed:.1f} s; KNOWN-GAP: {known_gaps} tuple(s) across {gap_queries} "
        "anonymous-join queries, 0 unsound answers",
    )


def test_criterion_5_seminaive_naive_differential():
    start = time.perf_counter()
    rng = random.Random(5)
    programs = 500
    for _ in range(programs):
        facts, rules = random_program(rng)
        store = FactStore()
        store.assert_facts(facts)
        evaluate_fixpoint(store, rules)
        assert store.string_facts() == naive_evaluate(facts, rules)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _ok(5, f"semi-naive equals naive on {programs} random programs in {elapsed:.1f} s")


def test_criterion_6_professor_type_meta_queries():
    base = parse_ontology(university_ontology(1))
    extension = parse_ontology(professor_type_extension())
    merged = normalize_ontology(
        Ontology(base.tbox | extension.tbox, base.abox | extension.abox, base.prefixes)
    )

    # Oracle first: the expected answer sets come from the independent
    # chase/closure semantics before the engine runs.
    oracle = OracleEvaluator(merged)
    sq = dict(special_meta_queries())
    sq1 = to_conjunctive_query(parse_query(sq["sq1"]))
    sq2 = to_conjunctive_query(parse_query(sq["sq2"]))
    expected_sq1 = oracle.answers(sq1, allow_null_witnesses=False)
    expected_sq2 = oracle.answers(sq2, allow_null_witnesses=False)

    ranks = {UNI + r for r in ("FullProfessor", "AssociateProfessor", "AssistantProfessor")}
    assert len(expected_sq1) == 8  # every professor with its rank metaclass
    assert {z for _, z in expected_sq1} == ranks
    assert len(expected_sq2) == 6  # ordered disjoint rank pairs
    assert {x for x, _ in expected_sq2} == ranks

    store = FactStore()
    store.assert_facts(translate_ontology(merged).facts)
    evaluate_fixpoint(store, builtin_rules())
    assert answer_conjunctive_query(store, sq1) == expected_sq1
    assert answer_conjunctive_query(store, sq2) == expected_sq2
    _ok(6, f"sq1 ({len(expected_sq1)} rows) and sq2 ({len(expected_sq2)} rows) match the oracle exactly")


def test_criterion_7_benchmark_scale_target(tmp_path):
    text = scaled_university(10334)
    assert len(parse_ontology(text)) >= 10334

    ontology = tmp_path / "lubm_scale.ofn"
    ontology.write_text(text, encoding="utf-8")
    suite = standard_queries() + simple_meta_queries()
    assert len(suite) == 18
    query_flags = []
    for name, qtext in suite:
        (tmp_path / f"{name}.rq").write_text(qtext, encoding="utf-8")
        query_flags += ["-q", str(tmp_path / f"{name}.rq")]

    start = time.perf_counter()
    argv = ["bench", str(ontology), *query_flags, "--timeout", "10", "--repeat", "1", "-o", str(tmp_path / "scale.csv")]
    assert main(argv) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0

    rows = list(csv.DictReader((tmp_path / "scale.csv").read_text(encoding="utf-8").splitlines()))
    runs = [r for r in rows if not r["query"].endswith("#median")]
    assert len(runs) == 18
    assert all(r["status"] == "OK" for r in rows)
    _ok(
        7,
        f"{len(runs)} queries over a {len(parse_ontology(text))}-axiom ontology, "
        f"all OK within the 10 s per-run timeout, suite took {elapsed:.1f} s",
    )


def test_criterion_8_determinism(tmp_path):
    ontology = tmp_path / "uni.ofn"
    ontology.write_text(university_ontology(1), encoding="utf-8")
    picks = dict(standard_queries() + simple_meta_queries())
    query_flags = []
    for name in ("q4", "q6", "q13", "mq1", "mq10"):
        (tmp_path / f"{name}.rq").write_text(picks[name], encoding="utf-8")
        query_flags += ["-q", str(tmp_path / f"{name}.rq")]

    columns = []
    for out_name in ("run1.csv", "run2.csv"):
        assert main(["bench", str(ontology), *query_flags, "--repeat", "2", "-o", str(tmp_path / out_name)]) == 0
        rows = list(csv.DictReader((tmp_path / out_name).read_text(encoding="utf-8").splitlines()))
        columns.append([(r["dataset"], r["query"], r["answers"], r["status"]) for r in rows])
    assert columns[0] == columns[1]

    dumps = []
    fb = translate_ontology(normalize_ontology(parse_ontology(university_ontology(1))))
    for reverse in (False, True):
        store = FactStore()
        store.assert_facts(sorted(fb.facts, reverse=reverse))
        evaluate_fixpoint(store, builtin_rules())
        dumps.append(store.canonical_dump().encode())
    assert dumps[0] == dumps[1]
    _ok(8, "bench answer/status columns and model dumps are run- and insertion-order-independent")


def test_criterion_9_meta_query_typing_freedom():
    # The self-membership query: classes of an endangered species that are
    # themselves members of something.  Same variable in individual and
    # class positions; no typing rejection anywhere in the pipeline.
    _, store, _ = saturate(EXAMPLE_SPECIES_ZOO)
    q = parse_query(f"PREFIX : <{SPECIES}>\nSELECT ?x WHERE {{ ?x a :EndangeredSpecies . ?y a ?x }}")
    answers = answer_conjunctive_query(store, to_conjunctive_query(q))
    assert answers == [(SPECIES + "GoldenEagle",)]

    # One variable in individual, class and property position at once.
    hard = parse_query("SELECT ?x WHERE { ?x ?x ?x }")
    assert answer_conjunctive_query(store, to_conjunctive_query(hard)) == []
    _ok(9, "variables range over class/property/individual positions without restriction")
