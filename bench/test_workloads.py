"""Checks of the benchmark itself: its inputs, its expected answer counts
and its harness.

    python3 -m pytest bench/test_workloads.py -q

Every generator runs at a reduced size.  The counts `workloads.py`
derives from the generators' parameters must equal metaql's answers
and the brute-force oracle's named-witness answers, so the full-size
runs check metaql against numbers that no earlier run of metaql wrote.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import metaql as M  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from metaql.synthetic import axioms_per_department  # noqa: E402


def _university(departments: int, seed: int) -> W.Workload:
    # The tbox and university header are smaller than one department, so
    # this target yields exactly `departments` departments.
    return W.univ10k(seed, min_axioms=departments * axioms_per_department())


SMALL = [
    pytest.param(lambda seed: _university(1, seed), id="univ10k-1dept"),
    pytest.param(lambda seed: _university(3, seed), id="univ10k-3dept"),
    pytest.param(lambda seed: _university(4, seed), id="univ10k-4dept"),
    pytest.param(
        lambda seed: W.meta_taxo(seed, levels=4, organisms_per_leaf=2, habitats=3, anchor_level=1),
        id="meta_taxo-4levels",
    ),
    pytest.param(
        lambda seed: W.meta_taxo(seed, levels=5, organisms_per_leaf=1, habitats=4, anchor_level=2),
        id="meta_taxo-5levels",
    ),
]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("build", SMALL)
def test_derived_counts_match_engine_and_oracle(build, seed):
    wl = build(seed)
    onto = M.normalize_ontology(M.parse_ontology(wl.ontology))
    store = M.FactStore()
    store.assert_facts(M.translate_ontology(onto).facts)
    M.evaluate_fixpoint(store, M.builtin_rules(wl.check_consistency))
    assert not store.relation("violation")
    oracle = M.oracle.OracleEvaluator(onto)
    for name, text in wl.queries:
        cq = M.to_conjunctive_query(M.parse_query(text))
        engine = M.answer_conjunctive_query(store, cq)
        named = oracle.answers(cq, allow_null_witnesses=False)
        assert engine == named, name
        assert len(engine) == wl.expected[name], name


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_full_size_inputs_depend_only_on_the_seed(name):
    build = W.WORKLOADS[name]
    first, again, other = build(3), build(3), build(4)
    assert first == again
    assert first.ontology != other.ontology
    assert all(count > 0 for count in first.expected.values())
    assert [n for n, _ in first.queries] == list(first.expected)


def test_full_size_axiom_counts():
    assert len(M.parse_ontology(W.univ10k(1).ontology)) >= 10334
    assert len(M.parse_ontology(W.meta_taxo(1).ontology)) == 12823
    assert len(M.normalize_ontology(M.parse_ontology(W.meta_taxo(1).ontology))) == 14885


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.PLANS) == set(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("tracing", [False, True])
def test_harness_end_to_end_at_reduced_size(tracing, capsys):
    wl = W.meta_taxo(2, levels=5, organisms_per_leaf=1, habitats=4, anchor_level=2)
    result = run.run(wl, 2, (2, 2, 2, 1), tracing)
    assert result["correct"] and result["failed"] == 0
    # 2 set-ups, 2 x (1 + 2 x 2) passes of 6 queries, 6 cold processes
    assert result["attempted"] == 2 + 2 * 5 * 6 + 6
    units = run.PER_LAYER_UNITS if tracing else run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if tracing:
        trace = next(line[6:] for line in capsys.readouterr().out.splitlines() if line.startswith("trace="))
        _, covered_pct = spans.setup_coverage(spans.read(BENCH.parent / trace))
        assert covered_pct > 95.0


def test_a_wrong_answer_fails_its_operations(capsys):
    wl = W.meta_taxo(2, levels=5, organisms_per_leaf=1, habitats=4, anchor_level=2)
    wrong = W.Workload(wl.name, wl.ontology, wl.queries, {**wl.expected, "tq2": wl.expected["tq2"] + 1}, True)
    result = run.run(wrong, 2, (2, 2, 2, 1), False)
    assert not result["correct"]
    # tq2 in 2 x 5 in-process passes and in its one cold process
    assert result["failed"] == 2 * 5 + 1
