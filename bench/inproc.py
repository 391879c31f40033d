"""One in-process round of the benchmark, in a fresh interpreter.

    python3 bench/inproc.py INPUT_DIR TRACE SAMPLES PASSES

Reads INPUT_DIR/workload.json and INPUT_DIR/ontology.ofn, then, through
metaql's public API, runs one set-up (ontology file to saturated
FactStore), one untimed first pass over the query list (it builds the
engine's lazy indexes), and SAMPLES timed warm samples of PASSES
back-to-back passes each.  It prints one JSON line and exits: the set-up
time, each sample's time divided by PASSES, the rows of the last pass
and the operation tally, with the spans when TRACE=1.  With TRACE=1
every call into a layer gets a span, and a TBox-only saturation follows
the set-up.

`run.py` starts one such process per round, so every set-up starts from
the same clean heap.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


class Tally:
    """Operations attempted and failed.  A failed operation either did not
    complete (raised, exited non-zero) or completed with a wrong answer;
    only the latter makes the run's output incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str, completed: bool = True):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += completed
            if len(self.problems) < 20:
                self.problems.append(what)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "wrong": self.wrong, "problems": self.problems}

    def merge(self, other: dict):
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.wrong += other["wrong"]
        self.problems += other["problems"][: max(0, 20 - len(self.problems))]


def setup(ontology: Path, check_consistency: bool, tr):
    """Ontology file to saturated store, one span per layer call."""
    from metaql import (
        FactStore,
        builtin_rules,
        evaluate_fixpoint,
        normalize_ontology,
        parse_ontology,
        translate_ontology,
    )

    with tr.span("setup"):
        with tr.span("owl.parse"):
            onto = parse_ontology(ontology.read_text(encoding="utf-8"))
        with tr.span("owl.normalize"):
            onto = normalize_ontology(onto)
        with tr.span("translate.translate") as a:
            facts = translate_ontology(onto)
            a["facts"] = len(facts)
        with tr.span("engine.load"):
            store = FactStore()
            store.assert_facts(facts.facts)
        with tr.span("engine.saturate") as a:
            stats = evaluate_fixpoint(store, builtin_rules(check_consistency))
            a.update(rounds=stats.rounds, derived=stats.total_derived(), model_facts=store.size())
    return onto, store


def saturate_tbox(onto, check_consistency: bool, tr):
    """Traced rounds only: the fixpoint over the TBox facts alone."""
    from metaql import FactStore, Ontology, builtin_rules, evaluate_fixpoint, translate_ontology

    store = FactStore()
    store.assert_facts(translate_ontology(Ontology(onto.tbox, frozenset(), onto.prefixes)).facts)
    with tr.span("engine.saturate_tbox") as a:
        stats = evaluate_fixpoint(store, builtin_rules(check_consistency))
        a.update(rounds=stats.rounds, derived=stats.total_derived(), model_facts=store.size())


def answer_pass(store, spec: dict, tr, kind: str, tally: Tally) -> dict[str, list[tuple[str, ...]]]:
    from metaql import MetaqlError, answer_conjunctive_query, parse_query, to_conjunctive_query

    rows: dict[str, list[tuple[str, ...]]] = {}
    with tr.span(kind):
        for name, text in spec["queries"]:
            try:
                with tr.span("sparql.parse", query=name):
                    cq = to_conjunctive_query(parse_query(text))
                with tr.span("engine.answer", query=name) as a:
                    rows[name] = answer_conjunctive_query(store, cq)
                    a["rows"] = len(rows[name])
            except MetaqlError as exc:
                tally.record(False, f"{kind} {name}: {exc}", completed=False)
                continue
            got, want = len(rows[name]), spec["expected"][name]
            tally.record(got == want, f"{kind} {name}: {got} rows, expected {want}")
    return rows


def run_round(inputs: Path, tracing: bool, samples: int, passes: int) -> dict:
    """Set up, answer the untimed first pass, then time the warm samples."""
    from metaql import MetaqlError

    import spans

    spec = json.loads((inputs / "workload.json").read_text(encoding="utf-8"))
    check = spec["check_consistency"]
    tr = spans.Tracer("") if tracing else spans.NullTracer()
    tally = Tally()
    result = {"setup_s": None, "warm_s": [], "rows": {}}

    t0 = time.perf_counter()
    try:
        onto, store = setup(inputs / "ontology.ofn", check, tr)
    except MetaqlError as exc:
        tally.record(False, f"setup: {exc}", completed=False)
    else:
        result["setup_s"] = time.perf_counter() - t0
        violations = len(store.relation("violation"))
        tally.record(not (check and violations), f"setup: {violations} violation facts")
        if tracing:
            saturate_tbox(onto, check, tr)
        answer_pass(store, spec, tr, "pass.first", tally)
        for _ in range(samples):
            t0 = time.perf_counter()
            for _ in range(passes):
                rows = answer_pass(store, spec, tr, "pass.warm", tally)
            result["warm_s"].append((time.perf_counter() - t0) / passes)
        result["rows"] = rows

    result["tally"] = tally.as_dict()
    if tracing:
        result["t0_ns"] = tr.t0_ns
        result["spans"] = tr.spans
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    inputs, tracing, samples, passes = Path(argv[0]), argv[1] == "1", int(argv[2]), int(argv[3])
    print(json.dumps(run_round(inputs, tracing, samples, passes)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
