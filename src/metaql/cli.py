"""Command-line interface.

Subcommands mirror the pipeline stages: `translate` turns an ontology
into a facts file, `rules` dumps the fixed rule base, `query` answers a
SPARQL query end to end, `oracle` does the same with the brute-force
reference semantics, `bench` drives suites of (ontology, query) pairs
under a wall-clock timeout with CSV reporting, and `extend` merges two
ontologies.

Exit codes: 0 success, 1 parse/translation/evaluation errors, 2 usage
errors and unreadable inputs.  Memory limits are the invoking
environment's job (ulimit, cgroups, systemd-run); a child killed by the
kernel shows up as an ERROR row in bench output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from .engine import FactStore, PlanStep, answer_conjunctive_query, evaluate_fixpoint, explain_conjunctive_query
from .errors import MetaqlError
from .model import Const, display_iri
from .oracle import certain_answers_oracle
from .owl import Ontology, normalize_ontology, parse_ontology, serialize_ontology
from .rules import builtin_rules
from .sparql import parse_query, to_conjunctive_query
from .translate import translate_ontology

CSV_HEADER = ["dataset", "query", "load_ms", "translate_ms", "saturate_ms", "answer_ms", "answers", "status"]


class _Usage(Exception):
    """Bad invocation or unreadable input; exits with code 2."""


def _read_text(path: str) -> str:
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8")
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _Usage(f"cannot read {path}: not UTF-8 text (byte {exc.start})")


def _write_text(path, text: str):
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise _Usage(f"cannot write {path}: {exc.strerror or exc}")


def _load_query_text(args) -> str:
    if getattr(args, "query_string", None):
        return args.query_string
    if getattr(args, "query", None):
        return _read_text(args.query)
    raise _Usage("provide a query with -q/--query FILE or --query-string TEXT")


# ==============================================================================
# Subcommands
# ==============================================================================


def cmd_translate(args) -> int:
    text = _read_text(args.ontology)
    ontology = normalize_ontology(parse_ontology(text))
    facts = translate_ontology(ontology)
    out = Path(args.output) if args.output else Path(args.ontology).with_suffix(".dl")
    _write_text(out, facts.to_dl())
    print(f"axioms={len(ontology)} facts={len(facts)} output={out}")
    return 0


def cmd_rules(args) -> int:
    catalogue = builtin_rules(check_consistency=args.check_consistency)
    if args.stats:
        for family, count in sorted(catalogue.family_counts().items()):
            print(f"{family}={count}")
        print(f"total={len(catalogue)}")
        return 0
    text = catalogue.to_dl()
    if args.output:
        _write_text(args.output, text)
        print(f"rules={len(catalogue)} output={args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _run_query_pipeline(args):
    """Shared by query/oracle; returns (answers, timings, extras, plan),
    where plan is the --explain report or None."""
    t0 = time.perf_counter()
    ontology = normalize_ontology(parse_ontology(_read_text(args.ontology)))
    t1 = time.perf_counter()
    cq = to_conjunctive_query(parse_query(_load_query_text(args)))
    facts = translate_ontology(ontology)
    t2 = time.perf_counter()

    extras = {}
    plan = None
    if args.backend == "oracle":
        if args.explain:
            raise _Usage("--explain requires the materializing query backend")
        if args.dump_model:
            raise _Usage("--dump-model requires the materializing query backend")
        answers = certain_answers_oracle(ontology, cq)
        t3 = t4 = time.perf_counter()
    else:
        store = FactStore()
        store.assert_facts(facts.facts)
        catalogue = builtin_rules(check_consistency=args.check_consistency)
        stats = evaluate_fixpoint(store, catalogue)
        t3 = time.perf_counter()
        answers = answer_conjunctive_query(store, cq)
        t4 = time.perf_counter()
        if args.explain:
            plan = explain_conjunctive_query(store, cq)
        extras["rounds"] = stats.rounds
        if args.check_consistency:
            extras["consistency"] = "violated" if store.relation("violation") else "ok"
        if args.dump_model:
            _write_text(args.dump_model, store.canonical_dump())

    timings = {
        "load_ms": (t1 - t0) * 1000.0,
        "translate_ms": (t2 - t1) * 1000.0,
        "saturate_ms": (t3 - t2) * 1000.0,
        "answer_ms": (t4 - t3) * 1000.0,
        "total_ms": (t4 - t0) * 1000.0,
    }
    return answers, timings, extras, plan


def _format_term(t) -> str:
    return f"<{display_iri(t.value.iri)}>" if isinstance(t, Const) else f"?{t.name}"


def _format_plan(plan: list[PlanStep]) -> list[str]:
    """One line per step: estimated and actual rows after it, its key
    columns and its atom."""
    if not plan:
        return ["plan: none, a query constant does not occur in the model"]
    lines = ["step\test_rows\trows\tkey\tatom"]
    for n, step in enumerate(plan, start=1):
        a = step.atom
        key = ",".join(str(p) for p in step.key) or "-"
        args = ", ".join(_format_term(t) for t in a.args)
        lines.append(f"{n}\t{step.estimated:.1f}\t{step.actual}\t{key}\t{a.pred}({args})")
    return lines


def cmd_query(args) -> int:
    answers, timings, extras, plan = _run_query_pipeline(args)
    if plan is not None:
        for line in _format_plan(plan):
            print(line)
    for row in answers:
        print("\t".join(display_iri(v) for v in row))
    if args.stats_json:
        payload = {"answers": len(answers), **{k: round(v, 3) for k, v in timings.items()}, **extras}
        print(json.dumps(payload))
    else:
        parts = [f"answers={len(answers)}"]
        if args.report_time:
            parts += [f"{k}={v:.1f}" for k, v in timings.items()]
        else:
            parts.append(f"total_ms={timings['total_ms']:.1f}")
        parts += [f"{k}={v}" for k, v in extras.items()]
        print(" ".join(parts))
    return 0


def cmd_extend(args) -> int:
    base = parse_ontology(_read_text(args.base))
    extension = parse_ontology(_read_text(args.extension))
    merged_prefixes = {**base.prefixes, **extension.prefixes}
    merged = Ontology(
        base.tbox | extension.tbox, base.abox | extension.abox, merged_prefixes
    )
    out = Path(args.output)
    _write_text(out, serialize_ontology(merged))
    print(f"axioms={len(merged)} output={out}")
    return 0


# ------------------------------------------------------------------------------
# bench
# ------------------------------------------------------------------------------


def _parse_bench_config(path: str, timeout_s: float | None = None) -> dict:
    """The bench config at `path`, with `timeout_s`, when given, in place
    of the file's."""
    config = {
        "ontologies": [],
        "queries": [],
        "timeout_s": 60.0,
        "repeat": 3,
        "output_csv": "bench.csv",
    }
    base_dir = Path(path).resolve().parent
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise _Usage(f"{path}:{lineno}: expected 'key = value'")
        if key in ("ontologies", "queries"):
            config[key] = [str((base_dir / v.strip())) for v in value.split(",") if v.strip()]
        elif key in ("timeout_s", "repeat"):
            try:
                config[key] = float(value) if key == "timeout_s" else int(value)
            except ValueError:
                raise _Usage(f"{path}:{lineno}: {key} must be a number, got {value!r}")
        elif key == "output_csv":
            config[key] = str(base_dir / value)
        else:
            raise _Usage(f"{path}:{lineno}: unknown key {key!r}")
    if not config["ontologies"] or not config["queries"]:
        raise _Usage("bench config must list ontologies and queries")
    if timeout_s is not None:
        config["timeout_s"] = timeout_s
    if not (math.isfinite(config["timeout_s"]) and config["timeout_s"] > 0):
        raise _Usage(f"timeout_s must be a finite positive number of seconds, got {config['timeout_s']}")
    if config["repeat"] < 1:
        raise _Usage("repeat must be at least 1")
    return config


def _bench_one_run(ontology: str, query: str, timeout_s: float) -> dict:
    """One (ontology, query) execution in a fresh subprocess."""
    cmd = [sys.executable, "-m", "metaql", "query", ontology, "-q", query, "--stats-json"]
    row = {
        "dataset": Path(ontology).name,
        "query": Path(query).name,
        "load_ms": "",
        "translate_ms": "",
        "saturate_ms": "",
        "answer_ms": "",
        "answers": "",
        "status": "ERROR",
    }
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        row["status"] = "OOT"
        return row
    if proc.returncode != 0:
        return row
    try:
        stats = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return row
    row.update(
        {
            "load_ms": f"{stats['load_ms']:.1f}",
            "translate_ms": f"{stats['translate_ms']:.1f}",
            "saturate_ms": f"{stats['saturate_ms']:.1f}",
            "answer_ms": f"{stats['answer_ms']:.1f}",
            "answers": str(stats["answers"]),
            "status": "OK",
        }
    )
    return row


def _median_row(runs: list[dict]) -> dict:
    agg = dict(runs[0])
    agg["query"] = f"{runs[0]['query']}#median"
    statuses = [r["status"] for r in runs]
    agg["status"] = "OK" if all(s == "OK" for s in statuses) else ("OOT" if "OOT" in statuses else "ERROR")
    for col in ("load_ms", "translate_ms", "saturate_ms", "answer_ms"):
        vals = [float(r[col]) for r in runs if r[col] != ""]
        agg[col] = f"{statistics.median(vals):.1f}" if vals else ""
    counts = [int(r["answers"]) for r in runs if r["answers"] != ""]
    agg["answers"] = str(int(statistics.median(counts))) if counts else ""
    return agg


def cmd_bench(args) -> int:
    config = _parse_bench_config(args.config, args.timeout)
    if args.output:
        config["output_csv"] = args.output

    # The header is written first, so an unwritable output is reported
    # before any run.
    out = Path(config["output_csv"])
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    _write_text(out, text.getvalue())

    pairs = [(o, q) for o in config["ontologies"] for q in config["queries"]]
    rows = []
    for ontology, query in pairs:
        runs = [_bench_one_run(ontology, query, config["timeout_s"]) for _ in range(config["repeat"])]
        rows += runs + [_median_row(runs)]

    writer.writerows(rows)
    _write_text(out, text.getvalue())
    print(f"pairs={len(pairs)} rows={len(rows)} output={out}")
    return 0


# ==============================================================================
# Argument parsing and dispatch
# ==============================================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metaql",
        description="Meta-querying over OWL 2 QL ontologies by reduction to Datalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_translate = sub.add_parser("translate", help="translate an ontology to a Datalog facts file")
    p_translate.add_argument("ontology")
    p_translate.add_argument("-o", "--output", help="output .dl path (default: ontology with .dl suffix)")

    p_rules = sub.add_parser("rules", help="dump the fixed inference rule base")
    p_rules.add_argument("-o", "--output")
    p_rules.add_argument("--check-consistency", action="store_true", help="include violation reporting rules")
    p_rules.add_argument("--stats", action="store_true", help="print per-family rule counts instead")

    for name in ("query", "oracle"):
        p = sub.add_parser(
            name,
            help="answer a SPARQL query"
            + (" with the brute-force reference semantics" if name == "oracle" else ""),
        )
        p.add_argument("ontology")
        p.add_argument("-q", "--query", help="query file (.rq)")
        p.add_argument("--query-string", help="inline query text")
        p.add_argument("--check-consistency", action="store_true")
        p.add_argument("--report-time", action="store_true", help="print the full timing breakdown")
        p.add_argument("--stats-json", action="store_true", help="print timings as one JSON line")
        p.add_argument("--dump-model", metavar="PATH", help="write the saturated model as a sorted .dl file")
        p.add_argument(
            "--explain",
            action="store_true",
            help="print the join order with each step's key columns and estimated and actual rows",
        )
        p.set_defaults(backend=name)

    p_bench = sub.add_parser("bench", help="run a benchmark suite from a config file")
    p_bench.add_argument("config")
    p_bench.add_argument("-o", "--output", help="override output_csv from the config")
    p_bench.add_argument("--timeout", type=float, help="override timeout_s from the config")

    p_extend = sub.add_parser("extend", help="merge two ontologies (axiom-set union)")
    p_extend.add_argument("base")
    p_extend.add_argument("extension")
    p_extend.add_argument("-o", "--output", required=True)

    return parser


_HANDLERS = {
    "translate": cmd_translate,
    "rules": cmd_rules,
    "query": cmd_query,
    "oracle": cmd_query,
    "bench": cmd_bench,
    "extend": cmd_extend,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MetaqlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point():
    sys.exit(main())
