"""Command-line interface.

Subcommands mirror the pipeline stages: `translate` turns an ontology
into a facts file, `rules` dumps the fixed rule base, `query` answers a
SPARQL query end to end, `bench` times every pair of the ontologies and
queries named on its command line, each in a fresh process under a
wall-clock timeout, with CSV reporting, and `extend` merges two
ontologies.

Exit codes: 0 success, 1 parse/translation/evaluation errors, out of
memory and a standard output closed or unable to encode an answer, 2
usage errors and unreadable inputs.  Memory limits are the invoking environment's job (ulimit,
cgroups, systemd-run); a child killed by the kernel shows up as an ERROR
row in bench output.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
from pathlib import Path

from .engine import FactStore, PlanStep, answer_conjunctive_query, evaluate_fixpoint, explain_conjunctive_query
from .errors import MetaqlError
from .model import display_iri
from .owl import Ontology, normalize_ontology, parse_ontology, serialize_ontology, translate_ontology
from .rules import builtin_rules
from .sparql import parse_query, to_conjunctive_query

# The stage times `query --stats-json` reports, and a bench CSV's columns.
_TIMES = ("load_ms", "translate_ms", "saturate_ms", "answer_ms")
CSV_HEADER = ["dataset", "query", *_TIMES, "answers", "status"]
# subprocess waits through poll(), whose timeout is a C int of milliseconds.
_MAX_TIMEOUT_S = 2_147_483


class _Usage(Exception):
    """Bad invocation or unreadable input; exits with code 2."""


def _read_text(path: str) -> str:
    p = Path(path)
    try:
        # utf-8-sig drops a leading byte-order mark, which no grammar allows.
        return p.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _Usage(f"cannot read {path}: not UTF-8 text (byte {exc.start})")


def _write_text(path, text: str):
    # A bench CSV names its files; one given as undecodable bytes is
    # written back as those bytes, as on standard output.
    try:
        Path(path).write_text(text, encoding="utf-8", errors="surrogateescape", newline="\n")
    except OSError as exc:
        raise _Usage(f"cannot write {path}: {exc.strerror or exc}")


def _refuse_overwrite(out, flag: str, *inputs: tuple[str, str | None]):
    """A usage error when `out` is the same file as one of the (role, path)
    `inputs`, so no command writes over what it reads."""
    for role, path in inputs:
        if path is not None and os.path.realpath(out) == os.path.realpath(path):
            raise _Usage(f"output {out} is the {role}; give another path with {flag}")


# ==============================================================================
# Subcommands
# ==============================================================================


def cmd_translate(args) -> int:
    text = _read_text(args.ontology)
    out = Path(args.output) if args.output else Path(args.ontology).with_suffix(".dl")
    _refuse_overwrite(out, "-o", ("input ontology", args.ontology))
    ontology = normalize_ontology(parse_ontology(text))
    facts = translate_ontology(ontology)
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


def _format_term(t) -> str:
    return f"<{display_iri(t)}>" if isinstance(t, str) else f"?{t.name}"


def _format_plan(plan: list[PlanStep]) -> list[str]:
    """One line per step: estimated and actual rows after it, its key
    columns and its atom."""
    lines = ["step\test_rows\trows\tkey\tatom"]
    for n, step in enumerate(plan, start=1):
        a = step.atom
        key = ",".join(str(p) for p in step.key) or "-"
        args = ", ".join(_format_term(t) for t in a.args)
        lines.append(f"{n}\t{step.estimated:.1f}\t{step.actual}\t{key}\t{a.pred}({args})")
    return lines


def cmd_query(args) -> int:
    if args.dump_model:
        inputs = ("input ontology", args.ontology), ("query file", args.query)
        _refuse_overwrite(args.dump_model, "--dump-model", *inputs)
    t0 = time.perf_counter()
    ontology = normalize_ontology(parse_ontology(_read_text(args.ontology)))
    t1 = time.perf_counter()
    cq = to_conjunctive_query(parse_query(args.query_string if args.query is None else _read_text(args.query)))
    facts = translate_ontology(ontology)
    t2 = time.perf_counter()
    store = FactStore()
    store.assert_facts(facts.facts)
    # The store holds all that saturation and answering read.
    del ontology, facts
    stats = evaluate_fixpoint(store, builtin_rules(check_consistency=args.check_consistency))
    t3 = time.perf_counter()
    answers = answer_conjunctive_query(store, cq)
    t4 = time.perf_counter()
    marks = (t0, t1, t2, t3, t4)
    timings = {name: (end - start) * 1000.0 for name, start, end in zip(_TIMES, marks, marks[1:])}
    timings["total_ms"] = (t4 - t0) * 1000.0
    extras = {"rounds": stats.rounds, "derived": stats.total_derived()}
    if args.check_consistency:
        extras["consistency"] = "violated" if store.relation("violation") else "ok"
    if args.dump_model:
        _write_text(args.dump_model, store.canonical_dump())
    if args.explain:
        for line in _format_plan(explain_conjunctive_query(store, cq)):
            print(line)
    for row in answers:
        print("\t".join(display_iri(v) for v in row))
    if args.stats_json:
        payload = {"answers": len(answers), **{k: round(v, 3) for k, v in timings.items()}, **extras}
        print(json.dumps(payload))
    else:
        parts = [f"answers={len(answers)}", f"total_ms={timings['total_ms']:.1f}"]
        parts += [f"{k}={v}" for k, v in extras.items()]
        print(" ".join(parts))
    return 0


def cmd_extend(args) -> int:
    _refuse_overwrite(args.output, "-o", ("base ontology", args.base), ("extension", args.extension))
    base = parse_ontology(_read_text(args.base))
    extension = parse_ontology(_read_text(args.extension))
    merged = Ontology(base.tbox | extension.tbox, base.abox | extension.abox)
    out = Path(args.output)
    _write_text(out, serialize_ontology(merged))
    print(f"axioms={len(merged)} output={out}")
    return 0


# ------------------------------------------------------------------------------
# bench
# ------------------------------------------------------------------------------

# `csv`, `statistics` and `subprocess` are imported where bench uses them,
# so no other command pays for them at start.


def _bench_one_run(ontology: str, query: str, timeout_s: float) -> dict:
    """One (ontology, query) execution in a fresh subprocess."""
    import subprocess

    cmd = [sys.executable, "-m", "metaql", "query", ontology, "-q", query, "--stats-json"]
    row = dict.fromkeys(CSV_HEADER, "")
    row.update(dataset=Path(ontology).name, query=Path(query).name, status="ERROR")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return {**row, "status": "OOT"}
    if proc.returncode != 0:
        return row
    try:
        stats = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return row
    row.update({t: f"{stats[t]:.1f}" for t in _TIMES}, answers=str(stats["answers"]), status="OK")
    return row


def _median_row(runs: list[dict]) -> dict:
    import statistics

    agg = dict(runs[0])
    agg["query"] = f"{runs[0]['query']}#median"
    statuses = [r["status"] for r in runs]
    agg["status"] = "OK" if all(s == "OK" for s in statuses) else ("OOT" if "OOT" in statuses else "ERROR")
    for col in _TIMES:
        vals = [float(r[col]) for r in runs if r[col] != ""]
        agg[col] = f"{statistics.median(vals):.1f}" if vals else ""
    counts = [int(r["answers"]) for r in runs if r["answers"] != ""]
    agg["answers"] = str(int(statistics.median(counts))) if counts else ""
    return agg


def cmd_bench(args) -> int:
    import csv

    if not (math.isfinite(args.timeout) and args.timeout > 0):
        raise _Usage(f"--timeout must be a finite positive number of seconds, got {args.timeout}")
    if args.timeout > _MAX_TIMEOUT_S:
        raise _Usage(f"--timeout must be at most {_MAX_TIMEOUT_S} seconds, got {args.timeout}")
    if args.repeat < 1:
        raise _Usage(f"--repeat must be at least 1, got {args.repeat}")

    # The header is written first, so an unwritable output is reported
    # before any run.
    out = Path(args.output)
    _refuse_overwrite(
        out,
        "-o",
        *(("ontology", o) for o in args.ontologies),
        *(("query file", q) for q in args.queries),
    )
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    _write_text(out, text.getvalue())

    pairs = [(o, q) for o in args.ontologies for q in args.queries]
    rows = []
    for ontology, query in pairs:
        runs = [_bench_one_run(ontology, query, args.timeout) for _ in range(args.repeat)]
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
    p_translate.set_defaults(run=cmd_translate)

    p_rules = sub.add_parser("rules", help="dump the fixed inference rule base")
    rules_out = p_rules.add_mutually_exclusive_group()
    rules_out.add_argument("-o", "--output")
    rules_out.add_argument("--stats", action="store_true", help="print per-family rule counts instead")
    p_rules.add_argument("--check-consistency", action="store_true", help="include violation reporting rules")
    p_rules.set_defaults(run=cmd_rules)

    p_query = sub.add_parser("query", help="answer a SPARQL query")
    p_query.add_argument("ontology")
    query = p_query.add_mutually_exclusive_group(required=True)
    query.add_argument("-q", "--query", help="query file (.rq)")
    query.add_argument("--query-string", help="inline query text")
    p_query.add_argument("--stats-json", action="store_true", help="print the timing breakdown as one JSON line")
    p_query.add_argument("--check-consistency", action="store_true")
    p_query.add_argument("--dump-model", metavar="PATH", help="write the saturated model as a sorted .dl file")
    p_query.add_argument(
        "--explain",
        action="store_true",
        help="print the join order with each step's key columns and estimated and actual rows",
    )
    p_query.set_defaults(run=cmd_query)

    p_bench = sub.add_parser("bench", help="time every (ontology, query) pair in fresh processes")
    p_bench.add_argument("ontologies", nargs="+", metavar="ONTOLOGY")
    p_bench.add_argument(
        "-q", "--query", dest="queries", metavar="QUERY", action="append", required=True, help="query file, once per -q"
    )
    p_bench.add_argument("--repeat", type=int, default=3, metavar="N", help="runs per pair (default: 3)")
    p_bench.add_argument("--timeout", type=float, default=60.0, metavar="S", help="seconds per run (default: 60)")
    p_bench.add_argument("-o", "--output", default="bench.csv", metavar="OUT.csv", help="CSV path (default: bench.csv)")
    p_bench.set_defaults(run=cmd_bench)

    p_extend = sub.add_parser("extend", help="merge two ontologies (axiom-set union)")
    p_extend.add_argument("base")
    p_extend.add_argument("extension")
    p_extend.add_argument("-o", "--output", required=True)
    p_extend.set_defaults(run=cmd_extend)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MetaqlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        pass
    # Past the handler, which held the frames that filled the memory.
    print("error: out of memory", file=sys.stderr)
    return 1


def entry_point():
    # `sys.exit` prints a message to standard error and exits with 1.
    if sys.stdout is None:  # started with standard output closed
        sys.exit("error: standard output closed")
    # A path given as undecodable bytes is echoed back as those bytes.
    sys.stdout.reconfigure(errors="surrogateescape")
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of standard output has gone.  Point the descriptor at
        # the null device so that the interpreter's flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = "error: standard output closed"
    except UnicodeEncodeError as exc:
        # Files are UTF-8; standard output's encoding is the environment's.
        code = f"error: standard output ({sys.stdout.encoding}) cannot encode {ascii(exc.object[exc.start:exc.end])}"
    sys.exit(code)
