"""End-to-end benchmark for metaql.

    python3 bench/run.py --workload univ10k --seed 1 --seconds 30 --trace 0

Generates the workload's ontology and queries from the seed, then runs a
fixed plan (`PLANS`) of operations, one at a time:

* a round runs in its own fresh process (`inproc.py`): one set-up
  (ontology file to saturated FactStore), one untimed first pass over the
  query list, then a fixed number of timed warm samples, each of a fixed
  number of back-to-back passes over the list;
* a cold pass runs every query once in its own fresh
  `python -m metaql query ONTOLOGY -q QUERY --stats-json` process, timed
  from spawn to exit.  The cold processes are spread evenly between the
  rounds, so that every metric samples the whole run.

Every answer is checked: in-process row counts against the counts
derived in `workloads.py`, cold rows against the warm rows (through
`display_iri`), and `consistency=ok` where the workload checks it.
An operation (one set-up, one query answered in-process, one cold
process) that raises, exits non-zero or answers wrongly counts as failed.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` the same work runs under spans
(see `spans.py`), plus a TBox-only saturation per round and a few
bare/`import metaql` interpreters, and the object holds the per-layer
metrics.  The span file lands in `bench/out/traces/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Operations per run at --seconds 45, sized from measured costs on a
# 2-core x86-64 machine so that a run takes about that long; other values
# of --seconds scale them.  The counts depend on --seconds only, never on
# timings, so every run of a workload attempts the same operations.
# A warm sample holds enough passes to last at least about 0.3 s.
PLANS = {  # workload: (rounds, warm samples per round, passes per sample, cold passes)
    "univ10k": (7, 1, 1, 3),
    "meta_taxo": (6, 2, 4, 4),
}
PLAN_SECONDS = 45
# Stop starting operations this far into a run, so that a regression
# many times slower still ends well inside the 180 s a run may take.
HARD_LIMIT_S = 120
CHILD_TIMEOUT_S = 50
IMPORT_SAMPLES = 5

END_TO_END_UNITS = {"setup_s": "s", "warm_suite_s": "s", "cold_suite_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "owl.parse_ms": "ms",
    "owl.normalize_ms": "ms",
    "translate.translate_ms": "ms",
    "translate.facts": "count",
    "engine.load_ms": "ms",
    "engine.saturate_ms": "ms",
    "engine.saturate_tbox_ms": "ms",
    "engine.rounds": "count",
    "engine.derived": "count",
    "engine.model_facts": "count",
    "engine.answer_first_ms": "ms",
    "engine.answer_ms": "ms",
    "engine.answer_max_ms": "ms",
    "sparql.parse_ms": "ms",
    "cli.import_ms": "ms",
    "cli.overhead_ms": "ms",
    "cli.child_total_ms": "ms",
}


def scaled_plan(workload: str, seconds: int) -> tuple[int, int, int, int]:
    rounds, samples, passes, cold_passes = PLANS[workload]
    scale = seconds / PLAN_SECONDS
    return max(1, round(rounds * scale)), samples, passes, max(1, round(cold_passes * scale))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class RoundFailed(Exception):
    """A round's process exited non-zero, hung or printed no result."""


def run_round(inputs: Path, tracing: bool, samples: int, passes: int) -> dict:
    """One round in its own process (`inproc.py`); returns its JSON result."""
    cmd = [sys.executable, str(BENCH_DIR / "inproc.py"), str(inputs), str(int(tracing)), str(samples), str(passes)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"no result within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RoundFailed(f"exit code {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def run_cold(cmd: list[str], scratch: Path) -> tuple[float, int, float, str, str]:
    """Spawn-to-exit wall time, exit code, peak RSS in MB, stdout and the
    last line of stderr of one process.  `os.wait4` reaps the child, so
    the RSS is this process's own, not a maximum over all children."""
    out_path, err_path = scratch / "cold.out", scratch / "cold.err"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stderr = (err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines() or [""])[-1]
    return wall, code, usage.ru_maxrss / 1024.0, out_path.read_text(encoding="utf-8"), stderr


def cold_query(inputs: Path, name: str, cold_pass: int, wl, warm_rows: dict, tally, tr) -> tuple[float, float]:
    """One cold process, checked against the warm answers; returns its
    wall time and peak RSS."""
    from metaql.model import display_iri

    cmd = [sys.executable, "-m", "metaql", "query", str(inputs / "ontology.ofn"), "-q", str(inputs / f"{name}.rq")]
    cmd.append("--stats-json")
    if wl.check_consistency:
        cmd.append("--check-consistency")
    with tr.span("cli.query", query=name) as a:
        wall, code, rss_mb, out, err = run_cold(cmd, inputs)
        lines = out.splitlines()
        try:
            stats = json.loads(lines[-1]) if code == 0 else None
        except (ValueError, IndexError):
            stats = None
        a.update({"pass": cold_pass, "total_ms": stats["total_ms"] if stats else 0.0, "rss_mb": rss_mb})
    if stats is None:
        tally.record(False, f"cold {name}: exit code {code}: {err}", completed=False)
        return wall, rss_mb
    rows = {tuple(line.split("\t")) for line in lines[:-1]}
    warm = {tuple(display_iri(v) for v in row) for row in warm_rows.get(name, ())}
    ok = rows == warm and stats.get("answers") == wl.expected[name] == len(rows)
    if wl.check_consistency:
        ok = ok and stats.get("consistency") == "ok"
    tally.record(ok, f"cold {name}: {len(rows)} rows, consistency={stats.get('consistency')}")
    return wall, rss_mb


def measure_imports(tr):
    """Traced runs only: fresh interpreters with and without `import metaql`."""
    env = child_env()
    for _ in range(IMPORT_SAMPLES):
        for name, code in (("cli.bare_interpreter", "pass"), ("cli.import", "import metaql")):
            with tr.span(name):
                subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)


def write_inputs(wl, inputs: Path):
    inputs.mkdir(parents=True, exist_ok=True)
    (inputs / "ontology.ofn").write_text(wl.ontology, encoding="utf-8")
    for name, text in wl.queries:
        (inputs / f"{name}.rq").write_text(text, encoding="utf-8")
    spec = {"queries": wl.queries, "expected": wl.expected, "check_consistency": wl.check_consistency}
    (inputs / "workload.json").write_text(json.dumps(spec), encoding="utf-8")


def run(wl, seed: int, plan: tuple[int, int, int, int], tracing: bool) -> dict:
    import inproc
    import spans

    run_id = f"{wl.name}-s{seed}-{os.getpid()}"
    tr = spans.Tracer(run_id) if tracing else spans.NullTracer()
    tally = inproc.Tally()
    rounds, samples, passes, cold_passes = plan
    # Cold processes in pass order, spread evenly after the rounds.
    cold_queue = [(p, name) for p in range(cold_passes) for name, _ in wl.queries]
    setups, warms, warm_rows = [], [], None
    cold_totals, peak_rss, done = [0.0] * cold_passes, 0.0, 0

    def run_cold_due(upto: int):
        nonlocal done, peak_rss
        for cold_pass, name in cold_queue[done:upto]:
            wall, rss_mb = cold_query(inputs, name, cold_pass, wl, warm_rows or {}, tally, tr)
            cold_totals[cold_pass] += wall
            peak_rss = max(peak_rss, rss_mb)
        done = max(done, upto)

    inputs = OUT / "inputs" / run_id
    start = time.perf_counter()
    try:
        write_inputs(wl, inputs)
        for i in range(rounds):
            if time.perf_counter() - start > HARD_LIMIT_S:
                break
            try:
                result = run_round(inputs, tracing, samples, passes)
            except RoundFailed as exc:
                tally.record(False, f"round {i}: {exc}", completed=False)
            else:
                tally.merge(result["tally"])
                if result["setup_s"] is not None:
                    setups.append(result["setup_s"])
                    warms += result["warm_s"]
                    if warm_rows is None:
                        warm_rows = {name: [tuple(r) for r in rows] for name, rows in result["rows"].items()}
                if tracing:
                    tr.adopt(result["spans"], result["t0_ns"], round=i)
            run_cold_due(len(cold_queue) * (i + 1) // rounds)
        run_cold_due(len(cold_queue))
        if tracing:
            measure_imports(tr)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    elapsed = time.perf_counter() - start

    print(
        f"workload={wl.name} seed={seed} rounds={len(setups)} warm_samples={len(warms)} "
        f"cold_processes={done} elapsed_s={elapsed:.1f} attempted={tally.attempted} failed={tally.failed}"
    )
    for problem in tally.problems:
        print(f"FAILED {problem}")
    if not setups or not warms or done < len(cold_queue):
        raise SystemExit("error: the run did not complete its plan, nothing to report")

    if tracing:
        trace_file = OUT / "traces" / f"{run_id}.jsonl"
        tr.write(trace_file)
        print(f"trace={trace_file.relative_to(ROOT)}")
        print(spans.format_table(tr.spans))
        setup_ms, covered_pct = spans.setup_coverage(tr.spans)
        print(f"traced set-up {setup_ms:.1f} ms, {covered_pct:.2f} % of it covered by its layer spans")
        values = spans.per_layer(tr.spans)
        units = PER_LAYER_UNITS
    else:
        for name, samples in (("setup_s", setups), ("warm_suite_s", warms), ("cold_suite_s", cold_totals)):
            print(f"{name}: {len(samples)} samples, median {statistics.median(samples):.4f} s, "
                  f"min {min(samples):.4f} s, max {max(samples):.4f} s")
        values = {
            "setup_s": statistics.median(setups),
            "warm_suite_s": statistics.median(warms),
            "cold_suite_s": statistics.median(cold_totals),
            "peak_rss_mb": peak_rss,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:>14.4f} {m['unit']}")
    return {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "metaql" / "__init__.py").is_file():
        print(f"error: metaql sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    result = run(wl, args.seed, scaled_plan(args.workload, args.seconds), bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
