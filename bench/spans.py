"""Spans recorded by the benchmark around its calls into metaql, and the
summary that turns them into the per-layer table.

A span is one JSON object per line:

    {"run": ..., "id": 7, "parent": 3, "name": "owl.parse",
     "start_ns": ..., "end_ns": ..., "attrs": {...}}

`start_ns`/`end_ns` count from the creation of the run's tracer; spans
recorded in a round's own process are shifted onto that origin and carry
the round's number in `"round"`.  `attrs` carries the counts visible
from outside the program (EvalStats, FactStore.size(), answer rows, a
cold process's own `total_ms` and peak RSS).  Spans are kept in memory
and written when the run ends.

Summarise a trace file:

    python3 bench/spans.py bench/out/traces/univ10k-s1-1234.jsonl
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.t0_ns = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start_ns": 0,
            "end_ns": 0,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start_ns"] = time.perf_counter_ns() - self.t0_ns
        try:
            yield rec["attrs"]
        finally:
            rec["end_ns"] = time.perf_counter_ns() - self.t0_ns
            self._stack.pop()

    def adopt(self, spans: list[dict], t0_ns: int, **extra):
        """Add the spans another process's Tracer recorded, under the
        current span and with `extra` keys.  perf_counter_ns reads the same
        monotonic clock in every process on the machine, so only the
        origin shifts."""
        base, shift = len(self.spans), t0_ns - self.t0_ns
        parent = self._stack[-1] if self._stack else None
        for s in spans:
            self.spans.append(
                {
                    **s,
                    "run": self.run_id,
                    "id": s["id"] + base,
                    "parent": parent if s["parent"] is None else s["parent"] + base,
                    "start_ns": s["start_ns"] + shift,
                    "end_ns": s["end_ns"] + shift,
                    **extra,
                }
            )

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class NullTracer:
    """Tracing off: every span is one shared no-op context; attributes
    written into it are discarded."""

    _ctx = nullcontext({})

    def span(self, name: str, **attrs):
        return self._ctx


def read(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


def _children(spans: list[dict]) -> dict[int | None, list[dict]]:
    kids: dict[int | None, list[dict]] = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    return kids


def self_times(spans: list[dict]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (count, total ms, self ms).  Self time is a span's
    duration minus the time its children cover; siblings never overlap
    because the benchmark runs one call at a time."""
    kids = _children(spans)
    out: dict[str, tuple[int, float, float]] = {}
    for s in spans:
        n, total, own = out.get(s["name"], (0, 0.0, 0.0))
        covered = sum(_ms(c) for c in kids.get(s["id"], ()))
        out[s["name"]] = (n + 1, total + _ms(s), own + _ms(s) - covered)
    return out


def per_layer(spans: list[dict]) -> dict[str, float]:
    """The benchmark's per-layer metrics, each a median over the run's
    rounds, warm passes or cold passes, whichever it belongs to."""
    kids = _children(spans)
    med = statistics.median

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def span_ms(name: str) -> float:
        return med(_ms(s) for s in named(name))

    def child_ms(parent: dict, name: str) -> list[float]:
        return [_ms(c) for c in kids.get(parent["id"], ()) if c["name"] == name]

    saturate = [s["attrs"] for s in named("engine.saturate")]
    warm = named("pass.warm")
    cold: dict[int, list[dict]] = {}
    for s in named("cli.query"):
        cold.setdefault(s["attrs"]["pass"], []).append(s)

    return {
        "owl.parse_ms": span_ms("owl.parse"),
        "owl.normalize_ms": span_ms("owl.normalize"),
        "translate.translate_ms": span_ms("translate.translate"),
        "translate.facts": med(s["attrs"]["facts"] for s in named("translate.translate")),
        "engine.load_ms": span_ms("engine.load"),
        "engine.saturate_ms": span_ms("engine.saturate"),
        "engine.saturate_tbox_ms": span_ms("engine.saturate_tbox"),
        "engine.rounds": med(a["rounds"] for a in saturate),
        "engine.derived": med(a["derived"] for a in saturate),
        "engine.model_facts": med(a["model_facts"] for a in saturate),
        "engine.answer_first_ms": med(sum(child_ms(p, "engine.answer")) for p in named("pass.first")),
        "engine.answer_ms": med(sum(child_ms(p, "engine.answer")) for p in warm),
        "engine.answer_max_ms": med(max(child_ms(p, "engine.answer")) for p in warm),
        "sparql.parse_ms": med(sum(child_ms(p, "sparql.parse")) for p in warm),
        "cli.import_ms": span_ms("cli.import") - span_ms("cli.bare_interpreter"),
        "cli.overhead_ms": med(sum(_ms(c) - c["attrs"]["total_ms"] for c in p) for p in cold.values()),
        "cli.child_total_ms": med(sum(c["attrs"]["total_ms"] for c in p) for p in cold.values()),
    }


def setup_coverage(spans: list[dict]) -> tuple[float, float]:
    """The median traced set-up in ms, and the median share of it, in %,
    that its layer spans cover: what the per-layer set-up figures leave out."""
    kids = _children(spans)
    setups = [s for s in spans if s["name"] == "setup"]
    covered = [100.0 * sum(_ms(c) for c in kids.get(s["id"], ())) / _ms(s) for s in setups]
    return statistics.median(_ms(s) for s in setups), statistics.median(covered)


def per_query_warm_ms(spans: list[dict]) -> dict[str, float]:
    """Median warm answer time of each query over the run's warm passes."""
    kids = _children(spans)
    by_query: dict[str, list[float]] = {}
    for s in spans:
        if s["name"] == "pass.warm":
            for c in kids.get(s["id"], ()):
                if c["name"] == "engine.answer":
                    by_query.setdefault(c["attrs"]["query"], []).append(_ms(c))
    return {q: statistics.median(v) for q, v in by_query.items()}


def format_table(spans: list[dict]) -> str:
    lines = [f"{'span':<24} {'count':>6} {'total_ms':>12} {'self_ms':>12}"]
    for name, (n, total, own) in sorted(self_times(spans).items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<24} {n:>6} {total:>12.1f} {own:>12.1f}")
    lines.append("warm answer ms per query (median over warm passes):")
    lines.append("  " + "  ".join(f"{q}={ms:.1f}" for q, ms in per_query_warm_ms(spans).items()))
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 bench/spans.py TRACE.jsonl", file=sys.stderr)
        return 2
    spans = read(Path(argv[0]))
    print(format_table(spans))
    for name, value in per_layer(spans).items():
        print(f"{name:<28} {value:.3f}")
    setup_ms, covered_pct = setup_coverage(spans)
    print(f"traced set-up {setup_ms:.1f} ms, {covered_pct:.2f} % of it covered by its layer spans")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
