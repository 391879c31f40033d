#!/usr/bin/env python3
"""Run the benchmark harness end to end at a moderate scale.

Generates a university ontology, writes the standard and simple
meta-query suites to disk, and names them all on one `metaql bench`
command line.  Every (ontology, query) pair runs in a fresh subprocess
under a wall-clock timeout, and the resulting CSV is printed.  Memory
limits are left to the invoking environment (ulimit, cgroups).
"""

import os
import tempfile
from pathlib import Path

from metaql.cli import main
from metaql.synthetic import simple_meta_queries, standard_queries, university_ontology

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    ontology = tmp / "university.ofn"
    ontology.write_text(university_ontology(departments=6), encoding="utf-8")
    print(f"== generated {ontology.name} ({len(ontology.read_text().splitlines())} lines)")

    queries = standard_queries()[:6] + simple_meta_queries()[:2]
    argv = ["bench", str(ontology)]
    for name, text in queries:
        (tmp / f"{name}.rq").write_text(text, encoding="utf-8")
        argv += ["-q", str(tmp / f"{name}.rq")]
    # desk-scale run: two runs per pair, each killed after 30 s
    argv += ["--timeout", "30", "--repeat", "2", "-o", str(tmp / "results.csv")]
    print("== metaql bench, with paths shown relative to the generated directory")
    print("   metaql " + " ".join(argv).replace(f"{tmp}{os.sep}", ""))

    code = main(argv)
    assert code == 0

    print("\n== results.csv (per-run rows plus one #median row per pair)")
    print((tmp / "results.csv").read_text())
