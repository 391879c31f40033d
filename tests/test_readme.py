"""README's Python code, run as written, so a change to the public API
that leaves it stale fails here."""

import re
from pathlib import Path

from helpers import saturate
from metaql import answer_conjunctive_query, parse_query, to_conjunctive_query
from metaql.model import display_iri
from metaql.synthetic import university_ontology

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_python_blocks_print_what_it_says(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    quickstart, oracle = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    monkeypatch.chdir(tmp_path)

    # The quickstart's output is the comment that ends it.
    exec(compile(quickstart, str(README), "exec"), {"__name__": "__readme__"})
    expected = [line[2:] for line in quickstart.splitlines() if line.startswith("# ")]
    assert capsys.readouterr().out.splitlines() == expected != []

    # The oracle snippet reads `uni.ofn` and prints the rows `metaql query` prints.
    ontology = university_ontology(1)
    (tmp_path / "uni.ofn").write_text(ontology, encoding="utf-8")
    exec(compile(oracle, str(README), "exec"), {"__name__": "__readme__"})
    _, store, _ = saturate(ontology)
    rows = answer_conjunctive_query(store, to_conjunctive_query(parse_query("SELECT ?y WHERE { ?x a ?y }")))
    assert capsys.readouterr().out.splitlines() == ["\t".join(map(display_iri, row)) for row in rows] != []
