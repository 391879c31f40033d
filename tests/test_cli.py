import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import EXAMPLE_SPECIES, EXAMPLE_SPECIES_ZOO, SPECIES
from metaql import cli
from metaql.cli import CSV_HEADER, main
from metaql.synthetic import UNI, professor_type_extension, special_meta_queries, university_ontology

ZOO_QUERY = (
    f"PREFIX : <{SPECIES}>\n"
    "SELECT ?z WHERE { ?y a :EndangeredSpecies . ?z a ?y . ?z :Lives_in :CPZ }"
)


@pytest.fixture
def species_file(tmp_path):
    path = tmp_path / "species.ofn"
    path.write_text(EXAMPLE_SPECIES_ZOO, encoding="utf-8")
    return path


def test_translate_writes_fact_file(tmp_path, species_file, capsys):
    out = tmp_path / "species.dl"
    assert main(["translate", str(species_file), "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "axioms=" in printed and "facts=" in printed
    lines = out.read_text().strip().splitlines()
    assert len(lines) >= 4
    assert all(line.endswith(").") for line in lines)


def test_translate_empty_ontology(tmp_path, capsys):
    src = tmp_path / "empty.ofn"
    src.write_text("Ontology()", encoding="utf-8")
    out = tmp_path / "empty.dl"
    assert main(["translate", str(src), "-o", str(out)]) == 0
    assert out.read_text() == ""


@pytest.mark.parametrize("text", [EXAMPLE_SPECIES_ZOO, university_ontology(2)], ids=["zoo", "university"])
def test_translate_writes_the_model_dump_of_its_unsaturated_facts(tmp_path, capsys, text):
    # One writer for both: `translate`'s file is the canonical dump of a
    # store that holds the same facts and has not been saturated.
    from metaql import FactStore, normalize_ontology, parse_ontology, translate_ontology

    src, out = tmp_path / "onto.ofn", tmp_path / "onto.dl"
    src.write_text(text, encoding="utf-8")
    assert main(["translate", str(src), "-o", str(out)]) == 0
    store = FactStore()
    store.assert_facts(translate_ontology(normalize_ontology(parse_ontology(text))).facts)
    assert out.read_text(encoding="utf-8") == store.canonical_dump()


@pytest.mark.parametrize("output", [None, "onto.dl", "./sub/../onto.dl"], ids=["default", "same", "respelled"])
def test_translate_never_overwrites_its_input(tmp_path, monkeypatch, capsys, output):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    text = "Ontology(\nClassAssertion(<http://a/C> <http://a/i>)\n)\n"
    (tmp_path / "onto.dl").write_text(text, encoding="utf-8")
    argv = ["translate", "onto.dl"] + (["-o", output] if output else [])
    assert main(argv) == 2
    shown = Path(output or "onto.dl")
    assert capsys.readouterr().err == f"error: output {shown} is the input ontology; give another path with -o\n"
    assert (tmp_path / "onto.dl").read_text(encoding="utf-8") == text


@pytest.mark.parametrize(
    "target, role",
    [("onto.ofn", "input ontology"), ("./sub/../onto.ofn", "input ontology"), ("q.rq", "query file")],
    ids=["ontology", "respelled-ontology", "query-file"],
)
def test_query_dump_model_never_overwrites_an_input(tmp_path, monkeypatch, capsys, target, role):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "onto.ofn").write_text(EXAMPLE_SPECIES_ZOO, encoding="utf-8")
    (tmp_path / "q.rq").write_text(ZOO_QUERY, encoding="utf-8")
    assert main(["query", "onto.ofn", "-q", "q.rq", "--dump-model", target]) == 2
    assert capsys.readouterr().err == f"error: output {target} is the {role}; give another path with --dump-model\n"
    assert (tmp_path / "onto.ofn").read_text(encoding="utf-8") == EXAMPLE_SPECIES_ZOO
    assert (tmp_path / "q.rq").read_text(encoding="utf-8") == ZOO_QUERY


@pytest.mark.parametrize("target, role", [("base.ofn", "base ontology"), ("ext.ofn", "extension")])
def test_extend_never_overwrites_an_input(tmp_path, monkeypatch, capsys, target, role):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "base.ofn").write_text(EXAMPLE_SPECIES, encoding="utf-8")
    (tmp_path / "ext.ofn").write_text(professor_type_extension(), encoding="utf-8")
    assert main(["extend", "base.ofn", "ext.ofn", "-o", target]) == 2
    assert capsys.readouterr().err == f"error: output {Path(target)} is the {role}; give another path with -o\n"
    assert (tmp_path / "base.ofn").read_text(encoding="utf-8") == EXAMPLE_SPECIES
    assert (tmp_path / "ext.ofn").read_text(encoding="utf-8") == professor_type_extension()


def test_translate_reports_parse_error_with_line(tmp_path, capsys):
    src = tmp_path / "bad.ofn"
    src.write_text("Ontology(\nSubClassOf(<http://a/X>)\n)", encoding="utf-8")
    assert main(["translate", str(src)]) == 1
    assert "line" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["translate", str(tmp_path / "ghost.ofn")]) == 2
    assert main(["query", str(tmp_path / "ghost.ofn"), "--query-string", "x"]) == 2


@pytest.mark.parametrize("bad", ["ontology", "query"])
def test_non_utf8_file_exits_2(tmp_path, species_file, capsys, bad):
    latin1 = tmp_path / f"latin1.{bad}"
    latin1.write_bytes("# caf\xe9\n".encode("latin-1"))
    query = tmp_path / "zoo.rq"
    query.write_text(ZOO_QUERY, encoding="utf-8")
    files = {"ontology": species_file, "query": query, bad: latin1}
    assert main(["query", str(files["ontology"]), "-q", str(files["query"])]) == 2
    assert capsys.readouterr().err == f"error: cannot read {latin1}: not UTF-8 text (byte 5)\n"


@pytest.mark.parametrize("marked", ["ontology", "query"])
def test_a_byte_order_mark_is_not_part_of_the_text(tmp_path, species_file, capsys, marked):
    query = tmp_path / "zoo.rq"
    query.write_text(ZOO_QUERY, encoding="utf-8")
    files = {"ontology": species_file, "query": query}
    files[marked].write_text(files[marked].read_text(encoding="utf-8"), encoding="utf-8-sig")
    assert files[marked].read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["query", str(files["ontology"]), "-q", str(files["query"])]) == 0
    assert capsys.readouterr().out.splitlines()[0] == SPECIES + "Harry"


def test_rules_dump_and_stats(tmp_path, capsys):
    assert main(["rules", "--stats"]) == 0
    stats_out = capsys.readouterr().out
    assert "total=107" in stats_out
    out = tmp_path / "rules.dl"
    assert main(["rules", "-o", str(out), "--check-consistency"]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 110
    assert any(":-" in line for line in lines)


def test_query_end_to_end(species_file, capsys):
    assert main(["query", str(species_file), "--query-string", ZOO_QUERY]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == SPECIES + "Harry"
    assert re.fullmatch(r"answers=1 total_ms=\d+\.\d rounds=\d+ derived=\d+", out[1])


def _zoo_model_growth():
    """Facts the rules add to the zoo example's asserted facts."""
    from metaql import FactStore, builtin_rules, evaluate_fixpoint, normalize_ontology, parse_ontology, translate_ontology

    store = FactStore()
    store.assert_facts(translate_ontology(normalize_ontology(parse_ontology(EXAMPLE_SPECIES_ZOO))).facts)
    asserted = store.size()
    evaluate_fixpoint(store, builtin_rules())
    return store.size() - asserted


def test_query_stats_json(species_file, capsys):
    assert main(["query", str(species_file), "--query-string", ZOO_QUERY, "--stats-json"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["answers"] == 1
    for key in ("load_ms", "translate_ms", "saturate_ms", "answer_ms", "total_ms"):
        assert payload[key] >= 0
    assert payload["rounds"] >= 1
    assert payload["derived"] == _zoo_model_growth() > 0


def test_query_from_file(tmp_path, species_file, capsys):
    qfile = tmp_path / "zoo.rq"
    qfile.write_text(ZOO_QUERY, encoding="utf-8")
    assert main(["query", str(species_file), "-q", str(qfile)]) == 0
    assert capsys.readouterr().out.strip().splitlines()[0] == SPECIES + "Harry"


def test_empty_query_string_reaches_the_parser(species_file, capsys):
    assert main(["query", str(species_file), "--query-string", ""]) == 1
    assert capsys.readouterr().err == "error: unexpected end of query (line 1, column 1)\n"


@pytest.mark.parametrize("flags", [[], ["--query-string", ZOO_QUERY, "-q", "zoo.rq"]], ids=["neither", "both"])
def test_query_needs_exactly_one_query_flag(species_file, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["query", str(species_file), *flags])
    assert exc.value.code == 2
    assert "usage: metaql query" in capsys.readouterr().err


def test_query_check_consistency_flag(tmp_path, capsys):
    src = tmp_path / "clash.ofn"
    src.write_text(
        f"Prefix(:=<{SPECIES}>)\nOntology("
        "DisjointClasses(:Cat :Dog) ClassAssertion(:Cat :felix) ClassAssertion(:Dog :felix))",
        encoding="utf-8",
    )
    assert (
        main(
            [
                "query",
                str(src),
                "--query-string",
                f"PREFIX : <{SPECIES}> SELECT ?x WHERE {{ ?x a :Cat }}",
                "--check-consistency",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "consistency=violated" in out
    assert SPECIES + "felix" in out


def test_oracle_subcommand_matches_query(species_file, capsys):
    assert main(["query", str(species_file), "--query-string", ZOO_QUERY]) == 0
    engine_rows = capsys.readouterr().out.strip().splitlines()[:-1]
    assert main(["oracle", str(species_file), "--query-string", ZOO_QUERY]) == 0
    oracle_rows = capsys.readouterr().out.strip().splitlines()[:-1]
    assert engine_rows == oracle_rows


def test_oracle_translates_no_facts(species_file, capsys, monkeypatch):
    def refuse(ontology):
        pytest.fail("the oracle translated the ontology to facts")

    monkeypatch.setattr(cli, "translate_ontology", refuse)
    assert main(["oracle", str(species_file), "--query-string", ZOO_QUERY]) == 0
    assert capsys.readouterr().out.splitlines()[0] == SPECIES + "Harry"


@pytest.mark.parametrize("flag", ["--check-consistency", "--explain", "--dump-model"])
def test_oracle_rejects_the_flags_it_does_not_honour(tmp_path, species_file, capsys, flag):
    # The oracle has no rule base and no model; a flag it would ignore is a
    # usage error before any work.
    model = tmp_path / "model.dl"
    argv = [flag, str(model)] if flag == "--dump-model" else [flag]
    with pytest.raises(SystemExit) as exc:
        main(["oracle", str(species_file), "--query-string", ZOO_QUERY, *argv])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err
    assert not model.exists()


def test_query_dump_model_twice_is_byte_identical_and_sorted(tmp_path, species_file, capsys):
    dumps = []
    for name in ("m1.dl", "m2.dl"):
        path = tmp_path / name
        assert main(["query", str(species_file), "--query-string", ZOO_QUERY, "--dump-model", str(path)]) == 0
        dumps.append(path.read_bytes())
    capsys.readouterr()
    assert dumps[0] == dumps[1]
    assert dumps[0].decode().splitlines() == sorted(dumps[0].decode().splitlines())


def test_query_explain_prints_plan_before_answers(tmp_path, capsys):
    src = tmp_path / "univ2.ofn"
    src.write_text(university_ontology(2), encoding="utf-8")
    q7 = (
        f"PREFIX uni: <{UNI}>\nSELECT ?x ?y WHERE {{ ?x a uni:Student . ?y a uni:Course . "
        "?x uni:takesCourse ?y . uni:fullProf0_0_0 uni:teacherOf ?y }"
    )
    assert main(["query", str(src), "--query-string", q7, "--explain"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:5] == [
        "step\test_rows\trows\tkey\tatom",
        f"1\t2.0\t2\t0,1\tinstr(<{UNI}teacherOf>, <{UNI}fullProf0_0_0>, ?y)",
        f"2\t2.0\t2\t0,1\tinstc(<{UNI}Course>, ?y)",
        f"3\t7.4\t6\t0,2\tinstr(<{UNI}takesCourse>, ?x, ?y)",
        f"4\t7.4\t6\t0,1\tinstc(<{UNI}Student>, ?x)",
    ]
    assert len(out[5:-1]) == 6 and out[-1].startswith("answers=6")
    with pytest.raises(SystemExit) as exc:
        main(["oracle", str(src), "--query-string", q7, "--explain"])
    assert exc.value.code == 2


def test_query_explain_with_a_constant_absent_from_the_model(tmp_path, capsys):
    src = tmp_path / "univ1.ofn"
    src.write_text(university_ontology(1), encoding="utf-8")
    q = f"PREFIX uni: <{UNI}>\nSELECT ?x WHERE {{ ?x a uni:GraduateStudent . ?x uni:memberOf uni:nowhere }}"
    assert main(["query", str(src), "--query-string", q, "--explain"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [
        "step\test_rows\trows\tkey\tatom",
        f"1\t0.0\t0\t0,2\tinstr(<{UNI}memberOf>, ?x, <{UNI}nowhere>)",
        f"2\t0.0\t0\t0,1\tinstc(<{UNI}GraduateStudent>, ?x)",
    ]
    assert len(out) == 4 and out[-1].startswith("answers=0")


@pytest.mark.parametrize("command", ["translate", "rules", "extend", "dump-model", "bench"])
def test_unwritable_output_path_exits_2(tmp_path, species_file, capsys, monkeypatch, command):
    # bench must report the output before it starts any run.
    monkeypatch.setattr(cli, "_bench_one_run", lambda *args: pytest.fail("a bench run started"))
    target = tmp_path / "no-such-dir" / "out"
    query = tmp_path / "zoo.rq"
    query.write_text(ZOO_QUERY, encoding="utf-8")
    argv = {
        "translate": ["translate", str(species_file), "-o", str(target)],
        "rules": ["rules", "-o", str(target)],
        "extend": ["extend", str(species_file), str(species_file), "-o", str(target)],
        "dump-model": ["query", str(species_file), "-q", str(query), "--dump-model", str(target)],
        "bench": ["bench", str(species_file), "-q", str(query), "--repeat", "1", "-o", str(target)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")


@pytest.mark.parametrize(
    "ontology, query",
    [
        ("ClassAssertion(<http://a/A> <>)", "SELECT ?x WHERE { ?x a <http://a/A> }"),
        ("ClassAssertion(<http://a/A> <http://a/b>)", "SELECT ?x WHERE { ?x a <> }"),
    ],
    ids=["ontology", "query"],
)
def test_empty_iri_is_an_error_not_a_traceback(tmp_path, capsys, ontology, query):
    src = tmp_path / "empty_iri.ofn"
    src.write_text(f"Ontology(\n{ontology}\n)\n", encoding="utf-8")
    assert main(["query", str(src), "--query-string", query]) == 1
    assert capsys.readouterr().err.startswith("error: bad entity IRI ''")


def test_out_of_memory_is_an_error_not_a_traceback(species_file, capsys, monkeypatch):
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_ontology", exhausted)
    assert main(["query", str(species_file), "--query-string", ZOO_QUERY]) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")


@pytest.mark.parametrize("bad", ['http://x/A"B', "http://x/A\\B", "http://x/A\x01B"], ids=["quote", "backslash", "U+0001"])
@pytest.mark.parametrize("where", ["translate", "query-ontology", "query"])
def test_iri_the_fact_format_cannot_carry_is_an_error(tmp_path, capsys, bad, where):
    # A quote or backslash in a quoted fact argument would break the line
    # that translate and --dump-model write.
    good = "http://x/A"
    src = tmp_path / "onto.ofn"
    src.write_text(f"Ontology(\nClassAssertion(<{good if where == 'query' else bad}> <http://x/b>)\n)\n", encoding="utf-8")
    out = tmp_path / "out.dl"
    if where == "translate":
        argv = ["translate", str(src), "-o", str(out)]
    else:
        query = f"SELECT ?x WHERE {{ ?x a <{bad if where == 'query' else good}> }}"
        argv = ["query", str(src), "--query-string", query, "--dump-model", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: bad entity IRI {bad!r}\n"
    assert not out.exists()


def test_query_reserved_output_uses_owl_spelling(tmp_path, capsys):
    src = tmp_path / "tiny.ofn"
    src.write_text(EXAMPLE_SPECIES, encoding="utf-8")
    query = f"PREFIX : <{SPECIES}> SELECT ?c WHERE {{ :GoldenEagle rdfs:subClassOf ?c }}"
    assert main(["query", str(src), "--query-string", query]) == 0
    out = capsys.readouterr().out
    assert "http://www.w3.org/2002/07/owl#Thing" in out
    assert "urn:metaql:" not in out


def test_extend_merges_axiom_sets(tmp_path, capsys):
    base = tmp_path / "base.ofn"
    base.write_text(university_ontology(1), encoding="utf-8")
    ext = tmp_path / "ext.ofn"
    ext.write_text(professor_type_extension(), encoding="utf-8")
    merged = tmp_path / "merged.ofn"
    assert main(["extend", str(base), str(ext), "-o", str(merged)]) == 0

    from metaql import parse_ontology

    base_o = parse_ontology(university_ontology(1))
    merged_o = parse_ontology(merged.read_text())
    assert len(merged_o) == len(base_o) + 6


def test_extend_with_empty_extension_is_identity(tmp_path):
    base = tmp_path / "base.ofn"
    base.write_text(EXAMPLE_SPECIES, encoding="utf-8")
    empty = tmp_path / "empty.ofn"
    empty.write_text("Ontology()", encoding="utf-8")
    out = tmp_path / "merged.ofn"
    assert main(["extend", str(base), str(empty), "-o", str(out)]) == 0

    from metaql import parse_ontology

    assert parse_ontology(out.read_text()).axioms == parse_ontology(EXAMPLE_SPECIES).axioms


def test_extend_deduplicates_shared_axioms(tmp_path):
    a = tmp_path / "a.ofn"
    b = tmp_path / "b.ofn"
    a.write_text(f"Prefix(:=<{SPECIES}>)\nOntology(SubClassOf(:A :B) SubClassOf(:B :C))")
    b.write_text(f"Prefix(:=<{SPECIES}>)\nOntology(SubClassOf(:B :C) SubClassOf(:C :D))")
    out = tmp_path / "m.ofn"
    assert main(["extend", str(a), str(b), "-o", str(out)]) == 0

    from metaql import parse_ontology

    assert len(parse_ontology(out.read_text())) == 3


# ------------------------------------------------------------------------------
# bench
# ------------------------------------------------------------------------------


def _write_bench_inputs(tmp_path):
    ontology = tmp_path / "uni.ofn"
    ontology.write_text(university_ontology(1), encoding="utf-8")
    q1 = tmp_path / "q6.rq"
    q1.write_text(f"PREFIX uni: <{UNI}>\nSELECT ?x WHERE {{ ?x a uni:Student }}", encoding="utf-8")
    q2 = tmp_path / "mq1.rq"
    q2.write_text("SELECT ?y WHERE { ?x a ?y }", encoding="utf-8")
    return ontology, q1, q2


def test_bench_produces_runs_and_median_rows(tmp_path, capsys):
    ontology, q1, q2 = _write_bench_inputs(tmp_path)
    out = tmp_path / "out.csv"
    argv = ["bench", str(ontology), "-q", str(q1), "-q", str(q2), "--timeout", "60", "--repeat", "3", "-o", str(out)]
    assert main(argv) == 0
    rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 2 * 3 + 2
    assert [r for r in rows if r["query"].endswith("#median")]
    assert all(r["status"] == "OK" for r in rows)
    assert list(rows[0].keys()) == CSV_HEADER


def _record_runs(monkeypatch) -> list:
    """Replace bench's child processes by OK rows; returns the list that
    collects each run's (ontology, query, timeout_s)."""
    calls = []

    def run(ontology, query, timeout_s):
        calls.append((ontology, query, timeout_s))
        return {**dict.fromkeys(CSV_HEADER, ""), "dataset": ontology, "query": query, "status": "OK"}

    monkeypatch.setattr(cli, "_bench_one_run", run)
    return calls


def test_bench_defaults_to_three_runs_into_bench_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = _record_runs(monkeypatch)
    assert main(["bench", "uni.ofn", "-q", "q6.rq"]) == 0
    assert calls == [("uni.ofn", "q6.rq", 60.0)] * 3
    rows = list(csv.DictReader((tmp_path / "bench.csv").read_text(encoding="utf-8").splitlines()))
    assert [r["query"] for r in rows] == ["q6.rq"] * 3 + ["q6.rq#median"]


def test_bench_runs_every_pair_ontology_by_ontology(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = _record_runs(monkeypatch)
    argv = ["bench", "a.ofn", "b.ofn", "-q", "q1.rq", "--repeat", "1", "-q", "q2.rq", "-o", "out.csv"]
    assert main(argv) == 0
    assert [c[:2] for c in calls] == [("a.ofn", "q1.rq"), ("a.ofn", "q2.rq"), ("b.ofn", "q1.rq"), ("b.ofn", "q2.rq")]


@pytest.mark.parametrize("char", ["#", ",", " "], ids=["hash", "comma", "space"])
def test_bench_takes_any_path_name(tmp_path, char):
    ontology, q1, _ = _write_bench_inputs(tmp_path)
    ontology, q1 = ontology.rename(tmp_path / f"uni{char}1.ofn"), q1.rename(tmp_path / f"q{char}6.rq")
    names = ontology.name, q1.name
    assert main(["bench", str(ontology), "-q", str(q1), "--repeat", "1", "-o", str(tmp_path / "out.csv")]) == 0
    rows = list(csv.DictReader((tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()))
    assert [(r["dataset"], r["query"], r["status"]) for r in rows] == [
        (names[0], names[1], "OK"),
        (names[0], f"{names[1]}#median", "OK"),
    ]


def test_bench_csv_schema_is_pinned():
    assert CSV_HEADER == [
        "dataset",
        "query",
        "load_ms",
        "translate_ms",
        "saturate_ms",
        "answer_ms",
        "answers",
        "status",
    ]


def test_bench_is_deterministic_across_runs(tmp_path):
    ontology, q1, q2 = _write_bench_inputs(tmp_path)
    outputs = []
    for name in ("one.csv", "two.csv"):
        argv = ["bench", str(ontology), "-q", str(q1), "-q", str(q2), "--repeat", "2", "-o", str(tmp_path / name)]
        assert main(argv) == 0
        rows = list(csv.DictReader((tmp_path / name).read_text(encoding="utf-8").splitlines()))
        outputs.append([(r["dataset"], r["query"], r["answers"], r["status"]) for r in rows])
    assert outputs[0] == outputs[1]


def test_bench_timeout_yields_oot(tmp_path):
    ontology = tmp_path / "big.ofn"
    from metaql.synthetic import scaled_university

    ontology.write_text(scaled_university(10334), encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text(f"PREFIX uni: <{UNI}>\nSELECT ?x WHERE {{ ?x a uni:Student }}", encoding="utf-8")
    argv = ["bench", str(ontology), "-q", str(query), "--repeat", "1", "--timeout", "0.01", "-o", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    rows = list(csv.DictReader((tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()))
    assert [r["status"] for r in rows] == ["OOT", "OOT"]
    assert all(r["answers"] == "" for r in rows)


def test_bench_error_rows_for_broken_ontology(tmp_path):
    bad = tmp_path / "bad.ofn"
    bad.write_text("Ontology(SubClassOf(<http://a/X>)", encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text("SELECT ?y WHERE { ?x a ?y }", encoding="utf-8")
    assert main(["bench", str(bad), "-q", str(query), "--repeat", "1", "-o", str(tmp_path / "out.csv")]) == 0
    rows = list(csv.DictReader((tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()))
    assert [r["status"] for r in rows] == ["ERROR", "ERROR"]


def _exit_code(argv) -> int:
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--repeat", "0"], "error: --repeat must be at least 1, got 0"),
        (["--repeat", "0x"], "argument --repeat: invalid int value: '0x'"),
        (["--timeout", "abc"], "argument --timeout: invalid float value: 'abc'"),
        (["--timeout", "-5"], "error: --timeout must be a finite positive number of seconds, got -5.0"),
        (["--mystery", "1"], "unrecognized arguments: --mystery 1"),
    ],
    ids=["repeat-0", "repeat-0x", "timeout-abc", "timeout-negative", "unknown-flag"],
)
def test_bench_bad_flags_exit_2(tmp_path, monkeypatch, capsys, flags, message):
    monkeypatch.setattr(cli, "_bench_one_run", lambda *args: pytest.fail("a bench run started"))
    ontology, q1, _ = _write_bench_inputs(tmp_path)
    out = tmp_path / "out.csv"
    assert _exit_code(["bench", str(ontology), "-q", str(q1), "-o", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "target, role",
    [
        ("uni.ofn", "ontology"),
        ("./sub/../uni.ofn", "ontology"),
        ("q6.rq", "query file"),
        ("mq1.rq", "query file"),
    ],
    ids=["ontology", "respelled-ontology", "query-file", "second-query-file"],
)
def test_bench_never_overwrites_an_input(tmp_path, monkeypatch, capsys, target, role):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_bench_one_run", lambda *args: pytest.fail("a bench run started"))
    (tmp_path / "sub").mkdir()
    _write_bench_inputs(tmp_path)
    inputs = {name: (tmp_path / name).read_bytes() for name in ("uni.ofn", "q6.rq", "mq1.rq")}
    assert main(["bench", "uni.ofn", "-q", "q6.rq", "-q", "mq1.rq", "--repeat", "1", "-o", target]) == 2
    assert capsys.readouterr().err == f"error: output {Path(target)} is the {role}; give another path with -o\n"
    assert {name: (tmp_path / name).read_bytes() for name in inputs} == inputs


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_bench_timeout_must_be_finite_and_positive(tmp_path, capsys, value):
    ontology, q1, _ = _write_bench_inputs(tmp_path)
    argv = ["bench", str(ontology), "-q", str(q1), "-o", str(tmp_path / "out.csv"), f"--timeout={value}"]
    assert main(argv) == 2
    assert "--timeout must be a finite positive number of seconds" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def _cli_outputs_under_hash_seed(workdir: Path, seed: str) -> dict[str, bytes]:
    """Stdout of extend, translate and query --explain --dump-model run in
    fresh interpreters under PYTHONHASHSEED=seed, and every file they
    write.  Paths are relative to `workdir`, so stdout names the same ones
    under each seed; the query's `total_ms` timing is masked."""
    workdir.mkdir()
    (workdir / "base.ofn").write_text(university_ontology(2), encoding="utf-8")
    (workdir / "ext.ofn").write_text(professor_type_extension(), encoding="utf-8")
    pythonpath = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    sq1 = dict(special_meta_queries())["sq1"]
    runs = {
        "extend": ["extend", "base.ofn", "ext.ofn", "-o", "merged.ofn"],
        "translate": ["translate", "merged.ofn", "-o", "facts.dl"],
        "query": ["query", "merged.ofn", "--query-string", sq1, "--explain", "--dump-model", "model.dl"],
    }
    got = {}
    for name, argv in runs.items():
        cmd = [sys.executable, "-m", "metaql", *argv]
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        got[f"{name} stdout"] = re.sub(rb"total_ms=[0-9.]+", b"total_ms=*", proc.stdout)
    for path in ("merged.ofn", "facts.dl", "model.dl"):
        got[path] = (workdir / path).read_bytes()
    return got


def test_cli_output_is_byte_identical_across_hash_seeds(tmp_path):
    first = _cli_outputs_under_hash_seed(tmp_path / "seed0", "0")
    second = _cli_outputs_under_hash_seed(tmp_path / "seed4242", "4242")
    assert b"answers=" in first["query stdout"] and first["model.dl"]
    for what in first:
        assert first[what] == second[what], what
