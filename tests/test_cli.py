import csv
import json

import pytest

from helpers import EXAMPLE_SPECIES, EXAMPLE_SPECIES_ZOO, SPECIES
from metaql import cli
from metaql.cli import CSV_HEADER, main
from metaql.synthetic import UNI, professor_type_extension, university_ontology

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
    assert out[1].startswith("answers=1")


def test_query_report_time_breakdown(species_file, capsys):
    assert main(["query", str(species_file), "--query-string", ZOO_QUERY, "--report-time"]) == 0
    stats_line = capsys.readouterr().out.strip().splitlines()[-1]
    for key in ("load_ms", "translate_ms", "saturate_ms", "answer_ms", "total_ms"):
        assert key in stats_line


def test_query_stats_json(species_file, capsys):
    assert main(["query", str(species_file), "--query-string", ZOO_QUERY, "--stats-json"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["answers"] == 1
    assert payload["total_ms"] >= 0


def test_query_from_file(tmp_path, species_file, capsys):
    qfile = tmp_path / "zoo.rq"
    qfile.write_text(ZOO_QUERY, encoding="utf-8")
    assert main(["query", str(species_file), "-q", str(qfile)]) == 0
    assert capsys.readouterr().out.strip().splitlines()[0] == SPECIES + "Harry"


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
    assert main(["oracle", str(src), "--query-string", q7, "--explain"]) == 2


@pytest.mark.parametrize("command", ["translate", "rules", "extend", "dump-model", "bench"])
def test_unwritable_output_path_exits_2(tmp_path, species_file, capsys, monkeypatch, command):
    # bench must report the output before it starts any run.
    monkeypatch.setattr(cli, "_bench_one_run", lambda *args: pytest.fail("a bench run started"))
    target = tmp_path / "no-such-dir" / "out"
    query = tmp_path / "zoo.rq"
    query.write_text(ZOO_QUERY, encoding="utf-8")
    config = tmp_path / "bench.cfg"
    config.write_text(f"ontologies = {species_file.name}\nqueries = {query.name}\nrepeat = 1\n", encoding="utf-8")
    argv = {
        "translate": ["translate", str(species_file), "-o", str(target)],
        "rules": ["rules", "-o", str(target)],
        "extend": ["extend", str(species_file), str(species_file), "-o", str(target)],
        "dump-model": ["query", str(species_file), "-q", str(query), "--dump-model", str(target)],
        "bench": ["bench", str(config), "-o", str(target)],
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
    config = tmp_path / "bench.cfg"
    config.write_text(
        f"""# desk-scale smoke config
ontologies = {ontology.name}
queries = {q1.name}, {q2.name}
timeout_s = 60
repeat = 3
output_csv = out.csv
""",
        encoding="utf-8",
    )
    assert main(["bench", str(config)]) == 0
    rows = list(csv.DictReader((tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 2 * 3 + 2
    assert [r for r in rows if r["query"].endswith("#median")]
    assert all(r["status"] == "OK" for r in rows)
    assert list(rows[0].keys()) == CSV_HEADER


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
    config = tmp_path / "bench.cfg"
    config.write_text(
        f"ontologies = {ontology.name}\nqueries = {q1.name}, {q2.name}\nrepeat = 2\n",
        encoding="utf-8",
    )
    outputs = []
    for name in ("one.csv", "two.csv"):
        assert main(["bench", str(config), "-o", str(tmp_path / name)]) == 0
        rows = list(csv.DictReader((tmp_path / name).read_text(encoding="utf-8").splitlines()))
        outputs.append([(r["dataset"], r["query"], r["answers"], r["status"]) for r in rows])
    assert outputs[0] == outputs[1]


def test_bench_timeout_yields_oot(tmp_path):
    ontology = tmp_path / "big.ofn"
    from metaql.synthetic import scaled_university

    ontology.write_text(scaled_university(10334), encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text(f"PREFIX uni: <{UNI}>\nSELECT ?x WHERE {{ ?x a uni:Student }}", encoding="utf-8")
    config = tmp_path / "bench.cfg"
    config.write_text(
        f"ontologies = {ontology.name}\nqueries = {query.name}\nrepeat = 1\ntimeout_s = 0.2\n",
        encoding="utf-8",
    )
    assert main(["bench", str(config), "-o", str(tmp_path / "out.csv")]) == 0
    rows = list(csv.DictReader((tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()))
    assert [r["status"] for r in rows] == ["OOT", "OOT"]
    assert all(r["answers"] == "" for r in rows)


def test_bench_error_rows_for_broken_ontology(tmp_path):
    bad = tmp_path / "bad.ofn"
    bad.write_text("Ontology(SubClassOf(<http://a/X>)", encoding="utf-8")
    query = tmp_path / "q.rq"
    query.write_text("SELECT ?y WHERE { ?x a ?y }", encoding="utf-8")
    config = tmp_path / "bench.cfg"
    config.write_text(f"ontologies = {bad.name}\nqueries = {query.name}\nrepeat = 1\n")
    assert main(["bench", str(config), "-o", str(tmp_path / "out.csv")]) == 0
    rows = list(csv.DictReader((tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()))
    assert [r["status"] for r in rows] == ["ERROR", "ERROR"]


def test_bench_config_errors_exit_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("mystery = 1\n")
    assert main(["bench", str(config)]) == 2
    config.write_text("ontologies = a.ofn\nqueries = q.rq\nrepeat = 0\n")
    assert main(["bench", str(config)]) == 2
    config.write_text("ontologies = a.ofn\nqueries = q.rq\ntimeout_s = -5\n")
    assert main(["bench", str(config)]) == 2
    for line in ("timeout_s = abc", "repeat = 0x"):
        config.write_text(f"ontologies = a.ofn\nqueries = q.rq\n{line}\n")
        assert main(["bench", str(config)]) == 2
        assert f"{config}:3: " in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_bench_timeout_must_be_finite_and_positive(tmp_path, capsys, where, value):
    ontology, q1, _ = _write_bench_inputs(tmp_path)
    config = tmp_path / "bench.cfg"
    timeout = value if where == "config" else "60"
    config.write_text(f"ontologies = {ontology.name}\nqueries = {q1.name}\ntimeout_s = {timeout}\n")
    flag = [f"--timeout={value}"] if where == "flag" else []
    assert main(["bench", str(config), "-o", str(tmp_path / "out.csv"), *flag]) == 2
    assert "timeout_s must be a finite positive number of seconds" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()
