"""Seeded inputs for the benchmark's two workloads.

Each builder returns a `Workload`: ontology text in functional syntax,
the SPARQL query list, and the answer count each query must return.
The counts are derived here from the generators' parameters, never
from a stored copy of metaql's output; `test_workloads.py` checks the
derivations against the brute-force oracle at reduced sizes.

The seed decides the axiom order of the ontology file and the constants
the anchored queries use (and, for `meta_taxo`, the random parts of the
taxonomy).  The same seed always gives byte-identical inputs.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from metaql import synthetic as S


@dataclass(frozen=True)
class Workload:
    name: str
    ontology: str
    queries: tuple[tuple[str, str], ...]
    expected: dict[str, int]
    check_consistency: bool = False


def _shuffled_ontology(header: list[str], body: list[str], rng: random.Random) -> str:
    body = list(body)
    rng.shuffle(body)
    return "\n".join(header + [f"  {ax.strip()}" for ax in body] + [")"]) + "\n"


# ==============================================================================
# University workloads (metaql.synthetic)
# ==============================================================================

# Classes and properties the per-department block asserts directly; the
# rest of the populated signature follows from the generator's tables.
_ASSERTED_CLASSES = {
    "University", "Department", "Course", "GraduateCourse", "FullProfessor",
    "AssociateProfessor", "AssistantProfessor", "Chair", "Lecturer",
    "JournalArticle", "TechnicalReport", "UndergraduateStudent",
    "GraduateStudent", "TeachingAssistant", "ResearchGroup",
}
_ASSERTED_PROPS = {
    "subOrganizationOf", "worksFor", "teacherOf", "doctoralDegreeFrom", "headOf",
    "publicationAuthor", "takesCourse", "memberOf", "advisor", "undergraduateDegreeFrom",
}
_INVERSES = {"degreeFrom": "hasAlumnus"}

_ANCHOR_RE = re.compile(r"(uni:(?:dept|gradCourse|fullProf)0_)0(?![0-9])")


def _closure_up(names: set[str], edges: list[tuple[str, str]]) -> set[str]:
    out = set(names)
    while True:
        more = {sup for sub, sup in edges if sub in out} - out
        if not more:
            return out
        out |= more


def _descendants(name: str, edges: list[tuple[str, str]]) -> set[str]:
    out: set[str] = set()
    frontier = {name}
    while frontier:
        frontier = {sub for sub, sup in edges if sup in frontier} - out
        out |= frontier
    return out


def university_counts(departments: int) -> dict[str, int]:
    """Answer count of every university query over the professor-type
    extension, anchored on any one department of the single generated
    university."""
    d = departments
    profs = S._FULL + S._ASSOC + S._ASSIST
    grads, ugrads = range(S._GRADS), range(S._UGRADS)
    # Professor k teaches courses[k % COURSES] and gcourses[k % GCOURSES];
    # grad i is advised by profs[i % profs] and takes that professor's
    # graduate course plus courses[i % COURSES]; ugrad i takes courses i, i+1.
    grad_course0 = sum(1 for i in grads if (i % profs) % S._GCOURSES == 0)
    course0 = sum(1 for i in ugrads if i % S._COURSES == 0 or (i + 1) % S._COURSES == 0)
    course0 += sum(1 for i in grads if i % S._COURSES == 0)
    triangles = sum(1 + ((i % profs) % S._COURSES == i % S._COURSES) for i in grads)

    props = _closure_up(_ASSERTED_PROPS, S._SUBPROPS)
    props |= {inv for p, inv in _INVERSES.items() if p in props}
    populated = _ASSERTED_CLASSES | {c for p, c in S._DOMAINS + S._RANGES if p in props}
    classes = _closure_up(populated, S._SUBCLASSES) | {"TypeOfProfessor"}
    students = S._UGRADS + S._GRADS

    return {
        "q1": grad_course0,
        "q2": S._GRADS * d,
        "q3": S._PUBS_PER_PROF,
        "q4": profs,
        "q5": S._UGRADS + S._GRADS + profs + S._LECT,
        "q6": students * d,
        "q7": course0 + grad_course0,
        "q8": students * d,
        "q9": triangles * d,
        "q10": grad_course0,
        "q11": S._RGROUPS,
        "q12": d,
        "q13": (profs + S._GRADS) * d,
        "q14": S._UGRADS * d,
        "mq1": len(classes) + 1,  # plus owl:Thing
        "mq4": len(props) + 1,  # plus owl:topObjectProperty
        "mq5": len(_descendants("Employee", S._SUBCLASSES)),
        "mq10": (profs + 1) * d,  # every professor in its rank, plus the chair
        "sq1": profs * d,
        "sq2": 3 * 2,  # three ranks, pairwise disjoint, both orientations
    }


def univ10k(seed: int, min_axioms: int = 10334) -> Workload:
    """The ROADMAP workload: the whole query suite over the professor-type
    extension; answering dominates."""
    rng = random.Random(seed)
    lines = S.scaled_university(min_axioms).rstrip("\n").split("\n")
    header, body = lines[:2], lines[2:-1]
    body += S.professor_type_extension().rstrip("\n").split("\n")[2:-1]
    departments = sum(1 for ax in body if ax.strip().startswith("ClassAssertion(uni:Department "))
    anchor = rng.randrange(departments)

    suite = S.standard_queries() + S.simple_meta_queries() + S.special_meta_queries()
    queries = tuple((n, _ANCHOR_RE.sub(rf"\g<1>{anchor}", q)) for n, q in suite)
    counts = university_counts(departments)
    return Workload("univ10k", _shuffled_ontology(header, body, rng), queries, {n: counts[n] for n, _ in queries})


# ==============================================================================
# meta_taxo: a punned taxonomy with consistency checking
# ==============================================================================

TAXO = "http://example.org/taxo#"
BRANCHING = 2
ENDANGERED_SHARE = 0.25


def meta_taxo(
    seed: int,
    levels: int = 12,
    organisms_per_leaf: int = 1,
    habitats: int = 16,
    anchor_level: int = 4,
) -> Workload:
    """A binary class tree of `levels` levels (11 subclass steps deep by
    default).  Every class at level l is also an instance of the metaclass
    Rank<l>; the ranks are subclasses of TaxonomicRank and consecutive
    ranks are disjoint.  EndangeredSpecies covers a seeded quarter of the
    leaf classes (the species), each species has `organisms_per_leaf`
    organisms, and each organism livesIn a seeded habitat, with livesIn a
    subproperty of locatedIn."""
    rng = random.Random(seed)
    leaf_level = levels - 1
    tree = [[f"T{lv}_{i}" for i in range(BRANCHING**lv)] for lv in range(levels)]
    leaves = tree[leaf_level]
    endangered = set(rng.sample(range(len(leaves)), max(1, round(ENDANGERED_SHARE * len(leaves)))))
    # Every habitat gets the same number of organisms (give or take one),
    # so the seed moves which organisms live where but not how many.
    organisms = [(leaf, k) for leaf in range(len(leaves)) for k in range(organisms_per_leaf)]
    rng.shuffle(organisms)
    lives_in = {org: i % habitats for i, org in enumerate(organisms)}

    def ancestor(leaf: int, level: int) -> int:
        return leaf // BRANCHING ** (leaf_level - level)

    body = ["SubClassOf(tx:T0_0 tx:Organism)"]
    for lv in range(levels):
        body.append(f"SubClassOf(tx:Rank{lv} tx:TaxonomicRank)")
        if lv + 1 < levels:
            body.append(f"DisjointClasses(tx:Rank{lv} tx:Rank{lv + 1})")
        for i, cls in enumerate(tree[lv]):
            body.append(f"ClassAssertion(tx:Rank{lv} tx:{cls})")
            if lv:
                body.append(f"SubClassOf(tx:{cls} tx:{tree[lv - 1][i // BRANCHING]})")
    body.append("SubObjectPropertyOf(tx:livesIn tx:locatedIn)")
    body.append("ObjectPropertyRange(tx:livesIn tx:Habitat)")
    for leaf in sorted(endangered):
        body.append(f"ClassAssertion(tx:EndangeredSpecies tx:{leaves[leaf]})")
    for (leaf, k), h in lives_in.items():
        org = f"tx:org{leaf}_{k}"
        body.append(f"ClassAssertion(tx:{leaves[leaf]} {org})")
        body.append(f"ObjectPropertyAssertion(tx:livesIn {org} tx:habitat{h})")

    # Anchors: a habitat of some endangered organism and the ancestor of
    # some endangered species at `anchor_level`.  The rank tq4 asks for is
    # fixed, because the cost of that query grows with the rank's size.
    star = rng.choice(sorted(endangered))
    habitat = lives_in[(star, rng.randrange(organisms_per_leaf))]
    anchor = ancestor(star, anchor_level)
    anchor_cls = tree[anchor_level][anchor]
    rank = leaf_level // 2
    under = [leaf for leaf in range(len(leaves)) if ancestor(leaf, anchor_level) == anchor]

    p = f"PREFIX tx: <{TAXO}>\n"
    queries = (
        # The paper's query: organisms of an endangered species in a place.
        ("tq1", p + f"SELECT ?z WHERE {{ ?y a tx:EndangeredSpecies . ?z a ?y . ?z tx:locatedIn tx:habitat{habitat} }}"),
        ("tq2", p + "SELECT ?c ?r WHERE { ?c a ?r . ?r rdfs:subClassOf tx:TaxonomicRank }"),
        ("tq3", p + f"SELECT ?z ?s WHERE {{ ?z a tx:{anchor_cls} . ?z a ?s . ?s a tx:Rank{leaf_level} }}"),
        ("tq4", p + f"SELECT ?s ?g WHERE {{ ?s a tx:EndangeredSpecies . ?s rdfs:subClassOf ?g . ?g a tx:Rank{rank} }}"),
        ("tq5", p + f"SELECT ?c ?r WHERE {{ ?c rdfs:subClassOf tx:{anchor_cls} . ?c a ?q . ?q owl:disjointWith ?r }}"),
        (
            "tq6",
            p + f"SELECT ?z ?h WHERE {{ ?z a tx:{anchor_cls} . ?z a ?s . ?s a tx:EndangeredSpecies . ?z tx:locatedIn ?h }}",
        ),
    )
    expected = {
        "tq1": sum(1 for (leaf, _), h in lives_in.items() if leaf in endangered and h == habitat),
        "tq2": sum(len(level) for level in tree),
        "tq3": organisms_per_leaf * len(under),
        "tq4": len(endangered),
        # Each strict descendant at level l pairs with ranks l-1 and l+1.
        "tq5": sum(
            BRANCHING ** (lv - anchor_level) * (1 + (lv < leaf_level)) for lv in range(anchor_level + 1, levels)
        ),
        "tq6": organisms_per_leaf * sum(1 for leaf in under if leaf in endangered),
    }
    header = [f"Prefix(tx:=<{TAXO}>)", "Ontology(<http://example.org/taxo>"]
    return Workload("meta_taxo", _shuffled_ontology(header, body, rng), queries, expected, check_consistency=True)


WORKLOADS = {"univ10k": univ10k, "meta_taxo": meta_taxo}
