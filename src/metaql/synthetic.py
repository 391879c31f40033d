"""Deterministic university-domain ontology generator.

Produces functional-syntax text at a chosen scale, shaped like the
classic university benchmarks: a class tree for people, organizations,
courses and publications, property hierarchies with inverses and
domain/range constraints, a few existential axioms, and a per-department
block of individuals.  Everything is counter-driven, so the same
arguments always yield byte-identical output.

The professor-type extension turns the three professor ranks into
instances of a fresh metaclass and declares them pairwise disjoint,
which is what the special-case meta-queries probe.
"""

from __future__ import annotations

UNI = "http://example.org/univ#"

_SUBCLASSES = [
    ("University", "Organization"),
    ("Department", "Organization"),
    ("ResearchGroup", "Organization"),
    ("Institute", "Organization"),
    ("College", "Organization"),
    ("Employee", "Person"),
    ("Faculty", "Employee"),
    ("Professor", "Faculty"),
    ("FullProfessor", "Professor"),
    ("AssociateProfessor", "Professor"),
    ("AssistantProfessor", "Professor"),
    ("VisitingProfessor", "Professor"),
    ("Chair", "Professor"),
    ("Dean", "Professor"),
    ("Lecturer", "Faculty"),
    ("PostDoc", "Faculty"),
    ("AdministrativeStaff", "Employee"),
    ("ClericalStaff", "AdministrativeStaff"),
    ("SystemsStaff", "AdministrativeStaff"),
    ("Student", "Person"),
    ("UndergraduateStudent", "Student"),
    ("GraduateStudent", "Student"),
    ("TeachingAssistant", "Person"),
    ("ResearchAssistant", "Person"),
    ("GraduateCourse", "Course"),
    ("Seminar", "Course"),
    ("Article", "Publication"),
    ("ConferencePaper", "Article"),
    ("JournalArticle", "Article"),
    ("Book", "Publication"),
    ("TechnicalReport", "Publication"),
]

_SUBPROPS = [
    ("headOf", "worksFor"),
    ("worksFor", "memberOf"),
    ("undergraduateDegreeFrom", "degreeFrom"),
    ("mastersDegreeFrom", "degreeFrom"),
    ("doctoralDegreeFrom", "degreeFrom"),
]

_DOMAINS = [
    ("worksFor", "Employee"),
    ("teacherOf", "Faculty"),
    ("takesCourse", "Student"),
    ("advisor", "Person"),
    ("publicationAuthor", "Publication"),
    ("memberOf", "Person"),
    ("subOrganizationOf", "Organization"),
    ("headOf", "Chair"),
    ("degreeFrom", "Person"),
]

_RANGES = [
    ("worksFor", "Organization"),
    ("teacherOf", "Course"),
    ("takesCourse", "Course"),
    ("advisor", "Professor"),
    ("publicationAuthor", "Person"),
    ("memberOf", "Organization"),
    ("subOrganizationOf", "Organization"),
    ("headOf", "Department"),
    ("degreeFrom", "University"),
]

_EXISTENTIALS = [
    # Acyclic chain: GraduateStudent -> Professor -> Department -> University.
    ("GraduateStudent", "advisor", "Professor"),
    ("Professor", "worksFor", "Department"),
    ("Department", "subOrganizationOf", "University"),
]

_DISJOINT = [
    ("Person", "Organization"),
    ("Person", "Course"),
    ("Person", "Publication"),
    ("Course", "Publication"),
]

# Per-department individual counts.
_FULL, _ASSOC, _ASSIST = 2, 3, 3
_LECT = 2
_COURSES, _GCOURSES = 8, 4
_UGRADS, _GRADS = 14, 6
_RGROUPS = 2
_PUBS_PER_PROF = 2


def _tbox_lines() -> list[str]:
    lines = []
    for sub, sup in _SUBCLASSES:
        lines.append(f"SubClassOf(uni:{sub} uni:{sup})")
    for sub, sup in _SUBPROPS:
        lines.append(f"SubObjectPropertyOf(uni:{sub} uni:{sup})")
    lines.append("InverseObjectProperties(uni:degreeFrom uni:hasAlumnus)")
    for prop, cls in _DOMAINS:
        lines.append(f"ObjectPropertyDomain(uni:{prop} uni:{cls})")
    for prop, cls in _RANGES:
        lines.append(f"ObjectPropertyRange(uni:{prop} uni:{cls})")
    for cls, prop, filler in _EXISTENTIALS:
        lines.append(f"SubClassOf(uni:{cls} ObjectSomeValuesFrom(uni:{prop} uni:{filler}))")
    for a, b in _DISJOINT:
        lines.append(f"DisjointClasses(uni:{a} uni:{b})")
    return lines


def _department_lines(u: int, d: int) -> list[str]:
    univ = f"uni:university{u}"
    dept = f"uni:dept{u}_{d}"
    add = [
        f"ClassAssertion(uni:Department {dept})",
        f"ObjectPropertyAssertion(uni:subOrganizationOf {dept} {univ})",
    ]

    courses = [f"uni:course{u}_{d}_{i}" for i in range(_COURSES)]
    gcourses = [f"uni:gradCourse{u}_{d}_{i}" for i in range(_GCOURSES)]
    for c in courses:
        add.append(f"ClassAssertion(uni:Course {c})")
    for c in gcourses:
        add.append(f"ClassAssertion(uni:GraduateCourse {c})")

    profs = []
    for rank, count in (("FullProfessor", _FULL), ("AssociateProfessor", _ASSOC), ("AssistantProfessor", _ASSIST)):
        short = {"FullProfessor": "fullProf", "AssociateProfessor": "assocProf", "AssistantProfessor": "assistProf"}[rank]
        for i in range(count):
            p = f"uni:{short}{u}_{d}_{i}"
            profs.append(p)
            add.append(f"ClassAssertion(uni:{rank} {p})")
    for k, p in enumerate(profs):
        add.append(f"ObjectPropertyAssertion(uni:worksFor {p} {dept})")
        add.append(f"ObjectPropertyAssertion(uni:teacherOf {p} {courses[k % _COURSES]})")
        add.append(f"ObjectPropertyAssertion(uni:teacherOf {p} {gcourses[k % _GCOURSES]})")
        add.append(f"ObjectPropertyAssertion(uni:doctoralDegreeFrom {p} {univ})")
    # The first full professor chairs the department; worksFor follows
    # from headOf by the property hierarchy.
    add.append(f"ClassAssertion(uni:Chair {profs[0]})")
    add.append(f"ObjectPropertyAssertion(uni:headOf {profs[0]} {dept})")

    for i in range(_LECT):
        lect = f"uni:lecturer{u}_{d}_{i}"
        add.append(f"ClassAssertion(uni:Lecturer {lect})")
        add.append(f"ObjectPropertyAssertion(uni:worksFor {lect} {dept})")
        add.append(f"ObjectPropertyAssertion(uni:teacherOf {lect} {courses[(i + 3) % _COURSES]})")

    for k, p in enumerate(profs):
        for j in range(_PUBS_PER_PROF):
            pub = f"uni:pub{u}_{d}_{k}_{j}"
            cls = "JournalArticle" if j % 2 == 0 else "TechnicalReport"
            add.append(f"ClassAssertion(uni:{cls} {pub})")
            add.append(f"ObjectPropertyAssertion(uni:publicationAuthor {pub} {p})")

    for i in range(_UGRADS):
        s = f"uni:ugrad{u}_{d}_{i}"
        add.append(f"ClassAssertion(uni:UndergraduateStudent {s})")
        add.append(f"ObjectPropertyAssertion(uni:takesCourse {s} {courses[i % _COURSES]})")
        add.append(f"ObjectPropertyAssertion(uni:takesCourse {s} {courses[(i + 1) % _COURSES]})")
        add.append(f"ObjectPropertyAssertion(uni:memberOf {s} {dept})")

    for i in range(_GRADS):
        g = f"uni:grad{u}_{d}_{i}"
        adv_idx = i % len(profs)
        add.append(f"ClassAssertion(uni:GraduateStudent {g})")
        add.append(f"ObjectPropertyAssertion(uni:advisor {g} {profs[adv_idx]})")
        # One course taught by the advisor, so student/advisor/course
        # triangles have answers.
        add.append(f"ObjectPropertyAssertion(uni:takesCourse {g} {gcourses[adv_idx % _GCOURSES]})")
        add.append(f"ObjectPropertyAssertion(uni:takesCourse {g} {courses[i % _COURSES]})")
        add.append(f"ObjectPropertyAssertion(uni:memberOf {g} {dept})")
        add.append(f"ObjectPropertyAssertion(uni:undergraduateDegreeFrom {g} {univ})")
        if i < 2:
            add.append(f"ClassAssertion(uni:TeachingAssistant {g})")

    for i in range(_RGROUPS):
        rg = f"uni:researchGroup{u}_{d}_{i}"
        add.append(f"ClassAssertion(uni:ResearchGroup {rg})")
        add.append(f"ObjectPropertyAssertion(uni:subOrganizationOf {rg} {dept})")

    return add


def university_ontology(departments: int = 2) -> str:
    lines = [f"Prefix(uni:=<{UNI}>)", "Ontology(<http://example.org/univ>"]
    lines += [f"  {ax}" for ax in _tbox_lines()]
    lines.append("  ClassAssertion(uni:University uni:university0)")
    for d in range(departments):
        lines += [f"  {ax}" for ax in _department_lines(0, d)]
    lines.append(")")
    return "\n".join(lines) + "\n"


def axioms_per_department() -> int:
    return len(_department_lines(0, 0))


def scaled_university(min_axioms: int) -> str:
    """Smallest department count whose axiom total reaches `min_axioms`."""
    base = len(_tbox_lines()) + 1  # plus the university assertion
    per_dept = axioms_per_department()
    departments = max(1, -(-(min_axioms - base) // per_dept))
    return university_ontology(departments=departments)


def professor_type_extension() -> str:
    """Metaclass extension: professor ranks become individuals of
    TypeOfProfessor and are declared pairwise disjoint."""
    ranks = ("FullProfessor", "AssociateProfessor", "AssistantProfessor")
    lines = [f"Prefix(uni:=<{UNI}>)", "Ontology("]
    for r in ranks:
        lines.append(f"  ClassAssertion(uni:TypeOfProfessor uni:{r})")
    for i in range(len(ranks)):
        for j in range(i + 1, len(ranks)):
            lines.append(f"  DisjointClasses(uni:{ranks[i]} uni:{ranks[j]})")
    lines.append(")")
    return "\n".join(lines) + "\n"


# ==============================================================================
# Query suites
# ==============================================================================

_P = f"PREFIX uni: <{UNI}>\n"


def standard_queries() -> list[tuple[str, str]]:
    """Fourteen queries with variables in individual positions only."""
    return [
        ("q1", _P + "SELECT ?x WHERE { ?x a uni:GraduateStudent . ?x uni:takesCourse uni:gradCourse0_0_0 }"),
        (
            "q2",
            _P
            + "SELECT ?x ?y ?z WHERE { ?x a uni:GraduateStudent . ?y a uni:University . "
            "?z a uni:Department . ?x uni:memberOf ?z . ?z uni:subOrganizationOf ?y . "
            "?x uni:undergraduateDegreeFrom ?y }",
        ),
        ("q3", _P + "SELECT ?x WHERE { ?x a uni:Publication . ?x uni:publicationAuthor uni:fullProf0_0_0 }"),
        ("q4", _P + "SELECT ?x WHERE { ?x a uni:Professor . ?x uni:worksFor uni:dept0_0 }"),
        ("q5", _P + "SELECT ?x WHERE { ?x a uni:Person . ?x uni:memberOf uni:dept0_0 }"),
        ("q6", _P + "SELECT ?x WHERE { ?x a uni:Student }"),
        (
            "q7",
            _P
            + "SELECT ?x ?y WHERE { ?x a uni:Student . ?y a uni:Course . "
            "?x uni:takesCourse ?y . uni:fullProf0_0_0 uni:teacherOf ?y }",
        ),
        (
            "q8",
            _P
            + "SELECT ?x ?y WHERE { ?x a uni:Student . ?y a uni:Department . "
            "?x uni:memberOf ?y . ?y uni:subOrganizationOf uni:university0 }",
        ),
        (
            "q9",
            _P
            + "SELECT ?x ?y ?z WHERE { ?x a uni:Student . ?y a uni:Faculty . ?z a uni:Course . "
            "?x uni:advisor ?y . ?y uni:teacherOf ?z . ?x uni:takesCourse ?z }",
        ),
        ("q10", _P + "SELECT ?x WHERE { ?x a uni:Student . ?x uni:takesCourse uni:gradCourse0_0_0 }"),
        ("q11", _P + "SELECT ?x WHERE { ?x a uni:ResearchGroup . ?x uni:subOrganizationOf uni:dept0_0 }"),
        (
            "q12",
            _P
            + "SELECT ?x ?y WHERE { ?x a uni:Chair . ?y a uni:Department . "
            "?x uni:worksFor ?y . ?y uni:subOrganizationOf uni:university0 }",
        ),
        ("q13", _P + "SELECT ?x WHERE { ?x a uni:Person . uni:university0 uni:hasAlumnus ?x }"),
        ("q14", _P + "SELECT ?x WHERE { ?x a uni:UndergraduateStudent }"),
    ]


def simple_meta_queries() -> list[tuple[str, str]]:
    """Variables in class/property positions, but never crossing levels."""
    return [
        ("mq1", _P + "SELECT ?y WHERE { ?x a ?y }"),
        ("mq4", _P + "SELECT ?p WHERE { ?x ?p ?y }"),
        ("mq5", _P + "SELECT ?c WHERE { ?c rdfs:subClassOf uni:Employee }"),
        ("mq10", _P + "SELECT ?x ?y WHERE { ?x a ?y . ?y rdfs:subClassOf uni:Professor }"),
    ]


def special_meta_queries() -> list[tuple[str, str]]:
    """Meta-queries whose variables range over several levels at once."""
    return [
        (
            "sq1",
            _P
            + "SELECT ?y ?z WHERE { ?y a uni:Professor . ?z a uni:TypeOfProfessor . ?y a ?z }",
        ),
        (
            "sq2",
            _P
            + "SELECT ?x ?y WHERE { ?x a uni:TypeOfProfessor . ?y a uni:TypeOfProfessor . "
            "?x owl:disjointWith ?y }",
        ),
    ]
