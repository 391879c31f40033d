"""The fixed inference rule base.

Rather than hand-listing every rule, the catalogue is generated
mechanically from rule families over the basic-concept kind alphabet
{C, R, I} (named class, domain-side existential, range-side
existential).  The families encode saturation of positive and negative
inclusions plus instance inference:

  TBOX-CHAIN-ATOMIC  compose two inclusions through a named class
  TBOX-CHAIN-EXIST   compose through the existential a right side implies
                     (one generator, `_tbox_chain`, over the middle's kind)
  TBOX-FILLER        widen the filler of a qualified existential
  TBOX-ROLE-LIFT     push role inclusions into existentials (and the
                     role-to-existential seeds / reflexivity transfers)
  ROLE-TRANS         compose role inclusions, tracking inverse parity
  DISJ-SYM           disjointness is symmetric wherever both orientations
                     have a predicate
  DISJ-DOWN          disjointness is inherited downwards along inclusions
  ABOX-CLASS/ROLE    apply saturated inclusions to assertions
  AUX-NAMED          reify the active domain for top-class membership
  ABOX-REFL          reflexive properties relate every named element to itself
  VIOLATION          opt-in consistency reporting (never alters answers)

Role inclusions come in two forms, P <= S (isarRR) and P <= S- (isarRI),
listed once in `_ROLE_INCLUSIONS`.  One law covers every family that
follows them: an inclusion into an inverse flips the side of an
existential (R <-> I) and the order of a pair, and inverses compose by
parity, so two inverse markers cancel (`_parity`).

All rules are safe, negation-free Horn rules whose heads stay inside the
fixed signature plus the named/violation auxiliaries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .model import Atom, Rule, SIGNATURE, TOP_CLASS, Var, alpha_equivalent, atom

KINDS = ("C", "R", "I")

# The kind pairs that have a disjc predicate: all but CR, which is
# represented as RC.
_DISJC_FORMS = frozenset((p[5], p[6]) for p in SIGNATURE if p.startswith("disjc"))

# The two role-inclusion forms, each with the letter that says whether it
# targets an inverse: R for a role, I for its inverse, as in the
# existential kinds R and I and in disjrRR/disjrRI.
_ROLE_INCLUSIONS = (("isarRR", "R"), ("isarRI", "I"))


def _parity(a: str, b: str) -> str:
    """Inverses compose by parity: two inverse markers cancel."""
    return "R" if a == b else "I"


@dataclass(frozen=True)
class RuleCatalogue:
    rules: tuple[Rule, ...]
    family_tags: tuple[str, ...]

    def by_family(self, tag: str) -> list[Rule]:
        return [r for r, t in zip(self.rules, self.family_tags) if t == tag]

    def family_counts(self) -> dict[str, int]:
        return Counter(self.family_tags)

    def contains(self, rule: Rule) -> bool:
        return any(alpha_equivalent(r, rule) for r in self.rules)

    def to_dl(self) -> str:
        return "".join(f"{r.to_dl()}\n" for r in self.rules)

    def __len__(self) -> int:
        return len(self.rules)


def _isac(l: str, k: str, lhs: str, *rhs: str) -> Atom:
    return atom(f"isac{l}{k}", lhs, *rhs)


def _kind_args(kind: str, first: str, second: str) -> tuple[str, ...]:
    """Argument tuple for the right side of an isac predicate."""
    return (first,) if kind == "C" else (first, second)


def _bridge(l3: str, mid: str, lvar: str, mvar: str) -> Atom:
    """B3 <= middle, where the middle has kind `mid`."""
    if mid == "C":
        return _isac(l3, "C", lvar, mvar)
    return _isac(l3, mid, lvar, mvar, "C0")


def _tbox_chain(out):
    # B <= m, m <= K  =>  B <= K, through a middle m of any kind: a named
    # class, or an existential (possibly qualified) on either side.
    for mid in KINDS:
        tag = "TBOX-CHAIN-ATOMIC" if mid == "C" else "TBOX-CHAIN-EXIST"
        for l in KINDS:
            for k in KINDS:
                rhs = _kind_args(k, "Y", "F")
                body = (_bridge(l, mid, "X", "M"), _isac(mid, k, "M", *rhs))
                out.append((tag, Rule(_isac(l, k, "X", *rhs), body)))


def _tbox_filler(out):
    # B <= exists r.f, f <= f'  =>  B <= exists r.f'
    for side in ("R", "I"):
        for l in KINDS:
            out.append(
                (
                    "TBOX-FILLER",
                    Rule(
                        _isac(l, side, "X", "P", "F2"),
                        (_isac(l, side, "X", "P", "F1"), atom("isacCC", "F1", "F2")),
                    ),
                )
            )


def _tbox_role_lift(out):
    # Qualified existentials follow their role upwards, flipping the side
    # when the inclusion targets an inverse.
    for src in ("R", "I"):
        for via, inv in _ROLE_INCLUSIONS:
            for l in KINDS:
                out.append(
                    (
                        "TBOX-ROLE-LIFT",
                        Rule(
                            _isac(l, _parity(src, inv), "X", "S", "F"),
                            (_isac(l, src, "X", "P", "F"), atom(via, "P", "S")),
                        ),
                    )
                )
    # A role inclusion bounds the domains/ranges themselves; these seeds
    # let the chain family lift anything sitting on the subrole.
    for via, inv in _ROLE_INCLUSIONS:
        for side in ("R", "I"):
            head = Atom(f"isac{side}{_parity(side, inv)}", (Var("P"), Var("S"), TOP_CLASS))
            out.append(("TBOX-ROLE-LIFT", Rule(head, (atom(via, "P", "S"),))))
    # Reflexivity travels up role inclusions, irreflexivity down.
    for via, _ in _ROLE_INCLUSIONS:
        out.append(("TBOX-ROLE-LIFT", Rule(atom("refl", "S"), (atom("refl", "P"), atom(via, "P", "S")))))
    for via, _ in _ROLE_INCLUSIONS:
        out.append(("TBOX-ROLE-LIFT", Rule(atom("irrefl", "P"), (atom(via, "P", "S"), atom("irrefl", "S")))))


def _role_trans(out):
    for first, a in _ROLE_INCLUSIONS:
        for second, b in _ROLE_INCLUSIONS:
            head = atom(f"isarR{_parity(a, b)}", "P", "T")
            out.append(("ROLE-TRANS", Rule(head, (atom(first, "P", "S"), atom(second, "S", "T")))))


def _disj_sym(out):
    swaps = (
        ("disjcCC", "disjcCC"),
        ("disjcCI", "disjcIC"),
        ("disjcIC", "disjcCI"),
        ("disjcRI", "disjcIR"),
        ("disjcIR", "disjcRI"),
        ("disjcRR", "disjcRR"),
        ("disjcII", "disjcII"),
        ("disjrRR", "disjrRR"),
        ("disjrRI", "disjrRI"),
    )
    for src, dst in swaps:
        out.append(("DISJ-SYM", Rule(atom(dst, "B", "A"), (atom(src, "A", "B"),))))


def _disj_head(l3: str, k2: str, lvar: str, kvar: str) -> Atom:
    """Canonical disjointness atom for operand kinds (l3, k2); the CR
    combination is only representable with swapped operands."""
    if (l3, k2) in _DISJC_FORMS:
        return atom(f"disjc{l3}{k2}", lvar, kvar)
    return atom(f"disjc{k2}{l3}", kvar, lvar)


def _disj_down(out):
    # B3 <= B1 and disj(B1, B2) entail disj(B3, B2).
    for mid in KINDS:
        for k2 in KINDS:
            if (mid, k2) not in _DISJC_FORMS:
                continue
            for l3 in KINDS:
                out.append(
                    (
                        "DISJ-DOWN",
                        Rule(
                            _disj_head(l3, k2, "X", "K"),
                            (_bridge(l3, mid, "X", "M"), atom(f"disjc{mid}{k2}", "M", "K")),
                        ),
                    )
                )
    # disjcRC has no flipped twin, so inheritance along its class operand
    # needs dedicated rules.
    for l3 in KINDS:
        out.append(
            (
                "DISJ-DOWN",
                Rule(
                    _disj_head(l3, "R", "X", "K"),
                    (_bridge(l3, "C", "X", "M"), atom("disjcRC", "K", "M")),
                ),
            )
        )
    # Role disjointness inherits along role inclusions, flipping with the
    # inverse marker.
    for d in ("R", "I"):
        for via, inv in _ROLE_INCLUSIONS:
            head = atom(f"disjrR{_parity(d, inv)}", "T", "S")
            out.append(("DISJ-DOWN", Rule(head, (atom(via, "T", "P"), atom(f"disjrR{d}", "P", "S")))))


def _abox(out):
    out.append(
        ("ABOX-CLASS", Rule(atom("instc", "D", "X"), (atom("instc", "C", "X"), atom("isacCC", "C", "D"))))
    )
    out.append(
        ("ABOX-CLASS", Rule(atom("instc", "C", "X"), (atom("instr", "P", "X", "Y"), atom("isacRC", "P", "C"))))
    )
    out.append(
        ("ABOX-CLASS", Rule(atom("instc", "C", "Y"), (atom("instr", "P", "X", "Y"), atom("isacIC", "P", "C"))))
    )
    for via, inv in _ROLE_INCLUSIONS:
        head = atom("instr", "S", "X", "Y") if inv == "R" else atom("instr", "S", "Y", "X")
        out.append(("ABOX-ROLE", Rule(head, (atom("instr", "P", "X", "Y"), atom(via, "P", "S")))))
    out.append(("AUX-NAMED", Rule(atom("named", "X"), (atom("instc", "C", "X"),))))
    out.append(("AUX-NAMED", Rule(atom("named", "X"), (atom("instr", "P", "X", "Y"),))))
    out.append(("AUX-NAMED", Rule(atom("named", "Y"), (atom("instr", "P", "X", "Y"),))))
    out.append(("AUX-NAMED", Rule(Atom("instc", (TOP_CLASS, Var("X"))), (atom("named", "X"),))))
    out.append(("ABOX-REFL", Rule(atom("instr", "P", "X", "X"), (atom("refl", "P"), atom("named", "X")))))


def _violation(out):
    out.append(
        (
            "VIOLATION",
            Rule(
                atom("violation"),
                (atom("instc", "C1", "X"), atom("instc", "C2", "X"), atom("disjcCC", "C1", "C2")),
            ),
        )
    )
    out.append(
        (
            "VIOLATION",
            Rule(
                atom("violation"),
                (atom("instr", "P", "X", "Y"), atom("instr", "S", "X", "Y"), atom("disjrRR", "P", "S")),
            ),
        )
    )
    out.append(
        ("VIOLATION", Rule(atom("violation"), (atom("instr", "P", "X", "X"), atom("irrefl", "P"))))
    )


@lru_cache(maxsize=None)
def builtin_rules(check_consistency: bool = False) -> RuleCatalogue:
    """The full catalogue; pure and cached."""
    out: list[tuple[str, Rule]] = []
    _tbox_chain(out)
    _tbox_filler(out)
    _tbox_role_lift(out)
    _role_trans(out)
    _disj_sym(out)
    _disj_down(out)
    _abox(out)
    if check_consistency:
        _violation(out)
    tags, rules = zip(*((t, r) for t, r in out))
    return RuleCatalogue(tuple(rules), tuple(tags))
