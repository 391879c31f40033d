"""The fixed inference rule base.

Rather than hand-listing every rule, the catalogue is generated
mechanically from rule families over the basic-concept kind alphabet
{C, R, I} (named class, domain-side existential, range-side
existential).  The families encode saturation of positive and negative
inclusions plus instance inference:

  TBOX-CHAIN-ATOMIC  compose two inclusions through a named class
  TBOX-CHAIN-EXIST   compose through the existential a right side implies
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

All rules are safe, negation-free Horn rules whose heads stay inside the
fixed signature plus the named/violation auxiliaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .model import Atom, Rule, SIGNATURE, TOP_CLASS, atom

KINDS = ("C", "R", "I")

# The kind pairs that have a disjc predicate: all but CR, which is
# represented as RC.
_DISJC_FORMS = frozenset((p[5], p[6]) for p in SIGNATURE if p.startswith("disjc"))


@dataclass(frozen=True)
class RuleCatalogue:
    rules: tuple[Rule, ...]
    family_tags: tuple[str, ...]

    def by_family(self, tag: str) -> list[Rule]:
        return [r for r, t in zip(self.rules, self.family_tags) if t == tag]

    def family_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for t in self.family_tags:
            counts[t] = counts.get(t, 0) + 1
        return counts

    def contains(self, rule: Rule) -> bool:
        from .model import alpha_equivalent

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


def _tbox_chain_atomic(out):
    # B <= m, m <= K  =>  B <= K, with a named-class middle m.
    for l in KINDS:
        for k in KINDS:
            rhs = _kind_args(k, "Y", "F")
            out.append(
                (
                    "TBOX-CHAIN-ATOMIC",
                    Rule(_isac(l, k, "X", *rhs), (_isac(l, "C", "X", "M"), _isac("C", k, "M", *rhs))),
                )
            )


def _tbox_chain_exist(out):
    # B <= exists m (possibly qualified), exists m <= K  =>  B <= K,
    # once for the domain side and once for the range side.
    for mid in ("R", "I"):
        for l in KINDS:
            for k in KINDS:
                rhs = _kind_args(k, "Y", "F")
                out.append(
                    (
                        "TBOX-CHAIN-EXIST",
                        Rule(
                            _isac(l, k, "X", *rhs),
                            (_isac(l, mid, "X", "M", "C0"), _isac(mid, k, "M", *rhs)),
                        ),
                    )
                )


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
    lifts = (("R", "isarRR", "R"), ("R", "isarRI", "I"), ("I", "isarRR", "I"), ("I", "isarRI", "R"))
    for src, via, dst in lifts:
        for l in KINDS:
            out.append(
                (
                    "TBOX-ROLE-LIFT",
                    Rule(
                        _isac(l, dst, "X", "S", "F"),
                        (_isac(l, src, "X", "P", "F"), atom(via, "P", "S")),
                    ),
                )
            )
    # A role inclusion bounds the domains/ranges themselves; these seeds
    # let the chain family lift anything sitting on the subrole.
    seeds = (
        ("isarRR", "isacRR"), ("isarRR", "isacII"), ("isarRI", "isacRI"), ("isarRI", "isacIR"),
    )
    for via, head in seeds:
        out.append(("TBOX-ROLE-LIFT", Rule(atom(head, "P", "S", TOP_CLASS), (atom(via, "P", "S"),))))
    # Reflexivity travels up role inclusions, irreflexivity down.
    out.append(("TBOX-ROLE-LIFT", Rule(atom("refl", "S"), (atom("refl", "P"), atom("isarRR", "P", "S")))))
    out.append(("TBOX-ROLE-LIFT", Rule(atom("refl", "S"), (atom("refl", "P"), atom("isarRI", "P", "S")))))
    out.append(("TBOX-ROLE-LIFT", Rule(atom("irrefl", "P"), (atom("isarRR", "P", "S"), atom("irrefl", "S")))))
    out.append(("TBOX-ROLE-LIFT", Rule(atom("irrefl", "P"), (atom("isarRI", "P", "S"), atom("irrefl", "S")))))


def _role_trans(out):
    # Inverse markers compose by parity.
    table = (
        ("isarRR", "isarRR", "isarRR"),
        ("isarRR", "isarRI", "isarRI"),
        ("isarRI", "isarRR", "isarRI"),
        ("isarRI", "isarRI", "isarRR"),
    )
    for first, second, result in table:
        out.append(
            ("ROLE-TRANS", Rule(atom(result, "P", "T"), (atom(first, "P", "S"), atom(second, "S", "T"))))
        )


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


def _bridge(l3: str, mid: str, lvar: str, mvar: str) -> Atom:
    """B3 <= middle, where the middle has kind `mid`."""
    if mid == "C":
        return _isac(l3, "C", lvar, mvar)
    return _isac(l3, mid, lvar, mvar, "C0")


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
    table = (
        ("isarRR", "disjrRR", "disjrRR"),
        ("isarRI", "disjrRR", "disjrRI"),
        ("isarRR", "disjrRI", "disjrRI"),
        ("isarRI", "disjrRI", "disjrRR"),
    )
    for via, src, dst in table:
        out.append(
            ("DISJ-DOWN", Rule(atom(dst, "T", "S"), (atom(via, "T", "P"), atom(src, "P", "S"))))
        )


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
    out.append(
        ("ABOX-ROLE", Rule(atom("instr", "S", "X", "Y"), (atom("instr", "P", "X", "Y"), atom("isarRR", "P", "S"))))
    )
    out.append(
        ("ABOX-ROLE", Rule(atom("instr", "S", "Y", "X"), (atom("instr", "P", "X", "Y"), atom("isarRI", "P", "S"))))
    )
    out.append(("AUX-NAMED", Rule(atom("named", "X"), (atom("instc", "C", "X"),))))
    out.append(("AUX-NAMED", Rule(atom("named", "X"), (atom("instr", "P", "X", "Y"),))))
    out.append(("AUX-NAMED", Rule(atom("named", "Y"), (atom("instr", "P", "X", "Y"),))))
    out.append(("AUX-NAMED", Rule(atom("instc", TOP_CLASS, "X"), (atom("named", "X"),))))
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
    _tbox_chain_atomic(out)
    _tbox_chain_exist(out)
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
