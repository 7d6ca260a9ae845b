"""Ideals, quotients, and atomicity for pseudo MV-algebras.

An ideal is a nonempty downward-closed ⊕-closed subset.  Normality is the
symmetric condition x ⊙ y⁻ ∈ I ⟺ y∼ ⊙ x ∈ I; normal ideals are exactly
the congruence kernels, so they support quotients x/I with the relation
x ≈ y ⟺ x ⊙ y⁻, y ⊙ x⁻ ∈ I.  Primality is checked through
x ⊙ y⁻ ∈ I or y ⊙ x⁻ ∈ I; a Boolean ideal contains every x ∧ x∼.

A square root descends along a normal ideal to the quotient, and a normal
ideal is invariant under the root exactly when it is Boolean.  An algebra
is representable when every polar a⊥ = {x : x ∧ a = 0} is a normal ideal.
Strong atomlessness is probed through the pointwise criterion: every
nonzero x admits 0 < y < x with y ∧ (x ⊙ y⁻) ≠ 0; on group intervals with
a strict root the canonical witness y = r(x⁻)∼ realizes the value x/2.

In a finite algebra satisfying A1–A8 every ideal I is ↓e = {x : x ≤ e}
for exactly one idempotent e, so ``enumerate_ideals`` reads the ideals off
``boolean_skeleton``.  Proof: the ⊕ of all members of I lies in I and
bounds each one, so it is the maximum e of I, I = ↓e, and e ⊕ e ∈ I gives
e ⊕ e = e; conversely x, y ≤ e gives x ⊕ y ≤ e ⊕ e = e.  On other tables
``boolean_skeleton`` raises when the idempotents are not a subalgebra, and
other axiom failures go unnoticed, so callers check A1–A8 first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .core import AlgebraError, CheckResult, Domains, PseudoMV, run_rows
from .finite import FinitePMV, FiniteTable
from .roots import SquareRootMap, table_map, verify

__all__ = [
    "IdealHandle",
    "NotAnIdeal",
    "QuotientResult",
    "classify_ideal",
    "enumerate_ideals",
    "quotient",
    "is_r_invariant",
    "is_representable",
    "atoms",
    "strongly_atomless_witness",
    "strongly_atomless_scan",
    "IDEAL_CEILING",
]

IDEAL_CEILING = 12


class NotAnIdeal(AlgebraError):
    """The subset violates an ideal axiom; carries the failing pair."""

    def __init__(self, reason: str, witness: Any = None):
        self.witness = witness
        super().__init__(reason)


@dataclass(frozen=True)
class IdealHandle:
    """A verified ideal with recomputed flags (never trusted from input);
    test membership with ``x in handle.members``.  Under A1–A8 the members
    are ↓e for their maximum e, an idempotent (see the module docstring)."""

    algebra: FinitePMV
    members: frozenset
    is_normal: bool
    is_prime: bool
    is_boolean_ideal: bool
    is_proper: bool


def _check_ideal(algebra: FinitePMV, members: frozenset) -> None:
    """Raise :class:`NotAnIdeal`, with a witness, unless ``members`` is an ideal."""
    if not members:
        raise NotAnIdeal("an ideal is nonempty")
    for s in members:
        if not algebra.contains(s):
            raise NotAnIdeal(f"{s!r} is not a carrier element", s)
    elems = list(algebra.elements())
    for s in members:
        for y in elems:
            if algebra.leq(y, s) and y not in members:
                raise NotAnIdeal("not downward closed", (y, s))
    for a in members:
        for b in members:
            if algebra.oplus(a, b) not in members:
                raise NotAnIdeal("not closed under ⊕", (a, b))


def _is_normal(algebra: FinitePMV, members: frozenset, elems: list) -> bool:
    return all(
        (algebra.odot(x, algebra.neg(y)) in members)
        == (algebra.odot(algebra.tilde(y), x) in members)
        for x in elems for y in elems
    )


def _handle(algebra: FinitePMV, members: frozenset) -> IdealHandle:
    """The handle of an ideal known to be one, with its flags computed."""
    elems = list(algebra.elements())
    return IdealHandle(
        algebra=algebra,
        members=members,
        is_normal=_is_normal(algebra, members, elems),
        is_prime=all(
            algebra.odot(x, algebra.neg(y)) in members
            or algebra.odot(y, algebra.neg(x)) in members
            for x in elems for y in elems
        ),
        is_boolean_ideal=all(algebra.meet(x, algebra.tilde(x)) in members for x in elems),
        is_proper=len(members) < algebra.size,
    )


def classify_ideal(algebra: FinitePMV, subset) -> IdealHandle:
    """Verify the ideal axioms and compute the normal / prime / Boolean
    flags for a subset of a finite carrier."""
    members = frozenset(subset)
    _check_ideal(algebra, members)
    return _handle(algebra, members)


def enumerate_ideals(algebra: FinitePMV) -> list[IdealHandle]:
    """All ideals of a small finite algebra satisfying A1–A8: ↓e for each
    idempotent e, in the order of ``boolean_skeleton``."""
    if algebra.size > IDEAL_CEILING:
        raise ValueError(f"ideal enumeration ceiling is {IDEAL_CEILING} elements")
    elems = list(algebra.elements())
    return [_handle(algebra, frozenset(x for x in elems if algebra.leq(x, e)))
            for e in algebra.boolean_skeleton()]


@dataclass
class QuotientResult:
    algebra: FinitePMV
    root: SquareRootMap | None
    checks: dict = field(default_factory=dict)


def quotient(algebra: FinitePMV, ideal: IdealHandle,
             root: SquareRootMap | None = None) -> QuotientResult:
    """The quotient by a normal ideal, with the induced root when one is
    supplied.

    The induced root r(x)/I is checked to be well defined (equivalent
    inputs give equivalent outputs) and re-verified on the quotient.
    """
    if not ideal.is_normal:
        raise AlgebraError("quotients need a normal ideal")
    elems = list(algebra.elements())

    def equivalent(x, y):
        return (algebra.odot(x, algebra.neg(y)) in ideal.members
                and algebra.odot(y, algebra.neg(x)) in ideal.members)

    reps: list[int] = []
    proj: list[int] = []
    for x in elems:
        for ci, rep in enumerate(reps):
            if equivalent(x, rep):
                proj.append(ci)
                break
        else:
            proj.append(len(reps))
            reps.append(x)

    m = len(reps)
    table = FiniteTable(
        n=m,
        oplus=tuple(tuple(proj[algebra.oplus(a, b)] for b in reps) for a in reps),
        neg=tuple(proj[algebra.neg(a)] for a in reps),
        tilde=tuple(proj[algebra.tilde(a)] for a in reps),
        zero=proj[algebra.zero],
        one=proj[algebra.one],
    )
    labels = tuple(tuple(sorted(x for x in elems if proj[x] == ci)) for ci in range(m))
    quot = FinitePMV(table, labels=labels, sampler=algebra.sampler,
                     name=f"{algebra.name}/I").validated()

    checks: dict[str, CheckResult] = {}
    induced = None
    if root is not None:
        congruent = Domains(algebra)
        congruent.pairs = [(x, y) for x in elems for y in elems if equivalent(x, y)]
        checks.update(run_rows(
            (("congruence", "pairs", lambda d, x, y: equivalent(root(x), root(y))),), congruent))
        induced = table_map(quot, {proj[x]: proj[root(x)] for x in elems})
        report = verify(quot, induced)
        checks["square"] = report.square
        checks["maximality"] = report.maximality
        checks["negation_compat"] = report.negation_compat
    return QuotientResult(quot, induced, checks)


def is_r_invariant(algebra: FinitePMV, ideal: IdealHandle, root: SquareRootMap) -> bool:
    """Whether r maps the ideal into itself.

    For normal ideals this must agree with the Boolean-ideal flag; a
    disagreement marks the map as not a square root (or a table bug) and
    raises.
    """
    invariant = all(root(x) in ideal.members for x in ideal.members)
    if ideal.is_normal and invariant != ideal.is_boolean_ideal:
        raise AlgebraError(
            "invariance under the root disagrees with the Boolean-ideal flag")
    return invariant


def is_representable(algebra: FinitePMV) -> bool:
    """Every polar a⊥ = {x : x ∧ a = 0} must be a normal ideal; each
    distinct polar is checked once."""
    elems = list(algebra.elements())
    zero = algebra.zero
    polars = {frozenset(x for x in elems if algebra.eq(algebra.meet(x, a), zero))
              for a in elems}
    for polar in polars:
        try:
            _check_ideal(algebra, polar)
        except NotAnIdeal:
            return False
    return all(_is_normal(algebra, polar, elems) for polar in polars)


def atoms(algebra: FinitePMV) -> list:
    """Elements covering 0."""
    elems = list(algebra.elements())
    zero = algebra.zero
    out = []
    for x in elems:
        if algebra.eq(x, zero):
            continue
        if not any(algebra.lt(zero, y) and algebra.lt(y, x) for y in elems):
            out.append(x)
    return out


def strongly_atomless_witness(algebra: PseudoMV, x: Any,
                              budget: int | None = None,
                              root: SquareRootMap | None = None,
                              seed: int | None = None) -> tuple | None:
    """Find y with 0 < y < x and y ∧ (x ⊙ y⁻) ≠ 0, or None.

    Enumerable carriers are searched exhaustively.  Otherwise the
    canonical candidate y = r(x⁻)∼ from a strict root is tried first
    (its value is x/2), then seeded samples meet-projected below x.
    """
    if algebra.eq(x, algebra.zero):
        raise ValueError("the witness search needs a nonzero element")
    zero = algebra.zero

    def value_at(y):
        return algebra.meet(y, algebra.odot(x, algebra.neg(y)))

    def good(y):
        return (algebra.lt(zero, y) and algebra.lt(y, x)
                and not algebra.eq(value_at(y), zero))

    if algebra.enumerable:
        for y in algebra.elements():
            if good(y):
                return y, value_at(y)
        return None

    if root is not None:
        y = algebra.tilde(root(algebra.neg(x)))
        if good(y):
            return y, value_at(y)
    domains = Domains(algebra, budget, seed)
    rng = domains.rng("atomless")
    for _ in range(domains.budget):
        y = algebra.meet(algebra.sample(rng), x)
        if good(y):
            return y, value_at(y)
    return None


def strongly_atomless_scan(algebra: PseudoMV, budget: int | None = None,
                           root: SquareRootMap | None = None,
                           seed: int | None = None) -> dict:
    """Summarize witness existence over the probed nonzero elements.

    The pointwise criterion characterizes strong atomlessness only on
    representable algebras; finite non-representable carriers report
    ``criterion-inapplicable`` instead of guessing.
    """
    if isinstance(algebra, FinitePMV) and not is_representable(algebra):
        return {"status": "criterion-inapplicable"}
    domains = Domains(algebra, budget, seed, elements="atomless-scan")
    domains.elems = [x for x in domains.elems if not algebra.eq(x, algebra.zero)]
    res = run_rows((("witnessed", "elements", lambda d, x: strongly_atomless_witness(
        algebra, x, budget=64, root=root, seed=seed) is not None),), domains)["witnessed"]
    return {"status": "witnessed" if res.passed else "counterexample",
            "probed": res.checked, "missing": [x for x, in res.witnesses]}
