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
The criterion holds only on representable algebras; finite ones all are.

A finite algebra satisfying A1–A8 is an MV-algebra, which settles
normality and representability.  It is Archimedean, so the ℓ-group G of
its representation Γ(G, u) is Archimedean (Dvurečenskij, *Pseudo
MV-algebras are intervals in ℓ-groups*, J. Aust. Math. Soc. 2002), hence
abelian (Birkhoff–Iwasawa).  So x⁻ = x∼ and ⊙ commutes: y∼ ⊙ x = x ⊙ y⁻,
the two sides of normality coincide, and every ideal is normal.  A finite
MV-algebra is a product of finite chains (Chang), so it is representable.
``classify_ideal``, ``enumerate_ideals``, ``quotient`` and
``is_representable`` first read ``FinitePMV.commutative`` (x⁻ = x∼ and
x ⊕ y = y ⊕ x, n² + n comparisons once per algebra, no ⊙) and raise on a
table that fails it, which fails A1–A8 too.

Every ideal I is then ↓e = {x : x ≤ e} for exactly one idempotent e, so
``enumerate_ideals`` reads the ideals off ``boolean_skeleton``.  Proof:
the ⊕ of all members of I lies in I and bounds each one, so it is the
maximum e of I, I = ↓e, and e ⊕ e ∈ I gives e ⊕ e = e; conversely
x, y ≤ e gives x ⊕ y ≤ e ⊕ e = e.  Other axiom failures go unnoticed, so
callers check A1–A8 first.  The prime flag and ``quotient``'s relation
read one table, x ⊙ y⁻, built once per call with n² ⊙ lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .core import AlgebraError, BackendMismatch, CheckResult, Domains, PseudoMV, run_rows
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
    are ↓e for their maximum e, an idempotent, and ``is_normal`` is True:
    every ideal of a finite algebra is normal (see the module docstring)."""

    members: frozenset
    is_normal: bool
    is_prime: bool
    is_boolean_ideal: bool
    is_proper: bool


def _check_commutative(algebra: FinitePMV) -> None:
    """Raise unless x⁻ = x∼ and x ⊕ y = y ⊕ x, as A1–A8 imply on a finite table."""
    if not algebra.commutative:
        raise AlgebraError(f"the table of {algebra.name} is not commutative, so it fails A1–A8")


def _differences(algebra: FinitePMV) -> list:
    """The table left[x][y] = x ⊙ y⁻ (n² ⊙), indexed by element value:
    ``FinitePMV.elements()`` is range(n)."""
    xs = range(algebra.size)
    return [[algebra.odot(x, algebra.neg(y)) for y in xs] for x in xs]


def _handle(algebra: FinitePMV, members: frozenset, left: list) -> IdealHandle:
    """The handle of an ideal known to be one, with its flags computed."""
    xs = range(algebra.size)
    return IdealHandle(
        members=members,
        is_normal=True,
        is_prime=all(left[x][y] in members or left[y][x] in members for x in xs for y in xs),
        is_boolean_ideal=all(algebra.meet(x, algebra.tilde(x)) in members for x in xs),
        is_proper=len(members) < algebra.size,
    )


def classify_ideal(algebra: FinitePMV, subset) -> IdealHandle:
    """Verify the ideal axioms, raising :class:`NotAnIdeal` with a witness,
    and compute the normal / prime / Boolean flags for a subset of a finite
    carrier."""
    _check_commutative(algebra)
    members = frozenset(subset)
    if not members:
        raise NotAnIdeal("an ideal is nonempty")
    for s in members:
        if not algebra.contains(s):
            raise NotAnIdeal(f"{s!r:.20} is not a carrier element", s)
    elems = list(algebra.elements())
    for s in members:
        for y in elems:
            if algebra.leq(y, s) and y not in members:
                raise NotAnIdeal("not downward closed", (y, s))
    for a in members:
        for b in members:
            if algebra.oplus(a, b) not in members:
                raise NotAnIdeal("not closed under ⊕", (a, b))
    return _handle(algebra, members, _differences(algebra))


def enumerate_ideals(algebra: FinitePMV) -> list[IdealHandle]:
    """All ideals of a small finite algebra satisfying A1–A8: ↓e for each
    idempotent e, in the order of ``boolean_skeleton``."""
    _check_commutative(algebra)
    left = _differences(algebra)
    elems = list(algebra.elements())
    return [_handle(algebra, frozenset(x for x in elems if algebra.leq(x, e)), left)
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
    _check_commutative(algebra)
    if not ideal.is_normal:
        raise AlgebraError("quotients need a normal ideal")
    elems = list(algebra.elements())
    left = _differences(algebra)

    def equivalent(x, y):
        return left[x][y] in ideal.members and left[y][x] in ideal.members

    # ≈ is a congruence for a normal ideal: each class is named by its least member
    least = [next(y for y in elems if equivalent(x, y)) for x in elems]
    reps = sorted(set(least))
    proj = [reps.index(r) for r in least]

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
        image = [root(x) for x in elems]
        if not all(algebra.contains(v) for v in image):
            raise BackendMismatch("the root leaves the carrier")
        congruent = Domains(algebra)
        congruent.pairs = [(x, y) for x in elems for y in elems if equivalent(x, y)]
        checks.update(run_rows(
            (("congruence", "pairs", lambda d, x, y: equivalent(image[x], image[y])),), congruent))
        induced = table_map(quot, {proj[x]: proj[image[x]] for x in elems})
        report = verify(quot, induced)
        checks["square"] = report.square
        checks["maximality"] = report.maximality
        checks["negation_compat"] = report.negation_compat
    return QuotientResult(quot, induced, checks)


def is_r_invariant(ideal: IdealHandle, root: SquareRootMap) -> bool:
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
    """Whether every polar a⊥ = {x : x ∧ a = 0} is a normal ideal: always,
    for a finite MV-algebra is a product of chains, and A1–A8 make a finite
    table one (see the module docstring).  A noncommutative table raises."""
    _check_commutative(algebra)
    return True


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
    representable algebras, which every finite one is (``is_representable``).
    """
    domains = Domains(algebra, budget, seed, elements="atomless-scan")
    domains.elems = [x for x in domains.elems if not algebra.eq(x, algebra.zero)]
    res = run_rows((("witnessed", "elements", lambda d, x: strongly_atomless_witness(
        algebra, x, budget=64, root=root, seed=seed) is not None),), domains)["witnessed"]
    return {"status": "witnessed" if res.passed else "counterexample",
            "probed": res.checked, "missing": [x for x, in res.witnesses]}
