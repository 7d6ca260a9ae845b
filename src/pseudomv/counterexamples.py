"""Two numeric algebras whose weak square roots are not square roots.

Both live on intervals of float-backed semidirect products of the real
line and are totally ordered but not symmetric, so they can carry weak
square roots while provably having no square root.

* The scaling-action algebra: the positive reals (multiplication) acting
  on ℝ by g ↦ hg, unit (2, 0).  The map
  r(h, g) = (√(2h), 2g/(√(2h)+2)) is a strict weak square root that
  coincides with ((x − u)/2) + u, differs from both variants of
  (x + u)/2, and fails negation compatibility — e.g. at (h, g) = (1, 1)
  the two sides of r(x⁻) = r(x) → r(0) split by ≈ 0.0858 in the second
  coordinate.

* The exponential-action algebra: ℝ acting on ℝ by y ↦ e^x y, unit
  (1, 0), with r(x, y) = ((x+1)/2, y/(e^{(x−1)/2}+1)).  The coordinate
  change (h, g) ↦ (ln h, g) identifies the scaling-action group with this
  one (unit (ln 2, 0)) and intertwines the two roots.

Every check here runs at an absolute tolerance (default 1e-9) on grid
points over h ∈ [1, 2], g ∈ [−1, 1] plus seeded random samples, so both
the clamped and unclamped branches of ⊙ are exercised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from .core import CheckResult, Domains, make_rng, run_rows
from .lgroups import ExpSemidirect, GammaPMV, ScalingSemidirect, gamma
from .roots import SquareRootMap, SquareRootReport, closed_form, custom_map, verify

__all__ = [
    "NumericWitness",
    "ScalingActionReport",
    "ExpActionReport",
    "scaling_action_algebra",
    "scaling_action_verdicts",
    "exp_action_algebra",
    "exp_action_verdicts",
    "NEGATION_GAP_AT_UNIT_POINT",
    "COUNTEREXAMPLE_UNITS",
]

#: The float groups and units the algebras here are built on: the scaling
#: action's (2, 0), the exponential action's (1, 0), and the scaling unit
#: relabelled into the exponential group, (ln 2, 0).
COUNTEREXAMPLE_UNITS = {
    "scaling": (ScalingSemidirect, (2.0, 0.0)),
    "exp": (ExpSemidirect, (1.0, 0.0)),
    "relabeled": (ExpSemidirect, (math.log(2.0), 0.0)),
}


def _algebra(name: str, tolerance: float) -> GammaPMV:
    make, unit = COUNTEREXAMPLE_UNITS[name]
    return gamma(make(tolerance), unit)


@dataclass(frozen=True)
class NumericWitness:
    """One evaluated instance of an (in)equality: both sides and their gap."""

    point: Any
    lhs: Any
    rhs: Any
    gap: float
    tolerance: float

    @property
    def violates(self) -> bool:
        return self.gap > self.tolerance


def _pair_gap(a: tuple, b: tuple) -> float:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


# ----------------------------------------------------------------------
# the scaling-action algebra
# ----------------------------------------------------------------------

def scaling_action_algebra(tolerance: float = 1e-9) -> tuple[GammaPMV, SquareRootMap]:
    """The interval [ (1,0), (2,0) ] of the scaling semidirect product,
    with the explicit weak root r(h, g) = (√(2h), 2g/(√(2h)+2))."""
    algebra = _algebra("scaling", tolerance)

    def root_formula(x):
        h, g = x
        s = math.sqrt(2.0 * h)
        return (s, 2.0 * g / (s + 2.0))

    return algebra, custom_map(algebra, root_formula)


def _root_of_negation(h: float, g: float) -> tuple[float, float]:
    # displayed closed form for r((h,g)⁻)
    s = math.sqrt(h)
    return (2.0 / s, -g / (s + h))


def _arrow_to_r0(h: float, g: float) -> tuple[float, float]:
    # displayed closed form for r(h,g)⁻ ⊕ r(1,0), before the ∧(2,0) clamp
    s = math.sqrt(h)
    return (2.0 / s, -math.sqrt(2.0) * g / (h + math.sqrt(2.0 * h)))


#: |−1/2 − (−√2/(1+√2))|, the second-coordinate gap at (h, g) = (1, 1)
NEGATION_GAP_AT_UNIT_POINT = abs(-0.5 + math.sqrt(2.0) / (1.0 + math.sqrt(2.0)))


#: Grid lines per coordinate of the probe points.
_GRID = 9


def _probe_points(algebra: GammaPMV, budget: int, seed: int) -> Domains:
    """The :data:`_GRID` × :data:`_GRID` grid points of [0, u] plus seeded
    samples up to ``budget``, as the elements of a :class:`Domains`."""
    domains = Domains(algebra)
    domains.elems = pts = []
    for i in range(_GRID):
        for j in range(_GRID):
            lo = algebra.zero[0]
            hi = algebra.one[0]
            h = lo + (hi - lo) * i / (_GRID - 1)
            g = -1.0 + 2.0 * j / (_GRID - 1)
            p = (h, g)
            if algebra.contains(p):
                pts.append(p)
    rng = make_rng(seed, "counterexample-grid", algebra.group.dsl)
    while len(pts) < budget:
        pts.append(algebra.sample(rng))
    return domains


def _within(tolerance: float, lhs: Callable, rhs: Callable) -> Callable:
    """A row predicate: lhs(p) and rhs(p) agree coordinatewise within ``tolerance``."""
    return lambda d, p: _pair_gap(lhs(p), rhs(p)) <= tolerance


@dataclass
class ScalingActionReport:
    report: SquareRootReport
    gap_witness: NumericWitness
    gap_witness_algebraic: NumericWitness
    standard_witness: NumericWitness
    weak_form_agreement: CheckResult
    sym_form_differs: list[NumericWitness]
    symmetry: CheckResult
    r0_is_half_unit: bool


def scaling_action_verdicts(budget: int = 2000, seed: int = 0,
                            tolerance: float = 1e-9) -> ScalingActionReport:
    """Full verdict suite: the map is a strict weak square root of the
    ((x − u)/2) + u shape, is not standard, respects neither negation, and
    the algebra is not symmetric."""
    algebra, root = scaling_action_algebra(tolerance)
    points = _probe_points(algebra, budget, seed)

    report = verify(algebra, root, budget=budget, seed=seed)

    # the documented violation at (h, g) = (1, 1), from the two displayed
    # formulas (independent of the algebra code paths)
    lhs = _root_of_negation(1.0, 1.0)
    rhs = _arrow_to_r0(1.0, 1.0)
    gap_witness = NumericWitness((1.0, 1.0), lhs, rhs, abs(lhs[1] - rhs[1]), tolerance)

    # same instance through the algebra operations
    x = (1.0, 1.0)
    lhs_alg = root(algebra.neg(x))
    rhs_alg = algebra.arrow(root(x), root(algebra.zero))
    gap_witness_algebraic = NumericWitness(
        x, lhs_alg, rhs_alg, abs(lhs_alg[1] - rhs_alg[1]), tolerance)

    r0 = root(algebra.zero)
    left = algebra.odot(root(x), r0)
    right = algebra.odot(r0, root(x))
    standard_witness = NumericWitness(x, left, right, _pair_gap(left, right), tolerance)

    weak = closed_form(algebra, "weak")
    agreement = run_rows((("matches_weak_form", "elements", _within(tolerance, root, weak)),),
                         points)["matches_weak_form"]

    group, unit = algebra.group, algebra.unit
    sym_differs = []
    for variant in ("x+u", "u+x"):
        worst = None
        for p in points.elems:
            summed = group.add(p, unit) if variant == "x+u" else group.add(unit, p)
            cand = group.halve(summed)
            w = NumericWitness(p, root(p), cand, _pair_gap(root(p), cand), tolerance)
            if worst is None or w.gap > worst.gap:
                worst = w
        sym_differs.append(worst)

    symmetry = algebra.symmetry_check(budget=budget, seed=seed)
    half_unit = group.halve(unit)
    r0_ok = _pair_gap(r0, half_unit) <= tolerance

    return ScalingActionReport(
        report=report,
        gap_witness=gap_witness,
        gap_witness_algebraic=gap_witness_algebraic,
        standard_witness=standard_witness,
        weak_form_agreement=agreement,
        sym_form_differs=sym_differs,
        symmetry=symmetry,
        r0_is_half_unit=r0_ok,
    )


# ----------------------------------------------------------------------
# the exponential-action algebra
# ----------------------------------------------------------------------

def exp_action_algebra(tolerance: float = 1e-9) -> tuple[GammaPMV, SquareRootMap, Callable]:
    """The interval [ (0,0), (1,0) ] of the exponential-action group with
    r(x, y) = ((x+1)/2, y/(e^{(x−1)/2}+1)), and the coordinate change
    ψ(h, g) = (ln h, g) from the scaling-action presentation."""
    algebra = _algebra("exp", tolerance)

    def root_formula(p):
        x, y = p
        return ((x + 1.0) / 2.0, y / (math.exp((x - 1.0) / 2.0) + 1.0))

    def psi(p):
        h, g = p
        return (math.log(h), g)

    return algebra, custom_map(algebra, root_formula), psi


@dataclass
class ExpActionReport:
    report: SquareRootReport
    negation_formula: CheckResult
    weak_form_agreement: CheckResult
    intertwine: CheckResult
    symmetry: CheckResult
    r0_is_half_unit: bool


def exp_action_verdicts(budget: int = 2000, seed: int = 0,
                        tolerance: float = 1e-9) -> ExpActionReport:
    """Verdicts for the exponential-action algebra, including the
    coordinate-change intertwining with the scaling-action root."""
    algebra, root, psi = exp_action_algebra(tolerance)
    report = verify(algebra, root, budget=budget, seed=seed)

    weak = closed_form(algebra, "weak")
    checks = run_rows((
        ("negation_formula", "elements", _within(
            tolerance, algebra.neg, lambda p: (1.0 - p[0], -math.exp(-p[0]) * p[1]))),
        ("matches_weak_form", "elements", _within(tolerance, root, weak)),
    ), _probe_points(algebra, budget, seed))

    scaling, scaling_root = scaling_action_algebra(tolerance)
    relabeled = _algebra("relabeled", tolerance)
    relabeled_root = closed_form(relabeled, "weak")
    intertwine = run_rows((
        ("intertwine", "elements", _within(
            tolerance, lambda p: psi(scaling_root(p)), lambda p: relabeled_root(psi(p)))),
        ("intertwine", "one", lambda d, one: relabeled.contains(psi(one))),
    ), _probe_points(scaling, budget, seed))["intertwine"]

    symmetry = algebra.symmetry_check(budget=budget, seed=seed)
    r0 = root(algebra.zero)
    half_unit = algebra.group.halve(algebra.unit)
    r0_ok = _pair_gap(r0, half_unit) <= tolerance

    return ExpActionReport(
        report=report,
        negation_formula=checks["negation_formula"],
        weak_form_agreement=checks["matches_weak_form"],
        intertwine=intertwine,
        symmetry=symmetry,
        r0_is_half_unit=r0_ok,
    )
