"""Square roots on pseudo MV-algebras.

A map r : M → M is a *weak square root* when r(x) ⊙ r(x) = x (the square
law) and y ⊙ y ≤ x implies y ≤ r(x) (maximality).  It is a *square root*
when it is additionally compatible with both negations,
r(x⁻) = r(x) → r(0) and r(x∼) = r(x) ⇝ r(0), and *standard* when
r(x) ⊙ r(0) = r(0) ⊙ r(x).  A root is *strict* when r(0) = r(0)⁻.

The idempotent r(0)⁻ ⊙ r(0)⁻ governs a trichotomy: it is 1 exactly on
Boolean algebras (where r is the identity), 0 exactly on strict algebras,
and otherwise splits the algebra into a Boolean × strict direct product
along x ↦ (x ∧ u, x ∧ u⁻).

On group intervals Γ(G, u) with computable halving the roots have closed
forms: (x + u)/2 when u/2 is central, and ((x − u)/2) + u in general (a
weak root that need not respect the negations).  Closed-form evaluation
never falls back to brute force; selection is explicit in the API.

The property and variety suites are tables of rows (item, needs negation
compatibility, domain, predicate): items, order and gating come from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .core import (
    AlgebraError,
    CheckResult,
    IntervalPMV,
    ProductPMV,
    PseudoMV,
    UNDEFINED,
    UnsupportedBackend,
    make_rng,
)
from .finite import FinitePMV, brute_force_weak_sqrt
from .lgroups import GammaPMV, in_center

__all__ = [
    "SquareRootMap",
    "SquareRootReport",
    "Decomposition",
    "InducedInterval",
    "HalvingUnavailable",
    "NotCentral",
    "LadderError",
    "identity_map",
    "table_map",
    "product_map",
    "relative_map",
    "custom_map",
    "closed_form",
    "detect_square_root",
    "verify",
    "is_strict",
    "boolean_witness",
    "decompose",
    "induced_interval_algebra",
    "iterate",
    "odot_power",
    "power_check",
    "dyadic_ladder",
    "variety_identities",
    "square_root_properties",
    "PROPERTY_ITEMS",
    "WEAK_SAFE_ITEMS",
    "SKIPPED",
]


class HalvingUnavailable(AlgebraError):
    """The backing group cannot halve the elements a closed form needs."""


class NotCentral(AlgebraError):
    """The symmetric closed form needs u/2 in the group center."""


class LadderError(AlgebraError):
    """Halving-ladder construction left the interval or lost cyclicity."""


class SquareRootMap:
    """An evaluable candidate (weak) square root bound to an algebra.

    ``kind`` is one of: identity, table, closed-form-sym, closed-form-weak,
    mixed, product, relative, custom-numeric.
    """

    def __init__(self, algebra: PseudoMV, kind: str, fn: Callable[[Any], Any],
                 data: Any = None):
        self.algebra = algebra
        self.kind = kind
        self._fn = fn
        self.data = data

    def __call__(self, x: Any) -> Any:
        return self._fn(x)

    def __repr__(self) -> str:
        return f"<SquareRootMap {self.kind}>"


def identity_map(algebra: PseudoMV) -> SquareRootMap:
    return SquareRootMap(algebra, "identity", lambda x: x)


def table_map(algebra: FinitePMV, mapping: dict) -> SquareRootMap:
    table = dict(mapping)
    return SquareRootMap(algebra, "table", lambda x: table[x], data=table)


def product_map(algebra: ProductPMV, left: SquareRootMap, right: SquareRootMap) -> SquareRootMap:
    return SquareRootMap(algebra, "product",
                         lambda x: (left(x[0]), right(x[1])), data=(left, right))


def relative_map(root: SquareRootMap, top: Any, sub: IntervalPMV) -> SquareRootMap:
    """The induced root x ↦ r(x) ⊙ a on the interval [0, a] below an
    idempotent a."""
    parent = root.algebra
    return SquareRootMap(sub, "relative",
                         lambda x: parent.odot(root(x), top), data=top)


def custom_map(algebra: PseudoMV, fn: Callable[[Any], Any], data: Any = None) -> SquareRootMap:
    return SquareRootMap(algebra, "custom-numeric", fn, data=data)


def closed_form(algebra: GammaPMV, variant: str, witness: Any = None) -> SquareRootMap:
    """Group-arithmetic closed forms on Γ(G, u).

    * ``"sym"``  — r(x) = (x + u)/2; needs halving and u/2 central.
    * ``"weak"`` — r(x) = ((x − u)/2) + u; needs halving only.
    * ``"mixed"``— r(x) = (x ∧ w) ∨ ((x ∧ w⁻) + w⁻)/2 for an idempotent w.

    Results stay inside [0, u]; nothing is clamped.
    """
    if not isinstance(algebra, GammaPMV):
        raise UnsupportedBackend("closed forms need a group-interval backend")
    group, unit = algebra.group, algebra.unit
    half_unit = group.halve(unit)
    if half_unit is None:
        raise HalvingUnavailable(f"{group.dsl} cannot halve the unit")

    def halve_or_raise(g):
        h = group.halve(g)
        if h is None:
            raise HalvingUnavailable(f"{group.dsl} cannot halve {group.format_element(g)}")
        return h

    if variant == "sym":
        if not in_center(group, half_unit):
            raise NotCentral(f"u/2 = {group.format_element(half_unit)} is not central in {group.dsl}")
        return SquareRootMap(
            algebra, "closed-form-sym",
            lambda x: halve_or_raise(group.add(x, unit)))
    if variant == "weak":
        return SquareRootMap(
            algebra, "closed-form-weak",
            lambda x: group.add(halve_or_raise(group.sub(x, unit)), unit))
    if variant == "mixed":
        if witness is None or not algebra.is_boolean_element(witness):
            raise AlgebraError("mixed form needs an idempotent witness")
        neg_w = algebra.neg(witness)

        def mixed(x):
            boolean_part = algebra.meet(x, witness)
            strict_part = halve_or_raise(group.add(algebra.meet(x, neg_w), neg_w))
            return algebra.join(boolean_part, strict_part)

        return SquareRootMap(algebra, "mixed", mixed, data=witness)
    raise ValueError(f"unknown closed form variant {variant!r}")


def _evaluable_everywhere(algebra: PseudoMV, root: SquareRootMap, probes: int = 16) -> bool:
    """Closed forms can construct but still hit unhalvable points (整-valued
    carriers with an even unit); probe before trusting the map."""
    points = algebra.probe(budget=probes, seed=algebra.sampler.seed, label="root-probe")
    try:
        for x in points[:probes]:
            root(x)
    except HalvingUnavailable:
        return False
    return True


def detect_square_root(algebra: PseudoMV) -> tuple[SquareRootMap | None, str]:
    """Best-effort root construction: brute force on tables, closed forms
    on group intervals.  Returns (map or None, how)."""
    if isinstance(algebra, FinitePMV):
        search = brute_force_weak_sqrt(algebra)
        if search.found:
            return table_map(algebra, search.mapping), "brute-force"
        return None, f"none ({search.verdict} at x={algebra.format_element(search.failing)})"
    if isinstance(algebra, GammaPMV):
        candidates = []
        try:
            candidates.append((closed_form(algebra, "sym"), "closed-form-sym"))
        except NotCentral:
            pass
        except HalvingUnavailable as exc:
            return None, f"none ({exc})"
        try:
            candidates.append((closed_form(algebra, "weak"), "closed-form-weak"))
        except HalvingUnavailable as exc:
            return None, f"none ({exc})"
        for root, how in candidates:
            if _evaluable_everywhere(algebra, root):
                return root, how
        return None, "none (halving misses probed points)"
    return None, "none (no detection rule for this backend)"


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------

@dataclass
class SquareRootReport:
    """Verdicts for the four defining laws plus the derived classification."""

    square: CheckResult
    maximality: CheckResult
    negation_compat: CheckResult
    standard: CheckResult
    strict: bool
    r0: Any
    witness_idempotent: Any | None
    classification: str
    residuum_cross: CheckResult | None = None

    @property
    def is_weak_square_root(self) -> bool:
        return self.square.passed and self.maximality.passed

    @property
    def is_square_root(self) -> bool:
        return self.is_weak_square_root and self.negation_compat.passed


def _pair_stream(algebra: PseudoMV, budget: int | None, seed: int | None, label: str):
    if algebra.enumerable:
        elems = list(algebra.elements())
        return [(x, y) for x in elems for y in elems]
    rng = make_rng(algebra.sampler.seed if seed is None else seed, label)
    n = algebra.sampler.sample_count if budget is None else budget
    return [(algebra.sample(rng), algebra.sample(rng)) for _ in range(n)]


def verify(algebra: PseudoMV, root: SquareRootMap, budget: int | None = None,
           seed: int | None = None) -> SquareRootReport:
    """Check the square law pointwise, maximality on (conditioned) pairs,
    negation compatibility through both defining equations plus the
    residuum cross-check r(x) ⊙ r(x⁻) ≤ r(0), and the standardness law."""
    eq, leq = algebra.eq, algebra.leq
    r0 = root(algebra.zero)
    elems = algebra.probe(budget, seed, "verify-elems")

    square = CheckResult("square")
    for x in elems:
        rx = root(x)
        square.count(eq(algebra.odot(rx, rx), x), (x,))

    maximality = CheckResult("maximality")
    if algebra.enumerable:
        for y in elems:
            yy = algebra.odot(y, y)
            for x in elems:
                if leq(yy, x):
                    maximality.count(leq(y, root(x)), (y, x))
    else:
        rng = make_rng(algebra.sampler.seed if seed is None else seed, "verify-max")
        n = algebra.sampler.sample_count if budget is None else budget
        for _ in range(n):
            y = algebra.sample(rng)
            x = algebra.join(algebra.odot(y, y), algebra.sample(rng))
            maximality.count(leq(y, root(x)), (y, x))

    negation = CheckResult("negation-compat")
    cross = CheckResult("residuum-cross")
    for x in elems:
        rx = root(x)
        left_ok = eq(root(algebra.neg(x)), algebra.arrow(rx, r0))
        right_ok = eq(root(algebra.tilde(x)), algebra.snake(rx, r0))
        negation.count(left_ok and right_ok, (x,))
        # sound direction only: the arrow equation forces the residuum
        # bound (r(x) ⊙ r(x⁻) = r(x) ∧ r(0) ≤ r(0)); the converse rests on
        # the residuation bound, which noncommutative carriers violate
        residuum_ok = leq(algebra.odot(rx, root(algebra.neg(x))), r0)
        cross.count(residuum_ok if left_ok else True, (x,))

    standard = CheckResult("standard")
    for x in elems:
        rx = root(x)
        standard.count(eq(algebra.odot(rx, r0), algebra.odot(r0, rx)), (x,))

    strict = eq(r0, algebra.neg(r0))
    witness = None
    if negation.passed:
        candidate = algebra.odot(algebra.neg(r0), algebra.neg(r0))
        if algebra.is_boolean_element(candidate):
            witness = candidate

    if not (square.passed and maximality.passed):
        classification = "not-a-square-root"
    elif not negation.passed:
        classification = "weak-only"
    elif witness is None:
        classification = "not-a-square-root"
    elif eq(witness, algebra.one):
        classification = "boolean"
    elif eq(witness, algebra.zero):
        classification = "strict"
    else:
        classification = "product"

    return SquareRootReport(
        square=square,
        maximality=maximality,
        negation_compat=negation,
        standard=standard,
        strict=strict,
        r0=r0,
        witness_idempotent=witness,
        classification=classification,
        residuum_cross=cross if square.passed and maximality.passed else None,
    )


def is_strict(algebra: PseudoMV, root: SquareRootMap) -> bool:
    """r(0) = r(0)⁻, cross-checked against r(0) = r(0)∼."""
    r0 = root(algebra.zero)
    primary = algebra.eq(r0, algebra.neg(r0))
    secondary = algebra.eq(r0, algebra.tilde(r0))
    if primary != secondary:
        raise AlgebraError("strictness disagrees between the two negations")
    return primary


def boolean_witness(algebra: PseudoMV, root: SquareRootMap) -> Any:
    """The idempotent u = r(0)⁻ ⊙ r(0)⁻ with u ∨ r(0) = r(0)⁻ = r(0)∼.

    On enumerable carriers u is additionally checked to be the unique
    idempotent with that join property.
    """
    r0 = root(algebra.zero)
    u = algebra.odot(algebra.neg(r0), algebra.neg(r0))
    if not algebra.is_boolean_element(u):
        raise AlgebraError("r(0)⁻ ⊙ r(0)⁻ is not idempotent; the map is not a square root")
    nr0 = algebra.neg(r0)
    if not algebra.eq(algebra.join(u, r0), nr0):
        raise AlgebraError("witness fails the join characterization u ∨ r(0) = r(0)⁻")
    if not algebra.eq(nr0, algebra.tilde(r0)):
        raise AlgebraError("r(0)⁻ and r(0)∼ disagree; the map is not a square root")
    if algebra.enumerable:
        for v in algebra.boolean_skeleton():
            if algebra.eq(algebra.join(v, r0), nr0) and not algebra.eq(v, u):
                raise AlgebraError(f"witness idempotent is not unique: {v!r}")
    return u


# ----------------------------------------------------------------------
# decomposition and the image algebra
# ----------------------------------------------------------------------

@dataclass
class Decomposition:
    classification: str
    witness: Any
    boolean_part: PseudoMV | None = None
    strict_part: PseudoMV | None = None
    iso: Callable[[Any], tuple] | None = None
    checks: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks.values())


def _embedding_check(name: str, source: PseudoMV, target: PseudoMV,
                     f: Callable[[Any], Any], pairs) -> CheckResult:
    """f is an injective ⊕/⁻/∼/0/1 homomorphism from source into target, on
    the given pairs and at the bounds."""
    res = CheckResult(name)
    for x, y in pairs:
        fx, fy = f(x), f(y)
        res.count(target.eq(f(source.oplus(x, y)), target.oplus(fx, fy))
                  and target.eq(f(source.neg(x)), target.neg(fx))
                  and target.eq(f(source.tilde(x)), target.tilde(fx))
                  and not (target.eq(fx, fy) and not source.eq(x, y)), (x, y))
    res.count(target.eq(f(source.zero), target.zero), (source.zero,))
    res.count(target.eq(f(source.one), target.one), (source.one,))
    return res


def decompose(algebra: PseudoMV, root: SquareRootMap, budget: int | None = None,
              seed: int | None = None) -> Decomposition:
    """Split along the witness idempotent into Boolean × strict parts.

    Trivial witnesses (0 or 1) yield the bare classification.  A proper
    witness u yields the interval factors [0, u] and [0, u⁻] with their
    induced roots, and the map x ↦ (x ∧ u, x ∧ u⁻), which is verified to
    be a homomorphism on enumerated or sampled pairs.
    """
    u = boolean_witness(algebra, root)
    checks: dict[str, CheckResult] = {}
    elems = algebra.probe(budget, seed, "decompose-elems")

    if algebra.eq(u, algebra.one):
        res = CheckResult("all-idempotent")
        r0 = root(algebra.zero)
        res.count(algebra.eq(r0, algebra.zero), (algebra.zero,))
        for x in elems:
            res.count(algebra.is_boolean_element(x), (x,))
        checks["boolean"] = res
        return Decomposition("boolean", u, checks=checks)

    if algebra.eq(u, algebra.zero):
        res = CheckResult("strict")
        res.count(is_strict(algebra, root), (root(algebra.zero),))
        checks["strict"] = res
        return Decomposition("strict", u, checks=checks)

    v = algebra.neg(u)
    part_bool = IntervalPMV(algebra, u)
    part_strict = IntervalPMV(algebra, v)
    root_bool = relative_map(root, u, part_bool)
    root_strict = relative_map(root, v, part_strict)

    bool_check = CheckResult("boolean-part")
    bool_check.count(part_bool.eq(root_bool(part_bool.zero), part_bool.zero),
                     (part_bool.zero,))
    for x in elems:
        xb = part_bool.project(x)
        bool_check.count(part_bool.is_boolean_element(xb), (xb,))
    checks["boolean_part"] = bool_check

    strict_check = CheckResult("strict-part")
    s0 = root_strict(part_strict.zero)
    strict_check.count(part_strict.eq(s0, part_strict.neg(s0)), (s0,))
    for x in elems:
        xs = part_strict.project(x)
        rs = root_strict(xs)
        strict_check.count(part_strict.eq(part_strict.odot(rs, rs), xs), (xs,))
    checks["strict_part"] = strict_check

    def iso(x):
        return (algebra.meet(x, u), algebra.meet(x, v))

    checks["iso"] = _embedding_check(
        "iso-homomorphism", algebra, ProductPMV(part_bool, part_strict), iso,
        _pair_stream(algebra, budget, seed, "decompose-pairs"))

    return Decomposition("product", u, part_bool, part_strict, iso, checks)


class ImagePMV(PseudoMV):
    """The algebra induced on the image interval [r(0), 1]:
    r(x) ⊞ r(y) = r(x ⊕ y), with negations a ↦ a⁻ ⊕ r(0) and a ↦ a∼ ⊕ r(0).

    Since a = r(a ⊙ a) for a ≥ r(0), the sum is computed without inverting
    r explicitly.
    """

    backend = "image-interval"

    def __init__(self, parent: PseudoMV, root: SquareRootMap):
        super().__init__(parent.sampler, parent.tolerance)
        self.parent = parent
        self.root = root
        self._r0 = root(parent.zero)

    @property
    def zero(self):
        return self._r0

    @property
    def one(self):
        return self.parent.one

    def oplus(self, a, b):
        p = self.parent
        return self.root(p.oplus(p.odot(a, a), p.odot(b, b)))

    def neg(self, a):
        return self.parent.oplus(self.parent.neg(a), self._r0)

    def tilde(self, a):
        return self.parent.oplus(self.parent.tilde(a), self._r0)

    def eq(self, a, b):
        return self.parent.eq(a, b)

    def contains(self, a):
        return self.parent.contains(a) and self.parent.leq(self._r0, a)

    def sample(self, rng):
        return self.root(self.parent.sample(rng))

    @property
    def enumerable(self):
        return self.parent.enumerable

    def elements(self):
        return iter([self.root(x) for x in self.parent.elements()])

    @property
    def size(self):
        return self.parent.size

    def format_element(self, a):
        return self.parent.format_element(a)

    def describe(self):
        return {"backend": self.backend,
                "floor": self.parent.format_element(self._r0),
                "parent": self.parent.describe()}


@dataclass
class InducedInterval:
    algebra: ImagePMV
    to_image: SquareRootMap
    checks: dict

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks.values())


def induced_interval_algebra(algebra: PseudoMV, root: SquareRootMap,
                             budget: int | None = None,
                             seed: int | None = None) -> InducedInterval:
    """Build the image algebra on [r(0), 1] and verify that x ↦ r(x) is an
    isomorphism onto it and that every point above r(0) is in the image."""
    image = ImagePMV(algebra, root)
    checks: dict[str, CheckResult] = {}

    checks["isomorphism"] = _embedding_check(
        "image-isomorphism", algebra, image, root,
        _pair_stream(algebra, budget, seed, "image-pairs"))

    onto = CheckResult("image-covers-interval")
    r0 = image.zero
    for x in algebra.probe(budget, seed, "image-onto"):
        y = algebra.join(x, r0)
        onto.count(algebra.eq(root(algebra.odot(y, y)), y), (y,))
    checks["onto"] = onto

    axioms = image.check_axioms(budget, seed)
    for name, res in axioms.axioms.items():
        checks[f"axiom-{name}"] = res

    return InducedInterval(image, SquareRootMap(image, "custom-numeric", root), checks)


# ----------------------------------------------------------------------
# iterates, powers, the halving ladder
# ----------------------------------------------------------------------

MAX_LADDER_DEPTH = 20


def iterate(algebra: PseudoMV, root: SquareRootMap, x: Any, m: int) -> Any:
    if m < 0:
        raise ValueError("iterate count must be nonnegative")
    for _ in range(m):
        x = root(x)
    return x


def odot_power(algebra: PseudoMV, x: Any, two_exp: int) -> Any:
    """The 2ⁿ-fold ⊙-power by repeated squaring."""
    for _ in range(two_exp):
        x = algebra.odot(x, x)
    return x


def power_check(algebra: PseudoMV, root: SquareRootMap, x: Any, m: int, n: int) -> bool:
    """(rᵐ(x)) to the ⊙-power 2ⁿ equals r^(m−n)(x)."""
    if n > m:
        raise ValueError("power exponent must not exceed the iterate depth")
    lhs = odot_power(algebra, iterate(algebra, root, x, m), n)
    return algebra.eq(lhs, iterate(algebra, root, x, m - n))


def dyadic_ladder(algebra: GammaPMV, root: SquareRootMap, depth: int) -> list:
    """The elements u/2, u/4, ..., u/2^depth, built as r(u/2ᵏ) − u/2.

    Each rung is verified to be cyclic: its 2ᵏ-fold partial sum is defined
    at every step and lands on 1.  Requires a strict root on a
    group-interval backend; a rung escaping [0, u] raises LadderError.
    """
    if not isinstance(algebra, GammaPMV):
        raise UnsupportedBackend("the halving ladder needs a group-interval backend")
    if not 1 <= depth <= MAX_LADDER_DEPTH:
        raise ValueError(f"depth must be between 1 and {MAX_LADDER_DEPTH}")
    r0 = root(algebra.zero)
    if not algebra.eq(r0, algebra.neg(r0)):
        raise LadderError("root is not strict; the ladder needs r(0) = r(0)⁻")
    group = algebra.group
    rungs = [r0]
    for _ in range(depth - 1):
        nxt = group.add(root(rungs[-1]), group.neg(r0))
        if not algebra.contains(nxt):
            raise LadderError("ladder rung left the interval [0, u]")
        rungs.append(nxt)
    for k, a in enumerate(rungs, start=1):
        total = a
        for _ in range((1 << k) - 1):
            total = algebra.partial_add(total, a)
            if total is UNDEFINED:
                raise LadderError(f"partial sum of the 2^{k} rung became undefined")
        if not algebra.eq(total, algebra.one):
            raise LadderError(f"2^{k}-fold sum of rung {k} misses the top")
    return rungs


# ----------------------------------------------------------------------
# identity suites
# ----------------------------------------------------------------------

SKIPPED = "skipped"


def _negation_compatible(algebra: PseudoMV, root: Callable, r0, x, rx) -> bool:
    """r(x⁻) = r(x) → r(0) and r(x∼) = r(x) ⇝ r(0) at x, where rx = r(x)."""
    return (algebra.eq(root(algebra.neg(x)), algebra.arrow(rx, r0))
            and algebra.eq(root(algebra.tilde(x)), algebra.snake(rx, r0)))


class _Memo(dict):
    """x ↦ fn(x), evaluating each x once."""

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def __missing__(self, x):
        value = self[x] = self.fn(x)
        return value


class _Suite:
    """The algebra M, the root r (each value computed once), r0 = r(0) and the
    domains: the points a row's predicate is counted at, each also its witness."""

    def __init__(self, algebra: PseudoMV, root: SquareRootMap, budget: int | None,
                 seed: int | None, label: str):
        self.M = algebra
        self.r = SquareRootMap(root.algebra, root.kind, _Memo(root._fn).__getitem__, root.data)
        self.r0 = self.r(algebra.zero)
        self.elems = algebra.probe(budget, seed, f"{label}-elems")
        self.pairs = _pair_stream(algebra, budget, seed, f"{label}-pairs")
        self.one = [(algebra.one,)]
        self.at_r0 = [(self.r0,)]
        self._intervals: dict = {}

    @property
    def elements(self):
        return ((x,) for x in self.elems)

    @property
    def chains(self):
        return ((x, self.M.join(x, t)) for x, t in self.pairs)

    @property
    def idempotents_below_r0(self):
        M = self.M
        return [(a,) for a in M.boolean_skeleton() if M.leq(a, self.r0)] if M.enumerable else []

    @property
    def interval_points(self):
        """(a, x) for idempotents a and x in [0, a]: all on enumerable carriers,
        else a in {0, 1, r(0)⁻ ⊙ r(0)⁻} and x projected from a quarter of the
        elements.  Keeps [0, a] and its root for relative_root_holds."""
        M = self.M
        if M.enumerable:
            tops = M.boolean_skeleton()
        else:
            w = M.odot(M.neg(self.r0), M.neg(self.r0))
            tops = [M.zero, M.one] + ([w] if M.is_boolean_element(w) else [])
        quarter = self.elems[: max(1, len(self.elems) // 4)]
        for a in tops:
            sub = IntervalPMV(M, a)
            rel = relative_map(self.r, a, sub)
            self._intervals[a] = (sub, rel, rel(sub.zero))
            for x in sub.elements() if sub.enumerable else [sub.project(y) for y in quarter]:
                yield a, x

    def relative_root_holds(self, a: Any, x: Any) -> bool:
        sub, rel, rel0 = self._intervals[a]
        rx = rel(x)
        return sub.eq(sub.odot(rx, rx), x) and _negation_compatible(sub, rel, rel0, x, rx)


def _run(rows: tuple, s: _Suite, negation_compat: bool = True) -> dict:
    """Count each row's predicate over its domain into its item's result, in
    row order; without negation compatibility gated rows give SKIPPED."""
    out: dict[str, Any] = {}
    for item, gated, domain, holds in rows:
        if gated and not negation_compat:
            out[item] = SKIPPED
            continue
        res = out.setdefault(item, CheckResult(item))
        for point in getattr(s, domain):
            res.count(holds(s, *point), point)
    return out


# Rows are (item, needs negation compatibility, domain, predicate): predicate(suite,
# *point) is counted at each point of the _Suite attribute named by domain.
_VARIETY_ROWS = (
    ("square", False, "elements", lambda s, x: s.M.eq(s.M.odot(rx := s.r(x), rx), x)),
    ("join_absorption", False, "pairs",
     lambda s, x, y: s.M.eq(s.M.meet(s.r(s.M.join(s.M.odot(y, y), x)), y), y)),
    ("negation_compat", False, "elements",
     lambda s, x: _negation_compatible(s.M, s.r, s.r0, x, s.r(x))),
)


def variety_identities(algebra: PseudoMV, root: SquareRootMap,
                       budget: int | None = None, seed: int | None = None) -> dict:
    """The three equations axiomatizing square roots as an equational class:
    the square law, the join-absorption form of maximality, and negation
    compatibility.  Weak roots satisfy the first two only."""
    return _run(_VARIETY_ROWS, _Suite(algebra, root, budget, seed, "variety"))


# the fifteen claims, in order
_CLAIM_ROWS = (
    ("bounds_and_commutation", False, "one", lambda s, x: s.M.eq(s.r(x), x)),
    ("bounds_and_commutation", False, "elements", lambda s, x: (
        s.M.leq(x, xr := s.M.join(x, s.r0)) and s.M.leq(xr, rx := s.r(x))
        and s.M.leq(s.M.join(s.M.odot(rx, s.r0), s.M.odot(s.r0, rx)), x)
        and s.M.eq(s.M.odot(rx, x), s.M.odot(x, rx)))),
    ("monotone", False, "chains", lambda s, x, y: s.M.leq(s.r(x), s.r(y))),
    ("meet_below_mixed_products", False, "pairs", lambda s, x, y: (
        s.M.leq(m := s.M.meet(x, y), s.M.odot(s.r(x), s.r(y)))
        and s.M.leq(m, s.M.odot(s.r(y), s.r(x))))),
    ("meet_below_mixed_products", False, "idempotents_below_r0", lambda s, a: s.M.eq(a, s.M.zero)),
    ("double_square", False, "elements", lambda s, x: (
        s.M.leq(x, rsq := s.r(sq := s.M.odot(x, x))) and s.M.eq(s.M.odot(rsq, rsq), sq))),
    ("self_negation_meets_below_r0", False, "elements", lambda s, x: s.M.leq(
        s.M.join(s.M.meet(x, s.M.neg(x)), s.M.meet(x, s.M.tilde(x))), s.r0)),
    ("idempotent_fixed_points", False, "elements",
     lambda s, x: s.M.is_boolean_element(rx := s.r(x)) == s.M.eq(rx, x)),
    ("preserves_meet", False, "pairs",
     lambda s, x, y: s.M.eq(s.M.meet(s.r(x), s.r(y)), s.r(s.M.meet(x, y)))),
    ("residuation_bounds", False, "pairs", lambda s, x, y: (
        s.M.leq(s.M.arrow(rx := s.r(x), ry := s.r(y)), s.r(s.M.arrow(x, y)))
        and s.M.leq(s.M.snake(rx, ry), s.r(s.M.snake(x, y))))),
    ("preserves_join", True, "pairs",
     lambda s, x, y: s.M.eq(s.r(s.M.join(x, y)), s.M.join(s.r(x), s.r(y)))),
    ("product_upper_bound", True, "pairs", lambda s, x, y: (
        s.M.leq(s.r(s.M.odot(x, y)), s.M.join(s.M.odot(rx := s.r(x), s.r(y)), s.r0))
        and s.M.eq(s.r(s.M.odot(x, x)), s.M.join(s.M.odot(rx, rx), s.r0))
        and s.M.eq(s.r(s.M.odot(up := s.M.join(x, s.r0), up)), up))),
    ("boolean_characterization", True, "at_r0", lambda s, z: (
        s.M.is_boolean_element(wl := s.M.odot(nz := s.M.neg(z), nz))
        and s.M.is_boolean_element(wr := s.M.odot(tz := s.M.tilde(z), tz))
        and s.M.eq(wl, wr))),
    ("boolean_characterization", True, "elements", lambda s, x: (
        (s.M.is_boolean_element(x) == s.M.eq(rx := s.r(x), s.M.oplus(x, s.r0))
         == s.M.eq(rx, s.M.oplus(s.r0, x))) and s.M.leq(s.r0, rx))),
    ("domination_forces_order", True, "pairs", lambda s, x, y: (
        not s.M.leq(y, s.M.meet(s.M.odot(rx := s.r(x), ry := s.r(y)), s.M.odot(ry, rx)))
        or s.M.leq(y, x))),
    ("relative_roots", True, "interval_points", _Suite.relative_root_holds),
    ("sum_lower_bound", True, "pairs", lambda s, x, y: s.M.leq(
        s.M.oplus(s.M.odot(s.r(x), s.M.neg(s.r0)), s.r(y)), s.r(s.M.oplus(x, y)))),
    ("iterated_powers", True, "elements", lambda s, x: (
        power_check(s.M, s.r, x, 1, 1) and power_check(s.M, s.r, x, 2, 1)
        and power_check(s.M, s.r, x, 2, 2))),
)

_EXTRA_ROWS = (
    ("half_sum_upper_bound", False, "elements", lambda s, x: s.M.leq(
        s.r(x), s.M.meet(s.M.oplus(x, s.r0), s.M.oplus(s.r0, x)))),
    ("r0_attains_max_self_meet", False, "at_r0", lambda s, z: s.M.eq(s.M.meet(z, s.M.neg(z)), z)),
    ("r0_attains_max_self_meet", False, "elements", lambda s, x: (
        s.M.leq(s.M.meet(x, s.M.neg(x)), s.r0) and s.M.leq(s.M.meet(x, s.M.tilde(x)), s.r0))),
    ("double_oplus_shift", True, "elements", lambda s, y: (
        s.M.eq(ry := s.r(s.M.oplus(y, y)), s.M.oplus(y, s.r0))
        and s.M.eq(ry, s.M.oplus(s.r0, y)))),
    ("negations_agree_at_r0", True, "at_r0", lambda s, z: s.M.eq(s.M.neg(z), s.M.tilde(z))),
)

_PROPERTY_ROWS = _CLAIM_ROWS + _EXTRA_ROWS
PROPERTY_ITEMS = tuple(dict.fromkeys(item for item, *_ in _CLAIM_ROWS))
WEAK_SAFE_ITEMS = tuple(dict.fromkeys(item for item, gated, *_ in _PROPERTY_ROWS if not gated))
GATED_EXTRAS = tuple(dict.fromkeys(item for item, gated, *_ in _EXTRA_ROWS if gated))


def square_root_properties(algebra: PseudoMV, root: SquareRootMap,
                           budget: int | None = None, seed: int | None = None,
                           negation_compat: bool | None = None) -> dict:
    """The universally quantified consequence suite for a (weak) square root.

    Items, their order and gating come from the rows of the fifteen claims
    (:data:`PROPERTY_ITEMS`) and the extra bounds.  Items outside
    :data:`WEAK_SAFE_ITEMS` are ``"skipped"`` without negation compatibility,
    which is decided on 64 probed elements when ``negation_compat`` is None."""
    s = _Suite(algebra, root, budget, seed, "props")
    if negation_compat is None:
        negation_compat = all(_negation_compatible(algebra, s.r, s.r0, x, s.r(x))
                              for x in s.elems[:64])
    return _run(_PROPERTY_ROWS, s, negation_compat)
