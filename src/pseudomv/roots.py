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

Every check here is a table of rows (item, domain, predicate) counted by
:func:`core.run_rows` over a :class:`_Suite`: the :class:`core.Domains` of
the algebra plus the root, r(0) and the domains that depend on them.  The
property suite's rows also say whether they need negation compatibility,
and its items, their order and the gating come from those rows.  Rows are
shared where laws are: the square and negation-compatibility rows serve
``verify`` and ``variety_identities``, and ``decompose`` runs the boolean,
strict and square rows on its interval factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

from .core import (
    AlgebraError,
    CheckResult,
    Domains,
    IntervalPMV,
    ProductPMV,
    PseudoMV,
    UNDEFINED,
    UnsupportedBackend,
    run_rows,
)
from .finite import FinitePMV, brute_force_weak_sqrt
from .lgroups import DirectProductGroup, GammaPMV

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

    def __init__(self, algebra: PseudoMV, kind: str, fn: Callable[[Any], Any]):
        self.algebra = algebra
        self.kind = kind
        self._fn = fn

    def __call__(self, x: Any) -> Any:
        return self._fn(x)

    def __repr__(self) -> str:
        return f"<SquareRootMap {self.kind}>"


def identity_map(algebra: PseudoMV) -> SquareRootMap:
    return SquareRootMap(algebra, "identity", lambda x: x)


def table_map(algebra: FinitePMV, mapping: dict) -> SquareRootMap:
    table = dict(mapping)
    return SquareRootMap(algebra, "table", lambda x: table[x])


def product_map(algebra: ProductPMV, left: SquareRootMap, right: SquareRootMap) -> SquareRootMap:
    return SquareRootMap(algebra, "product", lambda x: (left(x[0]), right(x[1])))


def relative_map(root: Callable[[Any], Any], top: Any, sub: IntervalPMV) -> SquareRootMap:
    """The induced root x ↦ r(x) ⊙ a on the interval [0, a] below an
    idempotent a."""
    parent = sub.parent
    return SquareRootMap(sub, "relative", lambda x: parent.odot(root(x), top))


def custom_map(algebra: PseudoMV, fn: Callable[[Any], Any]) -> SquareRootMap:
    return SquareRootMap(algebra, "custom-numeric", fn)


def closed_form(algebra: GammaPMV, variant: str, witness: Any = None) -> SquareRootMap:
    """Group-arithmetic closed forms on Γ(G, u).

    * ``"sym"``  — r(x) = (x + u)/2; needs halving and u/2 central.
    * ``"weak"`` — r(x) = ((x − u)/2) + u; needs halving only.
    * ``"mixed"``— r(x) = (x ∧ w) ∨ ((x ∧ w⁻) + w⁻)/2 for an idempotent w;
      halves only the strict factor, so u need not be halvable (as on
      Γ(prod(Z, D), (1, 1)) with w = (1, 0)).

    Results stay inside [0, u]; nothing is clamped.
    """
    if not isinstance(algebra, GammaPMV):
        raise UnsupportedBackend("closed forms need a group-interval backend")
    group, unit = algebra.group, algebra.unit
    if variant in ("sym", "weak"):
        half_unit = group.halve(unit)
        if half_unit is None:
            raise HalvingUnavailable(f"{group.dsl} cannot halve the unit")

    def halve_or_raise(g):
        h = group.halve(g)
        if h is None:
            raise HalvingUnavailable(f"{group.dsl} cannot halve {group.format_element(g)}")
        return h

    if variant == "sym":
        if not group.center_has(half_unit):
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

        return SquareRootMap(algebra, "mixed", mixed)
    raise ValueError(f"unknown closed form variant {variant!r}")


#: How many points of the carrier a closed form is evaluated at before it is trusted.
_ROOT_PROBES = 16


def _evaluable_everywhere(algebra: PseudoMV, root: SquareRootMap) -> bool:
    """Closed forms can construct but still hit unhalvable points (integer-valued
    carriers with an even unit); probe before trusting the map."""
    try:
        for x in Domains(algebra, _ROOT_PROBES, elements="root-probe").elems[:_ROOT_PROBES]:
            root(x)
    except HalvingUnavailable:
        return False
    return True


def detect_square_root(algebra: PseudoMV) -> tuple[SquareRootMap | None, str]:
    """Best-effort root construction: brute force on tables.  On Γ(G, u), the
    sym closed form if u/2 is central, else the weak one: with u central, x + u
    halves exactly when x − u does.  If u does not halve and G is prod(G1, G2),
    the mixed form along (u1, 0) or (0, u2).  Returns (map or None, how)."""
    if isinstance(algebra, FinitePMV):
        search = brute_force_weak_sqrt(algebra)
        if search.found:
            return table_map(algebra, search.mapping), "brute-force"
        return None, f"none ({search.verdict} at x={algebra.format_element(search.failing)})"
    if isinstance(algebra, GammaPMV):
        try:
            root = closed_form(algebra, "sym")
        except NotCentral:
            root = closed_form(algebra, "weak")
        except HalvingUnavailable as exc:
            for witness in _mixed_witnesses(algebra):
                root = closed_form(algebra, "mixed", witness)
                if _evaluable_everywhere(algebra, root):
                    return root, "closed-form-mixed"
            return None, f"none ({exc})"
        if _evaluable_everywhere(algebra, root):
            return root, root.kind
        return None, "none (halving misses probed points)"
    return None, "none (no detection rule for this backend)"


def _mixed_witnesses(algebra: GammaPMV):
    """(u1, 0), then (0, u2), on Γ(prod(G1, G2), (u1, u2)): each is an
    idempotent when its factor's [0, uᵢ] is {0, uᵢ}."""
    group = algebra.group
    if isinstance(group, DirectProductGroup):
        u1, u2 = algebra.unit
        if group.first.interval_size(u1) == 2:
            yield u1, group.second.zero()
        if group.second.interval_size(u2) == 2:
            yield group.first.zero(), u2


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------

@dataclass
class SquareRootReport:
    """Verdicts for the four defining laws plus the derived classification;
    ``strict`` is r(0) = r(0)⁻."""

    square: CheckResult
    maximality: CheckResult
    negation_compat: CheckResult
    standard: CheckResult
    strict: bool
    r0: Any
    witness_idempotent: Any | None
    classification: str

    @property
    def is_weak_square_root(self) -> bool:
        return self.square.passed and self.maximality.passed

    @property
    def is_square_root(self) -> bool:
        return self.is_weak_square_root and self.negation_compat.passed


class _Memo(dict):
    """x ↦ fn(x), evaluating each x once."""

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def __missing__(self, x):
        value = self[x] = self.fn(x)
        return value


class _Suite(Domains):
    """The domains of ``algebra`` plus the root r, r0 = r(0) and the domains
    that depend on them.  ``r`` evaluates each point once: for the whole
    suite, or with ``per_point`` only while run_rows is at one point."""

    def __init__(self, algebra: PseudoMV, root: Callable[[Any], Any], budget: int | None,
                 seed: int | None, per_point: bool = False, **labels: str):
        super().__init__(algebra, budget, seed, **labels)
        memo = _Memo(root)
        self.r = memo.__getitem__
        if per_point:
            self.point_cache = memo
        self._intervals: dict = {}

    r0 = cached_property(lambda self: self.r(self.M.zero))
    at_r0 = property(lambda self: [(self.r0,)])
    above_r0 = property(lambda self: ((self.M.join(x, self.r0),) for x in self.elems))
    chains = property(lambda self: ((x, self.M.join(x, t)) for x, t in self.pairs))

    @property
    def squares_below(self):
        """(y, x) with y ⊙ y ≤ x: every such pair, or x = (y ⊙ y) ∨ t for
        sampled y and t from the ``verify-max`` stream."""
        M = self.M
        if M.enumerable:
            yield from ((y, x) for y in self.elems for yy in [M.odot(y, y)]
                        for x in self.elems if M.leq(yy, x))
            return
        rng = self.rng("verify-max")
        for _ in range(self.budget):
            y = M.sample(rng)
            yield y, M.join(M.odot(y, y), M.sample(rng))

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


def _negation_compatible(algebra: PseudoMV, root: Callable, r0, x, rx) -> bool:
    """r(x⁻) = r(x) → r(0) and r(x∼) = r(x) ⇝ r(0) at x, where rx = r(x)."""
    return (algebra.eq(root(algebra.neg(x)), algebra.arrow(rx, r0))
            and algebra.eq(root(algebra.tilde(x)), algebra.snake(rx, r0)))


# Rows are (item, domain, predicate): predicate(suite, *point) is counted at
# each point of the _Suite attribute named by domain (core.run_rows).
_SQUARE_ROW = ("square", "elements", lambda s, x: s.M.eq(s.M.odot(rx := s.r(x), rx), x))
_NEGATION_ROW = ("negation_compat", "elements",
                 lambda s, x: _negation_compatible(s.M, s.r, s.r0, x, s.r(x)))

_VERIFY_ROWS = (
    _SQUARE_ROW,
    _NEGATION_ROW,
    ("standard", "elements",
     lambda s, x: s.M.eq(s.M.odot(rx := s.r(x), s.r0), s.M.odot(s.r0, rx))),
    ("maximality", "squares_below", lambda s, y, x: s.M.leq(y, s.r(x))),
)


def verify(algebra: PseudoMV, root: SquareRootMap, budget: int | None = None,
           seed: int | None = None) -> SquareRootReport:
    """Check the square law pointwise, maximality on (conditioned) pairs,
    negation compatibility through both defining equations, and the
    standardness law.  The laws on elements share one walk that evaluates
    r(x), r(x⁻) and r(x∼) once per point and keeps nothing across points."""
    s = _Suite(algebra, root, budget, seed, per_point=True, elements="verify-elems")
    res = run_rows(_VERIFY_ROWS, s)
    square, maximality, negation = res["square"], res["maximality"], res["negation_compat"]
    r0 = s.r0

    strict = algebra.eq(r0, algebra.neg(r0))
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
    elif algebra.eq(witness, algebra.one):
        classification = "boolean"
    elif algebra.eq(witness, algebra.zero):
        classification = "strict"
    else:
        classification = "product"

    return SquareRootReport(
        square=square,
        maximality=maximality,
        negation_compat=negation,
        standard=res["standard"],
        strict=strict,
        r0=r0,
        witness_idempotent=witness,
        classification=classification,
    )


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
    checks: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks.values())


def _embedding_rows(item: str, f: Callable[[Any], Any], target: PseudoMV) -> tuple:
    """Rows checking that f is an injective ⊕/⁻/∼/0/1 homomorphism from the
    suite's algebra into ``target``, on its pairs and at the bounds."""
    def on_pair(s, x, y):
        fx, fy = f(x), f(y)
        return (target.eq(f(s.M.oplus(x, y)), target.oplus(fx, fy))
                and target.eq(f(s.M.neg(x)), target.neg(fx))
                and target.eq(f(s.M.tilde(x)), target.tilde(fx))
                and not (target.eq(fx, fy) and not s.M.eq(x, y)))

    return ((item, "pairs", on_pair),
            (item, "zero", lambda s, z: target.eq(f(z), target.zero)),
            (item, "one", lambda s, o: target.eq(f(o), target.one)))


_BOOLEAN_ROWS = (
    ("boolean", "zero", lambda s, z: s.M.eq(s.r0, z)),
    ("boolean", "elements", lambda s, x: s.M.is_boolean_element(x)),
)
_STRICT_ROW = ("strict", "at_r0", lambda s, z: s.M.eq(z, s.M.neg(z)))


def decompose(algebra: PseudoMV, root: SquareRootMap, budget: int | None = None,
              seed: int | None = None) -> Decomposition:
    """Split along the witness idempotent into Boolean × strict parts.

    Trivial witnesses (0 or 1) yield the bare classification, checked by the
    boolean or strict rows.  A proper witness u yields the factors [0, u] and
    [0, u⁻] with their induced roots, checked by the boolean rows and by the
    strict and square rows at the projected elements, and the map
    x ↦ (x ∧ u, x ∧ u⁻), verified to be a homomorphism on the pairs.
    """
    u = boolean_witness(algebra, root)
    s = _Suite(algebra, root, budget, seed, per_point=True,
               elements="decompose-elems", pairs="decompose-pairs")
    if algebra.eq(u, algebra.one):
        return Decomposition("boolean", u, checks=run_rows(_BOOLEAN_ROWS, s))
    if algebra.eq(u, algebra.zero):
        return Decomposition("strict", u, checks=run_rows((_STRICT_ROW,), s))

    v = algebra.neg(u)
    part_bool = IntervalPMV(algebra, u)
    part_strict = IntervalPMV(algebra, v)
    checks: dict[str, CheckResult] = {}
    for item, part, rows in (("boolean_part", part_bool, _BOOLEAN_ROWS),
                             ("strict_part", part_strict, (_STRICT_ROW, _SQUARE_ROW))):
        factor = _Suite(part, relative_map(root, part.top, part), budget, seed, per_point=True)
        factor.elems = [part.project(x) for x in s.elems]
        checks.update(run_rows([(item, domain, holds) for _, domain, holds in rows], factor))

    def iso(x):
        return (algebra.meet(x, u), algebra.meet(x, v))

    checks.update(run_rows(_embedding_rows("iso", iso, ProductPMV(part_bool, part_strict)), s))
    return Decomposition("product", u, part_bool, part_strict, checks)


class ImagePMV(PseudoMV):
    """The algebra induced on the image interval [r(0), 1]:
    r(x) ⊞ r(y) = r(x ⊕ y), with negations a ↦ a⁻ ⊕ r(0) and a ↦ a∼ ⊕ r(0).

    Since a = r(a ⊙ a) for a ≥ r(0), the sum is computed without inverting
    r explicitly.
    """

    backend = "image-interval"

    def __init__(self, parent: PseudoMV, root: SquareRootMap):
        super().__init__(parent.sampler)
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
    s = _Suite(algebra, root, budget, seed, per_point=True,
               elements="image-onto", pairs="image-pairs")
    checks = run_rows(_embedding_rows("isomorphism", s.r, image) + (
        ("onto", "above_r0", lambda s, y: s.M.eq(s.r(s.M.odot(y, y)), y)),), s)

    axioms = image.check_axioms(budget, seed)
    for name, res in axioms.axioms.items():
        checks[f"axiom-{name}"] = res

    return InducedInterval(image, checks)


# ----------------------------------------------------------------------
# iterates, powers, the halving ladder
# ----------------------------------------------------------------------

MAX_LADDER_DEPTH = 20


def iterate(root: SquareRootMap, x: Any, m: int) -> Any:
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
    lhs = odot_power(algebra, iterate(root, x, m), n)
    return algebra.eq(lhs, iterate(root, x, m - n))


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
        nxt = group.sub(root(rungs[-1]), r0)
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


_VARIETY_ROWS = (
    _SQUARE_ROW,
    ("join_absorption", "pairs",
     lambda s, x, y: s.M.eq(s.M.meet(s.r(s.M.join(s.M.odot(y, y), x)), y), y)),
    _NEGATION_ROW,
)


def variety_identities(algebra: PseudoMV, root: SquareRootMap,
                       budget: int | None = None, seed: int | None = None) -> dict:
    """The three equations axiomatizing square roots as an equational class:
    the square law, the join-absorption form of maximality, and negation
    compatibility.  Weak roots satisfy the first two only."""
    return run_rows(_VARIETY_ROWS, _Suite(algebra, root, budget, seed, elements="variety-elems",
                                          pairs="variety-pairs"))


# the fifteen claims, in order; a row here is (item, needs negation
# compatibility, domain, predicate)
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
_PROPERTY_ORDER = tuple(dict.fromkeys(item for item, *_ in _PROPERTY_ROWS))


def square_root_properties(algebra: PseudoMV, root: SquareRootMap,
                           budget: int | None = None, seed: int | None = None,
                           negation_compat: bool | None = None) -> dict:
    """The universally quantified consequence suite for a (weak) square root.

    Items, their order and gating come from the rows of the fifteen claims
    (:data:`PROPERTY_ITEMS`) and the extra bounds.  Items outside
    :data:`WEAK_SAFE_ITEMS` are ``"skipped"`` without negation compatibility,
    which is decided on 64 probed elements when ``negation_compat`` is None."""
    s = _Suite(algebra, root, budget, seed, elements="props-elems", pairs="props-pairs")
    if negation_compat is None:
        negation_compat = all(_negation_compatible(algebra, s.r, s.r0, x, s.r(x))
                              for x in s.elems[:64])
    out = run_rows([(item, domain, holds) for item, gated, domain, holds in _PROPERTY_ROWS
                    if negation_compat or not gated], s)
    return {item: out.get(item, SKIPPED) for item in _PROPERTY_ORDER}
