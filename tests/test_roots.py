"""Square-root calculus: verification, closed forms, decomposition,
image algebra, iterates, the halving ladder, and the identity suites.

Expected values for the group-interval algebras were computed by hand from
the group arithmetic (halving solves b + b = a) and are frozen here; each
frozen value is re-checked against an in-test doubling oracle.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudomv as pmv
from pseudomv.core import make_rng, run_rows
from pseudomv.roots import (
    GATED_EXTRAS,
    PROPERTY_ITEMS,
    SKIPPED,
    WEAK_SAFE_ITEMS,
    _PROPERTY_ROWS,
    HalvingUnavailable,
    LadderError,
    NotCentral,
    _Suite,
    custom_map,
    odot_power,
    relative_map,
    square_root_properties,
    variety_identities,
)
from pseudomv.counterexamples import scaling_action_algebra
from points import q


HEIS0 = (q(0), q(0), q(0))


def dyadic_unit():
    return pmv.gamma(pmv.DyadicGroup(), q(1))


def lex_heis():
    return pmv.gamma(pmv.LexProduct(pmv.RationalGroup(), pmv.HeisenbergGroup()),
                     (q(1), HEIS0))


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------

def test_identity_on_boolean_passes_everything():
    b = pmv.boolean(2)
    rep = pmv.verify(b, pmv.identity_map(b))
    assert rep.square.passed and rep.maximality.passed
    assert rep.negation_compat.passed and rep.standard.passed
    assert not rep.strict
    assert rep.classification == "boolean"
    assert rep.witness_idempotent == b.one


def test_sym_form_on_dyadic_is_a_strict_square_root():
    d = dyadic_unit()
    root = pmv.closed_form(d, "sym")
    assert root(q(0)) == q(1, 2)
    rep = pmv.verify(d, root, budget=400)
    assert rep.square.passed and rep.maximality.passed
    assert rep.negation_compat.passed and rep.standard.passed
    assert rep.strict
    assert rep.classification == "strict"
    assert rep.r0 == q(1, 2)
    assert rep.witness_idempotent == q(0)


def test_sym_form_on_lex_heisenberg():
    m = lex_heis()
    root = pmv.closed_form(m, "sym")
    value = root((q(1, 2), (q(1), q(1), q(1))))
    assert value == (q(3, 4), (q(1, 2), q(1, 2), q(3, 8)))
    # doubling oracle for the frozen value
    g = m.group
    assert g.add(value, value) == g.add((q(1, 2), (q(1), q(1), q(1))), m.unit)
    rep = pmv.verify(m, root, budget=300)
    assert rep.classification == "strict"
    assert rep.standard.passed
    assert rep.r0 == (q(1, 2), HEIS0)


def test_weak_form_agrees_with_sym_form_on_commutative_carrier():
    d = dyadic_unit()
    sym = pmv.closed_form(d, "sym")
    weak = pmv.closed_form(d, "weak")
    assert weak(q(0)) == q(1, 2)
    rng = make_rng(1, "weak-vs-sym")
    for _ in range(200):
        x = d.sample(rng)
        assert sym(x) == weak(x)


def test_closed_form_requires_halving():
    g3 = pmv.gamma(pmv.IntegerGroup(), 3)
    with pytest.raises(HalvingUnavailable):
        pmv.closed_form(g3, "sym")
    with pytest.raises(HalvingUnavailable):
        pmv.closed_form(g3, "weak")
    # an even unit halves, but evaluation still dies on odd points
    g2 = pmv.gamma(pmv.IntegerGroup(), 2)
    root = pmv.closed_form(g2, "sym")
    assert root(0) == 1
    with pytest.raises(HalvingUnavailable):
        root(1)
    found, how = pmv.detect_square_root(g2)
    assert found is None and "halving" in how


def test_sym_form_requires_central_half_unit():
    scaling, _ = scaling_action_algebra()
    with pytest.raises(NotCentral):
        pmv.closed_form(scaling, "sym")
    assert pmv.closed_form(scaling, "weak").kind == "closed-form-weak"


def test_mixed_form_splits_along_an_idempotent():
    d = dyadic_unit()
    root = pmv.closed_form(d, "mixed", witness=q(0))
    rng = make_rng(2, "mixed")
    sym = pmv.closed_form(d, "sym")
    for _ in range(100):
        x = d.sample(rng)
        assert root(x) == sym(x)
    whole = pmv.closed_form(d, "mixed", witness=q(1))
    for _ in range(50):
        x = d.sample(rng)
        assert whole(x) == x
    with pytest.raises(pmv.AlgebraError):
        pmv.closed_form(d, "mixed", witness=q(1, 2))


def test_mixed_form_on_an_unhalvable_unit():
    # Γ(ℤ × D, (1, 1)) is 2 × [0, 1]_D: u cannot be halved, yet the mixed form
    # along w = (1, 0) is the Boolean × strict root, r(0) = (0, 1/2)
    m = pmv.gamma(pmv.DirectProductGroup(pmv.IntegerGroup(), pmv.DyadicGroup()), (1, q(1)))
    root = pmv.closed_form(m, "mixed", witness=(1, q(0)))
    rep = pmv.verify(m, root, budget=200)
    assert rep.classification == "product"
    assert rep.r0 == (0, q(1, 2)) and rep.witness_idempotent == (1, q(0))
    dec = pmv.decompose(m, root, budget=200)
    assert dec.classification == "product"
    assert dec.all_pass, {k: v.passed for k, v in dec.checks.items()}
    props = square_root_properties(m, root, budget=200)
    assert len(props) == 19
    assert all(res != SKIPPED and res.passed for res in props.values()), props


def test_detect_square_root():
    root, how = pmv.detect_square_root(pmv.boolean(2))
    assert how == "brute-force" and root.kind == "table"
    root, how = pmv.detect_square_root(pmv.chain(3))
    assert root is None and "x=" in how
    root, how = pmv.detect_square_root(dyadic_unit())
    assert how == "closed-form-sym"
    scaling, _ = scaling_action_algebra()
    root, how = pmv.detect_square_root(scaling)
    assert how == "closed-form-weak"


def test_weak_roots_are_unique():
    # the brute-force table and the closed form coincide on Γ(ℤ-free points):
    # compare the two independent constructions on a Boolean product
    m = pmv.product(pmv.boolean(1), pmv.boolean(1))
    table_root, _ = pmv.detect_square_root(m)
    for x in m.elements():
        assert table_root(x) == x


# ----------------------------------------------------------------------
# strictness, the witness idempotent, decomposition
# ----------------------------------------------------------------------

def test_is_strict():
    d = dyadic_unit()
    assert pmv.verify(d, pmv.closed_form(d, "sym"), budget=50).strict
    b = pmv.boolean(2)
    assert not pmv.verify(b, pmv.identity_map(b), budget=50).strict
    scaling, root = scaling_action_algebra()
    assert pmv.verify(scaling, root, budget=50).strict
    r0 = root(scaling.zero)     # strict through ∼ as well as through ⁻
    assert scaling.eq(r0, scaling.tilde(r0))
    assert scaling.eq(root((1.0, 0.0)), (2 ** 0.5, 0.0))


def test_boolean_witness_values():
    b = pmv.boolean(2)
    assert pmv.boolean_witness(b, pmv.identity_map(b)) == b.one
    d = dyadic_unit()
    assert pmv.boolean_witness(d, pmv.closed_form(d, "sym")) == q(0)


def test_boolean_witness_on_mixed_product():
    d = dyadic_unit()
    b1 = pmv.boolean(1)
    m = pmv.ProductPMV(b1, d)
    root = pmv.product_map(m, pmv.identity_map(b1), pmv.closed_form(d, "sym"))
    assert pmv.boolean_witness(m, root) == (1, q(0))


def test_boolean_witness_rejects_non_roots():
    d = dyadic_unit()
    # r(0) = 1/4 makes r(0)⁻ ⊙ r(0)⁻ = 1/2, which is not idempotent
    fake = custom_map(d, lambda x: q(1, 4))
    with pytest.raises(pmv.AlgebraError):
        pmv.boolean_witness(d, fake)


def test_decompose_trivial_classes():
    b = pmv.boolean(2)
    assert pmv.decompose(b, pmv.identity_map(b)).classification == "boolean"
    d = dyadic_unit()
    dec = pmv.decompose(d, pmv.closed_form(d, "sym"), budget=200)
    assert dec.classification == "strict"
    assert dec.boolean_part is None and dec.strict_part is None


def test_decompose_mixed_product():
    d = dyadic_unit()
    b1 = pmv.boolean(1)
    m = pmv.ProductPMV(b1, d)
    root = pmv.product_map(m, pmv.identity_map(b1), pmv.closed_form(d, "sym"))
    dec = pmv.decompose(m, root, budget=300)
    assert dec.classification == "product"
    assert dec.witness == (1, q(0))
    assert dec.all_pass, {k: v.passed for k, v in dec.checks.items()}

    # the Boolean factor has exactly the two points 0 and u
    rng = make_rng(3, "factor-scan")
    seen = set()
    for _ in range(200):
        seen.add(dec.boolean_part.project(m.sample(rng)))
    assert seen == {m.zero, (1, q(0))}

    # the strict factor is the dyadic interval in disguise: (0, t) ↦ t
    d_alg = dyadic_unit()
    part = dec.strict_part
    for _ in range(100):
        x, y = part.project(m.sample(rng)), part.project(m.sample(rng))
        assert part.oplus(x, y)[1] == d_alg.oplus(x[1], y[1])
        assert part.neg(x)[1] == d_alg.neg(x[1])
        assert part.tilde(x)[1] == d_alg.tilde(x[1])

    # componentwise relative roots are the original factor roots
    rel = relative_map(root, dec.witness, dec.boolean_part)
    assert rel(m.zero) == m.zero
    rel2 = relative_map(root, m.neg(dec.witness), dec.strict_part)
    assert rel2((0, q(0)))[1] == q(1, 2)


def test_trichotomy_is_exclusive():
    cases = [
        (pmv.boolean(2), pmv.identity_map(pmv.boolean(2))),
        (dyadic_unit(), None),
    ]
    d = dyadic_unit()
    cases[1] = (d, pmv.closed_form(d, "sym"))
    b1 = pmv.boolean(1)
    m = pmv.ProductPMV(b1, d)
    cases.append((m, pmv.product_map(m, pmv.identity_map(b1),
                                     pmv.closed_form(d, "sym"))))
    seen = set()
    for algebra, root in cases:
        u = pmv.boolean_witness(algebra, root)
        kinds = [algebra.eq(u, algebra.one), algebra.eq(u, algebra.zero)]
        assert sum(kinds) <= 1
        seen.add(pmv.verify(algebra, root, budget=150).classification)
    assert seen == {"boolean", "strict", "product"}


# ----------------------------------------------------------------------
# the image algebra on [r(0), 1]
# ----------------------------------------------------------------------

def test_induced_interval_on_dyadic():
    d = dyadic_unit()
    root = pmv.closed_form(d, "sym")
    ind = pmv.induced_interval_algebra(d, root, budget=250)
    assert ind.all_pass, {k: v.passed for k, v in ind.checks.items() if not v.passed}
    img = ind.algebra
    assert img.zero == q(1, 2)
    assert img.oplus(root(q(1, 2)), root(q(1, 2))) == root(d.oplus(q(1, 2), q(1, 2))) == q(1)


def test_image_algebra_iterates():
    # [r(0), 1] ≅ M ≅ [r²(0), 1] ≅ ...: the image construction can be
    # stacked, with floors r(0), r²(0), ...
    d = dyadic_unit()
    root = pmv.closed_form(d, "sym")
    first = pmv.induced_interval_algebra(d, root, budget=120)
    lifted = pmv.SquareRootMap(first.algebra, root.kind, root)
    second = pmv.induced_interval_algebra(first.algebra, lifted, budget=120)
    assert second.all_pass
    assert first.algebra.zero == q(1, 2)
    assert second.algebra.zero == q(3, 4) == pmv.iterate(root, q(0), 2)


def test_induced_interval_on_boolean_is_the_algebra_itself():
    b = pmv.boolean(2)
    ind = pmv.induced_interval_algebra(b, pmv.identity_map(b))
    assert ind.all_pass
    img = ind.algebra
    assert img.zero == b.zero and img.one == b.one
    for x in b.elements():
        for y in b.elements():
            assert img.oplus(x, y) == b.oplus(x, y)


# ----------------------------------------------------------------------
# iterates and powers
# ----------------------------------------------------------------------

def test_iterate_and_powers():
    d = dyadic_unit()
    root = pmv.closed_form(d, "sym")
    assert pmv.iterate(root, q(0), 0) == q(0)
    assert pmv.iterate(root, q(0), 3) == q(7, 8)
    assert d.odot(root(q(1, 4)), root(q(1, 4))) == q(1, 4)
    rng = make_rng(4, "powers")
    for _ in range(60):
        x = d.sample(rng)
        assert pmv.power_check(d, root, x, 1, 1)
        assert pmv.power_check(d, root, x, 2, 1)
        assert pmv.power_check(d, root, x, 2, 2)
        assert pmv.power_check(d, root, x, 3, 0)
    assert odot_power(d, q(7, 8), 2) == d.odot(d.odot(q(7, 8), q(7, 8)),
                                               d.odot(q(7, 8), q(7, 8)))
    with pytest.raises(ValueError):
        pmv.power_check(d, root, q(0), 1, 2)


# ----------------------------------------------------------------------
# the halving ladder
# ----------------------------------------------------------------------

def test_ladder_on_dyadic():
    d = dyadic_unit()
    rungs = pmv.dyadic_ladder(d, pmv.closed_form(d, "sym"), 3)
    assert rungs == [q(1, 2), q(1, 4), q(1, 8)]
    total, partial = d.multiples(q(1, 2), 2)
    assert total == partial == q(1)


def test_ladder_on_lex_heisenberg():
    m = lex_heis()
    rungs = pmv.dyadic_ladder(m, pmv.closed_form(m, "sym"), 2)
    assert rungs == [(q(1, 2), HEIS0), (q(1, 4), HEIS0)]


def test_ladder_requires_strict_root():
    d = dyadic_unit()
    with pytest.raises(LadderError):
        pmv.dyadic_ladder(d, custom_map(d, lambda x: x), 2)
    with pytest.raises(ValueError):
        pmv.dyadic_ladder(d, pmv.closed_form(d, "sym"), 0)


# ----------------------------------------------------------------------
# identity suites
# ----------------------------------------------------------------------

def test_variety_identities_verdicts():
    d = dyadic_unit()
    out = pmv.variety_identities(d, pmv.closed_form(d, "sym"), budget=150)
    assert all(res.passed for res in out.values())
    b = pmv.boolean(2)
    out = pmv.variety_identities(b, pmv.identity_map(b))
    assert all(res.passed for res in out.values())
    scaling, root = scaling_action_algebra()
    out = pmv.variety_identities(scaling, root, budget=200)
    assert out["square"].passed and out["join_absorption"].passed
    assert not out["negation_compat"].passed


def test_property_suite_boolean_exhaustive():
    b = pmv.boolean(2)
    props = square_root_properties(b, pmv.identity_map(b))
    for name, res in props.items():
        assert res != SKIPPED and res.passed, name
    # 4 elements, 16 pairs, r = identity with r(0) = 0, and all 4 elements
    # idempotent: 0 is the one below r(0), and the intervals [0, a] hold
    # 1 + 2 + 2 + 4 points
    assert {name: res.checked for name, res in props.items()} == {
        "bounds_and_commutation": 1 + 4,
        "monotone": 16,
        "meet_below_mixed_products": 16 + 1,
        "double_square": 4,
        "self_negation_meets_below_r0": 4,
        "idempotent_fixed_points": 4,
        "preserves_meet": 16,
        "residuation_bounds": 16,
        "preserves_join": 16,
        "product_upper_bound": 16,
        "boolean_characterization": 1 + 4,
        "domination_forces_order": 16,
        "relative_roots": 1 + 2 + 2 + 4,
        "sum_lower_bound": 16,
        "iterated_powers": 4,
        "half_sum_upper_bound": 4,
        "r0_attains_max_self_meet": 1 + 4,
        "double_oplus_shift": 4,
        "negations_agree_at_r0": 1,
    }


def test_property_suite_dyadic():
    d = dyadic_unit()
    sym = pmv.closed_form(d, "sym")
    evals = Counter()

    def counted(x):
        evals[x] += 1
        return sym(x)

    props = square_root_properties(d, custom_map(d, counted), budget=250)
    for name, res in props.items():
        assert res != SKIPPED and res.passed, name
    assert max(evals.values()) == 1   # the suite evaluates each point once


def test_property_suite_skips_gated_items_for_weak_roots():
    scaling, root = scaling_action_algebra()
    props = square_root_properties(scaling, root, budget=150,
                                   negation_compat=False)
    skipped = {name for name, res in props.items() if res == SKIPPED}
    assert skipped == {
        "preserves_join", "product_upper_bound", "boolean_characterization",
        "domination_forces_order", "relative_roots", "sum_lower_bound",
        "iterated_powers", "double_oplus_shift", "negations_agree_at_r0",
    }
    assert skipped == set(PROPERTY_ITEMS + GATED_EXTRAS) - set(WEAK_SAFE_ITEMS)
    assert list(props) == [*PROPERTY_ITEMS, "half_sum_upper_bound",
                           "r0_attains_max_self_meet", *GATED_EXTRAS]
    for name in WEAK_SAFE_ITEMS[:7]:
        assert props[name].passed, name


def test_property_items_cover_the_fifteen_claims():
    assert len(PROPERTY_ITEMS) == 15
    assert WEAK_SAFE_ITEMS[:8] == PROPERTY_ITEMS[:8]
    assert WEAK_SAFE_ITEMS[8:] == ("half_sum_upper_bound", "r0_attains_max_self_meet")
    assert GATED_EXTRAS == ("double_oplus_shift", "negations_agree_at_r0")


def test_residuation_bound_fails_on_noncommutative_carriers():
    """Exact regression for a noncommutative violation of the residuation
    bound r(x) → r(y) ≤ r(x → y).

    The bound holds on every commutative carrier (see the dyadic suite),
    but on the lexicographic Heisenberg interval the two sides differ in
    the cocycle coordinate; the property suite must keep reporting it.
    """
    m = lex_heis()
    root = pmv.closed_form(m, "sym")
    x = (q(87, 100), (q(7, 8), q(-3, 4), q(-5, 8)))
    y = (q(6, 23), (q(23, 16), q(3, 16), q(7, 8)))
    assert m.contains(x) and m.contains(y)
    lhs = m.arrow(root(x), root(y))
    rhs = root(m.arrow(x, y))
    assert lhs == (q(3199, 4600), (q(9, 32), q(15, 32), q(879, 2048)))
    assert rhs == (q(3199, 4600), (q(9, 32), q(15, 32), q(561, 2048)))
    assert not m.leq(lhs, rhs)
    # while the root itself is beyond suspicion at these points:
    assert m.odot(root(x), root(x)) == x
    assert root(m.neg(x)) == m.arrow(root(x), root(m.zero))

    props = square_root_properties(m, root, budget=400)
    assert not props["residuation_bounds"].passed
    assert not props["product_upper_bound"].passed
    assert not props["sum_lower_bound"].passed
    for name in PROPERTY_ITEMS:
        if name not in ("residuation_bounds", "product_upper_bound", "sum_lower_bound"):
            assert props[name] == SKIPPED or props[name].passed, name


@pytest.mark.parametrize("u0", [1, 2])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_residuation_gap_on_lex_heis_is_a_commutator(u0, data):
    """On Γ(lex(ℚ, heis), (u₀, 0, 0, 0)) with the sym root, wherever
    x → y < 1 the sides of r(x) → r(y) ≤ r(x → y) agree in flat
    coordinates 0–2, and the last differ by (x₁y₂ − x₂y₁)/8, a multiple of
    the heis commutator of x and y.  So the bound fails exactly where that
    number is positive; where x → y = 1 it holds.  The ⇝ half is the
    mirror image: wherever x ⇝ y < 1 the sides of r(x) ⇝ r(y) ≤ r(x ⇝ y)
    differ only in the last coordinate, by (x₂y₁ − x₁y₂)/8."""
    g = pmv.LexProduct(pmv.RationalGroup(), pmv.HeisenbergGroup())
    m = pmv.gamma(g, g.from_flat([u0, 0, 0, 0]))
    root = pmv.closed_form(m, "sym")
    c = st.fractions(-2, 2, max_denominator=16)
    point = st.builds(lambda *flat: m.meet(m.join(g.from_flat(list(flat)), m.zero), m.unit),
                      st.fractions(0, u0, max_denominator=16), c, c, c)
    x, y = data.draw(point), data.draw(point)
    (_, x1, x2, _), (_, y1, y2, _) = g.flatten(x), g.flatten(y)
    for residuum, gap in ((m.arrow, (x1 * y2 - x2 * y1) / 8), (m.snake, (x2 * y1 - x1 * y2) / 8)):
        xy = residuum(x, y)
        lhs, rhs = residuum(root(x), root(y)), root(xy)
        if m.eq(xy, m.one):
            assert m.leq(lhs, rhs)
            continue
        a, b = g.flatten(lhs), g.flatten(rhs)
        assert a[:3] == b[:3] and a[3] - b[3] == gap, residuum.__name__
        assert m.leq(lhs, rhs) == (gap <= 0), residuum.__name__


BOUND_ITEMS = ("residuation_bounds", "product_upper_bound", "sum_lower_bound")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bounds_on_lex_heis_hold_on_commuting_pairs(data):
    """The positive half of the commutator reading: on Γ(lex(ℚ, heis),
    (1, 0, 0, 0)) with the sym root, the property suite's rows for the three
    bounds that fail there hold at every pair whose heis parts commute,
    here made so by taking y's heis coordinates 1–2 as k times x's."""
    g = pmv.LexProduct(pmv.RationalGroup(), pmv.HeisenbergGroup())
    m = pmv.gamma(g, g.from_flat([1, 0, 0, 0]))
    c = st.fractions(-2, 2, max_denominator=16)
    clamp = lambda flat: m.meet(m.join(g.from_flat(flat), m.zero), m.unit)
    x = clamp([data.draw(st.fractions(0, 1, max_denominator=16)), data.draw(c), data.draw(c),
               data.draw(c)])
    k = data.draw(c)
    _, x1, x2, _ = g.flatten(x)
    y = clamp([data.draw(st.fractions(0, 1, max_denominator=16)), k * x1, k * x2, data.draw(c)])
    s = _Suite(m, pmv.closed_form(m, "sym"), None, None)
    s.pairs = [(x, y)]
    res = run_rows([(item, domain, holds) for item, _, domain, holds in _PROPERTY_ROWS
                    if item in BOUND_ITEMS and domain == "pairs"], s)
    assert list(res) == list(BOUND_ITEMS)
    assert all(r.passed and r.checked == 1 for r in res.values())


# Noncommuting pairs of Γ(lex(ℚ, heis), (1, 0, 0, 0)), in flat coordinates,
# with the halves of residuation_bounds, r(x) → r(y) ≤ r(x → y) and
# r(x) ⇝ r(y) ≤ r(x ⇝ y), and each bound's row verdict there.
BOUND_WITNESSES = [
    ((F(1, 2), F(1, 2), 0, 0), (F(1, 2), 0, F(1, 2), 0), (False, True),
     {"residuation_bounds": False, "product_upper_bound": False, "sum_lower_bound": True}),
    ((F(1, 2), F(1, 2), 0, 0), (F(1, 2), 0, F(-1, 2), 0), (True, False),
     {"residuation_bounds": False, "product_upper_bound": True, "sum_lower_bound": True}),
    ((F(1, 2), F(-1, 2), 0, 0), (F(1, 2), 0, F(1, 2), 0), (True, True),
     {"residuation_bounds": True, "product_upper_bound": True, "sum_lower_bound": False}),
]


@pytest.mark.parametrize("x, y, halves, verdicts", BOUND_WITNESSES,
                         ids=["arrow-product", "snake", "sum"])
def test_bounds_on_lex_heis_fail_at_pinned_witnesses(x, y, halves, verdicts):
    """Structural witnesses for the three bounds that fail on lex-heis with
    the sym root: the → half and the product bound fail at one pair, the ⇝
    half at another, and the sum bound, which holds at the first, at a
    third."""
    g = pmv.LexProduct(pmv.RationalGroup(), pmv.HeisenbergGroup())
    m = pmv.gamma(g, g.from_flat([1, 0, 0, 0]))
    r = pmv.closed_form(m, "sym")
    x, y = g.from_flat(list(x)), g.from_flat(list(y))
    assert m.contains(x) and m.contains(y)
    rx, ry = r(x), r(y)
    assert (m.leq(m.arrow(rx, ry), r(m.arrow(x, y))),
            m.leq(m.snake(rx, ry), r(m.snake(x, y)))) == halves
    s = _Suite(m, r, None, None)
    s.pairs = [(x, y)]
    res = run_rows([(item, domain, holds) for item, _, domain, holds in _PROPERTY_ROWS
                    if item in BOUND_ITEMS and domain == "pairs"], s)
    assert {item: res[item].passed for item in BOUND_ITEMS} == verdicts


def test_residuum_bound_and_arrow_equation_diverge_pointwise():
    # on the scaling action the two halves of the negation-compat criterion
    # come apart: at (1, −1) the product bound holds while the arrow
    # equation fails, and at (1, 1) both fail
    scaling, root = scaling_action_algebra()
    r0 = root(scaling.zero)

    def split(x):
        eq_ok = scaling.eq(root(scaling.neg(x)), scaling.arrow(root(x), r0))
        ineq_ok = scaling.leq(scaling.odot(root(x), root(scaling.neg(x))), r0)
        return eq_ok, ineq_ok

    assert split((1.0, -1.0)) == (False, True)
    assert split((1.0, 1.0)) == (False, False)
    assert split((1.5, 0.0)) == (True, True)


def test_integer_headed_lex_interval_has_no_weak_root():
    # on Γ(ℤ lex ℚ, (1,0)) the set {z : z ⊙ z ≤ 0} is the whole fiber
    # {(0, q) : q ≥ 0}, which has no greatest element, so no weak square
    # root can exist; detection correctly reports nothing
    g = pmv.LexProduct(pmv.IntegerGroup(), pmv.RationalGroup())
    m = pmv.gamma(g, (1, q(0)))
    for n in range(8):
        z = (0, q(n))
        assert m.contains(z)
        assert m.eq(m.odot(z, z), m.zero)  # squares collapse to 0
        assert m.lt(z, (0, q(n + 1)))     # and climb without bound
    root, how = pmv.detect_square_root(m)
    assert root is None and "none" in how


def test_strict_roots_halve_through_the_negations():
    # for strict s, z = s(x⁻)∼ satisfies x = z ⊕ z
    for algebra in (dyadic_unit(), lex_heis()):
        root = pmv.closed_form(algebra, "sym")
        rng = make_rng(6, "strict-halve")
        for _ in range(120):
            x = algebra.sample(rng)
            z = algebra.tilde(root(algebra.neg(x)))
            assert algebra.eq(algebra.oplus(z, z), x)
            assert algebra.group.halve(x) == z


def test_strict_root_forces_symmetry_and_halvability():
    for algebra in (dyadic_unit(), lex_heis()):
        root = pmv.closed_form(algebra, "sym")
        assert pmv.verify(algebra, root, budget=50).strict
        rng = make_rng(7, "sym-consequences")
        for _ in range(100):
            x = algebra.sample(rng)
            assert algebra.eq(algebra.neg(x), algebra.tilde(x))
            assert algebra.group.halve(x) is not None
        assert algebra.group.center_has(algebra.group.halve(algebra.unit))
