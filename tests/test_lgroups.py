"""Group backends: exact arithmetic, orders, halving, centers, Γ."""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudomv as pmv
from pseudomv.cli import main, parse_element_literal, parse_group
from pseudomv.core import make_rng
from pseudomv.lgroups import SAMPLE_DENOMINATOR_BOUND, GammaPMV, LGroup
from points import q


def heis3(a, b, c):
    return pmv.HeisenbergGroup().from_flat([a, b, c])


# ----------------------------------------------------------------------
# scalar groups
# ----------------------------------------------------------------------

def test_dyadic_arithmetic_and_halving():
    d = pmv.DyadicGroup()
    assert d.add(q(3, 8), q(1, 4)) == q(5, 8)
    assert d.halve(q(3, 4)) == q(3, 8)
    assert d.member(q(5, 16)) and not d.member(q(1, 3))
    with pytest.raises(pmv.BackendMismatch, match="1/3 lies outside D"):
        d.validate(q(1, 3))


def test_integer_halving_parity():
    z = pmv.IntegerGroup()
    assert z.halve(4) == 2
    assert z.halve(1) is None
    assert z.halve(6) == 3


def test_power_denominator_membership():
    h1, h2, h6 = (pmv.PowerDenominatorGroup(p) for p in (1, 2, 6))
    assert h6.member(q(1, 3))
    assert not h2.member(q(1, 3))
    assert h6.member(q(0))
    assert h6.member(q(5, 36))
    assert h1.member(q(7)) and not h1.member(q(1, 2))


def test_power_denominator_group_halving():
    h6 = pmv.PowerDenominatorGroup(6)
    assert h6.halve(q(1, 6)) == q(1, 12)  # 1/12 = 3/36
    h3 = pmv.PowerDenominatorGroup(3)
    assert h3.halve(q(1, 3)) is None
    assert h3.halve(q(2, 9)) == q(1, 9)


# ----------------------------------------------------------------------
# the Heisenberg group
# ----------------------------------------------------------------------

def test_heisenberg_group_law_is_noncommutative():
    g = pmv.HeisenbergGroup()
    assert g.add(heis3(1, 0, 0), heis3(0, 1, 0)) == heis3(1, 1, 1)
    assert g.add(heis3(0, 1, 0), heis3(1, 0, 0)) == heis3(1, 1, 0)


def test_heisenberg_neg_and_halve():
    g = pmv.HeisenbergGroup()
    rng = make_rng(2, "heis")
    for _ in range(80):
        a = g.random_element(rng)
        assert g.add(a, g.neg(a)) == g.zero()
        assert g.add(g.neg(a), a) == g.zero()
        h = g.halve(a)
        assert g.add(h, h) == a
    assert g.halve(heis3(1, 1, 1)) == heis3(F(1, 2), F(1, 2), F(3, 8))


def test_heisenberg_center():
    g = pmv.HeisenbergGroup()
    assert not g.center_has(heis3(1, 0, 0))
    # explicit commutator witness
    a, b = heis3(1, 0, 0), heis3(0, 1, 0)
    assert g.add(a, b) != g.add(b, a)
    assert g.center_has(heis3(0, 0, 5))


def test_heisenberg_positive_cone_closed():
    g = pmv.HeisenbergGroup()
    rng = make_rng(3, "heis-cone")
    positives = []
    while len(positives) < 40:
        a = g.random_element(rng)
        if g.lt(g.zero(), a):
            positives.append(a)
    for a in positives[:20]:
        for b in positives[:20]:
            assert g.lt(g.zero(), g.add(a, b))
        c = g.random_element(rng)
        conj = g.add(g.add(g.neg(c), a), c)
        assert g.lt(g.zero(), conj)


# ----------------------------------------------------------------------
# products
# ----------------------------------------------------------------------

def test_lex_product_order_and_center():
    g = pmv.LexProduct(pmv.RationalGroup(), pmv.HeisenbergGroup())
    u_half = (q(1, 2), heis3(0, 0, 0))
    assert g.center_has(u_half)
    assert not g.center_has((q(0), heis3(1, 0, 0)))
    assert g.lt((q(0), heis3(5, 5, 5)), (q(1, 100), heis3(0, 0, 0)))
    assert g.halve((q(1), heis3(1, 1, 1))) == (q(1, 2), heis3(F(1, 2), F(1, 2), F(3, 8)))


def test_lex_product_requires_linear_head():
    direct = pmv.DirectProductGroup(pmv.RationalGroup(), pmv.RationalGroup())
    with pytest.raises(pmv.AlgebraError):
        pmv.LexProduct(direct, pmv.RationalGroup())


def test_lex_order_translation_invariant():
    g = pmv.LexProduct(pmv.RationalGroup(), pmv.HeisenbergGroup())
    rng = make_rng(4, "lex-mono")
    for _ in range(100):
        a, b, c = (g.random_element(rng) for _ in range(3))
        if g.leq(a, b):
            assert g.leq(g.add(c, a), g.add(c, b))
            assert g.leq(g.add(a, c), g.add(b, c))


def test_direct_product_partial_order():
    g = pmv.DirectProductGroup(pmv.IntegerGroup(), pmv.IntegerGroup())
    assert g.cmp((0, 1), (1, 0)) is None
    assert g.join((0, 1), (1, 0)) == (1, 1)
    assert g.meet((0, 1), (1, 0)) == (0, 0)
    assert g.leq((0, 0), (1, 1))


@pytest.mark.parametrize("group, unit, size", [
    (pmv.IntegerGroup(), 3, 4),
    (pmv.IntegerGroup(), -2, 0),
    (pmv.DirectProductGroup(pmv.IntegerGroup(), pmv.IntegerGroup()), (2, 1), 6),
    (pmv.DirectProductGroup(pmv.IntegerGroup(), pmv.DyadicGroup()), (10**9, q(1)), None),
    (pmv.DyadicGroup(), q(1), None),
])
def test_interval_size_counts_the_listed_interval(group, unit, size):
    # a product with a factor it cannot list lists nothing, however large
    # the other factor's interval
    assert group.interval_size(unit) == size
    if size is not None:
        assert len(group.enumerate_interval(unit)) == size


def test_group_ops_bundle():
    g = pmv.HeisenbergGroup()
    a, b = heis3(1, 0, 0), heis3(0, 1, 0)
    assert g.add(a, b) == heis3(1, 1, 1)
    assert g.neg(a) == heis3(-1, 0, 0)
    assert g.cmp(a, b) == 1
    assert g.join(a, b) == heis3(1, 0, 0)
    assert g.meet(a, b) == heis3(0, 1, 0)


# ----------------------------------------------------------------------
# float-backed semidirect products
# ----------------------------------------------------------------------

def test_scaling_semidirect_inverse():
    g = pmv.ScalingSemidirect()
    x = (1.7, -0.3)
    inv = g.neg(x)
    assert inv == pytest.approx((1 / 1.7, 0.3 / 1.7))
    assert g.eq(g.add(x, inv), g.zero())
    assert g.eq(g.add(inv, x), g.zero())


def test_scaling_semidirect_halve_roundtrip():
    g = pmv.ScalingSemidirect()
    rng = make_rng(6, "scal")
    for _ in range(60):
        a = g.random_element(rng)
        h = g.halve(a)
        assert g.eq(g.add(h, h), a)
    assert not g.center_has((2.0, 0.0))
    assert g.center_has((1.0, 0.0))


def test_exp_semidirect_law_and_halve():
    g = pmv.ExpSemidirect()
    x = (0.4, 0.7)
    y = (-0.2, 0.1)
    assert g.add(x, y) == pytest.approx((0.2, math.exp(-0.2) * 0.7 + 0.1))
    h = g.halve(x)
    assert h == pytest.approx((0.2, 0.7 / (math.exp(0.2) + 1)))
    assert g.eq(g.add(h, h), x)
    assert g.eq(g.add(x, g.neg(x)), g.zero())


def abs_cmp(group, a, b):
    """The float groups' order as specified: the first coordinate that
    differs by more than the tolerance decides."""
    for x, y in zip(a, b):
        if abs(x - y) > group.tolerance:
            return -1 if x < y else 1
    return 0


def derived(cls, tolerance):
    """``cls`` with ``abs_cmp`` and LGroup's derived sub, eq, leq, lt, meet
    and join in place of its kernels."""
    spec = {op: getattr(LGroup, op) for op in ("sub", "eq", "leq", "lt", "meet", "join")}
    return type(f"Derived{cls.__name__}", (cls,), dict(spec, cmp=abs_cmp))(tolerance)


def same_float(x, y):
    return (math.isnan(x) and math.isnan(y)) or (
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y))


any_coordinate = st.one_of(st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan]),
                           st.floats(-4, 4), st.floats())
FLOAT_ELEMENTS = {   # sub needs what neg accepts: h > 0 on the scaling group, no exp overflow
    pmv.ScalingSemidirect: st.tuples(st.floats(1e-3, 1e3), st.floats(-1e6, 1e6)),
    pmv.ExpSemidirect: st.tuples(st.floats(-50, 50), st.floats(-1e6, 1e6)),
}


@pytest.mark.parametrize("tolerance", [1e-9, 0.0, 1e-3])
@pytest.mark.parametrize("cls", list(FLOAT_ELEMENTS), ids=lambda c: c.dsl)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_float_kernels_match_derived_definitions(cls, tolerance, data):
    fast, spec = cls(tolerance), derived(cls, tolerance)

    def near(x):
        # ties within ±t; exactly ±t apart when x is 0
        return data.draw(st.one_of(any_coordinate, st.sampled_from(
            [0.0, tolerance, -tolerance, tolerance / 2, -tolerance / 2]).map(lambda s: x + s)))

    a = (data.draw(any_coordinate), data.draw(any_coordinate))
    b = (near(a[0]), near(a[1]))
    assert fast.cmp(a, b) == spec.cmp(a, b)
    for op in ("eq", "leq", "lt"):
        assert getattr(fast, op)(a, b) == getattr(spec, op)(a, b), op
    for op in ("meet", "join"):
        assert getattr(fast, op)(a, b) is getattr(spec, op)(a, b), op
    x, y = data.draw(FLOAT_ELEMENTS[cls]), data.draw(FLOAT_ELEMENTS[cls])
    assert all(map(same_float, fast.sub(x, y), spec.sub(x, y))), (x, y)


#: Units of Γ on the float groups: first coordinate above the zero's, or
#: level with it (then the second coordinate decides).
FUSED_UNITS = {
    pmv.ScalingSemidirect: st.one_of(st.tuples(st.floats(1.01, 4), st.floats(-2, 2)),
                                     st.tuples(st.just(1.0), st.floats(0.01, 2))),
    pmv.ExpSemidirect: st.one_of(st.tuples(st.floats(0.01, 3), st.floats(-2, 2)),
                                 st.tuples(st.just(0.0), st.floats(0.01, 2))),
}


class ScriptedRandom(random.Random):
    """A Random whose ``random()`` returns the given values in turn."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def random(self):
        return next(self.values)


@pytest.mark.parametrize("tolerance", [0.0, 1e-9, 1e-6])
@pytest.mark.parametrize("cls", list(FUSED_UNITS), ids=lambda c: c.dsl)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fused_gamma_kernels_match_generic(cls, tolerance, data):
    # Γ on a float group binds one closure per primitive; GammaPMV's methods
    # compose the group operations and are the specification
    m = pmv.gamma(cls(tolerance), data.draw(FUSED_UNITS[cls]))
    assert {"oplus", "neg", "tilde", "odot", "sample"} <= set(vars(m))
    t, zero, unit = tolerance, m.zero, m.unit
    steps = st.sampled_from([0.0, t, -t, t / 2, -t / 2, 2 * t, -2 * t, 1e-3, -1e-3])

    def nudged(p):
        return (p[0] + data.draw(steps), p[1] + data.draw(steps))

    x = data.draw(st.one_of(FLOAT_ELEMENTS[cls], st.sampled_from([zero, unit])))
    # y = x∼ puts x + y at u and y = x⁻ puts x − u + y at 0: nudged, on
    # either side of the meet with u and the join with 0, or tied in them
    near = data.draw(st.sampled_from([m.tilde(x), m.neg(x), x, zero, unit]))
    y = data.draw(st.one_of(FLOAT_ELEMENTS[cls], st.just(near).map(nudged)))
    for op in ("oplus", "odot"):
        assert all(map(same_float, getattr(m, op)(x, y), getattr(GammaPMV, op)(m, x, y))), op
    for op in ("neg", "tilde"):
        assert all(map(same_float, getattr(m, op)(x), getattr(GammaPMV, op)(m, x))), op
    for op in ("meet", "join"):
        assert getattr(m, op)(x, y) is getattr(GammaPMV, op)(m, x, y), op
    for op in ("eq", "leq"):
        assert getattr(m, op)(x, y) == getattr(GammaPMV, op)(m, x, y), op

    # the sampler draws x0 = z0 + (u0 − z0)·r and x1 = −1 + 2·r′, then
    # joins with 0 and meets with u: r near 0 or 1 and r′ near the
    # zero's or the unit's second coordinate reach both sides of each
    w = unit[0] - zero[0] or 1.0    # on a level unit x0 is z0 whatever r
    firsts = [0.0, t / w, t / (2 * w), 2 * t / w, 1 - t / (2 * w), 1 - 2 * t / w, 1 - 2 ** -53]
    seconds = [(1 + v + s) / 2 for v in (zero[1], unit[1]) for s in (0.0, t, -t, t / 2, -t / 2, 2 * t)]
    r = [data.draw(st.one_of(st.sampled_from(firsts), st.floats(0, 1, exclude_max=True))),
         data.draw(st.one_of(st.sampled_from(seconds), st.floats(0, 1, exclude_max=True)))]
    assert all(map(same_float, m.sample(ScriptedRandom(r)), GammaPMV.sample(m, ScriptedRandom(r))))


def test_exp_unit_past_the_float_range_keeps_the_composition():
    # e^{u₀} overflows, so the fused ∼ has no constant; Γ builds as before
    m = pmv.gamma(pmv.ExpSemidirect(), (800.0, 0.0))
    assert "tilde" not in vars(m) and m.leq(m.zero, m.one)


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("command", ["counterexamples", "analyze"])
def test_fused_gamma_kernels_change_no_report(tmp_path, monkeypatch, command):
    argv = ["counterexamples", "--samples", "200"]
    if command == "analyze":
        path = tmp_path / "semi.json"
        path.write_text(json.dumps({"gamma": {"group": "semi_numeric", "unit": "(5/2,1/3)"}}))
        argv = ["analyze", str(path), "--samples", "200", "--seed", "7"]
    fused = _cli_stdout(argv)
    assert fused[1].startswith("{")
    for cls in FUSED_UNITS:
        monkeypatch.setattr(cls, "gamma_kernels", LGroup.gamma_kernels)
    assert "odot" not in vars(pmv.gamma(pmv.ScalingSemidirect(), (2.0, 0.0)))
    assert _cli_stdout(argv) == fused


def _scalar(base=None):
    """(group, coordinate strategy): Q for None, D for 2, else H(base)."""
    if base is None:
        return pmv.RationalGroup(), st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 6]))
    g = pmv.DyadicGroup() if base == 2 else pmv.PowerDenominatorGroup(base)
    return g, st.builds(F, st.integers(-12, 12), st.sampled_from([1, base, base * base]))


def _carrier(shape):
    """(group, strategies of its flat coordinates) for a shape written as
    nested tuples: ("lex", a, b), ("prod", a, b), "Z", "heis", or a scalar
    base as for :func:`_scalar`."""
    if isinstance(shape, tuple):
        kind, a, b = shape
        (g, cs), (h, ds) = _carrier(a), _carrier(b)
        return (pmv.LexProduct if kind == "lex" else pmv.DirectProductGroup)(g, h), cs + ds
    if shape == "Z":
        return pmv.IntegerGroup(), [st.integers(-4, 4)]
    if shape == "heis":
        return pmv.HeisenbergGroup(), [_scalar()[1]] * 3
    g, c = _scalar(shape)
    return g, [c]


pos_q = st.builds(F, st.integers(1, 12), st.sampled_from([1, 2, 3, 6]))
any_q = _scalar()[1]

#: One carrier per gamma-exact template, with a strategy for its unit's flat
#: coordinates; the nested shapes put heis on either side of a lex and in a
#: product, and a lex head may be 0 with a positive tail.
EXACT_GAMMA_CASES = {
    "Z": ("Z", st.tuples(st.integers(1, 6))),
    "lex(Z,Z)": (("lex", "Z", "Z"), st.one_of(st.tuples(st.integers(1, 7), st.integers(-4, 4)),
                                             st.tuples(st.just(0), st.integers(1, 4)))),
    "Q": (None, st.tuples(pos_q)),
    "D": (2, st.tuples(st.builds(F, st.integers(1, 15), st.sampled_from([1, 2, 4, 8])))),
    "H(6)": (6, st.tuples(st.builds(F, st.integers(1, 12), st.sampled_from([6, 36])))),
    "H(3)": (3, st.tuples(st.builds(F, st.integers(1, 6), st.sampled_from([3, 9])))),
    "heis-central": ("heis", st.tuples(st.just(0), st.just(0), pos_q)),
    "heis-noncentral": ("heis", st.tuples(st.integers(1, 3), any_q, any_q)),
    "heis-thin": ("heis", st.tuples(st.sampled_from([F(1, 5), F(1, 2), F(4, 5)]), any_q, any_q)),
    "lex(Q,heis)": (("lex", None, "heis"), st.one_of(
        st.tuples(pos_q, any_q, any_q, any_q),
        st.tuples(st.just(0), st.just(0), st.just(0), pos_q))),
    "prod(Q,D)": (("prod", None, 2), st.tuples(pos_q, st.sampled_from([F(1), F(3, 4), F(5, 2)]))),
    "prod(lex(D,Q),H(6))": (("prod", ("lex", 2, None), 6),
                            st.tuples(st.sampled_from([F(1), F(3, 2)]), any_q,
                                      st.sampled_from([F(1, 6), F(1)]))),
    "lex(H(4),prod(Q,Q))": (("lex", 4, ("prod", None, None)),
                            st.tuples(st.sampled_from([F(1, 4), F(3, 16), F(2)]), any_q, any_q)),
    "prod(lex(Q,Q),heis)": (("prod", ("lex", None, None), "heis"),
                            st.tuples(pos_q, any_q, st.integers(1, 2), any_q, any_q)),
    "lex(heis,prod(D,Q))": (("lex", "heis", ("prod", 2, None)),
                            st.tuples(st.integers(1, 2), any_q, any_q, st.just(F(1, 2)), any_q)),
    "lex(lex(Q,heis),H(2))": (("lex", ("lex", None, "heis"), 2),
                              st.tuples(pos_q, st.integers(1, 2), any_q, any_q, st.just(F(3, 4)))),
}


def _shape(v):
    """``v`` with each leaf replaced by its type: equal shapes mean equal
    types all the way down."""
    return tuple(map(_shape, v)) if type(v) is tuple else type(v)


def _exact_case(shape, units):
    """(group, strategy of its Γ units, strategies of its flat coordinates,
    strategy of its points), built once so that examples draw from them."""
    g, coordinates = _carrier(shape)
    point = lambda flat: g.from_flat(list(flat))
    return g, units.map(point), coordinates, st.tuples(*coordinates).map(point)


EXACT_GAMMA = {name: _exact_case(*case) for name, case in EXACT_GAMMA_CASES.items()}
seeds, picks = st.integers(0, 2**32), st.integers(0, 4)


def _exact_gamma(name, data):
    g, units, coordinates, points = EXACT_GAMMA[name]
    return pmv.gamma(g, data.draw(units)), g, coordinates, points


@pytest.mark.parametrize("name", list(EXACT_GAMMA_CASES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fused_exact_gamma_kernels_match_generic(name, data):
    # Γ on an exact group binds one kernel per primitive and a sampler; the
    # order operations stay GammaPMV's, whose methods compose the group
    # operations and are the specification
    m, g, coordinates, points = _exact_gamma(name, data)
    assert set(vars(m)) >= {"oplus", "neg", "tilde", "odot", "sample"}
    assert not {"eq", "leq", "meet", "join"} & set(vars(m))
    seed = data.draw(seeds)
    pick = data.draw(picks)
    x = (m.zero, m.unit, m.sample(random.Random(seed)))[pick] if pick < 3 else data.draw(points)
    # y = x∼ puts x + y at u and y = x⁻ puts x − u + y at 0; y may keep
    # only the leading coordinates of such a point, tying in the head
    y = (m.tilde(x), m.neg(x), m.zero, m.unit, x)[data.draw(picks)]
    keep = data.draw(picks)
    if keep == 0:
        y = data.draw(points)
    elif keep < g.flat_arity:
        y = g.from_flat(g.flatten(y)[:keep] + [data.draw(c) for c in coordinates[keep:]])
    for a, b in ((x, y), (y, x)):
        for op in ("oplus", "odot"):
            got, want = getattr(m, op)(a, b), getattr(GammaPMV, op)(m, a, b)
            assert got == want and _shape(got) == _shape(want), (op, a, b)
        for op in ("neg", "tilde"):
            got, want = getattr(m, op)(a), getattr(GammaPMV, op)(m, a)
            assert got == want and _shape(got) == _shape(want), (op, a)
    # the sampler draws the same points from the same stream, and leaves it
    # where the composition leaves it
    fused, composed = random.Random(seed), random.Random(seed)
    for _ in range(4):
        got, want = m.sample(fused), GammaPMV.sample(m, composed)
        assert got == want and _shape(got) == _shape(want)
    assert fused.getstate() == composed.getstate()


#: Arguments of the wrong kind or shape, bare numbers among them.  A
#: payload of the right shape with a malformed coordinate is left out: a
#: kernel may decide its clamp before it reads that coordinate, where the
#: composition raises.
ODD_ARGUMENTS = [None, "ab", (1, 2, 3), True, 1.5, ((1, 2),), F(1, 2), 2]
RATIONAL_TYPES = (pmv.RationalGroup, pmv.DyadicGroup, pmv.PowerDenominatorGroup)


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except Exception as exc:   # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


@pytest.mark.parametrize("name", list(EXACT_GAMMA_CASES))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_fused_exact_kernels_read_and_refuse_as_the_methods_do(name, data):
    # the kernels take Γ's points only: where the method refuses an argument
    # the kernel raises TypeError or ValueError, where both return they
    # agree, and Γ's ⊕ ⁻ ∼ ⊙ on Q, D and H(p) refuse a bare number
    m, g = _exact_gamma(name, data)[:2]
    inside = m.sample(random.Random(0))
    for bad in ODD_ARGUMENTS:
        calls = [(op, args) for op in ("oplus", "odot")
                 for args in ((bad, inside), (m.unit, bad), (bad, bad))]
        calls += [(op, (bad,)) for op in ("neg", "tilde")]
        for op, args in calls:
            got, want = _outcome(getattr(m, op), *args), _outcome(getattr(GammaPMV, op), m, *args)
            if want[0] != "value":
                assert got[0] in (TypeError, ValueError), (op, args, got)
            elif got[0] == "value":
                assert got == want, (op, args)
            if type(g) in RATIONAL_TYPES and type(bad) in (int, F):
                assert got[0] is TypeError, (op, args, got)


@pytest.mark.parametrize("spec", [
    {"group": "lex(Q,heis)", "unit": "(1,5/2,1/3,-1/2)"},
    {"group": "lex(Q,heis)", "unit": "(2/3,0,0,5/7)"},
    {"group": "heis", "unit": "(1/5,1,-2)"},
    {"group": "prod(lex(D,Q),H(6))", "unit": "(3/2,-1/3,1/6)"},
    {"group": "lex(lex(Q,heis),H(2))", "unit": "(1,2,1/3,0,3/4)"},
    {"group": "lex(Z,Z)", "unit": "(1,-2)"},
    {"group": "H(3)", "unit": "2/9"},
], ids=["lex(Q,heis)", "lex(Q,heis)-central", "heis-thin", "prod(lex(D,Q),H(6))",
        "lex(lex(Q,heis),H(2))", "lex(Z,Z)", "H(3)"])
def test_fused_exact_gamma_kernels_change_no_report(tmp_path, monkeypatch, spec):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps({"gamma": spec}))
    runs = [["analyze", str(path), "--samples", "60", "--seed", "5"],
            ["ladder", str(path), "--depth", "4", "--seed", "5"]]
    fused = [_cli_stdout(argv) for argv in runs]
    assert fused[0][1].startswith("{")
    monkeypatch.setattr(LGroup, "gamma_kernels", lambda self, unit: None)
    assert "odot" not in vars(pmv.gamma(pmv.RationalGroup(), (1, 1)))
    assert [_cli_stdout(argv) for argv in runs] == fused


@pytest.mark.parametrize("cls, unit, inside", [(pmv.ScalingSemidirect, (2.0, 0.0), 1.5),
                                               (pmv.ExpSemidirect, (2.0, 0.0), 0.5)],
                         ids=["semi_numeric", "exp_numeric"])
def test_float_carriers_refuse_bool_coordinates(cls, unit, inside):
    # True == 1 and False == 0, so a bool would pass as a point of [0, u]
    m = pmv.gamma(cls(), unit)
    assert m.contains((inside, 0.0))
    for bad in ((True, 0.0), (inside, False)):
        with pytest.raises(pmv.BackendMismatch):
            m.group.validate(bad)
        assert not m.contains(bad)


# ----------------------------------------------------------------------
# Γ
# ----------------------------------------------------------------------

def test_unit_must_be_positive():
    with pytest.raises(pmv.AlgebraError):
        pmv.gamma(pmv.IntegerGroup(), 0)
    with pytest.raises(pmv.AlgebraError):
        pmv.gamma(pmv.IntegerGroup(), -2)


def test_gamma_z2_is_the_three_element_chain():
    g = pmv.gamma(pmv.IntegerGroup(), 2)
    assert g.size == 3
    table = pmv.tabulate(g)
    assert table.table == pmv.chain(2).table


def test_gamma_lex_heis_is_symmetric_noncommutative():
    m = pmv.gamma(pmv.LexProduct(pmv.RationalGroup(), pmv.HeisenbergGroup()),
                  (q(1), heis3(0, 0, 0)))
    assert m.symmetry_check(budget=150).passed
    x = (q(0), heis3(1, 0, 0))
    y = (q(0), heis3(0, 1, 0))
    assert m.contains(x) and m.contains(y)
    assert not m.eq(m.oplus(x, y), m.oplus(y, x))


#: One unit per gamma template of the benchmark, then two float units.
SYMMETRY_UNITS = [
    ("Q", "3/2"), ("D", "5/4"), ("H(6)", "7/36"), ("H(3)", "5/9"),
    ("heis", "(0,0,3/2)"), ("heis", "(3/2,-1/3,2/5)"), ("heis", "(1/5,2/3,-1/8)"),
    ("lex(Q,heis)", "(1,0,0,1/8)"), ("lex(Q,heis)", "(2,5/2,1/3,-1/4)"),
    ("prod(Q,H(4))", "(1/3,5/16)"), ("prod(lex(D,Q),H(2))", "(3/4,-2/5,5/4)"),
    ("lex(heis,prod(Q,Q))", "(2,1/3,-1/2,-1,3/7)"), ("Z", "4"), ("lex(Z,Z)", "(3,-2)"),
    ("semi_numeric", "(2,0)"), ("semi_numeric", "(3,1)"),
]


@pytest.mark.parametrize("group, unit", SYMMETRY_UNITS)
@pytest.mark.parametrize("seed", [0, 1])
def test_gamma_symmetry_is_unit_centrality(group, unit, seed):
    # x⁻ = u − x and x∼ = −x + u agree on [0, u] exactly when the strong
    # unit u is central, so the exact test decides what the sampled one checks
    g = parse_group(group)
    u = parse_element_literal(g, unit)
    assert g.center_has(u) == pmv.gamma(g, u).symmetry_check(400, seed).passed


def test_gamma_scaling_action_interval():
    m = pmv.gamma(pmv.ScalingSemidirect(), (2.0, 0.0))
    assert m.contains((1.5, 0.9))
    assert m.contains((1.0, 0.4)) and not m.contains((1.0, -0.4))
    assert m.contains((2.0, -0.4)) and not m.contains((2.0, 0.4))
    assert m.check_axioms(budget=400).all_pass


def test_halving_unique_against_doubling():
    groups = [pmv.RationalGroup(), pmv.DyadicGroup(), pmv.PowerDenominatorGroup(6)]
    rng = make_rng(8, "halve")
    for g in groups:
        for _ in range(50):
            a = g.random_element(rng)
            assert g.halve(g.add(a, a)) == a


def test_sampled_interval_points_stay_inside():
    m = pmv.gamma(pmv.LexProduct(pmv.RationalGroup(), pmv.HeisenbergGroup()),
                  (q(1), heis3(0, 0, 0)))
    rng = make_rng(9, "interval")
    for _ in range(200):
        assert m.contains(m.sample(rng))


# ----------------------------------------------------------------------
# centres and sample streams
# ----------------------------------------------------------------------

def lex_q_heis():
    return pmv.LexProduct(pmv.RationalGroup(), pmv.HeisenbergGroup())


# (group, unit) for every kind of carrier, abelian or not
CENTRE_CASES = {
    "Z": (pmv.IntegerGroup, 2),
    "Q": (pmv.RationalGroup, q(1)),
    "D": (pmv.DyadicGroup, q(1)),
    "H(6)": (lambda: pmv.PowerDenominatorGroup(6), q(1)),
    "heis": (pmv.HeisenbergGroup, heis3(1, F(1, 2), 0)),
    "semi_numeric": (pmv.ScalingSemidirect, (2.0, 0.0)),
    "exp_numeric": (pmv.ExpSemidirect, (1.0, 0.0)),
    "lex(Q,heis)": (lex_q_heis, (q(1), heis3(0, 0, 0))),
    "prod(D,Q)": (lambda: pmv.DirectProductGroup(pmv.DyadicGroup(), pmv.RationalGroup()),
                  (q(1), q(1))),
    "lex(Z,Z)": (lambda: pmv.LexProduct(pmv.IntegerGroup(), pmv.IntegerGroup()), (2, 0)),
}


def commutes_with_samples(g, a, budget=256):
    """The sampled reference: a commutes with ``budget`` seeded elements."""
    rng = make_rng(0, "center", g.dsl)
    return all(g.eq(g.add(a, b), g.add(b, a))
               for b in (g.random_element(rng) for _ in range(budget)))


@pytest.mark.parametrize("name", list(CENTRE_CASES))
def test_center_has_is_exact(name):
    make, unit = CENTRE_CASES[name]
    g = make()
    points = [g.zero()]
    half = g.halve(unit)
    if half is not None:
        points.append(half)
    rng = make_rng(1, "centre-points", name)
    points += [g.random_element(rng) for _ in range(20)]
    verdicts = [g.center_has(a) for a in points]
    assert all(type(v) is bool for v in verdicts)
    assert verdicts == [commutes_with_samples(g, a) for a in points]
    assert verdicts[0]


STRONG_UNIT_CASES = [
    ("Z", "2", True), ("Z", "0", False), ("Q", "1/3", True), ("H(6)", "-1/6", False),
    ("heis", "(1/3,2/3,-1/8)", True), ("heis", "(0,1,0)", False), ("heis", "(0,0,3/2)", False),
    ("lex(Z,heis)", "(1,0,1,0)", True), ("lex(Z,heis)", "(0,0,1,0)", False),
    ("lex(heis,Q)", "(1,0,0,-5)", True), ("prod(Z,heis)", "(1,1,0,0)", True),
    ("prod(Z,heis)", "(1,0,1,0)", False), ("prod(D,Q)", "(1,0)", False),
    ("semi_numeric", "(2,0)", True), ("semi_numeric", "(1,1)", False),
    ("exp_numeric", "(1,0)", True), ("exp_numeric", "(0,1)", False),
]


@pytest.mark.parametrize("group, unit, strong", STRONG_UNIT_CASES)
def test_strong_unit_bounds_every_element(group, unit, strong):
    # the sampled reference: each of 64 small elements lies below some n·u
    # with n ≤ 64 exactly when u is strong
    g = pmv.ExpSemidirect() if group == "exp_numeric" else parse_group(group)
    u = parse_element_literal(g, unit)
    assert g.strong_unit(u) is strong
    multiples = [u]
    for _ in range(63):
        multiples.append(g.add(multiples[-1], u))
    rng = make_rng(2, "strong-unit", group)
    bounded = [any(g.leq(x, m) for m in multiples)
               for x in (g.random_element(rng) for _ in range(64))]
    assert all(bounded) is strong


# The first five points of the stream ``analyze --seed 0`` draws A1–A8
# from.  A sampler that draws differently changes these on purpose.
STREAM_PINS = [
    (pmv.RationalGroup, q(1), ["6/7", "131/316", "533/889", "42/103", "414/751"]),
    (pmv.DyadicGroup, q(1), ["1", "13/16", "51/256", "23/32", "49/64"]),
    (lambda: pmv.PowerDenominatorGroup(6), q(1),
     ["25/216", "85/216", "1/3", "173/216", "2/3"]),
    (pmv.HeisenbergGroup, heis3(1, F(1, 2), 0),
     ["(0, 0, 1)", "(0, 0, 0)", "(1, 1/2, 0)", "(0, 0, 0)", "(1, 1/2, 0)"]),
    (lex_q_heis, (q(1), heis3(0, 0, 0)),
     ["(6/7, 0, 5/4, 2)", "(42/103, 7/8, 19/16, 17/16)", "(596/687, 0, -1, -1/2)",
      "(62/75, 29/16, 3/4, -7/4)", "(188/357, -11/8, -19/16, -1/16)"]),
    (lambda: pmv.DirectProductGroup(
        pmv.LexProduct(pmv.DyadicGroup(), pmv.RationalGroup()), pmv.PowerDenominatorGroup(6)),
     ((q(1), q(0)), q(1)),
     ["(1, 0, 103/216)", "(199/256, 1013/687, 37/216)", "(1, 0, 2/3)", "(1/16, 13/119, 0)",
      "(1, -937/504, 0)"]),
    (lambda: pmv.LexProduct(pmv.IntegerGroup(), pmv.IntegerGroup()), (2, 0),
     ["(0, 1)", "(1, 5)", "(2, -5)", "(1, 3)", "(1, 4)"]),
    (pmv.ScalingSemidirect, (2.0, 0.0),
     [(1.006430728730023, -0.38371489560438254), (1.4337730148521146, 0.9635823979997507),
      (1.3299397270605162, -0.26708225303189326), (1.5594586610089936, -0.32930823292067224),
      (1.2059503707005896, 0.3305472024721825)]),
]


@pytest.mark.parametrize("make, unit, expected", STREAM_PINS,
                         ids=["Q", "D", "H(6)", "heis", "lex(Q,heis)", "prod(lex(D,Q),H(6))",
                              "lex(Z,Z)", "semi_numeric"])
def test_gamma_sample_stream_is_pinned(make, unit, expected):
    m = pmv.gamma(make(), unit)
    rng = make_rng(0, "axioms")
    draws = [m.sample(rng) for _ in range(5)]
    if m.group.exact:
        draws = [m.format_element(x) for x in draws]
    assert draws == expected


@pytest.mark.parametrize("make", [pmv.DyadicGroup, lambda: pmv.PowerDenominatorGroup(2)],
                         ids=["D", "H(2)"])
def test_samplers_reach_the_denominator_bound(make):
    # the pinned streams above are too short to meet the largest denominator
    # (Q draws it once in 1,024 denominators, so it is left out)
    g = make()
    rng = make_rng(0, "denominators")
    assert max(g.random_element(rng)[1] for _ in range(4000)) == SAMPLE_DENOMINATOR_BOUND


def test_element_formatting_and_flat_parsing():
    # exact payloads are reduced int pairs; Fractions go in and come out
    g = pmv.LexProduct(pmv.RationalGroup(), pmv.HeisenbergGroup())
    x = g.from_flat([F(3, 4), 1, F(0), F(-4, 2)])
    assert x == ((3, 4), ((1, 1), (0, 1), (-2, 1)))
    assert g.format_element(x) == "(3/4, 1, 0, -2)"
    flat = g.flatten(x)
    assert flat == [F(3, 4), F(1), F(0), F(-2)] and all(type(v) is F for v in flat)
    assert g.from_flat(flat) == x
    assert g.flat_arity == 4


@settings(max_examples=80, deadline=None)
@given(st.fractions(min_value=-4, max_value=4),
       st.fractions(min_value=-4, max_value=4))
def test_rational_lattice_identities(a, b):
    g = pmv.RationalGroup()
    x, y = g.from_flat([a]), g.from_flat([b])
    assert g.flatten(g.join(x, y)) == [max(a, b)]
    assert g.flatten(g.meet(x, y)) == [min(a, b)]
    assert g.add(g.join(x, y), g.meet(x, y)) == g.add(x, y)


# ----------------------------------------------------------------------
# exact kernels against the Fraction operators
# ----------------------------------------------------------------------

BIG = 10**40
bigs = st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG))
scalars = st.one_of(
    st.sampled_from([0, F(0), 1, -1]),
    st.integers(-BIG, BIG),
    st.fractions(min_value=-8, max_value=8, max_denominator=64),
    bigs,
)
dyadics = st.builds(F, st.integers(-BIG, BIG), st.integers(0, 140).map(lambda k: 2**k))
triples = st.one_of(st.tuples(scalars, scalars, scalars).map(lambda t: tuple(F(v) for v in t)),
                    st.tuples(bigs, bigs, bigs))


def reduced_pair(p):
    return (type(p) is tuple and len(p) == 2 and type(p[0]) is int and type(p[1]) is int
            and p[1] > 0 and math.gcd(p[0], p[1]) == 1)


def over_powers_of(base):
    return st.builds(F, st.integers(-BIG, BIG), st.integers(0, 60).map(lambda k: base**k))


@settings(max_examples=200, deadline=None)
@given(scalars, dyadics, over_powers_of(6), over_powers_of(3), triples)
def test_halving_kernels(r, d, h6, h3, a):
    for g, v in ((pmv.RationalGroup(), r), (pmv.DyadicGroup(), d),
                 (pmv.PowerDenominatorGroup(6), h6)):
        h = g.halve(g.from_flat([v]))
        assert reduced_pair(h) and g.flatten(h) == [F(v) / 2]
    # H(3) halves i/3ⁿ exactly when i is even
    g3 = pmv.PowerDenominatorGroup(3)
    half3 = g3.halve(g3.from_flat([h3]))
    if h3.numerator % 2:
        assert half3 is None
    else:
        assert reduced_pair(half3) and g3.flatten(half3) == [h3 / 2]
    heis = pmv.HeisenbergGroup()
    x = heis.from_flat(a)
    h = heis.halve(x)
    assert all(map(reduced_pair, h))
    assert heis.add(h, h) == x
    assert heis.flatten(h) == [a[0] / 2, a[1] / 2, (a[2] - a[0] * a[1] / 4) / 2]


@settings(max_examples=300, deadline=None)
@given(scalars, scalars)
def test_fraction_group_kernels_match_operators(a, b):
    g = pmv.RationalGroup()
    fa, fb = F(a), F(b)
    x, y = g.from_flat([a]), g.from_flat([b])
    for got, want in ((g.add(x, y), fa + fb), (g.sub(x, y), fa - fb), (g.neg(x), -fa)):
        assert reduced_pair(got) and g.flatten(got) == [want]
    assert g.cmp(x, y) == (fa > fb) - (fa < fb)
    assert (g.eq(x, y), g.leq(x, y), g.lt(x, y)) == (fa == fb, fa <= fb, fa < fb)
    # LGroup's tie choices: join returns a and meet returns b on equal inputs
    assert g.join(x, y) is (y if fa < fb else x)
    assert g.meet(x, y) is (x if fa < fb else y)


def heis_add(a, b):
    return [a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1]]


def heis_neg(a):
    return [-a[0], -a[1], -a[2] + a[0] * a[1]]


@settings(max_examples=200, deadline=None)
@given(triples, triples)
def test_heisenberg_kernels_match_operators(a, b):
    h = pmv.HeisenbergGroup()
    x, y = h.from_flat(a), h.from_flat(b)
    assert h.flatten(h.add(x, y)) == heis_add(a, b)
    assert h.flatten(h.neg(x)) == heis_neg(a)
    assert h.flatten(h.sub(x, y)) == heis_add(a, heis_neg(b))
    assert h.sub(x, y) == h.add(x, h.neg(y))
    assert all(map(reduced_pair, h.add(x, y) + h.neg(x) + h.sub(x, y)))
    assert h.cmp(x, y) == (a > b) - (a < b)


@settings(max_examples=100, deadline=None)
@given(st.tuples(scalars, triples), st.tuples(scalars, triples),
       st.tuples(dyadics, scalars), st.tuples(dyadics, scalars))
def test_pair_group_sub_is_add_of_neg(x, y, p, q):
    lex = pmv.LexProduct(pmv.RationalGroup(), pmv.HeisenbergGroup())
    a, b = lex.from_flat([x[0], *x[1]]), lex.from_flat([y[0], *y[1]])
    diff = lex.sub(a, b)
    assert diff == lex.add(a, lex.neg(b))
    assert reduced_pair(diff[0]) and all(map(reduced_pair, diff[1]))
    assert lex.flatten(diff) == [F(x[0]) - F(y[0])] + heis_add(x[1], heis_neg(y[1]))
    prod = pmv.DirectProductGroup(pmv.DyadicGroup(), pmv.RationalGroup())
    c, d = prod.from_flat(list(p)), prod.from_flat(list(q))
    diff = prod.sub(c, d)
    assert diff == prod.add(c, prod.neg(d))
    assert all(map(reduced_pair, diff))
    assert prod.flatten(diff) == [p[0] - q[0], F(p[1]) - F(q[1])]


small_q = st.fractions(min_value=-3, max_value=3, max_denominator=6)
small_z = st.integers(-3, 3)
small_d = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 4]))
small_h6 = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 6, 36]))

#: Groups whose order operations, equality and arithmetic have fast paths,
#: with a strategy for each coordinate that ``from_flat`` takes.  Small
#: coordinates make ties at every lexicographic level common.
COMPOSITE_CASES = {
    "heis": (pmv.HeisenbergGroup, [small_q] * 3),
    "lex(Q,heis)": (lex_q_heis, [small_q] * 4),
    "prod(Q,D)": (lambda: pmv.DirectProductGroup(pmv.RationalGroup(), pmv.DyadicGroup()),
                  [small_q, small_d]),
    # lex needs a linear head, so prod(Z,D) stands in the tail
    "lex(Q,prod(Z,D))": (lambda: pmv.LexProduct(pmv.RationalGroup(), pmv.DirectProductGroup(
        pmv.IntegerGroup(), pmv.DyadicGroup())), [small_q, small_z, small_d]),
    "prod(lex(Q,Q),H(6))": (lambda: pmv.DirectProductGroup(pmv.LexProduct(
        pmv.RationalGroup(), pmv.RationalGroup()), pmv.PowerDenominatorGroup(6)),
        [small_q, small_q, small_h6]),
    # float factors within the ranges of FLOAT_ELEMENTS
    "prod(Q,exp_numeric)": (lambda: pmv.DirectProductGroup(pmv.RationalGroup(),
                                                           pmv.ExpSemidirect()),
                            [small_q, st.floats(-50, 50), st.floats(-1e6, 1e6)]),
    "lex(Q,semi_numeric)": (lambda: pmv.LexProduct(pmv.RationalGroup(), pmv.ScalingSemidirect()),
                            [small_q, st.floats(1e-3, 1e3), st.floats(-1e6, 1e6)]),
}

FLOAT_GROUPS = (pmv.ScalingSemidirect, pmv.ExpSemidirect)


def spec_cmp(g, a, b):
    """The order as specified: rationals and Heisenberg triples compare
    their coordinates lexicographically, a lex product its head and then
    its tail, a direct product factor by factor, and the float groups by
    ``abs_cmp``."""
    if isinstance(g, pmv.DirectProductGroup):
        cs = {spec_cmp(g.first, a[0], b[0]), spec_cmp(g.second, a[1], b[1])}
        return None if None in cs or {-1, 1} <= cs else max(cs, key=abs)
    if isinstance(g, pmv.LexProduct):
        return spec_cmp(g.first, a[0], b[0]) or spec_cmp(g.second, a[1], b[1])
    if isinstance(g, FLOAT_GROUPS):
        return abs_cmp(g, a, b)
    x, y = g.flatten(a), g.flatten(b)
    return (x > y) - (x < y)


def spec_op(g, op, *xs):
    """``op`` factor by factor through each factor's public operation, and
    on the Heisenberg group by its formulas on Fractions."""
    if isinstance(g, (pmv.LexProduct, pmv.DirectProductGroup)):
        return (spec_op(g.first, op, *(x[0] for x in xs)),
                spec_op(g.second, op, *(x[1] for x in xs)))
    if isinstance(g, pmv.HeisenbergGroup):
        formulas = {"add": heis_add, "neg": heis_neg,
                    "sub": lambda a, b: heis_add(a, heis_neg(b))}
        return g.from_flat(formulas[op](*map(g.flatten, xs)))
    return getattr(g, op)(*xs)


@pytest.mark.parametrize("name", list(COMPOSITE_CASES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exact_fast_paths_match_derived_definitions(name, data):
    make, coordinates = COMPOSITE_CASES[name]
    g = make()
    x = [data.draw(s) for s in coordinates]
    # each coordinate of y ties with x's, is near it (floats), or is fresh
    y = [data.draw(st.one_of(st.just(v), s, st.sampled_from([1e-10, -1e-10]).map(v.__add__))
                   if isinstance(v, float) else st.one_of(st.just(v), s))
         for v, s in zip(x, coordinates)]
    a, b = g.from_flat(x), g.from_flat(y)   # equal values are distinct objects
    c = g.cmp(a, b)
    assert c == spec_cmp(g, a, b)
    for op in ("eq", "leq", "lt"):
        assert getattr(g, op)(a, b) == getattr(LGroup, op)(g, a, b), op
    if c is not None:
        for op in ("join", "meet"):
            got, want = getattr(g, op)(a, b), getattr(LGroup, op)(g, a, b)
            # a composite may build a new pair equal to the chosen argument,
            # and a direct product with a float factor one within tolerance
            if got is a or got is b:
                assert got is want, op
            else:
                assert got == want if g.exact else spec_cmp(g, got, want) == 0, op
    assert g.add(a, b) == spec_op(g, "add", a, b)
    assert g.sub(a, b) == spec_op(g, "sub", a, b)
    assert g.neg(a) == spec_op(g, "neg", a)


#: Direct products for ``cmp``: the nested one has incomparable factors.
PROD_CMP_CASES = {
    "prod(Q,D)": COMPOSITE_CASES["prod(Q,D)"],
    "prod(lex(Q,Q),H(6))": COMPOSITE_CASES["prod(lex(Q,Q),H(6))"],
    "prod(prod(Z,D),Q)": (lambda: pmv.DirectProductGroup(pmv.DirectProductGroup(
        pmv.IntegerGroup(), pmv.DyadicGroup()), pmv.RationalGroup()), [small_z, small_d, small_q]),
}


@pytest.mark.parametrize("name", list(PROD_CMP_CASES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_product_cmp_matches_factor_leq_both_ways(name, data):
    make, coordinates = PROD_CMP_CASES[name]
    g = make()
    x = [data.draw(s) for s in coordinates]
    y = [data.draw(st.one_of(st.just(v), s)) for v, s in zip(x, coordinates)]
    a, b = g.from_flat(x), g.from_flat(y)
    le = g.first.leq(a[0], b[0]) and g.second.leq(a[1], b[1])
    ge = g.first.leq(b[0], a[0]) and g.second.leq(b[1], a[1])
    assert g.cmp(a, b) == (0 if le and ge else -1 if le else 1 if ge else None)


def test_nested_product_compares_through_incomparable_factors():
    g = PROD_CMP_CASES["prod(prod(Z,D),Q)"][0]()
    a, b, c = (g.from_flat(v) for v in ([0, 1, 0], [1, 0, 0], [1, 1, -1]))
    assert g.first.cmp(a[0], b[0]) is None and g.cmp(a, b) is None
    # the factor signs disagree
    assert g.first.cmp(a[0], c[0]) == -1 and g.second.cmp(a[1], c[1]) == 1 and g.cmp(a, c) is None
    assert g.cmp(a, g.from_flat([1, 1, 0])) == -1 and g.cmp(c, a) is None


# ----------------------------------------------------------------------
# canonical payloads
# ----------------------------------------------------------------------

#: Each stands where a rational coordinate belongs and is none: an
#: unreduced pair, a denominator of at most 0, a bool or float coordinate,
#: and a stray Fraction.
NOT_CANONICAL = {
    "unreduced": (2, 4),
    "unreduced-zero": (0, 2),
    "denominator-0": (1, 0),
    "denominator-negative": (1, -2),
    "bool-numerator": (True, 2),
    "bool-denominator": (1, True),
    "float-numerator": (0.5, 1),
    "bool": True,
    "float": 0.5,
    "Fraction": F(1, 2),
    "int": 1,
}

#: Each stands where an integer of Z belongs and is none; ``True == 1``,
#: so a bool would pass a test by ``==``.
NOT_INTEGER = {"True": True, "False": False, "float": 1.0, "Fraction": F(1), "pair": (1, 1)}

CANONICAL_CASES = {
    "Q": (pmv.RationalGroup, [1], NOT_CANONICAL),
    "D": (pmv.DyadicGroup, [1], NOT_CANONICAL),
    "H(6)": (lambda: pmv.PowerDenominatorGroup(6), [1], NOT_CANONICAL),
    "heis": (pmv.HeisenbergGroup, [1, F(1, 2), 0], NOT_CANONICAL),
    "lex(Q,heis)": (lex_q_heis, [1, 0, 0, 0], NOT_CANONICAL),
    "prod(Q,D)": (lambda: pmv.DirectProductGroup(pmv.RationalGroup(), pmv.DyadicGroup()),
                  [1, 1], NOT_CANONICAL),
    "Z": (pmv.IntegerGroup, [2], NOT_INTEGER),
}


def with_coordinate(g, x, i, value):
    """``x`` with its i-th rational coordinate replaced by ``value``."""
    if isinstance(g, (pmv.LexProduct, pmv.DirectProductGroup)):
        if i == 0:
            return (value, x[1])
        return (x[0], with_coordinate(g.second, x[1], i - 1, value))
    if isinstance(g, pmv.HeisenbergGroup):
        return x[:i] + (value,) + x[i + 1:]
    return value


@pytest.mark.parametrize("name", list(CANONICAL_CASES))
def test_only_canonical_payloads_validate(name):
    make, unit, not_canonical = CANONICAL_CASES[name]
    g = make()
    m = pmv.gamma(g, g.from_flat(unit))
    half = g.halve(m.unit)
    g.validate(half)
    assert m.contains(half)
    for flag in (True, False):
        with pytest.raises(pmv.BackendMismatch):
            g.from_flat([flag] * g.flat_arity)
    for i in range(g.flat_arity):
        for label, bad in not_canonical.items():
            x = with_coordinate(g, half, i, bad)
            with pytest.raises(pmv.BackendMismatch):
                g.validate(x)
            assert not m.contains(x), (i, label)


@pytest.mark.parametrize("name", ["heis", "lex(Q,heis)", "prod(Q,D)"])
def test_composite_points_refuse_bare_coordinates(name):
    # a bare number in a coordinate of a Heisenberg or product point is
    # refused loudly where points come in, and eq, which compares payloads,
    # does not read it
    g = CANONICAL_CASES[name][0]()
    point = g.from_flat([F(1, 2)] * g.flat_arity)
    for i in range(g.flat_arity):
        bare = with_coordinate(g, point, i, F(1, 2))
        with pytest.raises(pmv.BackendMismatch):
            g.validate(bare)
        with pytest.raises(pmv.BackendMismatch):
            pmv.gamma(g, bare)
        assert not g.eq(bare, point) and not g.eq(point, bare)


RATIONAL_GROUPS = {
    "Q": pmv.RationalGroup,
    "D": pmv.DyadicGroup,
    "H(6)": lambda: pmv.PowerDenominatorGroup(6),
}


@pytest.mark.parametrize("name", list(RATIONAL_GROUPS))
def test_rational_groups_read_bare_numbers(name):
    # only cmp, in every mix of arguments, and gamma's unit read an int or a
    # Fraction as its pair; the other operations take pairs only, and under
    # eq a bare number equals no pair
    g = RATIONAL_GROUPS[name]()
    numbers = [F(3, 4), F(-1, 2), 2, 0]
    for x in numbers:
        px = g.from_flat([x])
        for op in ("neg", "halve"):
            with pytest.raises(TypeError):
                getattr(g, op)(x)
        for y in numbers:
            py = g.from_flat([y])
            for args in ((x, y), (x, py), (px, y)):
                assert g.cmp(*args) == g.cmp(px, py), args
                for op in ("add", "sub", "leq", "join", "meet"):
                    with pytest.raises(TypeError):
                        getattr(g, op)(*args)
            assert not g.eq(x, py) and not g.eq(px, y)
    m = pmv.gamma(g, F(1))
    assert m.unit == g.from_flat([1]) and pmv.gamma(g, 1).unit == m.unit
    for op, args in (("leq", (F(1, 4), F(1, 2))), ("oplus", (F(3, 4), F(1, 2)))):
        with pytest.raises(TypeError):      # Γ's operations take its points only
            getattr(m, op)(*args)
    # validate and contains still take pairs only, and a non-number is refused
    assert not m.contains(F(1, 2)) and m.contains(g.from_flat([F(1, 2)]))
    for bad in (0.5, True, "1"):
        with pytest.raises(pmv.BackendMismatch):
            pmv.gamma(g, bad)
    one = g.from_flat([1])
    for bad in (0.5, True):
        with pytest.raises(pmv.BackendMismatch):
            g.cmp(one, bad)
        for op in ("add", "leq", "join"):
            with pytest.raises(TypeError):
                getattr(g, op)(one, bad)
        assert not g.eq(one, bad)
    # a malformed pair is read once, not again and again
    for op in ("add", "sub", "cmp", "leq", "lt", "join", "meet"):
        with pytest.raises(TypeError):
            getattr(g, op)((1, None), g.from_flat([1]))
