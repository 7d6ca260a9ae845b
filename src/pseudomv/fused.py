"""The fused Γ(G, u) operations of the exact groups.

``LGroup.gamma_kernels`` loads this module the first time Γ is built on an
exact group, so a command that builds none does not compile it.  For ℤ, Q, D, H(p), the Heisenberg group, and lex and direct
products of them, :func:`gamma_parts` builds, once per unit, one closure
for each of x ⊕ y = (x+y) ∧ u, x⁻ = u − x, x∼ = −x + u and
x ⊙ y = (x − u + y) ∨ 0, and an interval sampler.  Each decides its clamp
before it reduces anything:

* on Q, D and H(p), one unreduced sum over one denominator, one sign test
  and at most one gcd;
* on the Heisenberg group, each coordinate in one pass, leaving on the
  first coordinate's sign unless it ties;
* on a lex product, the head decides unless it ties, read off the head's
  ``below`` and ``above``, and only then is the tail clamped, by its own Γ
  operation at its own unit;
* on a direct product, the factors' closures componentwise, as
  Γ(G₁ × G₂, (u₁, u₂)) = Γ(G₁, u₁) × Γ(G₂, u₂);
* on ℤ, the int expressions.

The closures take Γ's points only, canonical payloads of [0, u], and the
samplers a ``random.Random``: they draw the integers ``rng.randrange``
would, as ``a + rng._randbelow(b − a)``, without its argument checks.  On
a point each Γ closure returns what ``GammaPMV``'s method returns, equal in
value and in type
(``tests/test_lgroups.py::test_fused_exact_gamma_kernels_match_generic``).
An argument it cannot read raises TypeError or ValueError where it is
read, a bare int or Fraction on Q, D and H(p) included, as in the group's
own operations: of those only ``cmp`` and ``gamma``'s unit read one as a
pair (see :mod:`pseudomv.lgroups`).  A payload of the right shape with a
malformed coordinate may instead return, as it lies outside
``validate``: a closure may decide its clamp before it reads that
coordinate.  Only the exact types above are fused: a subclass
may change the operations, so Γ composes them.
"""

from __future__ import annotations

import math
from typing import Any

from .lgroups import (
    _ZERO,
    SAMPLE_DENOMINATOR_BOUND,
    DirectProductGroup,
    DyadicGroup,
    HeisenbergGroup,
    IntegerGroup,
    LexProduct,
    LGroup,
    PowerDenominatorGroup,
    RationalGroup,
    _reduced,
)

#: The Γ primitives fused here, which GammaPMV binds.
GAMMA_OPS = ("oplus", "neg", "tilde", "odot", "sample")


def exact_kernels(group: LGroup, unit: Any) -> dict[str, Any] | None:
    """``gamma_kernels`` of an exact group: the Γ closures of
    :func:`gamma_parts`; None for a group that has none."""
    parts = gamma_parts(group, unit)
    return None if parts is None else {op: parts[op] for op in GAMMA_OPS}


def gamma_parts(group: LGroup, unit: Any) -> dict[str, Any] | None:
    """The fused Γ(group, unit) operations, and what a lexicographic or
    direct product builds its own from; None where the group has none.

    ``oplus``, ``neg``, ``tilde``, ``odot`` and ``sample`` are Γ's.
    ``sample`` needs unit ≥ 0, as every Γ unit, the head of a lex unit and
    each factor of a product unit is.  ``rest`` is x − u + y unclamped, and
    ``zero`` the zero payload.  A linearly ordered group adds ``below``,
    x + y if it lies below u, ``unit`` itself if it is u and None above,
    and ``above``, x − u + y if it lies above 0, ``zero`` itself if it is 0
    and None below: the head of a lexicographic product reads its clamps
    off them.  None of the parts reads a bare number."""
    build = _PARTS.get(type(group))
    return None if build is None else build(group, unit)


def _denominator_draw(group):
    """``group._denominator(rng)`` as a function of (rng, below), drawing
    ``randrange(a, b)`` as ``a + below(b − a)``."""
    if type(group) is RationalGroup:
        return lambda rng, below: 1 + below(SAMPLE_DENOMINATOR_BOUND)
    if type(group) is DyadicGroup:
        exponents = SAMPLE_DENOMINATOR_BOUND.bit_length()
        return lambda rng, below: 1 << below(exponents)
    return lambda rng, below: group._denominator(rng)     # H(p) draws with random()


def _integer_parts(group, u):
    def capped(over):                   # (x + y) ∧ u
        def oplus(x, y):
            s = x + y
            if s < u:
                return s
            return u if s == u else over
        return oplus

    def shifted(under, clamp):          # (x − u + y) ∨ 0
        def odot(x, y):
            s = x - u + y
            if s > 0 or not clamp:
                return s
            return 0 if s == 0 else under
        return odot

    def negation(left):                 # u − x, or −x + u
        def neg(x):
            return u - x if left else -x + u
        return neg

    def sample(rng):                    # randrange(0, u + 1)
        return rng._randbelow(u + 1)

    return {"oplus": capped(u), "below": capped(None), "odot": shifted(0, True),
            "above": shifted(None, True), "rest": shifted(None, False), "neg": negation(True),
            "tilde": negation(False), "sample": sample, "zero": 0}


def _fraction_parts(group, unit):
    # Each operation sums over one denominator without reducing, decides
    # the clamp by the sign of one cross-multiplication, and reduces
    # with one gcd only what it returns.  x⁻ and x∼ are both u − x.
    un, ud = unit
    gcd = math.gcd

    def capped(over):                   # (x + y) ∧ u
        def oplus(x, y):
            n, d = x
            m, e = y
            if d != e:
                n, d = n * e + m * d, d * e
            else:
                n += m
            c = n * ud - un * d
            if c < 0:
                g = gcd(n, d)
                return (n, d) if g == 1 else (n // g, d // g)
            return over if c else unit
        return oplus

    def shifted(under, clamp):          # (x − u + y) ∨ 0
        def odot(x, y):
            n, d = x
            m, e = y
            if d != e:
                n, d = n * e + m * d, d * e
            else:
                n += m
            if d != ud:
                n, d = n * ud - un * d, d * ud
            else:
                n -= un
            if n <= 0 and clamp:
                return under if n else _ZERO
            g = gcd(n, d)
            return (n, d) if g == 1 else (n // g, d // g)
        return odot

    def neg(x):                         # u − x = −x + u
        n, d = x
        if d != ud:
            n, d = un * d - n * ud, ud * d
        else:
            n = un - n
        g = gcd(n, d)
        return (n, d) if g == 1 else (n // g, d // g)

    denominator = _denominator_draw(group)

    def sample(rng):                    # k/d for k ≤ u·d, which needs no meet with u
        below = rng._randbelow
        d = denominator(rng, below)
        n = below(un * d // ud + 1)
        g = gcd(n, d)
        return (n, d) if g == 1 else (n // g, d // g)

    return {"oplus": capped(unit), "below": capped(None), "odot": shifted(_ZERO, True),
            "above": shifted(None, True), "rest": shifted(None, False), "neg": neg,
            "tilde": neg, "sample": sample, "zero": _ZERO}


def _heisenberg_parts(group, unit):
    # Each coordinate is summed over one denominator without reducing,
    # and the clamp is decided lexicographically: the first coordinate's
    # sign exits before the others are computed, unless it ties.  Only
    # what is returned is reduced, with one gcd per coordinate.
    (a0, b0), (a1, b1), (a2, b2) = unit
    zero = group.zero()

    def capped(over):                   # (x + y) ∧ u
        def oplus(x, y):
            (n0, d0), (n1, d1), (n2, d2) = x
            (m0, e0), (m1, e1), (m2, e2) = y
            if d0 != e0:
                s0, t0 = n0 * e0 + m0 * d0, d0 * e0
            else:
                s0, t0 = n0 + m0, d0
            c = s0 * b0 - a0 * t0
            if c > 0:
                return over
            if d1 != e1:
                s1, t1 = n1 * e1 + m1 * d1, d1 * e1
            else:
                s1, t1 = n1 + m1, d1
            if not c:
                c = s1 * b1 - a1 * t1
                if c > 0:
                    return over
            if d2 != e2:                # x₂ + y₂ + x₀y₁
                n2, d2 = n2 * e2 + m2 * d2, d2 * e2
            else:
                n2 += m2
            p = n0 * m1
            if p:
                q = d0 * e1
                if d2 != q:
                    n2, d2 = n2 * q + p * d2, d2 * q
                else:
                    n2 += p
            if not c:
                c = n2 * b2 - a2 * d2
                if c >= 0:
                    return over if c else unit
            return (_reduced((s0, t0)), _reduced((s1, t1)), _reduced((n2, d2)))
        return oplus

    def shifted(under, clamp):          # (x − u + y) ∨ 0
        def odot(x, y):
            (n0, d0), (n1, d1), (n2, d2) = x
            (m0, e0), (m1, e1), (m2, e2) = y
            if d0 != b0:                # p/q = x₀ − u₀
                p, q = n0 * b0 - a0 * d0, d0 * b0
            else:
                p, q = n0 - a0, d0
            if q != e0:
                s0, t0 = p * e0 + m0 * q, q * e0
            else:
                s0, t0 = p + m0, q
            if s0 < 0 and clamp:
                return under
            if e1 != b1:                # r/v = y₁ − u₁
                r, v = m1 * b1 - a1 * e1, e1 * b1
            else:
                r, v = m1 - a1, e1
            if d1 != v:
                s1, t1 = n1 * v + r * d1, d1 * v
            else:
                s1, t1 = n1 + r, d1
            tie = clamp and not s0
            if tie:
                if s1 < 0:
                    return under
                tie = not s1
            if d2 != e2:                # x₂ + y₂ − u₂ + (x₀ − u₀)(y₁ − u₁)
                n2, d2 = n2 * e2 + m2 * d2, d2 * e2
            else:
                n2 += m2
            if d2 != b2:
                n2, d2 = n2 * b2 - a2 * d2, d2 * b2
            else:
                n2 -= a2
            p *= r
            if p:
                q *= v
                if d2 != q:
                    n2, d2 = n2 * q + p * d2, d2 * q
                else:
                    n2 += p
            if tie and n2 <= 0:
                return under if n2 else zero
            return (_reduced((s0, t0)), _reduced((s1, t1)), _reduced((n2, d2)))
        return odot

    def negation(left):
        # u − x = (u₀ − x₀, u₁ − x₁, u₂ − x₂ − (u₀ − x₀)x₁) and
        # −x + u = (u₀ − x₀, u₁ − x₁, u₂ − x₂ − x₀(u₁ − x₁))
        def neg(x):
            (n0, d0), (n1, d1), (n2, d2) = x
            if d0 != b0:
                s0, t0 = a0 * d0 - n0 * b0, b0 * d0
            else:
                s0, t0 = a0 - n0, d0
            if d1 != b1:
                s1, t1 = a1 * d1 - n1 * b1, b1 * d1
            else:
                s1, t1 = a1 - n1, d1
            if d2 != b2:
                n2, d2 = a2 * d2 - n2 * b2, b2 * d2
            else:
                n2 = a2 - n2
            if left:
                p, q = s0 * n1, t0 * d1
            else:
                p, q = n0 * s1, d0 * t1
            if p:
                if d2 != q:
                    n2, d2 = n2 * q - p * d2, d2 * q
                else:
                    n2 -= p
            return (_reduced((s0, t0)), _reduced((s1, t1)), _reduced((n2, d2)))
        return neg

    def sample(rng):
        # random_element's three draws k/d, joined with 0 and met with u
        below = rng._randbelow
        d = 1 << below(5)
        w, lo = 4 * d + 1, -2 * d
        k0, k1, k2 = lo + below(w), lo + below(w), lo + below(w)
        if k0 < 0 or not k0 and (k1 < 0 or not k1 and k2 < 0):
            return zero
        c = k0 * b0 - a0 * d or k1 * b1 - a1 * d or k2 * b2 - a2 * d
        if c >= 0:
            return unit
        return (_reduced((k0, d)), _reduced((k1, d)), _reduced((k2, d)))

    return {"oplus": capped(unit), "below": capped(None), "odot": shifted(zero, True),
            "above": shifted(None, True), "rest": shifted(None, False), "neg": negation(True),
            "tilde": negation(False), "sample": sample, "zero": zero}


def _lex_parts(group, unit):
    # The head decides each clamp unless it ties: ``below`` and
    # ``above`` of the head say which, and the tail is clamped only on a
    # tie, by its own Γ operation at its own unit.
    uh, ut = unit
    head, tail = gamma_parts(group.first, uh), gamma_parts(group.second, ut)
    if head is None or tail is None:
        return None
    zh, zt = head["zero"], tail["zero"]
    zero = (zh, zt)
    h_below, h_above, h_rest, h_sample = head["below"], head["above"], head["rest"], head["sample"]
    t_add, t_rest = group.second.add, tail["rest"]
    t_random, t_join, t_meet = group.second.random_element, group.second.join, group.second.meet

    def capped(over, t_cap):            # (x + y) ∧ u
        def oplus(x, y):
            xh, xt = x
            yh, yt = y
            s = h_below(xh, yh)
            if s is None:
                return over
            if s is not uh:
                return (s, t_add(xt, yt))
            s = t_cap(xt, yt)
            if s is None:
                return over
            return unit if s is ut else (uh, s)
        return oplus

    def shifted(under, t_cap):          # (x − u + y) ∨ 0
        def odot(x, y):
            xh, xt = x
            yh, yt = y
            s = h_above(xh, yh)
            if s is None:
                return under
            if s is not zh:
                return (s, t_rest(xt, yt))
            s = t_cap(xt, yt)
            if s is None:
                return under
            return zero if s is zt else (zh, s)
        return odot

    def rest(x, y):
        return (h_rest(x[0], y[0]), t_rest(x[1], y[1]))

    def sample(rng):                    # a head in [0, u₀] is joined and met on a tie only
        h = h_sample(rng)
        t = t_random(rng)
        if h == zh:
            t = t_join(t, zt)
        if h == uh:
            t = t_meet(t, ut)
        return (h, t)

    parts = {"oplus": capped(unit, tail["oplus"]), "odot": shifted(zero, tail["odot"]),
             "rest": rest, "neg": _pairwise(head["neg"], tail["neg"], 1),
             "tilde": _pairwise(head["tilde"], tail["tilde"], 1), "sample": sample, "zero": zero}
    if "below" in tail:
        parts.update(below=capped(None, tail["below"]), above=shifted(None, tail["above"]))
    return parts


def _product_parts(group, unit):
    # Γ(G₁ × G₂, (u₁, u₂)) = Γ(G₁, u₁) × Γ(G₂, u₂): the factors' parts
    # componentwise
    first, second = gamma_parts(group.first, unit[0]), gamma_parts(group.second, unit[1])
    if first is None or second is None:
        return None
    f_sample, s_sample = first["sample"], second["sample"]

    def sample(rng):
        return (f_sample(rng), s_sample(rng))

    parts = {op: _pairwise(first[op], second[op]) for op in ("oplus", "odot", "rest")}
    parts.update({op: _pairwise(first[op], second[op], 1) for op in ("neg", "tilde")},
                 sample=sample, zero=(first["zero"], second["zero"]))
    return parts


def _pairwise(f, g, arity=2):
    """The operation on pairs that applies ``f`` to the first coordinates of
    its ``arity`` arguments and ``g`` to the second."""
    def unary(x):
        a, b = x
        return (f(a), g(b))

    def binary(x, y):
        a, b = x
        c, d = y
        return (f(a, c), g(b, d))

    return binary if arity == 2 else unary


#: The groups fused, by exact type.
_PARTS = {
    IntegerGroup: _integer_parts,
    RationalGroup: _fraction_parts,
    DyadicGroup: _fraction_parts,
    PowerDenominatorGroup: _fraction_parts,
    HeisenbergGroup: _heisenberg_parts,
    LexProduct: _lex_parts,
    DirectProductGroup: _product_parts,
}
