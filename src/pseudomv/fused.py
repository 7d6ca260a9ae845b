"""Γ(G, u)'s fast path: the fused operations ``GammaPMV`` binds.

``GammaPMV`` calls :func:`gamma_kernels`, and loads this module the first
time it builds Γ, so a command that builds none does not compile it.  For
ℤ, Q, D, H(p), the Heisenberg group, lex and direct products of them, and
the two float groups, it fuses the two clamped operations,
x ⊕ y = (x+y) ∧ u and x ⊙ y = (x − u + y) ∨ 0, into one closure each,
built once per unit.  The negations have no clamp: x⁻ = u − x and
x∼ = −x + u are bound as the group's ``sub`` and ``lsub`` at u.  Each
fused closure decides its clamp before it reduces anything:

* on ℤ, Q, D and H(p), one unreduced sum over one denominator, one sign
  test and at most one gcd;
* on the Heisenberg group, each coordinate in one pass, leaving on the
  first coordinate's sign unless it ties;
* on a lex product, the head decides unless it ties, read off the head's
  ``below`` and ``above``, and only then is the tail clamped, by its own Γ
  operation at its own unit;
* on a direct product, the factors' closures componentwise, as
  Γ(G₁ × G₂, (u₁, u₂)) = Γ(G₁, u₁) × Γ(G₂, u₂);
* on the float groups, the tolerance test inline and the unit's constants
  (1/u₀ and −u₁/u₀, or e^{−u₀}) computed once, making the float
  expressions of the composition in the same order, so bit-identical.
  There ``eq``, ``leq``, ``meet`` and ``join`` are bound to the group's;
  on the exact groups they stay Γ's methods.

The closures take Γ's points only, canonical payloads of [0, u].  On a
point each returns what ``GammaPMV``'s method, the specification, returns,
equal in value and in type (``tests/test_lgroups.py``:
``test_fused_exact_gamma_kernels_match_generic`` and
``test_fused_gamma_kernels_match_generic``).  An argument it cannot read
raises TypeError or ValueError where it is read, a bare int or Fraction on
ℤ, Q, D and H(p) included, as in the group's own operations: of those only
``cmp`` and ``gamma``'s unit read one as a pair (see
:mod:`pseudomv.lgroups`).  A payload of the right shape with a malformed
coordinate may instead return, as it lies outside ``validate``: a closure
may decide its clamp before it reads that coordinate.

Only the exact types above are fused: a subclass may change the
operations, so Γ composes them.  A float group stays a leaf, so Γ composes
a product with a float factor.  Nothing here draws a random point: each
group draws Γ's own, in :mod:`pseudomv.lgroups`.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any

from .lgroups import (
    _ZERO,
    DirectProductGroup,
    DyadicGroup,
    ExpSemidirect,
    HeisenbergGroup,
    IntegerGroup,
    LexProduct,
    LGroup,
    PowerDenominatorGroup,
    RationalGroup,
    ScalingSemidirect,
    _reduced,
)

#: What Γ binds over its own methods: ⊕ ⁻ ∼ ⊙, and = ≤ ∧ ∨ on a float group.
BOUND = ("oplus", "neg", "tilde", "odot", "eq", "leq", "meet", "join")


def gamma_kernels(group: LGroup, unit: Any) -> dict[str, Any] | None:
    """The functions ``GammaPMV`` binds for Γ(group, unit), each returning
    on Γ's points what its own method returns; None where Γ composes the
    group operations.  ⁻ and ∼ are the group's ``sub`` and ``lsub`` at u."""
    parts = gamma_parts(group, unit)
    if parts is None:
        return None
    kernels = {op: parts[op] for op in BOUND if op in parts}
    kernels.update(neg=partial(group.sub, unit), tilde=partial(group.lsub, unit))
    return kernels


def gamma_parts(group: LGroup, unit: Any) -> dict[str, Any] | None:
    """The fused Γ(group, unit) operations, and what a lexicographic or
    direct product builds its own from; None where the group has none.

    ``oplus`` and ``odot`` are Γ's.  ``rest`` is x − u + y unclamped, and
    ``zero`` the zero payload.  A linearly ordered exact group adds
    ``below``, x + y if it lies below u, ``unit`` itself if it is u and None
    above, and ``above``, x − u + y if it lies above 0, ``zero`` itself if
    it is 0 and None below: the head of a lexicographic product reads its
    clamps off them.  A float group has none of these, but ``eq``, ``leq``,
    ``meet`` and ``join``.  No part reads a bare number."""
    build = _PARTS.get(type(group))
    return None if build is None else build(group, unit)


def _factor(group, unit):
    # a product composes its factors' parts: a float group has no ``rest``
    parts = gamma_parts(group, unit)
    return parts if parts is not None and "rest" in parts else None


def _fraction_parts(group, unit):
    # Each operation sums over one denominator without reducing, decides
    # the clamp by the sign of one cross-multiplication, and reduces
    # with one gcd only what it returns.
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

    return {"oplus": capped(unit), "below": capped(None), "odot": shifted(_ZERO, True),
            "above": shifted(None, True), "rest": shifted(None, False), "zero": _ZERO}


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

    return {"oplus": capped(unit), "below": capped(None), "odot": shifted(zero, True),
            "above": shifted(None, True), "rest": shifted(None, False), "zero": zero}


def _lex_parts(group, unit):
    # The head decides each clamp unless it ties: ``below`` and
    # ``above`` of the head say which, and the tail is clamped only on a
    # tie, by its own Γ operation at its own unit.
    uh, ut = unit
    head, tail = _factor(group.first, uh), _factor(group.second, ut)
    if head is None or tail is None:
        return None
    zh, zt = head["zero"], tail["zero"]
    zero = (zh, zt)
    h_below, h_above, h_rest = head["below"], head["above"], head["rest"]
    t_add, t_rest = group.second.add, tail["rest"]

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

    parts = {"oplus": capped(unit, tail["oplus"]), "odot": shifted(zero, tail["odot"]),
             "rest": rest, "zero": zero}
    if "below" in tail:
        parts.update(below=capped(None, tail["below"]), above=shifted(None, tail["above"]))
    return parts


def _product_parts(group, unit):
    # Γ(G₁ × G₂, (u₁, u₂)) = Γ(G₁, u₁) × Γ(G₂, u₂): the factors' parts
    # componentwise
    first, second = _factor(group.first, unit[0]), _factor(group.second, unit[1])
    if first is None or second is None:
        return None
    parts = {op: _pairwise(first[op], second[op]) for op in ("oplus", "odot", "rest")}
    parts["zero"] = (first["zero"], second["zero"])
    return parts


def _pairwise(f, g):
    """The operation on pairs that applies ``f`` to the first coordinates of
    its two arguments and ``g`` to the second."""
    def binary(x, y):
        a, b = x
        c, d = y
        return (f(a, c), g(b, d))

    return binary


def _scaling_parts(group, unit):
    t = group.tolerance
    u0, u1 = unit
    zero = group.zero()
    h = 1.0 / u0            # sub(x, u) = (x0 * h, h * x1 + c)
    c = -u1 / u0

    def oplus(x, y):        # add(x, y) ∧ u
        y0 = y[0]
        s0 = x[0] * y0
        s1 = y0 * x[1] + y[1]
        d = s0 - u0
        if d > t:
            return unit
        return (s0, s1) if d < -t or s1 - u1 < -t else unit

    def odot(x, y):         # add(sub(x, u), y) ∨ 0, where 0 = (1, 0)
        y0 = y[0]
        s0 = x[0] * h * y0
        s1 = y0 * (h * x[1] + c) + y[1]
        d = s0 - 1.0
        if d > t:
            return (s0, s1)
        return zero if d < -t or s1 - 0.0 < -t else (s0, s1)

    return {"oplus": oplus, "odot": odot,
            "eq": group.eq, "leq": group.leq, "meet": group.meet, "join": group.join}


def _exp_parts(group, unit):
    t = group.tolerance
    u0, u1 = unit
    zero = group.zero()
    exp = math.exp
    e = exp(-u0)            # sub(x, u) = (x0 + m, e * x1 + c)
    m, c = -u0, -e * u1

    def oplus(x, y):        # add(x, y) ∧ u
        y0 = y[0]
        s0 = x[0] + y0
        s1 = exp(y0) * x[1] + y[1]
        d = s0 - u0
        if d > t:
            return unit
        return (s0, s1) if d < -t or s1 - u1 < -t else unit

    def odot(x, y):         # add(sub(x, u), y) ∨ 0, where 0 = (0, 0)
        y0 = y[0]
        s0 = x[0] + m + y0
        s1 = exp(y0) * (e * x[1] + c) + y[1]
        d = s0 - 0.0
        if d > t:
            return (s0, s1)
        return zero if d < -t or s1 - 0.0 < -t else (s0, s1)

    return {"oplus": oplus, "odot": odot,
            "eq": group.eq, "leq": group.leq, "meet": group.meet, "join": group.join}


#: The groups fused, by exact type.
_PARTS = {
    IntegerGroup: _fraction_parts,
    RationalGroup: _fraction_parts,
    DyadicGroup: _fraction_parts,
    PowerDenominatorGroup: _fraction_parts,
    HeisenbergGroup: _heisenberg_parts,
    LexProduct: _lex_parts,
    DirectProductGroup: _product_parts,
    ScalingSemidirect: _scaling_parts,
    ExpSemidirect: _exp_parts,
}
