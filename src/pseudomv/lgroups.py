"""Computable lattice-ordered groups with designated strong units.

The catalogue covers the carriers needed to build group-interval algebras
at desk scale:

* scalar groups: the integers, the rationals, the dyadic rationals
  m/2ⁿ, and the groups H(p) = {i/pⁿ} of rationals whose denominators are
  powers of a fixed base p (two-divisible exactly when p is even);
* the rational Heisenberg group, triples (a, b, c) under
  (a,b,c)·(a',b',c') = (a+a', b+b', c+c'+ab'), ordered lexicographically —
  a concrete two-divisible nilpotent linearly ordered group;
* lexicographic and direct products;
* two float-backed semidirect products of the real line used by the
  counterexample algebras: the positive reals acting on ℝ by scaling, and
  ℝ acting on ℝ by exponential scaling.  These are quarantined behind
  ``exact = False`` and a comparison tolerance because their halving maps
  involve irrational square roots.

Exact carriers store each rational coordinate as a reduced pair
``(n, d)`` of ints with d > 0, and never hold floats: an integer is
(n, 1), and a Heisenberg element is a triple of such pairs.  Their
operations run through a few module-private kernels on pairs (``_add``,
``_sub``, ``_neg``, ``_half``, ``_cmp``), each reducing by only the gcds
its scheme needs, and the ``add``, ``sub``, ``neg`` and ``cmp`` of ℤ, Q,
D and H(p) are those kernels;
the Heisenberg third coordinate is summed over one denominator and
reduced once, inline in ``add`` and by ``_sum3`` in ``neg`` and ``sub``.
``Fraction`` appears only at the boundary: ``from_flat`` takes ints and
``Fraction``s in, and ``flatten`` and ``format_element`` hand
``Fraction``s and text out.  Every operation takes canonical payloads
only, as ``validate`` admits, and a bare int or ``Fraction`` raises
TypeError where it is read, except in two places on ℤ, Q, D and H(p):
``cmp`` and ``gamma``'s unit read it as its pair, because the benchmark's
own test of a traced ≤ (``bench/test_bench.py``) builds Γ(Q, 1) from a
bare ``Fraction`` and orders bare ``Fraction``s through ``cmp``.  ``eq``
compares payloads, so a bare number equals no point, and ``contains``
refuses it.  The float carriers refuse bools.

As ``validate`` admits canonical payloads only, equal elements of an exact
group are equal payloads, so ℤ, Q, D, H(p), the Heisenberg group and
exact products compare by structure (``a == b``).  Composite order
operations make one comparison: the Heisenberg ``leq``, ``join`` and
``meet`` read one lexicographic ``_cmp`` chain, lex ones one ``cmp`` of
the head factor (and the tail's own operation on a tie), and product
``leq`` one ``leq`` per factor.

The Γ-construction turns the interval [0, u] of a unital group into a
pseudo MV-algebra via x ⊕ y = (x+y) ∧ u, x⁻ = u−x, x∼ = −x+u.

The float groups order their pairs lexicographically within an absolute
tolerance t: the first coordinate whose difference d has |d| > t decides,
and pairs closer than t in both coordinates are equal.  Their ``cmp``,
``eq``, ``leq``, ``lt``, ``meet`` and ``join`` make that test inline as
d > t or d < −t, and their ``sub`` repeats the float expressions of
``add(a, neg(b))``; each returns exactly what LGroup's derived definition
returns, bit for bit.

``GammaPMV``'s methods compose the group operations and are Γ's
specification.  Its fast path, the fused operations it binds over them,
lives in :mod:`pseudomv.fused`, which describes it.

Every group draws the points of Γ(G, u) through one sampler,
``interval_sampler(unit)``, a closure built once per unit that ``GammaPMV``
binds as its ``sample``.  The samplers draw the integers ``rng.randrange``
would, as ``a + rng._randbelow(b − a)``, without its argument checks, and
exact points with denominators at most the module constant
:data:`SAMPLE_DENOMINATOR_BOUND`.  Every group decides centre membership
exactly through ``center_has``, and whether a unit is strong through
``strong_unit``.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from fractions import Fraction
from numbers import Rational
from typing import Any, Callable

from .core import (
    AlgebraError,
    BackendMismatch,
    PseudoMV,
    SamplerConfig,
    UnsupportedBackend,
)

__all__ = [
    "LGroup",
    "IntegerGroup",
    "RationalGroup",
    "DyadicGroup",
    "PowerDenominatorGroup",
    "HeisenbergGroup",
    "LexProduct",
    "DirectProductGroup",
    "ScalingSemidirect",
    "ExpSemidirect",
    "GammaPMV",
    "gamma",
]

#: The denominator bound of the points Γ(G, u) samples (``LGroup.interval_sampler``).
SAMPLE_DENOMINATOR_BOUND = 1024


def _as_pair(v: Any) -> tuple[int, int]:
    """The reduced pair of an int or a rational such as ``Fraction``: the
    way in for exact payloads."""
    if isinstance(v, Rational) and not isinstance(v, bool):
        q = Fraction(v)
        return q.numerator, q.denominator
    raise BackendMismatch(f"exact payload expected, got {v!r}")


def _pair(v: Any) -> tuple[int, int]:
    """``v`` itself if it is a tuple, else the reduced pair of a bare int or
    Fraction."""
    return v if type(v) is tuple else _as_pair(v)


def _is_pair(a: Any) -> bool:
    """Whether ``a`` is a canonical payload: a tuple (n, d) of ints, not
    bools, with d > 0 and gcd(n, d) = 1."""
    return (type(a) is tuple and len(a) == 2 and type(a[0]) is int and type(a[1]) is int
            and a[1] > 0 and math.gcd(a[0], a[1]) == 1)


#: The zero of every rational group.
_ZERO = (0, 1)


def _reduced(p: tuple[int, int]) -> tuple[int, int]:
    """p = (n, d) in lowest terms, for d > 0: one gcd."""
    n, d = p
    g = math.gcd(n, d)
    return p if g == 1 else (n // g, d // g)


# Exact kernels, and the add, sub, neg and cmp of ℤ, Q, D and H(p).  Arguments
# and results are reduced pairs (n, d), and each result is the reduced pair
# of what the Fraction operators give on the arguments as Fractions.  A bare
# int or Fraction has no items, so unpacking it raises TypeError; only
# ``_cmp`` then reads both arguments through ``_pair`` (see the module
# docstring), and pairs never take that branch.  ``_add`` and ``_sub``
# follow Knuth, TAOCP vol. 2 §4.5.1: with g = gcd(da, db), the sum
# t/(da·db/g) can only share a factor with g.

def _add(a, b):
    na, da = a
    nb, db = b
    g = math.gcd(da, db)
    if g == 1:
        return na * db + nb * da, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)


def _sub(a, b):
    na, da = a
    nb, db = b
    g = math.gcd(da, db)
    if g == 1:
        return na * db - nb * da, da * db
    s = da // g
    t = na * (db // g) - nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)


def _neg(a):
    n, d = a
    return -n, d


def _half(a):
    """a/2: halving n/d keeps it reduced either as (n/2)/d or as n/(2d)."""
    n, d = a
    if n & 1:
        return n, d << 1
    return n >> 1, d


def _cmp(a, b):
    try:
        na, da = a
        nb, db = b
    except TypeError:
        na, da = _pair(a)
        nb, db = _pair(b)
    x = na * db
    y = nb * da
    return (x > y) - (x < y)


def _sum3(n, d, m, e, p, q):
    """n/d + m/e + p/q in lowest terms, for d, e, q > 0, over one common
    denominator with one gcd: the Heisenberg third coordinate of ``neg``
    and ``sub`` (``add`` computes the same inline)."""
    if d != e:
        n, m, d = n * e, m * d, d * e
    n += m
    if p:
        if d != q:
            n, p, d = n * q, p * d, d * q
        n += p
    g = math.gcd(n, d)
    return (n, d) if g == 1 else (n // g, d // g)


def _format_rational(q: Rational) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class LGroup(ABC):
    """A lattice-ordered group backend.

    ``cmp`` returns -1/0/1 for comparable pairs and None for incomparable
    ones (possible only on direct products).  Float-backed groups compare
    within ``tolerance``.
    """

    exact: bool = True
    linear: bool = True
    dsl: str = "?"
    flat_arity: int = 1

    @abstractmethod
    def zero(self) -> Any: ...

    @abstractmethod
    def add(self, a: Any, b: Any) -> Any: ...

    @abstractmethod
    def neg(self, a: Any) -> Any: ...

    @abstractmethod
    def cmp(self, a: Any, b: Any) -> int | None: ...

    @abstractmethod
    def validate(self, a: Any) -> None:
        """Raise BackendMismatch when the payload has the wrong shape."""

    def _read(self, a: Any) -> Any:
        """``a`` as a payload: ``gamma``'s unit.  ℤ, Q, D and H(p) read a
        bare int or Fraction as its pair."""
        return a

    def sub(self, a: Any, b: Any) -> Any:
        """a − b = a + (−b)."""
        return self.add(a, self.neg(b))

    def eq(self, a: Any, b: Any) -> bool:
        return self.cmp(a, b) == 0

    def leq(self, a: Any, b: Any) -> bool:
        c = self.cmp(a, b)
        return c is not None and c <= 0

    def lt(self, a: Any, b: Any) -> bool:
        c = self.cmp(a, b)
        return c is not None and c < 0

    def join(self, a: Any, b: Any) -> Any:
        c = self.cmp(a, b)
        if c is None:
            raise UnsupportedBackend("join of incomparable elements needs an override")
        return b if c < 0 else a

    def meet(self, a: Any, b: Any) -> Any:
        c = self.cmp(a, b)
        if c is None:
            raise UnsupportedBackend("meet of incomparable elements needs an override")
        return a if c < 0 else b

    def halve(self, a: Any) -> Any | None:
        """The unique b with b + b = a, or None when the carrier has none."""
        return None

    def center_has(self, a: Any) -> bool:
        """Whether a commutes with every element.  True here; every
        non-abelian group overrides it with an exact test."""
        return True

    def strong_unit(self, u: Any) -> bool:
        """Whether every element lies below some n·u.  Here 0 < u, which
        decides it on an archimedean linearly ordered group; every other
        group overrides it."""
        return self.lt(self.zero(), u)

    @abstractmethod
    def random_element(self, rng: random.Random) -> Any:
        """An arbitrary small element (used by commutation/order probes)."""

    @abstractmethod
    def interval_sampler(self, unit: Any) -> Callable[[random.Random], Any]:
        """The draw of a seeded point of [0, unit], for a unit ≥ 0: a
        function of a ``random.Random``, built once per unit, whose points
        have coordinates of bounded denominator and lie in the interval."""

    def sample_interval(self, rng: random.Random, unit: Any) -> Any:
        """One draw of ``interval_sampler(unit)``.  Γ binds the sampler
        itself; the benchmark's tracer (``bench/tracing.py``) reads this
        method on every Γ group."""
        return self.interval_sampler(unit)(rng)

    def interval_size(self, hi: Any) -> int | None:
        """The size of [0, hi] if ``enumerate_interval`` lists it, else None."""
        return None

    def flatten(self, a: Any) -> list:
        """The coordinates of ``a``: ints, Fractions or floats."""
        return [a]

    def from_flat(self, values: list) -> Any:
        """The element whose coordinates are ``values``, through the scalar
        group's ``_coerce_scalar``."""
        if len(values) != 1:
            raise BackendMismatch(f"{self.dsl} element needs 1 coordinate, got {len(values)}")
        return self._coerce_scalar(values[0])

    def format_element(self, a: Any) -> str:
        flat = self.flatten(a)
        parts = []
        for v in flat:
            if isinstance(v, float):
                parts.append(format(v, ".12g"))
            else:
                parts.append(_format_rational(v))
        if len(parts) == 1:
            return parts[0]
        return "(" + ", ".join(parts) + ")"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.dsl}>"


# ----------------------------------------------------------------------
# scalar groups
# ----------------------------------------------------------------------

class _FractionGroup(LGroup):
    """Shared machinery for subgroups of the rationals, whose payloads are
    reduced pairs (n, d).

    ``add``, ``sub``, ``neg`` and ``cmp`` are the pair kernels themselves.
    Only ``cmp`` (and so LGroup's ``lt``) and ``_read``, for ``gamma``'s
    unit, also read a bare int or Fraction as its pair (see the module
    docstring); the other operations raise TypeError on one, and under
    ``eq`` it equals no point.
    """

    def zero(self):
        return _ZERO

    _read = staticmethod(_pair)
    add = staticmethod(_add)
    sub = staticmethod(_sub)
    neg = staticmethod(_neg)
    cmp = staticmethod(_cmp)

    # One cross-multiplication each; ties keep LGroup's choices (join
    # returns a, meet returns b).  Payloads are reduced, so equal values
    # are equal pairs.

    def eq(self, a, b):
        return a == b

    def leq(self, a, b):
        return a[0] * b[1] <= b[0] * a[1]

    def join(self, a, b):
        return b if a[0] * b[1] < b[0] * a[1] else a

    def meet(self, a, b):
        return a if a[0] * b[1] < b[0] * a[1] else b

    def validate(self, a):
        if not _is_pair(a):
            raise BackendMismatch(f"reduced rational pair expected, got {a!r}")
        if not self.member(a):
            raise BackendMismatch(f"{self.format_element(a)} lies outside {self.dsl}")

    def member(self, a: tuple[int, int]) -> bool:
        return True

    def flatten(self, a):
        return [Fraction(*a)]

    _coerce_scalar = staticmethod(_as_pair)

    def halve(self, a):
        h = _half(a)
        return h if self.member(h) else None

    def _denominator(self, rng: random.Random) -> int:
        return 1 + rng._randbelow(SAMPLE_DENOMINATOR_BOUND)     # randrange(1, N + 1)

    def random_element(self, rng):
        d = self._denominator(rng)
        return _reduced((rng.randrange(-2 * d, 2 * d + 1), d))

    def interval_sampler(self, unit):
        un, ud = unit
        denominator, gcd = self._denominator, math.gcd

        def sample(rng):                    # k/d for k ≤ u·d, which needs no meet with u
            d = denominator(rng)
            n = rng._randbelow(un * d // ud + 1)
            g = gcd(n, d)
            return (n, d) if g == 1 else (n // g, d // g)

        return sample


class IntegerGroup(_FractionGroup):
    """The integers, as the pairs (n, 1): H(1)."""

    dsl = "Z"

    def member(self, a):
        return a[1] == 1

    def _denominator(self, rng):
        return 1                            # no draw: the sampler's is randrange(0, u + 1)

    def random_element(self, rng):
        return (rng.randrange(-8, 9), 1)

    def interval_size(self, hi):
        return max(hi[0] + 1, 0)

    def enumerate_interval(self, hi):
        return [(n, 1) for n in range(hi[0] + 1)]


class RationalGroup(_FractionGroup):
    dsl = "Q"


class DyadicGroup(_FractionGroup):
    """Rationals m/2ⁿ; two-divisible but not divisible."""

    dsl = "D"

    def member(self, a):
        d = a[1]
        return d & (d - 1) == 0

    def _denominator(self, rng):
        return 1 << rng._randbelow(SAMPLE_DENOMINATOR_BOUND.bit_length())   # randrange(0, k)


class PowerDenominatorGroup(_FractionGroup):
    """H(p) = {i/pⁿ : i ∈ ℤ, n ≥ 1}: denominators divide a power of p."""

    def __init__(self, base: int):
        if base < 1:
            raise ValueError("base must be a positive integer")
        self.base = base
        self.dsl = f"H({base})"

    def member(self, a):
        """Whether the denominator of a divides some power of the base."""
        d, base = a[1], self.base
        g = math.gcd(d, base)
        while g > 1:
            while d % g == 0:
                d //= g
            g = math.gcd(d, base)
        return d == 1

    def _denominator(self, rng):
        d = 1
        while d * self.base <= SAMPLE_DENOMINATOR_BOUND and rng.random() < 0.75:
            d *= self.base
        return d


# ----------------------------------------------------------------------
# the rational Heisenberg group
# ----------------------------------------------------------------------

class HeisenbergGroup(LGroup):
    """Triples (a, b, c) of rationals with product
    (a,b,c)·(a',b',c') = (a+a', b+b', c+c'+ab'), ordered lexicographically.

    Conjugation fixes (a, b) and shifts c, so the lexicographic positive
    cone is invariant and the order is a group order.  Halving solves
    (x,y,z)² = (2x, 2y, 2z+xy) exactly over the rationals.
    """

    dsl = "heis"
    flat_arity = 3

    # Each coordinate is a reduced pair, never a bare number.  The third
    # coordinate of add, neg, sub and halve is summed over one common
    # denominator and reduced once (inline in add, by ``_sum3`` in neg and
    # sub).  Payloads are reduced, so equal elements are equal triples, and
    # each order operation reads one lexicographic ``_cmp`` chain.

    def zero(self):
        return (_ZERO, _ZERO, _ZERO)

    def add(self, a, b):
        a0, a1, (n, d) = a
        b0, b1, (m, e) = b
        p = a0[0] * b1[0]
        if d != e:
            n, m, d = n * e, m * d, d * e
        n += m
        if p:
            q = a0[1] * b1[1]
            if d != q:
                n, p, d = n * q, p * d, d * q
            n += p
        g = math.gcd(n, d)
        return (_add(a0, b0), _add(a1, b1), (n, d) if g == 1 else (n // g, d // g))

    def neg(self, a):
        """(−a₀, −a₁, −a₂+a₀a₁)."""
        a0, a1, (n, d) = a
        return ((-a0[0], a0[1]), (-a1[0], a1[1]),
                _sum3(-n, d, 0, d, a0[0] * a1[0], a0[1] * a1[1]))

    def sub(self, a, b):
        """a + (−b) = (a₀−b₀, a₁−b₁, a₂−b₂−(a₀−b₀)·b₁)."""
        d0 = _sub(a[0], b[0])
        n, d = a[2]
        b1, (m, e) = b[1], b[2]
        return (d0, _sub(a[1], b1), _sum3(n, d, -m, e, -d0[0] * b1[0], d0[1] * b1[1]))

    def cmp(self, a, b):
        return _cmp(a[0], b[0]) or _cmp(a[1], b[1]) or _cmp(a[2], b[2])

    def eq(self, a, b):
        return a == b

    def leq(self, a, b):
        return (_cmp(a[0], b[0]) or _cmp(a[1], b[1]) or _cmp(a[2], b[2])) <= 0

    def join(self, a, b):
        return b if (_cmp(a[0], b[0]) or _cmp(a[1], b[1]) or _cmp(a[2], b[2])) < 0 else a

    def meet(self, a, b):
        return a if (_cmp(a[0], b[0]) or _cmp(a[1], b[1]) or _cmp(a[2], b[2])) < 0 else b

    def validate(self, a):
        if not (type(a) is tuple and len(a) == 3 and all(map(_is_pair, a))):
            raise BackendMismatch(f"Heisenberg triple of reduced pairs expected, got {a!r}")

    def halve(self, a):
        """(a₀/2, a₁/2, a₂/2 − a₀a₁/8), the last as (4n·q − p·d)/8dq for
        a₂ = n/d and a₀a₁ = p/q."""
        a0, a1, (n, d) = a
        p, q = a0[0] * a1[0], a0[1] * a1[1]
        return (_half(a0), _half(a1), _reduced(((n * q << 2) - p * d, d * q << 3)))

    def center_has(self, a):
        return a[0][0] == 0 and a[1][0] == 0

    def strong_unit(self, u):
        """n·u has first coordinate n·u₀, which decides the order."""
        return u[0][0] > 0

    def random_element(self, rng):
        d = 1 << rng.randrange(0, 5)
        lo, hi = -2 * d, 2 * d + 1
        return (_reduced((rng.randrange(lo, hi), d)), _reduced((rng.randrange(lo, hi), d)),
                _reduced((rng.randrange(lo, hi), d)))

    def interval_sampler(self, unit):
        (a0, b0), (a1, b1), (a2, b2) = unit
        zero = self.zero()

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

        return sample

    def flatten(self, a):
        return [Fraction(*v) for v in a]

    def from_flat(self, values):
        if len(values) != 3:
            raise BackendMismatch(f"heis element needs 3 coordinates, got {len(values)}")
        return tuple(map(_as_pair, values))


# ----------------------------------------------------------------------
# products
# ----------------------------------------------------------------------

class _PairGroup(LGroup):
    """Pairs (a, b) of two factor groups under componentwise addition.

    Subclasses fix the order; ``prefix`` is the DSL constructor name and
    ``pair_name`` how a shape error names an element.
    """

    prefix: str
    pair_name: str

    def __init__(self, first: LGroup, second: LGroup):
        self.first = first
        self.second = second
        self.exact = first.exact and second.exact
        self.dsl = f"{self.prefix}({first.dsl},{second.dsl})"
        self.flat_arity = first.flat_arity + second.flat_arity

    def zero(self):
        return (self.first.zero(), self.second.zero())

    def add(self, a, b):
        return (self.first.add(a[0], b[0]), self.second.add(a[1], b[1]))

    def neg(self, a):
        return (self.first.neg(a[0]), self.second.neg(a[1]))

    def sub(self, a, b):
        return (self.first.sub(a[0], b[0]), self.second.sub(a[1], b[1]))

    def eq(self, a, b):
        """Structural on exact payloads; factor-wise when a factor compares
        floats within a tolerance.

        Every coordinate of an exact pair must be canonical, as ``validate``
        requires: a bare int or ``Fraction`` where a pair belongs is not
        read as its pair here, so it equals no point."""
        if self.exact:
            return a == b
        return self.first.eq(a[0], b[0]) and self.second.eq(a[1], b[1])

    def validate(self, a):
        if not (isinstance(a, tuple) and len(a) == 2):
            raise BackendMismatch(f"{self.pair_name} expected, got {a!r}")
        self.first.validate(a[0])
        self.second.validate(a[1])

    def halve(self, a):
        h = self.first.halve(a[0])
        t = self.second.halve(a[1])
        return None if h is None or t is None else (h, t)

    def center_has(self, a):
        return self.first.center_has(a[0]) and self.second.center_has(a[1])

    def random_element(self, rng):
        return (self.first.random_element(rng), self.second.random_element(rng))

    def flatten(self, a):
        return self.first.flatten(a[0]) + self.second.flatten(a[1])

    def from_flat(self, values):
        k = self.first.flat_arity
        if len(values) != self.flat_arity:
            raise BackendMismatch(
                f"{self.dsl} element needs {self.flat_arity} coordinates, got {len(values)}")
        return (self.first.from_flat(values[:k]), self.second.from_flat(values[k:]))


class LexProduct(_PairGroup):
    """Componentwise group addition on H × G under the lexicographic order.

    This is a lattice order exactly when H is linearly ordered, which the
    constructor enforces.
    """

    prefix = "lex"
    pair_name = "lex pair"

    def __init__(self, head: LGroup, tail: LGroup):
        if not head.linear:
            raise AlgebraError("lexicographic head factor must be linearly ordered")
        super().__init__(head, tail)
        self.linear = tail.linear

    def cmp(self, a, b):
        return self.first.cmp(a[0], b[0]) or self.second.cmp(a[1], b[1])

    def strong_unit(self, u):
        """The head of n·u decides the order, and is n times u's head."""
        return self.first.strong_unit(u[0])

    def leq(self, a, b):
        c = self.first.cmp(a[0], b[0])
        if c:
            return c < 0
        return self.second.leq(a[1], b[1])

    def join(self, a, b):
        c = self.first.cmp(a[0], b[0])
        if c != 0:
            return b if c < 0 else a
        return (a[0], self.second.join(a[1], b[1]))

    def meet(self, a, b):
        c = self.first.cmp(a[0], b[0])
        if c != 0:
            return a if c < 0 else b
        return (a[0], self.second.meet(a[1], b[1]))

    def interval_sampler(self, unit):
        # the head, drawn in [0, u₀], decides the join with 0 and the meet
        # with u unless it ties them; only on a tie is the tail joined or met
        uh, ut = unit
        head, tail = self.first, self.second
        h_sample, h_eq, zh, zt = head.interval_sampler(uh), head.eq, head.zero(), tail.zero()
        t_random, t_join, t_meet = tail.random_element, tail.join, tail.meet

        def sample(rng):
            h = h_sample(rng)
            t = t_random(rng)
            if h_eq(h, zh):
                t = t_join(t, zt)
            if h_eq(h, uh):
                t = t_meet(t, ut)
            return (h, t)

        return sample


class DirectProductGroup(_PairGroup):
    """Componentwise group and order (not lexicographic)."""

    prefix = "prod"
    pair_name = "product pair"
    linear = False

    def cmp(self, a, b):
        """The first nonzero factor sign; None when a factor is incomparable
        or the two signs disagree."""
        c = self.first.cmp(a[0], b[0])
        d = self.second.cmp(a[1], b[1])
        if c is None or d is None or c * d < 0:
            return None
        return c or d

    def leq(self, a, b):
        return self.first.leq(a[0], b[0]) and self.second.leq(a[1], b[1])

    def strong_unit(self, u):
        return self.first.strong_unit(u[0]) and self.second.strong_unit(u[1])

    def join(self, a, b):
        return (self.first.join(a[0], b[0]), self.second.join(a[1], b[1]))

    def meet(self, a, b):
        return (self.first.meet(a[0], b[0]), self.second.meet(a[1], b[1]))

    def interval_sampler(self, unit):
        first, second = self.first.interval_sampler(unit[0]), self.second.interval_sampler(unit[1])

        def sample(rng):
            return (first(rng), second(rng))

        return sample

    def interval_size(self, hi):
        sizes = (self.first.interval_size(hi[0]), self.second.interval_size(hi[1]))
        return None if None in sizes else sizes[0] * sizes[1]

    def enumerate_interval(self, hi):
        rs = self.second.enumerate_interval(hi[1])
        return [(a, b) for a in self.first.enumerate_interval(hi[0]) for b in rs]


# ----------------------------------------------------------------------
# float-backed semidirect products
# ----------------------------------------------------------------------

class _FloatPairGroup(LGroup):
    """Lexicographically ordered pairs of floats with a comparison tolerance
    t ≥ 0: a coordinate decides the order when it differs by more than t."""

    exact = False
    flat_arity = 2

    def __init__(self, tolerance: float = 1e-9):
        self.tolerance = tolerance

    # For every float d = a[i] − b[i], NaN and ±inf included, |d| > t holds
    # exactly when d > t or d < −t, so these kernels return what LGroup
    # derives from ``cmp``, down to which argument join and meet hand back
    # (``test_float_kernels_match_derived_definitions``).

    def cmp(self, a, b):
        t = self.tolerance
        d = a[0] - b[0]
        if d > t:
            return 1
        if d < -t:
            return -1
        d = a[1] - b[1]
        if d > t:
            return 1
        if d < -t:
            return -1
        return 0

    def eq(self, a, b):
        t = self.tolerance
        d = a[0] - b[0]
        if d > t or d < -t:
            return False
        d = a[1] - b[1]
        return not (d > t or d < -t)

    def leq(self, a, b):
        t = self.tolerance
        d = a[0] - b[0]
        if d > t:
            return False
        return d < -t or not a[1] - b[1] > t

    def join(self, a, b):
        t = self.tolerance
        d = a[0] - b[0]
        if d > t:
            return a
        return b if d < -t or a[1] - b[1] < -t else a

    def meet(self, a, b):
        t = self.tolerance
        d = a[0] - b[0]
        if d > t:
            return b
        return a if d < -t or a[1] - b[1] < -t else b

    def validate(self, a):
        if not (isinstance(a, tuple) and len(a) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in a)):
            raise BackendMismatch(f"float pair expected, got {a!r}")

    def flatten(self, a):
        return [float(a[0]), float(a[1])]

    def from_flat(self, values):
        if len(values) != 2:
            raise BackendMismatch(f"{self.dsl} element needs 2 coordinates, got {len(values)}")
        return (float(values[0]), float(values[1]))

    def center_has(self, a):
        return self.eq(a, self.zero())

    def strong_unit(self, u):
        """The first coordinate decides the order and grows with n·u."""
        return u[0] - self.zero()[0] > self.tolerance

    def interval_sampler(self, unit):
        """(uniform(z₀, u₀), uniform(−1, 1)) joined with 0 = (z₀, z₁) and met
        with u, in one call: ``rng.uniform(a, b)`` is
        ``a + (b − a) * rng.random()``, and the join and the meet are
        inline."""
        t = self.tolerance
        u0, u1 = unit
        z0, z1 = self.zero()
        w0 = u0 - z0

        def sample(rng):
            x0 = z0 + w0 * rng.random()
            x1 = -1.0 + 2.0 * rng.random()
            d = x0 - z0
            if not d > t and (d < -t or x1 - z1 < -t):
                x0, x1 = z0, z1
            d = x0 - u0
            if d > t:
                return unit
            return (x0, x1) if d < -t or x1 - u1 < -t else unit

        return sample


class ScalingSemidirect(_FloatPairGroup):
    """Positive reals (multiplicative) acting on ℝ by scaling:
    (h₁,g₁)·(h₂,g₂) = (h₁h₂, h₂g₁+g₂), inverse (1/h, −g/h).

    The identity is (1, 0); the conventional strong unit is (2, 0).
    """

    dsl = "semi_numeric"

    def zero(self):
        return (1.0, 0.0)

    def add(self, a, b):
        return (a[0] * b[0], b[0] * a[1] + b[1])

    def neg(self, a):
        return (1.0 / a[0], -a[1] / a[0])

    def sub(self, a, b):
        # add(a, neg(b)) with the same float expressions, so bit-identical;
        # a[0] / b[0] would round differently
        h = 1.0 / b[0]
        return (a[0] * h, h * a[1] + -b[1] / b[0])

    def validate(self, a):
        super().validate(a)
        if a[0] <= 0:
            raise BackendMismatch(f"first coordinate must be positive, got {a!r}")

    def halve(self, a):
        s = math.sqrt(a[0])
        return (s, a[1] / (s + 1.0))

    def random_element(self, rng):
        return (math.exp(rng.uniform(-0.7, 0.7)), rng.uniform(-2.0, 2.0))


class ExpSemidirect(_FloatPairGroup):
    """ℝ acting on ℝ by exponential scaling:
    (x₁,y₁)+(x₂,y₂) = (x₁+x₂, e^{x₂}y₁+y₂), −(x,y) = (−x, −e^{−x}y)."""

    dsl = "exp_numeric"

    def zero(self):
        return (0.0, 0.0)

    def add(self, a, b):
        return (a[0] + b[0], math.exp(b[0]) * a[1] + b[1])

    def neg(self, a):
        return (-a[0], -math.exp(-a[0]) * a[1])

    def sub(self, a, b):
        # add(a, neg(b)) with the same float expressions, so bit-identical
        e = math.exp(-b[0])
        return (a[0] + -b[0], e * a[1] + -e * b[1])

    def halve(self, a):
        return (a[0] / 2.0, a[1] / (math.exp(a[0] / 2.0) + 1.0))

    def random_element(self, rng):
        return (rng.uniform(-0.7, 0.7), rng.uniform(-2.0, 2.0))


# ----------------------------------------------------------------------
# the Γ-construction
# ----------------------------------------------------------------------

class GammaPMV(PseudoMV):
    """The pseudo MV-algebra on the interval [0, u] of a unital group."""

    backend = "gamma-interval"

    def __init__(self, group: LGroup, unit: Any, sampler: SamplerConfig | None = None):
        unit = group._read(unit)
        group.validate(unit)
        if not group.lt(group.zero(), unit):
            raise AlgebraError("unit must be strictly positive")
        super().__init__(sampler)
        self.group = group
        self.unit = unit
        self._zero = group.zero()
        size = group.interval_size(unit)
        self._interval = None if size is None else group.enumerate_interval(unit)
        self.sample = group.interval_sampler(unit)
        from .fused import gamma_kernels   # at call time: fused imports this module
        fused = gamma_kernels(group, unit)
        if fused is not None:   # the methods below stay the specification
            vars(self).update(fused)

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self.unit

    def oplus(self, x, y):
        return self.group.meet(self.group.add(x, y), self.unit)

    def neg(self, x):
        return self.group.sub(self.unit, x)

    def tilde(self, x):
        return self.group.add(self.group.neg(x), self.unit)

    def eq(self, x, y):
        return self.group.eq(x, y)

    # The order of Γ(G, u) is the order of G restricted to [0, u], so the
    # lattice, the order and x ⊙ y = (x − u + y) ∨ 0 are computed in G.
    # ``test_gamma_native_ops_match_derived_definitions`` checks them
    # against the derived definitions in ``PseudoMV``.

    def odot(self, x, y):
        g = self.group
        return g.join(g.add(g.sub(x, self.unit), y), self._zero)

    def meet(self, x, y):
        return self.group.meet(x, y)

    def join(self, x, y):
        return self.group.join(x, y)

    def leq(self, x, y):
        return self.group.leq(x, y)

    def contains(self, x):
        try:
            self.group.validate(x)
        except BackendMismatch:
            return False
        return self.group.leq(self._zero, x) and self.group.leq(x, self.unit)

    def sample(self, rng):      # each instance binds group.interval_sampler(unit) over this
        return self.group.sample_interval(rng, self.unit)

    @property
    def enumerable(self):
        return self._interval is not None

    def elements(self):
        if self._interval is None:
            raise UnsupportedBackend(f"interval of {self.group.dsl} is not enumerable")
        return iter(self._interval)

    @property
    def size(self):
        return None if self._interval is None else len(self._interval)

    def format_element(self, x):
        return self.group.format_element(x)

    def describe(self):
        return {
            "backend": self.backend,
            "group": self.group.dsl,
            "unit": self.group.format_element(self.unit),
            "size": self.size,
            "exact": self.group.exact,
        }


def gamma(group: LGroup, unit: Any, sampler: SamplerConfig | None = None) -> GammaPMV:
    """Build Γ(G, u) for a unit u > 0, strong (``LGroup.strong_unit``) or not."""
    return GammaPMV(group, unit, sampler)
