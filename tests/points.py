"""Points of the exact groups for the tests, built through ``from_flat``
from the rationals they stand for, and finite tables with their indices
shuffled."""

from fractions import Fraction

import pseudomv as pmv
from pseudomv.core import make_rng
from pseudomv.finite import FinitePMV, FiniteTable


def q(n, d=1):
    """The payload of the rational n/d in Q, D and H(p)."""
    return pmv.RationalGroup().from_flat([Fraction(n, d)])


def z(n):
    """The payload of the integer n in ℤ."""
    return pmv.IntegerGroup().from_flat([n])


def shuffled(m):
    """``m`` with its carrier indices permuted by a seeded shuffle."""
    p = list(m.elements())
    make_rng(1, "shuffle").shuffle(p)
    xs = range(m.size)
    inv = sorted(xs, key=p.__getitem__)
    t = FiniteTable(n=m.size,
                    oplus=tuple(tuple(p[m.oplus(inv[i], inv[j])] for j in xs) for i in xs),
                    neg=tuple(p[m.neg(inv[i])] for i in xs),
                    tilde=tuple(p[m.tilde(inv[i])] for i in xs),
                    zero=p[m.zero], one=p[m.one])
    return FinitePMV(t, name=f"shuffled({m.name})").validated()
