"""Points of the exact groups for the tests, built through ``from_flat``
from the rationals they stand for."""

from fractions import Fraction

import pseudomv as pmv


def q(n, d=1):
    """The payload of the rational n/d in Q, D and H(p)."""
    return pmv.RationalGroup().from_flat([Fraction(n, d)])
