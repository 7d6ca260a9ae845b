"""Cost gates that do not depend on the machine: group operations per Γ
operation, root evaluations per check, Fractions built on a Γ operation's
path (none), ⊙ evaluations per finite ideal fact, skeleton checks per
finite ``analyze`` and ``eq`` calls per table skeleton (none), and
exhaustive axiom checks per finite ``analyze`` or ``quotient``."""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction as F

import pytest

import pseudomv as pmv
import pseudomv.cli as cli
import pseudomv.finite as finite
import pseudomv.ideals as ideals
from pseudomv.core import PseudoMV, make_rng
from pseudomv.counterexamples import scaling_action_algebra
from pseudomv.finite import FinitePMV, catalogue_closure
from pseudomv.lgroups import LGroup
from pseudomv.roots import custom_map


def _counted(op):
    def call(self, *args):
        self.ops += 1
        return getattr(self.group, op)(*args)
    return call


def _forwarded(op):
    return lambda self, *args: getattr(self.group, op)(*args)


class CountingGroup(LGroup):
    """Forwards to ``group`` and counts the operations asked of it: add, neg,
    cmp, meet, join and halve.  ``sub``, ``eq``, ``leq`` and ``lt`` are
    LGroup's own, built from those; calls the group makes to its own factors
    are not counted."""

    add, neg, cmp, meet, join, halve = map(_counted, ("add", "neg", "cmp", "meet", "join", "halve"))
    zero, validate, center_has, random_element, interval_sampler = map(
        _forwarded, ("zero", "validate", "center_has", "random_element", "interval_sampler"))

    def __init__(self, group: LGroup):
        self.group, self.ops = group, 0
        self.exact, self.linear, self.dsl = group.exact, group.linear, group.dsl


def counted_gamma(group, unit):
    group = CountingGroup(group)
    return pmv.gamma(group, unit), group


def lex_heis():
    return pmv.LexProduct(pmv.RationalGroup(), pmv.HeisenbergGroup())


def counted_lex_heis():
    g = lex_heis()
    return counted_gamma(g, g.from_flat([1, 0, 0, 0]))


def test_gamma_order_and_product_cost_in_group_operations():
    for m, group in (counted_lex_heis(), counted_gamma(pmv.ScalingSemidirect(), (2.0, 0.0))):
        rng = make_rng(0, "costs")
        for _ in range(25):
            x, y = m.sample(rng), m.sample(rng)
            group.ops = 0
            m.leq(x, y)
            assert group.ops == 1          # one cmp
            group.ops = 0
            m.odot(x, y)
            assert group.ops == 4          # (x − u + y) ∨ 0: add, neg, add, join


def test_verify_root_evaluations_on_lex_heis():
    m, _ = counted_lex_heis()
    sym = pmv.closed_form(m, "sym")
    points = []
    root = custom_map(m, lambda x: points.append(x) or sym(x))
    rep = pmv.verify(m, root, budget=40, seed=1)
    assert rep.classification == "strict"
    # laws that each evaluate r by themselves cost 6 per element, 1 per
    # maximality pair and 1 for r(0)
    assert len(points) <= 7 * 40 + 1


def test_verify_stops_evaluating_settled_laws_on_the_scaling_root():
    # the scaling weak root fails negation compatibility and standardness
    # within a few points; once each holds three witnesses r(x⁻) and r(x∼)
    # are not evaluated again, leaving r(x) on the elements, r on the
    # maximality pairs, and r(0)
    m, root = scaling_action_algebra()
    calls = []
    counted = custom_map(m, lambda x: calls.append(x) or root(x))
    budget = 1000
    rep = pmv.verify(m, counted, budget=budget, seed=1)
    assert rep.classification == "weak-only"
    assert rep.negation_compat.checked == rep.standard.checked == budget
    assert len(calls) <= 2 * budget + 8


def int_payload(x):
    """Whether ``x`` is an int or a tuple of int payloads: no Fraction inside."""
    if type(x) is tuple:
        return all(map(int_payload, x))
    return type(x) is int


@pytest.mark.parametrize("make, unit", [
    (lex_heis, [1, 0, 0, 0]),
    (pmv.RationalGroup, [1]),
    (pmv.IntegerGroup, [2]),
    (lambda: pmv.LexProduct(pmv.IntegerGroup(), pmv.IntegerGroup()), [3, 1]),
], ids=["lex(Q,heis)", "Q", "Z", "lex(Z,Z)"])
def test_gamma_operations_build_no_fraction_through_new(monkeypatch, make, unit):
    # exact payloads are int pairs: no Γ operation, sampling included,
    # builds a Fraction; the sym root is evaluated where it is defined
    group = make()
    m = pmv.gamma(group, group.from_flat(unit))
    sym = pmv.closed_form(m, "sym") if group.halve(m.unit) is not None else None
    rng = make_rng(0, "construction")
    calls = []
    new = F.__new__
    monkeypatch.setattr(F, "__new__", lambda cls, *a, **k: calls.append(1) or new(cls, *a, **k))
    points = [m.sample(rng) for _ in range(50)]
    results = []
    for x, y in zip(points, points[1:] + points[:1]):
        results += [m.oplus(x, y), m.neg(x), m.tilde(x), m.odot(x, y), m.leq(x, y)]
        if sym is not None and group.halve(group.add(x, m.unit)) is not None:   # (x + u)/2
            results.append(sym(x))
    assert len(calls) == 0
    assert all(int_payload(r) for r in points + results if type(r) is not bool)


def test_finite_ideal_facts_cost_in_odot(monkeypatch):
    # the difference table x ⊙ y⁻ takes n² ⊙; the ↓e of the s idempotents
    # take at most one ⊙ per ≤, the Boolean flags at most one per x ∧ x∼;
    # representability is read off commutativity with no ⊙, and a quotient
    # needs only the one table
    algebras = catalogue_closure(12)
    calls = []
    odot = FinitePMV.odot
    monkeypatch.setattr(FinitePMV, "odot", lambda self, x, y: calls.append(1) or odot(self, x, y))
    for algebra in algebras:
        n, s = algebra.size, len(algebra.boolean_skeleton())
        calls.clear()
        handles = ideals.enumerate_ideals(algebra)
        assert calls and len(calls) <= n * n + 2 * s * n, algebra.name
        calls.clear()
        ideals.is_representable(algebra)
        assert not calls, algebra.name
        proper = [h for h in handles if h.is_normal and h.is_proper]
        if proper:
            calls.clear()
            ideals.quotient(algebra, proper[0])
            assert calls and len(calls) <= n * n, algebra.name


def test_analyze_checks_the_skeleton_once(monkeypatch, tmp_path):
    calls = []
    skeleton = PseudoMV.boolean_skeleton
    monkeypatch.setattr(PseudoMV, "boolean_skeleton",
                        lambda self: calls.append(self) or skeleton(self))
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"catalogue": {"kind": "product", "params": [
        {"kind": "boolean", "params": [1]}, {"kind": "chain", "params": [2]}]}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["analyze", str(path), "--samples", "40"]) == 0
    assert len(calls) == 1
    # each call hands out a list of its own
    algebra = calls[0]
    first = algebra.boolean_skeleton()
    first.append(first[0])
    first.reverse()
    assert algebra.boolean_skeleton() == skeleton(algebra) == [0, 2, 3, 5]
    assert len(calls) == 1


def test_table_skeleton_asks_eq_nothing(monkeypatch):
    # on a table, membership in the skeleton is one set lookup: checking
    # its closure asks eq nothing, where a scan per member made O(s³) calls
    algebras = catalogue_closure(12)
    calls = []
    eq = FinitePMV.eq
    monkeypatch.setattr(FinitePMV, "eq", lambda self, x, y: calls.append(1) or eq(self, x, y))
    for algebra in algebras:
        assert PseudoMV.boolean_skeleton(algebra) == algebra.boolean_skeleton(), algebra.name
    assert not calls


def test_analyze_checks_representability_once(monkeypatch, tmp_path):
    calls = []
    representable = ideals.is_representable
    counted = lambda algebra: calls.append(algebra) or representable(algebra)
    for module in (cli, ideals):
        monkeypatch.setattr(module, "is_representable", counted)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"catalogue": {"kind": "product", "params": [
        {"kind": "boolean", "params": [1]}, {"kind": "chain", "params": [2]}]}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["analyze", str(path), "--samples", "40"]) == 0
    assert len(calls) == 1


CHAIN2 = {"n": 3, "oplus": [[0, 1, 2], [1, 2, 2], [2, 2, 2]], "neg": [2, 1, 0], "tilde": [2, 1, 0],
          "zero": 0, "one": 2}
BOOLEAN1_CHAIN2 = {"kind": "product", "params": [
    {"kind": "boolean", "params": [1]}, {"kind": "chain", "params": [2]}]}


@pytest.mark.parametrize("spec, argv, runs", [
    ({"catalogue": BOOLEAN1_CHAIN2}, ["analyze", "--samples", "40"], 3),
    ({"catalogue": BOOLEAN1_CHAIN2}, ["quotient", "--ideal", "0,1,2"], 4),
    ({"finite": CHAIN2}, ["analyze", "--samples", "40"], 1),
    ({"finite": CHAIN2}, ["quotient", "--ideal", "0"], 2),
], ids=["analyze-catalogue", "quotient-catalogue", "analyze-finite", "quotient-finite"])
def test_analyze_checks_each_table_once(monkeypatch, tmp_path, spec, argv, runs):
    # one exhaustive A1–A8 run per table built: boolean(1), chain(2), their
    # product and a quotient; analyze and quotient read the product's
    # report that validated() computed, and check a raw table once
    calls = []
    report = finite.AxiomReport
    monkeypatch.setattr(finite, "AxiomReport", lambda *a, **k: calls.append(1) or report(*a, **k))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(spec))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    assert len(calls) == runs
