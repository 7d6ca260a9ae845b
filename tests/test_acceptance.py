"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them inline; they are also captured in failure output).

Criterion 3 is expected to fail: three of the checked square-root
properties (the residuation bounds, the two-variable product upper bound,
and the sum lower bound) are provably violated on noncommutative
carriers — the suite pins exact rational counterexamples in
tests/test_roots.py — so "all items hold on the lexicographic Heisenberg
interval" and "items 1–8 hold on the scaling-action algebra" cannot both
be true.  The check is implemented as stated and reports the violation
rather than papering over it.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time

import pytest

import pseudomv as pmv
from pseudomv.core import make_rng
from pseudomv.counterexamples import (
    NEGATION_GAP_AT_UNIT_POINT,
    exp_action_algebra,
    scaling_action_algebra,
    scaling_action_verdicts,
)
from pseudomv.finite import catalogue_closure
from pseudomv.ideals import (
    enumerate_ideals,
    is_r_invariant,
    quotient,
    strongly_atomless_witness,
)
from pseudomv.roots import (
    PROPERTY_ITEMS,
    SKIPPED,
    square_root_properties,
)
from points import q


HEIS0 = (q(0), q(0), q(0))


def report(num: int, title: str, ok: bool, detail: str = "") -> bool:
    tail = f" — {detail}" if detail else ""
    print(f"acceptance {num:02d} [{title}]: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def dyadic_unit():
    return pmv.gamma(pmv.DyadicGroup(), q(1))


def lex_heis():
    return pmv.gamma(pmv.LexProduct(pmv.RationalGroup(), pmv.HeisenbergGroup()),
                     (q(1), HEIS0))


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "pseudomv.cli", *args],
                          capture_output=True, text=True, check=False)


# ----------------------------------------------------------------------

def test_criterion_01_axiom_suite():
    """Catalogue algebras pass A1–A8 exhaustively; the four group-interval
    algebras pass on ≥ 10⁴ seeded samples; total runtime < 30 s."""
    start = time.time()
    failures = []

    bases = [pmv.chain(n) for n in range(1, 7)] + [pmv.boolean(k) for k in (1, 2, 3)]
    finite_algebras = list(bases)
    for a, b in itertools.combinations_with_replacement(bases, 2):
        finite_algebras.append(pmv.product(a, b))
    for algebra in list(finite_algebras):
        for top in algebra.boolean_skeleton():
            if top in (algebra.zero, algebra.one):
                continue
            finite_algebras.append(pmv.interval(algebra, top))
    for algebra in finite_algebras:
        rep = algebra.check_axioms()
        if not (rep.exhaustive and rep.all_pass):
            failures.append(algebra.name)

    gamma_algebras = [
        ("dyadic-unit", dyadic_unit()),
        ("lex-heisenberg", lex_heis()),
        ("scaling-action", scaling_action_algebra()[0]),
        ("exp-action", exp_action_algebra()[0]),
    ]
    for name, algebra in gamma_algebras:
        rep = algebra.check_axioms(budget=10_000, seed=1)
        if not rep.all_pass:
            failures.append(name)

    elapsed = time.time() - start
    ok = not failures and elapsed < 30.0
    assert report(1, "axiom suite",
                  ok, f"{len(finite_algebras)} finite + 4 sampled algebras, "
                      f"{elapsed:.1f}s"), failures


def test_criterion_02_finite_trichotomy():
    """search --max-size 6: weak root exists ⇔ Boolean, chain(2) fails at
    the documented midpoint, exit code 0."""
    proc = run_cli("search", "--max-size", "6")
    ok = proc.returncode == 0 and "0 inconsistent" in proc.stdout
    chain2_line = next((l for l in proc.stdout.splitlines()
                        if l.startswith("chain(2) ")), "")
    ok = ok and "x=1" in chain2_line and "False" in chain2_line
    rows = pmv.search_square_rootable(6)
    ok = ok and all(r.consistent for r in rows)
    assert report(2, "finite trichotomy", ok,
                  f"{len(rows)} catalogue algebras, exit={proc.returncode}")


def test_criterion_03_property_suite():
    """The fifteen square-root properties on boolean(2) (exhaustive),
    the dyadic unit interval and the lexicographic Heisenberg interval
    (≥ 10³ exact samples); on the scaling-action algebra items 9–15 are
    skipped and items 1–8 must pass within 1e-9.

    Expected to FAIL: residuation_bounds (item 8) is violated on both
    noncommutative carriers, and product_upper_bound / sum_lower_bound
    (items 10, 14) on the lexicographic Heisenberg interval; see
    test_roots.py::test_residuation_bound_fails_on_noncommutative_carriers
    for the pinned exact witnesses.
    """
    deviations = []

    b2 = pmv.boolean(2)
    props = square_root_properties(b2, pmv.identity_map(b2))
    deviations += [f"boolean(2):{k}" for k, v in props.items()
                   if v == SKIPPED or not v.passed]

    d = dyadic_unit()
    props = square_root_properties(d, pmv.closed_form(d, "sym"),
                                   budget=1000, seed=3)
    deviations += [f"dyadic:{k}" for k, v in props.items()
                   if v == SKIPPED or not v.passed]

    m = lex_heis()
    props = square_root_properties(m, pmv.closed_form(m, "sym"),
                                   budget=1000, seed=3)
    deviations += [f"lex-heis:{k}" for k, v in props.items()
                   if v == SKIPPED or not v.passed]

    scaling, root = scaling_action_algebra()
    props = square_root_properties(scaling, root, budget=1000, seed=3,
                                   negation_compat=False)
    for name in PROPERTY_ITEMS[8:]:
        if props[name] != SKIPPED:
            deviations.append(f"scaling:{name} not skipped")
    for name in PROPERTY_ITEMS[:8]:
        if props[name] == SKIPPED or not props[name].passed:
            deviations.append(f"scaling:{name}")

    ok = not deviations
    report(3, "square-root property suite", ok, "; ".join(deviations))
    assert ok, (
        "property suite deviations (expected: the residuation/product/sum "
        f"bounds fail on noncommutative carriers): {deviations}")


def test_criterion_04_representation_closed_forms():
    """(x+u)/2 passes all four laws with r(0) = u/2 exactly on the two
    exact intervals; the scaling-action root passes the weak laws, fails
    negation compatibility with the documented gap, and coincides with
    ((x−u)/2)+u on all samples."""
    ok = True
    details = []
    for name, algebra in (("dyadic", dyadic_unit()), ("lex-heis", lex_heis())):
        root = pmv.closed_form(algebra, "sym")
        rep = pmv.verify(algebra, root, budget=1000, seed=4)
        half_u = algebra.group.halve(algebra.unit)
        good = (rep.square.passed and rep.maximality.passed
                and rep.negation_compat.passed and rep.standard.passed
                and rep.strict and algebra.eq(rep.r0, half_u))
        ok &= good
        details.append(f"{name}:{'ok' if good else 'FAIL'}")

    verdicts = scaling_action_verdicts(budget=2000, seed=4)
    rep = verdicts.report
    gap = verdicts.gap_witness.gap
    expected = NEGATION_GAP_AT_UNIT_POINT
    good = (rep.square.passed and rep.maximality.passed
            and not rep.negation_compat.passed
            and abs(gap - expected) < 1e-6
            and abs(gap - 0.0857864376269) < 1e-6
            and verdicts.weak_form_agreement.passed
            and rep.strict)
    ok &= good
    details.append(f"scaling gap={gap:.10f}")
    assert report(4, "representation closed forms", ok, ", ".join(details))


def test_criterion_05_decomposition():
    """boolean(1) × dyadic splits along (1, 0) into Boolean × strict with a
    verified product map; trivial classes come out right."""
    d = dyadic_unit()
    b1 = pmv.boolean(1)
    m = pmv.ProductPMV(b1, d)
    root = pmv.product_map(m, pmv.identity_map(b1), pmv.closed_form(d, "sym"))
    witness = pmv.boolean_witness(m, root)
    dec = pmv.decompose(m, root, budget=1000, seed=5)
    ok = (witness == (1, q(0))
          and dec.classification == "product"
          and dec.checks["boolean_part"].passed
          and dec.checks["strict_part"].passed
          and dec.checks["iso"].passed)
    b2 = pmv.boolean(2)
    ok &= pmv.decompose(b2, pmv.identity_map(b2)).classification == "boolean"
    ok &= pmv.decompose(d, pmv.closed_form(d, "sym"),
                        budget=300, seed=5).classification == "strict"
    assert report(5, "decomposition", ok,
                  f"witness={m.format_element(witness)}")


def test_criterion_06_induced_interval():
    """The image algebra on [1/2, 1] of the dyadic interval satisfies
    A1–A8 on ≥ 10³ samples and x ↦ r(x) is an isomorphism onto it."""
    d = dyadic_unit()
    ind = pmv.induced_interval_algebra(d, pmv.closed_form(d, "sym"),
                                       budget=1000, seed=6)
    bad = [k for k, v in ind.checks.items() if not v.passed]
    ok = not bad and ind.algebra.zero == q(1, 2)
    assert report(6, "induced image algebra", ok,
                  f"floor={d.format_element(ind.algebra.zero)}, failing={bad}")


def test_criterion_07_dyadic_ladder():
    """Depth-10 ladders on both strict intervals produce u/2ᵏ whose
    2ᵏ-fold partial sums are defined and land exactly on 1."""
    ok = True
    for name, algebra in (("dyadic", dyadic_unit()), ("lex-heis", lex_heis())):
        root = pmv.closed_form(algebra, "sym")
        rungs = pmv.dyadic_ladder(algebra, root, 10)
        ok &= len(rungs) == 10
        for k, a in enumerate(rungs, start=1):
            total, partial = algebra.multiples(a, 1 << k)
            ok &= algebra.eq(total, algebra.one)
            ok &= partial is not pmv.UNDEFINED and algebra.eq(partial, algebra.one)
        half = algebra.group.halve(algebra.unit)
        ok &= algebra.eq(rungs[0], half)
    assert report(7, "halving ladder to depth 10", ok)


def test_criterion_08_strong_atomlessness():
    """On both strict intervals the canonical witness y = r(x⁻)∼ gives
    y ∧ (x ⊙ y⁻) = x/2 ≠ 0 exactly for 10³ sampled x ≠ 0; the atom of
    chain(2) has no witness."""
    ok = True
    for name, algebra in (("dyadic", dyadic_unit()), ("lex-heis", lex_heis())):
        root = pmv.closed_form(algebra, "sym")
        rng = make_rng(8, "atomless-acceptance", name)
        checked = 0
        while checked < 1000:
            x = algebra.sample(rng)
            if algebra.eq(x, algebra.zero):
                continue
            checked += 1
            y = algebra.tilde(root(algebra.neg(x)))
            value = algebra.meet(y, algebra.odot(x, algebra.neg(y)))
            half = algebra.group.halve(x)
            ok &= algebra.eq(value, half) and not algebra.eq(value, algebra.zero)
            got = strongly_atomless_witness(algebra, x, root=root)
            ok &= got is not None and algebra.eq(got[1], half)
    ok &= strongly_atomless_witness(pmv.chain(2), 1) is None
    assert report(8, "strong atomlessness witnesses", ok)


def test_criterion_09_quotients():
    """Every normal ideal of every ≤ 12-element catalogue algebra yields a
    quotient passing A1–A8; where a square root exists, invariance of an
    ideal under it coincides with the Boolean-ideal flag, exhaustively."""
    algebras = catalogue_closure(12)
    quotients = 0
    equivalences = 0
    ok = True
    for algebra in algebras:
        root, _ = pmv.detect_square_root(algebra)
        handles = enumerate_ideals(algebra)
        for h in handles:
            if not h.is_normal:
                continue
            res = quotient(algebra, h, root)
            quotients += 1
            ok &= res.algebra.check_axioms().all_pass
            if root is not None:
                ok &= is_r_invariant(h, root) == h.is_boolean_ideal
                equivalences += 1
                ok &= all(c.passed for c in res.checks.values())
    assert report(9, "quotients and root invariance", ok,
                  f"{len(algebras)} algebras, {quotients} quotients, "
                  f"{equivalences} invariance equivalences")


def test_criterion_10_determinism(tmp_path):
    """Two analyze runs with the same seed emit byte-identical reports."""
    path = tmp_path / "lexheis.json"
    path.write_text(json.dumps(
        {"gamma": {"group": "lex(Q,heis)", "unit": "(1,0,0,0)"}}),
        encoding="utf-8")
    a = run_cli("analyze", str(path), "--seed", "2024", "--samples", "300")
    b = run_cli("analyze", str(path), "--seed", "2024", "--samples", "300")
    ok = a.returncode == b.returncode == 0 and a.stdout == b.stdout
    assert report(10, "report determinism", ok,
                  f"{len(a.stdout)} bytes per report")
