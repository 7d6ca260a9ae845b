"""Ideals, quotients, representability, atoms, strong-atomlessness."""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

import pseudomv as pmv
from pseudomv import cli
from pseudomv.core import make_rng
from pseudomv.finite import catalogue_closure
from pseudomv.ideals import (
    IDEAL_CEILING,
    IdealHandle,
    NotAnIdeal,
    atoms,
    classify_ideal,
    enumerate_ideals,
    is_r_invariant,
    is_representable,
    quotient,
    strongly_atomless_scan,
    strongly_atomless_witness,
)
from pseudomv.roots import closed_form, identity_map, table_map
from points import q, z


def dyadic_unit():
    return pmv.gamma(pmv.DyadicGroup(), q(1))


def first_factor_kernel(algebra):
    """Indices whose label has first component 0."""
    return [x for x in algebra.elements() if algebra.label(x)[0] == 0]


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def test_zero_ideal_in_chain_is_normal_prime():
    c = pmv.chain(2)
    h = classify_ideal(c, [0])
    assert h.is_normal and h.is_prime and h.is_proper
    assert not h.is_boolean_ideal  # 1 ∧ 1∼ = 1 ∉ {0}


def test_projection_kernel_is_normal_prime():
    m = pmv.product(pmv.boolean(1), pmv.chain(2))
    h = classify_ideal(m, first_factor_kernel(m))
    assert h.is_normal and h.is_prime and h.is_proper


def test_full_carrier_is_an_improper_ideal():
    c = pmv.chain(2)
    h = classify_ideal(c, list(c.elements()))
    assert h.is_normal and not h.is_proper


def test_non_ideals_are_rejected_with_witness():
    c = pmv.chain(2)
    with pytest.raises(NotAnIdeal):
        classify_ideal(c, [0, 2])  # not downward closed (misses 1)
    with pytest.raises(NotAnIdeal):
        classify_ideal(c, [])
    b = pmv.boolean(2)
    with pytest.raises(NotAnIdeal) as err:
        classify_ideal(b, [0, 1, 2])  # 1 ⊕ 2 = 3 escapes
    assert err.value.witness == (1, 2)


def relabelled(algebra, seed):
    """``algebra`` with its carrier renamed by a seeded permutation."""
    n = algebra.size
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    inv = [perm.index(i) for i in range(n)]
    table = pmv.FiniteTable(
        n=n,
        oplus=tuple(tuple(perm[algebra.oplus(inv[i], inv[j])] for j in range(n))
                    for i in range(n)),
        neg=tuple(perm[algebra.neg(inv[i])] for i in range(n)),
        tilde=tuple(perm[algebra.tilde(inv[i])] for i in range(n)),
        zero=perm[algebra.zero],
        one=perm[algebra.one],
    )
    return pmv.FinitePMV(table, name=f"{algebra.name}~{seed}").validated()


def test_prime_flag_matches_meet_definition_and_dual_form():
    # every catalogue algebra up to the enumeration ceiling, as built and relabelled
    for base in catalogue_closure(12):
        for algebra in (base, *(relabelled(base, seed) for seed in range(3))):
            for h in enumerate_ideals(algebra):
                meet_prime = all(
                    (algebra.meet(x, y) not in h.members)
                    or x in h.members or y in h.members
                    for x in algebra.elements() for y in algebra.elements()
                )
                dual = all(
                    algebra.odot(x, algebra.tilde(y)) in h.members
                    or algebra.odot(y, algebra.tilde(x)) in h.members
                    for x in algebra.elements() for y in algebra.elements()
                )
                assert h.is_prime == meet_prime == dual, (algebra.name, h.members)


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def test_ideal_counts():
    assert len(enumerate_ideals(pmv.boolean(2))) == 4
    assert len(enumerate_ideals(pmv.chain(2))) == 2
    assert len(enumerate_ideals(pmv.chain(1))) == 2


def test_every_nondegenerate_algebra_has_a_normal_prime():
    for algebra in (pmv.chain(3), pmv.boolean(2),
                    pmv.product(pmv.boolean(1), pmv.chain(2))):
        handles = enumerate_ideals(algebra)
        assert any(h.is_normal and h.is_prime and h.is_proper for h in handles)


def subset_scan(algebra):
    """The reference: every subset of the carrier that contains 0 and is
    closed downward and under ⊕."""
    elems = list(algebra.elements())
    below = {x: {y for y in elems if algebra.leq(y, x)} for x in elems}
    return {
        members
        for k in range(1, len(elems) + 1)
        for members in map(frozenset, combinations(elems, k))
        if algebra.zero in members
        and all(below[x] <= members for x in members)
        and all(algebra.oplus(a, b) in members for a in members for b in members)
    }


def reference_flags(algebra, members):
    """(normal, Boolean, proper) from their definitions; the prime flag is
    checked by ``test_prime_flag_matches_meet_definition_and_dual_form``."""
    elems = list(algebra.elements())
    return (
        all((algebra.odot(x, algebra.neg(y)) in members)
            == (algebra.odot(algebra.tilde(y), x) in members)
            for x in elems for y in elems),
        all(algebra.meet(x, algebra.tilde(x)) in members for x in elems),
        len(members) < algebra.size,
    )


def test_ideals_from_skeleton_match_subset_scan():
    # every catalogue algebra up to the enumeration ceiling, as built and
    # relabelled, against the 2ⁿ subset scan and the per-element polars
    checked = 0
    for base in catalogue_closure(12):
        for algebra in (base, *(relabelled(base, seed) for seed in range(3))):
            reference = subset_scan(algebra)
            handles = enumerate_ideals(algebra)
            assert len(handles) == len(reference), algebra.name
            assert {h.members for h in handles} == reference, algebra.name
            for h in handles:
                got = (h.is_normal, h.is_boolean_ideal, h.is_proper)
                assert got == reference_flags(algebra, h.members), (algebra.name, h.members)
            elems = list(algebra.elements())
            polars = [frozenset(x for x in elems if algebra.meet(x, a) == algebra.zero)
                      for a in elems]
            assert is_representable(algebra) == all(
                p in reference and reference_flags(algebra, p)[0] for p in polars), algebra.name
            checked += 1
    assert checked == 4 * 133


# ----------------------------------------------------------------------
# quotients
# ----------------------------------------------------------------------

def test_quotient_by_projection_kernel():
    m = pmv.product(pmv.boolean(1), pmv.boolean(1))
    h = classify_ideal(m, first_factor_kernel(m))
    res = quotient(m, h, identity_map(m))
    assert res.algebra.size == 2
    assert res.algebra.table == pmv.boolean(1).table
    assert all(c.passed for c in res.checks.values())


def test_quotient_by_zero_is_identity():
    m = pmv.product(pmv.boolean(1), pmv.chain(2))
    h = classify_ideal(m, [m.zero])
    res = quotient(m, h)
    assert res.algebra.size == m.size
    assert res.algebra.table == m.table


def test_quotient_by_everything_is_degenerate():
    c = pmv.chain(2)
    h = classify_ideal(c, list(c.elements()))
    res = quotient(c, h)
    assert res.algebra.size == 1
    assert res.algebra.is_degenerate


def test_quotient_classes_match_congruence_definition():
    # every normal ideal of every catalogue algebra up to the enumeration
    # ceiling, as built and relabelled: the classes are those of
    # x ≈ y ⟺ x ⊙ y⁻, y ⊙ x⁻ ∈ I, and there are |A| / |I| of them
    for base in catalogue_closure(12):
        for algebra in (base, relabelled(base, 0)):
            elems = list(algebra.elements())
            for h in enumerate_ideals(algebra):
                assert h.is_normal, (algebra.name, h.members)
                below = lambda x, y: algebra.odot(x, algebra.neg(y)) in h.members
                classes = {tuple(y for y in elems if below(x, y) and below(y, x)) for x in elems}
                q = quotient(algebra, h).algebra
                assert set(q.labels) == classes, (algebra.name, h.members)
                assert q.size * len(h.members) == algebra.size, (algebra.name, h.members)


def test_quotient_requires_normality():
    # fabricate a handle with the flag forced off
    c = pmv.chain(2)
    h = classify_ideal(c, [0])
    import dataclasses
    bad = dataclasses.replace(h, is_normal=False)
    with pytest.raises(pmv.AlgebraError):
        quotient(c, bad)


def test_induced_root_descends_along_congruence():
    m = pmv.product(pmv.boolean(1), pmv.boolean(1))
    root = table_map(m, pmv.brute_force_weak_sqrt(m).mapping)
    for h in enumerate_ideals(m):
        if not h.is_normal:
            continue
        res = quotient(m, h, root)
        assert res.checks["congruence"].passed
        assert res.checks["square"].passed
        assert res.checks["negation_compat"].passed


# ----------------------------------------------------------------------
# invariance and representability
# ----------------------------------------------------------------------

def test_r_invariance_matches_boolean_ideal_flag():
    for algebra in (pmv.boolean(2), pmv.product(pmv.boolean(1), pmv.boolean(1))):
        root = identity_map(algebra)
        for h in enumerate_ideals(algebra):
            inv = is_r_invariant(h, root)
            if h.is_normal:
                assert inv == h.is_boolean_ideal
    # prime ideals are always invariant under any root
    b = pmv.boolean(2)
    for h in enumerate_ideals(b):
        if h.is_prime:
            assert is_r_invariant(h, identity_map(b))


def test_quotient_by_invariant_ideal_is_boolean():
    # the induced root fixes 0/I, which forces an all-idempotent quotient
    for algebra in (pmv.boolean(2), pmv.product(pmv.boolean(1), pmv.boolean(1))):
        root = identity_map(algebra)
        for h in enumerate_ideals(algebra):
            if not (h.is_normal and is_r_invariant(h, root)):
                continue
            res = quotient(algebra, h, root)
            q = res.algebra
            assert q.eq(res.root(q.zero), q.zero)
            assert all(q.is_boolean_element(x) for x in q.elements())


def test_catalogue_is_representable():
    for algebra in (pmv.chain(3), pmv.boolean(2), pmv.boolean(3),
                    pmv.product(pmv.boolean(1), pmv.chain(2)),
                    pmv.chain(0)):
        assert is_representable(algebra)


def chain2_with(oplus_entry=None, tilde_entry=None):
    """The table of chain(2), unvalidated, with one ⊕ or ∼ entry replaced."""
    t = pmv.chain(2).table
    oplus, tilde = [list(row) for row in t.oplus], list(t.tilde)
    if oplus_entry:
        x, y, v = oplus_entry
        oplus[x][y] = v
    if tilde_entry:
        x, v = tilde_entry
        tilde[x] = v
    return pmv.FiniteTable(t.n, tuple(map(tuple, oplus)), t.neg, tuple(tilde), t.zero, t.one)


@pytest.mark.parametrize("table", [
    chain2_with(oplus_entry=(1, 0, 2)),     # 1 ⊕ 0 = 2 but 0 ⊕ 1 = 1
    chain2_with(tilde_entry=(1, 0)),        # ⊕ commutes, 1⁻ = 1 but 1∼ = 0
], ids=["oplus-not-commutative", "neg-not-tilde"])
def test_noncommutative_tables_are_refused(table, tmp_path):
    # A1–A8 make a finite table commutative; the finite ideal functions
    # refuse one that is not, and analyze still reports its axiom failure
    algebra = pmv.FinitePMV(table)
    handle = IdealHandle(frozenset({0}), is_normal=True, is_prime=True,
                         is_boolean_ideal=False, is_proper=True)
    for call in (lambda: classify_ideal(algebra, [0]), lambda: enumerate_ideals(algebra),
                 lambda: quotient(algebra, handle), lambda: is_representable(algebra)):
        with pytest.raises(pmv.AlgebraError, match="not commutative"):
            call()
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"finite": {
        "n": table.n, "oplus": table.oplus, "neg": table.neg, "tilde": table.tilde,
        "zero": table.zero, "one": table.one}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["analyze", str(path)]) == 2


# ----------------------------------------------------------------------
# atoms and strong atomlessness
# ----------------------------------------------------------------------

def test_atoms():
    assert atoms(pmv.chain(2)) == [1]
    assert sorted(atoms(pmv.boolean(2))) == [1, 2]
    assert atoms(pmv.chain(0)) == []


def test_witness_in_dyadic_interval_at_one_half():
    d = dyadic_unit()
    root = closed_form(d, "sym")
    got = strongly_atomless_witness(d, q(1, 2), root=root)
    assert got is not None
    y, value = got
    assert y == q(1, 4) and value == q(1, 4)
    # independent evaluation of the witness value: 1/4 ∧ (1/2 ⊙ 3/4)
    assert d.meet(q(1, 4), d.odot(q(1, 2), d.neg(q(1, 4)))) == q(1, 4)


def test_canonical_witness_value_is_half_of_x():
    d = dyadic_unit()
    root = closed_form(d, "sym")
    rng = make_rng(12, "atomless")
    for _ in range(150):
        x = d.sample(rng)
        if x == q(0):
            continue
        y, value = strongly_atomless_witness(d, x, root=root)
        assert value == d.group.halve(x)
        assert value != q(0)


def test_atom_of_a_chain_has_no_witness():
    assert strongly_atomless_witness(pmv.chain(2), 1) is None
    with pytest.raises(ValueError):
        strongly_atomless_witness(pmv.chain(2), 0)


def test_sampled_witness_search():
    # no root and no enumeration: seeded samples meet-projected below x
    g = pmv.RationalGroup()
    m = pmv.gamma(g, q(1))
    y, value = strongly_atomless_witness(m, m.one)
    [fy], [fvalue] = g.flatten(y), g.flatten(value)
    assert 0 < fy < 1
    assert fvalue == min(fy, max(1 - fy, F(0))) != 0     # y ∧ (x ⊙ y⁻) at x = 1
    # Γ(ℤ ×lex ℤ, (1, 0)) is not enumerable: its atom (0, 1) has no witness, (0, 2) has one
    lex = pmv.gamma(pmv.LexProduct(pmv.IntegerGroup(), pmv.IntegerGroup()), (z(1), z(0)))
    assert strongly_atomless_witness(lex, (z(0), z(1))) is None
    assert strongly_atomless_witness(lex, (z(0), z(2))) == ((z(0), z(1)), (z(0), z(1)))


def test_scan_statuses():
    d = dyadic_unit()
    root = closed_form(d, "sym")
    scan = strongly_atomless_scan(d, budget=60, root=root)
    assert scan["status"] == "witnessed"
    assert scan["probed"] > 0
    scan = strongly_atomless_scan(pmv.chain(2))
    assert scan["status"] == "counterexample"
    assert 1 in scan["missing"]


@pytest.mark.parametrize("seed", [1, 2])
def test_analyze_reads_strong_atomlessness_off_atoms_as_the_scan_decides(seed, tmp_path):
    # analyze reports strong atomlessness on a table from its atoms; the
    # witness scan over every nonzero element gives the same status
    tables = ([t for t in catalogue_closure(12) if t.size <= IDEAL_CEILING]
              + [pmv.chain(0), pmv.boolean(0)])
    path = tmp_path / "t.json"
    for algebra in tables:
        table = algebra.table
        path.write_text(json.dumps({"finite": {
            "n": table.n, "oplus": table.oplus, "neg": table.neg, "tilde": table.tilde,
            "zero": table.zero, "one": table.one}}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["analyze", str(path), "--seed", str(seed)]) == 0
        got = json.loads(out.getvalue())["ideals"]["strongly_atomless"]
        assert got == strongly_atomless_scan(algebra, seed=seed)["status"], algebra.name


def test_strongly_atomless_algebras_have_no_atoms_on_probes():
    d = dyadic_unit()
    root = closed_form(d, "sym")
    rng = make_rng(13, "no-atoms")
    for _ in range(80):
        x = d.sample(rng)
        if x == q(0):
            continue
        got = strongly_atomless_witness(d, x, root=root)
        assert got is not None
        y, _ = got
        assert d.lt(q(0), y) and d.lt(y, x)
