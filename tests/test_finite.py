"""Finite tables: catalogue, brute-force weak roots, search, equal tables."""

from __future__ import annotations

import re
from fractions import Fraction as F

import pytest

import pseudomv as pmv
from pseudomv.finite import (
    TABLE_CEILING,
    AxiomValidationError,
    CatalogueSpec,
    CatalogueSpecError,
    build_catalogue,
    catalogue_closure,
    catalogue_size,
    maximum_of,
    parse_catalogue,
    search_square_rootable,
)
from points import shuffled, z


# ----------------------------------------------------------------------
# catalogue construction
# ----------------------------------------------------------------------

def test_chain_1_is_two_element_boolean():
    c = pmv.chain(1)
    assert c.size == 2
    assert c.table == pmv.boolean(1).table


def test_chain_3_lukasiewicz_arithmetic():
    c = pmv.chain(3)
    assert c.size == 4
    assert c.odot(2, 2) == 1
    assert c.oplus(2, 2) == 3
    assert c.neg(1) == 2 == c.tilde(1)


def test_chain_matches_integer_interval():
    # dual route: the chain table must coincide with Γ(ℤ, n)
    for n in range(1, 6):
        table = pmv.tabulate(pmv.gamma(pmv.IntegerGroup(), n))
        assert table.table == pmv.chain(n).table


def test_product_sizes_and_skeleton():
    m = pmv.product(pmv.boolean(1), pmv.chain(2))
    assert m.size == 6
    assert len(m.boolean_skeleton()) == 4
    assert m.label(m.one) == (1, 2)


def _table(oplus, neg, one):
    return pmv.FinitePMV(pmv.FiniteTable(len(neg), tuple(map(tuple, oplus)), tuple(neg),
                                         tuple(neg), 0, one))


NO_SUBALGEBRA = {   # tables whose idempotents are no subalgebra
    "bounds": (_table([[0, 1], [1, 0]], [1, 0], 1), "idempotents do not contain the bounds"),
    "negation": (_table([[0, 1, 2], [1, 2, 2], [2, 2, 2]], [1, 1, 0], 2),
                 "idempotents not closed under negation at 0"),
    "oplus": (_table([[0, 1, 2, 3, 4], [1, 1, 3, 4, 4], [2, 3, 2, 4, 4], [3, 4, 4, 4, 4],
                      [4, 4, 4, 4, 4]], [4, 2, 1, 3, 0], 4),
              "idempotents not closed under ⊕ at (1, 2)"),
}


@pytest.mark.parametrize("name", list(NO_SUBALGEBRA))
def test_skeleton_refuses_idempotents_that_are_no_subalgebra(monkeypatch, name):
    # membership by a set of indices refuses what membership by eq refuses
    algebra, message = NO_SUBALGEBRA[name]
    with pytest.raises(pmv.AlgebraError, match=re.escape(message)):
        algebra.boolean_skeleton()
    monkeypatch.setattr(pmv.FinitePMV, "_membership", pmv.PseudoMV._membership)
    with pytest.raises(pmv.AlgebraError, match=re.escape(message)):
        pmv.PseudoMV.boolean_skeleton(algebra)


def test_interval_algebra_from_idempotent():
    m = pmv.product(pmv.boolean(1), pmv.chain(2))
    tops = [x for x in m.boolean_skeleton() if x not in (m.zero, m.one)]
    sizes = sorted(pmv.interval(m, t).size for t in tops)
    assert sizes == [2, 3]
    with pytest.raises(pmv.AlgebraError):
        pmv.interval(pmv.chain(3), 1)


def test_inline_guards_refuse_what_idx_refuses():
    # each table operation tests its indices inline and raises through
    # _idx, which names the bad argument; with both bad, ⊕ and = name x
    c = pmv.chain(2)

    def refused(op, *args):
        with pytest.raises(pmv.BackendMismatch) as exc:
            getattr(c, op)(*args)
        return str(exc.value)

    for bad in (True, -1, c.size, "0", 1.0):
        named = f"{bad!r} is not an index into a 3-element table"
        for op in ("neg", "tilde", "is_boolean_element"):
            assert refused(op, bad) == named, op
        for op in ("oplus", "eq", "odot", "meet", "join", "leq"):
            assert refused(op, bad, 1) == refused(op, 1, bad) == named, op
        for op in ("oplus", "eq"):
            assert refused(op, bad, -2) == named, op


def test_build_catalogue_specs():
    spec = CatalogueSpec("product",
                         (CatalogueSpec("boolean", (1,)), CatalogueSpec("chain", (2,))))
    m = build_catalogue(spec)
    assert m.size == 6
    assert spec.label() == "product(boolean(1),chain(2))"
    assert build_catalogue(CatalogueSpec("chain", (3,))).size == 4
    with pytest.raises(ValueError):
        build_catalogue(CatalogueSpec("ring", (1,)))


def test_parse_catalogue_reads_each_kind():
    obj = {"kind": "interval", "params": [{"kind": "product", "params": [
        {"kind": "chain", "params": [3]}, {"kind": "boolean", "params": [1]}]}, 6]}
    spec = parse_catalogue(obj)
    assert spec.label() == "interval(product(chain(3),boolean(1)),6)"
    m, parent = build_catalogue(spec), build_catalogue(spec.params[0])
    assert catalogue_size(spec) == parent.size == 8
    # an interval keeps its parent's labels, a product pairs its factors'
    assert m.labels == tuple(parent.label(x) for x in parent.elements() if parent.leq(x, 6))
    assert m.labels[-1] == parent.label(6) == (3, 0)
    for bad in ({"kind": "chain", "params": [2, 99]}, {"kind": "ring", "params": [1]},
                {"kind": "product", "params": [obj]}):
        with pytest.raises(CatalogueSpecError):
            parse_catalogue(bad)


def test_catalogue_size_without_building():
    chain3, bool2 = CatalogueSpec("chain", (3,)), CatalogueSpec("boolean", (2,))
    for spec in (chain3, bool2, CatalogueSpec("product", (chain3, bool2))):
        assert catalogue_size(spec) == build_catalogue(spec).size
    # an interval tabulates its parent first
    assert catalogue_size(CatalogueSpec("interval", (bool2, 1))) == 4
    # nothing is built, and the size stays a small number past the ceiling,
    # also when the other factor of a product is empty or invalid
    huge = CatalogueSpec("boolean", (10 ** 12,))
    assert TABLE_CEILING < catalogue_size(huge) <= 2 * TABLE_CEILING
    empty = CatalogueSpec("chain", (-1,))
    assert catalogue_size(CatalogueSpec("product", (huge, empty))) > TABLE_CEILING
    assert catalogue_size(CatalogueSpec("product", (empty, huge))) > TABLE_CEILING


def test_catalogue_tables_validate():
    for algebra in catalogue_closure(6):
        assert algebra.check_axioms().all_pass


# ----------------------------------------------------------------------
# brute-force weak square roots
# ----------------------------------------------------------------------

def test_boolean_brute_force_finds_identity():
    for k in (1, 2, 3):
        b = pmv.boolean(k)
        search = pmv.brute_force_weak_sqrt(b)
        assert search.found
        assert all(search.mapping[x] == x for x in b.elements())


def test_chain_2_fails_at_the_midpoint_gap():
    search = pmv.brute_force_weak_sqrt(pmv.chain(2))
    assert not search.found
    assert search.verdict == "square-mismatch"
    assert search.failing == 1


def test_chain_4_has_no_weak_root():
    search = pmv.brute_force_weak_sqrt(pmv.chain(4))
    assert not search.found
    assert search.failing == 1


def test_product_of_booleans_identity():
    m = pmv.product(pmv.boolean(1), pmv.boolean(1))
    search = pmv.brute_force_weak_sqrt(m)
    assert search.found
    assert all(search.mapping[x] == x for x in m.elements())


def test_found_map_satisfies_square_max_and_is_injective():
    for algebra in (pmv.boolean(2), pmv.product(pmv.boolean(1), pmv.boolean(1))):
        search = pmv.brute_force_weak_sqrt(algebra)
        assert search.found
        r = search.mapping
        seen = set()
        for x in algebra.elements():
            assert algebra.odot(r[x], r[x]) == x
            assert r[x] not in seen
            seen.add(r[x])
            for y in algebra.elements():
                if algebra.leq(algebra.odot(y, y), x):
                    assert algebra.leq(y, r[x])


def test_root_search_commutes_with_relabelling():
    b = pmv.boolean(2)
    perm = [2, 0, 3, 1]
    inv = [perm.index(i) for i in range(4)]
    table = pmv.FiniteTable(
        n=4,
        oplus=tuple(tuple(perm[b.oplus(inv[i], inv[j])] for j in range(4))
                    for i in range(4)),
        neg=tuple(perm[b.neg(inv[i])] for i in range(4)),
        tilde=tuple(perm[b.tilde(inv[i])] for i in range(4)),
        zero=perm[b.zero],
        one=perm[b.one],
    )
    shuffled = pmv.FinitePMV(table).validated()
    search = pmv.brute_force_weak_sqrt(shuffled)
    base = pmv.brute_force_weak_sqrt(b)
    assert search.found and base.found
    for x in b.elements():
        assert search.mapping[perm[x]] == perm[base.mapping[x]]


def test_maximum_of_detects_maximal_without_maximum():
    b = pmv.boolean(2)
    atoms = [x for x in b.elements() if x not in (b.zero, b.one)]
    assert maximum_of(b, atoms) is None
    assert maximum_of(b, list(b.elements())) == b.one
    assert maximum_of(b, [b.zero]) == b.zero


def test_negation_compat_check():
    b = pmv.boolean(2)
    search = pmv.brute_force_weak_sqrt(b)
    assert pmv.verify(b, pmv.table_map(b, search.mapping)).negation_compat.passed
    c1 = pmv.chain(1)
    root = pmv.table_map(c1, pmv.brute_force_weak_sqrt(c1).mapping)
    assert pmv.verify(c1, root).negation_compat.passed


# ----------------------------------------------------------------------
# the catalogue search
# ----------------------------------------------------------------------

def test_search_weak_root_iff_boolean():
    rows = search_square_rootable(6)
    assert rows
    for row in rows:
        assert row.consistent, row
    names = {row.name for row in rows}
    assert "chain(2)" in names and "boolean(2)" in names


def test_search_rows_detail_failures():
    rows = search_square_rootable(6)
    c2 = next(r for r in rows if r.name == "chain(2)")
    assert not c2.has_weak_sqrt and not c2.is_boolean_algebra
    assert "x=1" in c2.detail

    c1 = next(r for r in rows if r.name == "chain(1)")
    assert c1.has_weak_sqrt and c1.is_boolean_algebra


def test_search_ceiling():
    with pytest.raises(ValueError):
        search_square_rootable(7)


# ----------------------------------------------------------------------
# equal tables
# ----------------------------------------------------------------------

def test_isomorphism_product_vs_boolean():
    # a product lists the pair (a, b) at index 2a + b, the bitmask of 2²
    # with a as its high bit, so 2 × 2 and 2² agree entry for entry
    assert pmv.product(pmv.boolean(1), pmv.boolean(1)).table == pmv.boolean(2).table
    assert pmv.product(pmv.chain(1), pmv.chain(1)).table == pmv.boolean(2).table


def test_tabulate_round_trip_labels():
    g = pmv.gamma(pmv.IntegerGroup(), 3)
    t = pmv.tabulate(g)
    assert t.labels == (z(0), z(1), z(2), z(3))
    assert t.odot(2, 2) == 1


def _generic_product(a, b):
    return pmv.tabulate(pmv.ProductPMV(a, b), name=f"product({a.name},{b.name})",
                        label=lambda e: (a.labels[e[0]], b.labels[e[1]])).validated()


def _verdicts(report):
    return {name: (r.passed, r.checked, r.witnesses) for name, r in report.axioms.items()}


def test_product_table_matches_tabulate():
    # product builds its table by index arithmetic; tabulating the generic
    # ProductPMV stays the specification, in table, labels and name
    base = [a for a in catalogue_closure(12) if a.name.startswith(("chain(", "boolean("))]
    odd = shuffled(pmv.product(pmv.chain(2), pmv.boolean(1)))
    pairs = [(a, b) for a in base for b in base if a.size * b.size <= 12]
    pairs += [(odd, pmv.chain(1)), (pmv.boolean(1), odd)]
    assert len(pairs) > 30
    for a, b in pairs:
        fast, slow = pmv.product(a, b), _generic_product(a, b)
        assert ((fast.table, fast.labels, fast.name, fast.sampler)
                == (slow.table, slow.labels, slow.name, slow.sampler))
    # a factor failing the axioms, with x⁻ ≠ x∼: both paths refuse the
    # same table, so their reports agree
    c = pmv.chain(2)
    raw = pmv.FinitePMV(pmv.FiniteTable(3, c.table.oplus, (2, 1, 0), (2, 0, 0), 0, 2), name="raw")
    with pytest.raises(AxiomValidationError) as fast:
        pmv.product(raw, pmv.chain(1))
    with pytest.raises(AxiomValidationError) as slow:
        _generic_product(raw, pmv.chain(1))
    assert _verdicts(fast.value.report) == _verdicts(slow.value.report)


def test_tabulate_refuses_an_operation_leaving_the_carrier():
    g = pmv.gamma(pmv.IntegerGroup(), 2)
    g.oplus = g.group.add            # not cut off at the unit
    with pytest.raises(pmv.AlgebraError, match=r"escaped the carrier at \(3, 1\)"):
        pmv.tabulate(g)
