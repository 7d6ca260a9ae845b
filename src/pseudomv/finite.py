"""Table-backed finite pseudo MV-algebras.

Construction of Cayley-style tables and their exhaustive A1–A8 check by
plain lookups into the table tuples (once per table, A1 row by row),
operations that test their indices inline, native ⊙ ∧ ∨ ≤ read off an
x ⊙ y and an x ∧ y table built once per algebra, the Boolean skeleton and
the commutativity test computed once per algebra, the structured catalogue
(chains Γ(ℤ,n), Boolean algebras 2ᵏ, direct products, intervals [0, a]
below an idempotent), and brute-force search for weak square roots.

The catalogue grammar is one table, ``CATALOGUE_KINDS``, which
``parse_catalogue`` (from JSON), ``catalogue_size``, ``CatalogueSpec.label``
and ``build_catalogue`` each walk once per spec level.

The finite search deliberately ranges over the catalogue closure, not over
all magmas of a given size: raw table enumeration explodes and adds
nothing here, since every finite algebra of interest is a product of
chains up to isomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable, Iterator, NamedTuple

from .core import (
    AlgebraError,
    BackendMismatch,
    AxiomReport,
    CheckResult,
    IntervalPMV,
    PseudoMV,
    SamplerConfig,
)

__all__ = [
    "FiniteTable",
    "FinitePMV",
    "CatalogueSpec",
    "CatalogueSpecError",
    "CATALOGUE_KINDS",
    "AxiomValidationError",
    "WeakSqrtSearch",
    "SearchRow",
    "tabulate",
    "build_catalogue",
    "chain",
    "boolean",
    "product",
    "interval",
    "brute_force_weak_sqrt",
    "maximum_of",
    "search_square_rootable",
    "catalogue_closure",
    "SEARCH_CEILING",
    "TABLE_CEILING",
    "CATALOGUE_DEPTH_CEILING",
    "catalogue_size",
    "parse_catalogue",
]

SEARCH_CEILING = 6
#: Largest carrier a table read from outside the program may have: every
#: check on a table is exhaustive, and A1 alone takes n³ steps.
TABLE_CEILING = 64
#: Deepest nesting ``parse_catalogue`` reads (a chain or Boolean algebra is
#: 1 deep); parsing, sizing, labelling and building recurse once per level.
CATALOGUE_DEPTH_CEILING = 32
#: How many characters of a malformed key, group expression or literal an
#: error message echoes.
ECHO_PREFIX = 20


class AxiomValidationError(AlgebraError):
    """A finite table failed the exhaustive axiom check."""

    def __init__(self, report: AxiomReport):
        self.report = report
        super().__init__(f"axioms failed: {', '.join(report.failing)}")


@dataclass(frozen=True)
class FiniteTable:
    """Raw operation tables over the carrier {0, ..., n-1}."""

    n: int
    oplus: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]
    tilde: tuple[int, ...]
    zero: int
    one: int

    def __post_init__(self):
        n = self.n
        ok = (
            len(self.oplus) == n
            and all(len(row) == n for row in self.oplus)
            and len(self.neg) == n
            and len(self.tilde) == n
            and 0 <= self.zero < n
            and 0 <= self.one < n
        )
        if not ok:
            raise AlgebraError("table shapes inconsistent with carrier size")
        flat = [v for row in self.oplus for v in row]
        flat += list(self.neg) + list(self.tilde)
        if any(not (0 <= v < n) for v in flat):
            raise AlgebraError("table entry out of carrier range")


class FinitePMV(PseudoMV):
    """A finite algebra backed by a :class:`FiniteTable`.

    ``labels`` optionally names the carrier points (chain values, bitmasks,
    pairs); they are carried through products and intervals for reporting.

    ⊙ ∧ ∨ ≤ are read off two tables, x ⊙ y and x ∧ y, each built on first
    use from the lookup chain of :class:`PseudoMV`'s definition.  Every
    operation, primitives included, tests its arguments inline as indices
    and is one Python call; ``_idx`` runs only to raise, and names the
    argument the definition in ``core`` would reach first.
    ``tests/test_core.py::test_table_native_ops_match_derived_definitions``
    checks them against the definitions in ``core``, on tables that pass
    A1–A8 and on one that does not.  ``boolean_skeleton`` runs the
    definition in ``core`` once per algebra, testing membership in a set of
    indices, and :meth:`check_axioms` its exhaustive check once per table.
    """

    backend = "finite-table"

    def __init__(self, table: FiniteTable, labels: tuple | None = None,
                 sampler: SamplerConfig | None = None, name: str | None = None):
        super().__init__(sampler)
        self.table = table
        self.labels = tuple(labels) if labels is not None else tuple(range(table.n))
        if len(self.labels) != table.n:
            raise AlgebraError("label count must match carrier size")
        self.name = name or f"finite({table.n})"
        self._op = table.oplus
        self._neg = table.neg
        self._til = table.tilde
        self._n = table.n

    # -- primitives ----------------------------------------------------

    @property
    def zero(self):
        return self.table.zero

    @property
    def one(self):
        return self.table.one

    def _idx(self, x):
        if type(x) is not int or not 0 <= x < self._n:
            raise BackendMismatch(f"{x!r} is not an index into a {self._n}-element table")
        return x

    def oplus(self, x, y):
        n = self._n
        if type(x) is int and 0 <= x < n and type(y) is int and 0 <= y < n:
            return self._op[x][y]
        return self._op[self._idx(x)][self._idx(y)]

    def neg(self, x):
        if type(x) is int and 0 <= x < self._n:
            return self._neg[x]
        return self._neg[self._idx(x)]

    def tilde(self, x):
        if type(x) is int and 0 <= x < self._n:
            return self._til[x]
        return self._til[self._idx(x)]

    def eq(self, x, y):
        n = self._n
        if type(x) is int and 0 <= x < n and type(y) is int and 0 <= y < n:
            return x == y
        return self._idx(x) == self._idx(y)

    # -- derived operations read off tables ------------------------------

    @cached_property
    def _odot_table(self) -> tuple:
        """x ⊙ y = (y⁻ ⊕ x⁻)∼ for every pair, by lookups."""
        op, ng, tl, xs = self._op, self._neg, self._til, range(self._n)
        return tuple(tuple(tl[op[ng[y]][ng[x]]] for y in xs) for x in xs)

    @cached_property
    def _meet_table(self) -> tuple:
        """x ∧ y = x ⊙ (x⁻ ⊕ y) for every pair, by lookups."""
        od, op, ng, xs = self._odot_table, self._op, self._neg, range(self._n)
        return tuple(tuple(od[x][op[ng[x]][y]] for y in xs) for x in xs)

    def odot(self, x, y):
        n = self._n
        if type(y) is int and 0 <= y < n and type(x) is int and 0 <= x < n:
            return self._odot_table[x][y]
        y = self._idx(y)         # y first, as (y⁻ ⊕ x⁻)∼ validates them
        return self._odot_table[self._idx(x)][y]

    def meet(self, x, y):
        n = self._n
        if type(x) is int and 0 <= x < n and type(y) is int and 0 <= y < n:
            return self._meet_table[x][y]
        return self._meet_table[self._idx(x)][self._idx(y)]

    def join(self, x, y):
        """x ∨ y = x ⊕ (x∼ ⊙ y)."""
        n = self._n
        if type(x) is int and 0 <= x < n and type(y) is int and 0 <= y < n:
            return self._op[x][self._odot_table[self._til[x]][y]]
        x = self._idx(x)
        return self._op[x][self._odot_table[self._til[x]][self._idx(y)]]

    def leq(self, x, y):
        n = self._n
        if type(x) is int and 0 <= x < n and type(y) is int and 0 <= y < n:
            return self._meet_table[x][y] == x
        return self._meet_table[self._idx(x)][self._idx(y)] == x

    def is_boolean_element(self, x):
        """x ⊕ x = x."""
        if type(x) is int and 0 <= x < self._n:
            return self._op[x][x] == x
        return self._op[self._idx(x)][x] == x

    @cached_property
    def commutative(self) -> bool:
        """x⁻ = x∼ and x ⊕ y = y ⊕ x, as A1–A8 imply on a finite table
        (n² + n comparisons, no ⊙); computed once per algebra."""
        t = self.table
        return tuple(t.neg) == tuple(t.tilde) and tuple(map(tuple, t.oplus)) == tuple(zip(*t.oplus))

    @cached_property
    def _skeleton(self) -> tuple:
        return tuple(super().boolean_skeleton())

    def _membership(self, points):
        """Equal indices are the same int: membership is one set lookup."""
        return frozenset(points).__contains__

    def boolean_skeleton(self) -> list:
        """:meth:`PseudoMV.boolean_skeleton`, computed and checked once per
        algebra; each call returns a fresh list."""
        return list(self._skeleton)

    def contains(self, x):
        return type(x) is int and 0 <= x < self.table.n

    def sample(self, rng):
        return rng.randrange(self.table.n)

    @property
    def enumerable(self):
        return True

    def elements(self) -> Iterator[int]:
        return iter(range(self.table.n))

    @property
    def size(self):
        return self.table.n

    def label(self, x):
        return self.labels[self._idx(x)]

    def format_element(self, x):
        return str(self.label(x))

    def describe(self):
        return {"backend": self.backend, "size": self.size, "name": self.name}

    # -- exhaustive axiom check by table lookups -------------------------

    def check_axioms(self, budget=None, seed=None) -> AxiomReport:
        """Exhaustive A1–A8 by plain lookups in the table tuples, computed
        once per table: every call returns the same report, which callers
        read and must not change.

        Same formulas, counts and witnesses (the first failures in row-major
        order) as :meth:`PseudoMV.check_axioms`, which stays the reference
        and is compared with this method in the test suite.  Lookups skip
        the per-call index validation of the primitives, and failures are
        drawn lazily up to ``CheckResult.MAX_WITNESSES``, so the check
        allocates nothing larger than the table.  A1 compares whole rows:
        (x ⊕ y) ⊕ z for every z is row x ⊕ y, and x ⊕ (y ⊕ z) is row x read
        at the entries of row y, one ``itemgetter`` call; witnesses are
        looked for only inside a row that differs.
        """
        return self._axioms

    @cached_property
    def _axioms(self) -> AxiomReport:
        n, op, ng, tl, od = self._n, self._op, self._neg, self._til, self._odot_table
        zero, one = self.table.zero, self.table.one
        xs = range(n)

        def singles(ok):
            return ((x,) for x in xs if not ok(x))

        def pairs(ok):
            return ((x, y) for x in xs for y in xs if not ok(x, y))

        def result(name, arity, failures):
            witnesses = list(itertools.islice(failures, CheckResult.MAX_WITNESSES))
            return CheckResult(name, not witnesses, n ** arity, witnesses)

        def associativity_failures():
            # an itemgetter of one index returns no tuple; on one element
            # every entry is 0, so A1 holds
            if n < 2:
                return
            cols = [itemgetter(*col) for col in op]
            for x, row in enumerate(op):
                for y in xs:
                    left, right = op[row[y]], cols[y](row)
                    if left != right:
                        yield from ((x, y, z) for z in xs if left[z] != right[z])

        a4 = ng[one] == zero and tl[one] == zero
        res = {
            "A1": result("A1", 3, associativity_failures()),
            "A2": result("A2", 1, singles(lambda x: op[x][zero] == x == op[zero][x])),
            "A3": result("A3", 1, singles(lambda x: op[x][one] == one == op[one][x])),
            "A4": CheckResult("A4", a4, 1, [] if a4 else [(one,)]),
            "A5": result("A5", 2, pairs(
                lambda x, y: tl[op[ng[x]][ng[y]]] == ng[op[tl[x]][tl[y]]])),
            "A6": result("A6", 2, pairs(
                lambda x, y: op[x][od[tl[x]][y]] == op[y][od[tl[y]][x]]
                == op[od[x][ng[y]]][y] == op[od[y][ng[x]]][x])),
            "A7": result("A7", 2, pairs(
                lambda x, y: od[x][op[ng[x]][y]] == od[op[x][tl[y]]][y])),
            "A8": result("A8", 1, singles(lambda x: tl[ng[x]] == x)),
        }
        return AxiomReport(res, exhaustive=True)

    def validated(self) -> "FinitePMV":
        report = self.check_axioms()
        if not report.all_pass:
            raise AxiomValidationError(report)
        return self


def tabulate(algebra: PseudoMV, name: str | None = None,
             label: Callable[[Any], Any] | None = None) -> FinitePMV:
    """Materialize any enumerable algebra as an index table, labelling each
    element by ``label`` of it; by default an int or tuple element is its
    own label and any other element its formatted text."""
    elems = list(algebra.elements())
    # every enumerable carrier has hashable elements whose eq is ==
    index = {e: i for i, e in enumerate(elems)}

    def find(v) -> int:
        try:
            return index[v]
        except KeyError:
            raise AlgebraError(f"operation escaped the carrier at {v!r}") from None
    table = FiniteTable(
        n=len(elems),
        oplus=tuple(tuple(find(algebra.oplus(a, b)) for b in elems) for a in elems),
        neg=tuple(find(algebra.neg(a)) for a in elems),
        tilde=tuple(find(algebra.tilde(a)) for a in elems),
        zero=find(algebra.zero),
        one=find(algebra.one),
    )
    label = label or (lambda e: e if isinstance(e, (int, tuple)) else algebra.format_element(e))
    return FinitePMV(table, labels=tuple(map(label, elems)), sampler=algebra.sampler, name=name)


# ----------------------------------------------------------------------
# catalogue
# ----------------------------------------------------------------------

class CatalogueSpecError(ValueError):
    """A catalogue spec read from outside the program has the wrong shape."""


@dataclass(frozen=True)
class CatalogueSpec:
    """Constructor description: chain(n), boolean(k), product(a, b),
    interval(a, idempotent-index), as ``CATALOGUE_KINDS`` reads them."""

    kind: str
    params: tuple

    def label(self) -> str:
        return f"{self.kind}({','.join(map(str, _args(self, CatalogueSpec.label)))})"


def _symmetric_table(size: int, oplus: Callable, neg: Callable, name: str) -> FinitePMV:
    """The table on {0, ..., size - 1} with x∼ = x⁻, 0 = 0 and 1 = size - 1."""
    xs = range(size)
    negs = tuple(map(neg, xs))
    table = FiniteTable(n=size, oplus=tuple(tuple(oplus(i, j) for j in xs) for i in xs),
                        neg=negs, tilde=negs, zero=0, one=size - 1)
    return FinitePMV(table, name=name).validated()


def chain(n: int) -> FinitePMV:
    """The n+1 element chain {0, 1, ..., n} with x ⊕ y = (x+y) ∧ n."""
    if n < 0:
        raise ValueError("chain parameter must be nonnegative")
    return _symmetric_table(n + 1, lambda i, j: min(i + j, n), lambda i: n - i, f"chain({n})")


def boolean(k: int) -> FinitePMV:
    """The Boolean algebra 2ᵏ on bitmask carriers, x ⊕ y = x | y."""
    if k < 0:
        raise ValueError("boolean parameter must be nonnegative")
    full = (1 << k) - 1
    return _symmetric_table(full + 1, int.__or__, full.__xor__, f"boolean({k})")


def product(a: FinitePMV, b: FinitePMV) -> FinitePMV:
    """Direct product, materialized as a table with pair labels: the pair
    (i, j) is index i·|b| + j, the order ``tabulate(ProductPMV(a, b))``
    gives, and each entry is built by that arithmetic from the factors'."""
    ta, tb, nb = a.table, b.table, b.size
    cells = [(i, j) for i in range(a.size) for j in range(nb)]
    table = FiniteTable(
        n=len(cells),
        oplus=tuple(tuple(p * nb + q for p in ta.oplus[i] for q in tb.oplus[j]) for i, j in cells),
        neg=tuple(ta.neg[i] * nb + tb.neg[j] for i, j in cells),
        tilde=tuple(ta.tilde[i] * nb + tb.tilde[j] for i, j in cells),
        zero=ta.zero * nb + tb.zero,
        one=ta.one * nb + tb.one,
    )
    return FinitePMV(table, labels=tuple((a.labels[i], b.labels[j]) for i, j in cells),
                     sampler=a.sampler, name=f"product({a.name},{b.name})").validated()


def interval(a: FinitePMV, top: int) -> FinitePMV:
    """The algebra on [0, top] for an idempotent top, with relativized
    negations x⁻ ∧ top and x∼ ∧ top."""
    return tabulate(IntervalPMV(a, top), name=f"interval({a.name},{a.format_element(top)})",
                    label=a.labels.__getitem__).validated()


class CatalogueKind(NamedTuple):
    params: tuple[type, ...]            # each ``int`` (a JSON integer) or ``CatalogueSpec``
    size: Callable[..., int]            # the largest carrier that building it tabulates
    build: Callable[..., FinitePMV]


#: Every catalogue kind; ``size`` and ``build`` take each nested spec as its
#: size or its algebra.  A product tabulates its factors too, and an interval
#: its parent; Boolean sizes stop growing past ``2 * TABLE_CEILING``.
CATALOGUE_KINDS = {
    "chain": CatalogueKind((int,), lambda n: n + 1, chain),
    "boolean": CatalogueKind((int,), lambda k: 1 << min(max(k, 0), TABLE_CEILING.bit_length()),
                             boolean),
    "product": CatalogueKind((CatalogueSpec, CatalogueSpec), lambda a, b: max(a, b, a * b),
                             product),
    "interval": CatalogueKind((CatalogueSpec, int), lambda a, top: a, interval),
}


def _kind(kind: Any) -> CatalogueKind:
    if not isinstance(kind, str) or kind not in CATALOGUE_KINDS:
        raise CatalogueSpecError(f"unknown catalogue kind {kind!r}")
    return CATALOGUE_KINDS[kind]


def _args(spec: CatalogueSpec, walk: Callable[[CatalogueSpec], Any]) -> list:
    """The parameters of ``spec``, each nested spec replaced by ``walk`` of it."""
    return [walk(p) if isinstance(p, CatalogueSpec) else p for p in spec.params]


def json_int(value: Any) -> int:
    """``value`` if it is a JSON integer; a float, string or boolean raises
    ``TypeError`` instead of being truncated or read digit by digit."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r:.20}")
    return value


def _prefix(text: str) -> str:
    """``text`` quoted, cut to its first ``ECHO_PREFIX`` characters."""
    return repr(text[:ECHO_PREFIX]) + ("..." if len(text) > ECHO_PREFIX else "")


def _known_keys(obj: Any, keys: tuple[str, ...], what: str,
                error: type[Exception] = CatalogueSpecError) -> None:
    """Raise ``error`` naming the first key of the JSON object ``obj`` that
    is not in ``keys``, so a misspelt key is not silently ignored."""
    for key in obj if isinstance(obj, dict) else ():
        if key not in keys:
            raise error(f"unknown key {_prefix(key)} in {what}")


def parse_catalogue(obj: Any, depth: int = 1) -> CatalogueSpec:
    """The spec of the JSON value ``obj``, found ``depth`` levels deep in
    its file.  A spec of the wrong shape raises ``CatalogueSpecError`` and a
    parameter that is no JSON integer where one belongs ``TypeError``."""
    if depth > CATALOGUE_DEPTH_CEILING:
        raise CatalogueSpecError(f"catalogue spec nests deeper than {CATALOGUE_DEPTH_CEILING} levels")
    try:
        kind, params = obj["kind"], obj["params"]
    except (KeyError, TypeError) as exc:
        raise CatalogueSpecError("catalogue spec needs 'kind' and 'params'") from exc
    _known_keys(obj, ("kind", "params"), "catalogue spec")
    if not isinstance(params, list):
        raise CatalogueSpecError(f"catalogue params must be a list, got {type(params).__name__}")
    shapes = _kind(kind).params
    if len(params) != len(shapes):
        raise CatalogueSpecError(f"catalogue kind {kind!r} takes {len(shapes)} params, "
                                 f"got {len(params)}")
    return CatalogueSpec(kind, tuple(parse_catalogue(p, depth + 1) if shape is CatalogueSpec
                                     else json_int(p) for shape, p in zip(shapes, params)))


def catalogue_size(spec: CatalogueSpec) -> int:
    """The largest carrier that building ``spec`` tabulates, found without building."""
    return _kind(spec.kind).size(*_args(spec, catalogue_size))


def build_catalogue(spec: CatalogueSpec) -> FinitePMV:
    return _kind(spec.kind).build(*_args(spec, build_catalogue))


# ----------------------------------------------------------------------
# weak square roots by brute force
# ----------------------------------------------------------------------

def maximum_of(algebra: PseudoMV, subset: list) -> Any | None:
    """The greatest element of ``subset`` in the algebra order, or None.

    A subset of a poset may have maximal elements without a maximum, so
    existence is checked explicitly.
    """
    for cand in subset:
        if all(algebra.leq(z, cand) for z in subset):
            return cand
    return None


@dataclass
class WeakSqrtSearch:
    """Outcome of the exhaustive search for a weak square root.

    ``verdict`` is "found", "no-maximum" (some x has square-below set with
    no greatest element) or "square-mismatch" (the candidate maximum m has
    m ⊙ m ≠ x).  The two failure modes are deliberately distinct.
    """

    verdict: str
    mapping: dict | None = None
    failing: Any = None

    @property
    def found(self) -> bool:
        return self.verdict == "found"


def brute_force_weak_sqrt(algebra: FinitePMV) -> WeakSqrtSearch:
    """For each x collect S(x) = {z : z ⊙ z ≤ x}; a weak square root must
    send x to the maximum of S(x) and square back to x.  z ⊙ z and z ≤ x
    are read off the algebra's x ⊙ y and x ∧ y tables."""
    elems = list(algebra.elements())
    od, mt = algebra._odot_table, algebra._meet_table
    squares = [(z, od[z][z]) for z in elems]
    mapping: dict = {}
    for x in elems:
        below = [z for z, zz in squares if mt[zz][x] == zz]
        m = maximum_of(algebra, below)
        if m is None:
            return WeakSqrtSearch("no-maximum", failing=x)
        if od[m][m] != x:
            return WeakSqrtSearch("square-mismatch", failing=x)
        mapping[x] = m
    return WeakSqrtSearch("found", mapping=mapping)


# ----------------------------------------------------------------------
# catalogue search
# ----------------------------------------------------------------------

@dataclass
class SearchRow:
    name: str
    size: int
    has_weak_sqrt: bool
    is_boolean_algebra: bool
    detail: str

    @property
    def consistent(self) -> bool:
        return self.has_weak_sqrt == self.is_boolean_algebra


def catalogue_closure(max_size: int) -> list[FinitePMV]:
    """Chains and Boolean algebras up to ``max_size`` elements, their
    pairwise products, and the nontrivial intervals of everything built."""
    base = ([chain(m) for m in range(1, max_size)]
            + [boolean(k) for k in range(1, max_size.bit_length()) if 1 << k <= max_size])
    out = list(base)
    for a, b in itertools.product(base, base):
        if a.size * b.size <= max_size:
            out.append(product(a, b))
    for a in list(out):
        for e in a.boolean_skeleton():
            if e in (a.zero, a.one):
                continue
            out.append(interval(a, e))
    return out


def search_square_rootable(max_size: int = SEARCH_CEILING) -> list[SearchRow]:
    """Report, per catalogue algebra, whether a weak square root exists and
    whether the algebra is Boolean; the two verdicts must coincide."""
    if max_size > SEARCH_CEILING:
        raise ValueError(f"search ceiling is {SEARCH_CEILING} elements")
    rows = []
    for algebra in catalogue_closure(max_size):
        search = brute_force_weak_sqrt(algebra)
        is_bool = all(algebra.is_boolean_element(x) for x in algebra.elements())
        if search.found:
            detail = "weak square root found"
        else:
            detail = f"{search.verdict} at x={algebra.format_element(search.failing)}"
        rows.append(SearchRow(algebra.name, algebra.size, search.found, is_bool, detail))
    return rows

