"""Carrier-independent pseudo MV-algebra operations and checks.

The algebras handled here are structures (M; ⊕, ⁻, ∼, 0, 1) where ⊕ is an
associative addition with neutral element 0 and absorbing element 1, and
⁻ / ∼ are two negations tied together through the multiplication
x ⊙ y = (y⁻ ⊕ x⁻)∼.  Commutativity of ⊕ is not assumed; when it holds the
two negations coincide and the structure is an ordinary MV-algebra.

Concrete carriers (lookup tables, group intervals, products) subclass
:class:`PseudoMV` and supply the three primitives plus equality and
sampling.  Every derived operation — ⊙, the residua → and ⇝, the lattice,
the order, the partial addition — is defined here from the primitives, and
these definitions are the specification.  Group intervals Γ(G, u) override
⊙, ∧, ∨ and ≤ with the group's own operations, and finite tables read them
off tables of lookups;
``tests/test_core.py::test_gamma_native_ops_match_derived_definitions`` and
``::test_table_native_ops_match_derived_definitions`` check them against
the definitions here.

Every check is a set of rows (item, domain, predicate) over a
:class:`Domains`, the points it quantifies over, and :func:`run_rows` is
the one loop that counts a predicate into a :class:`CheckResult`.  The
only other code that builds one is the table fast path
``FinitePMV.check_axioms``, which is cross-checked against the rows here.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, ClassVar, Iterable, Iterator

try:    # as random.py does: a built-in digest, since hashlib loads OpenSSL (about 3.6 MB)
    from _sha256 import sha256          # Python 3.10 and 3.11
except ImportError:
    from hashlib import sha256

__all__ = [
    "UNDEFINED",
    "AlgebraError",
    "BackendMismatch",
    "UnsupportedBackend",
    "SamplerConfig",
    "CheckResult",
    "AxiomReport",
    "Domains",
    "run_rows",
    "PseudoMV",
    "ProductPMV",
    "IntervalPMV",
    "derive_seed",
    "make_rng",
]


class AlgebraError(Exception):
    """Base error for algebra construction and evaluation problems."""


class BackendMismatch(AlgebraError, TypeError):
    """An element was used with an algebra it does not belong to."""


class UnsupportedBackend(AlgebraError):
    """The requested operation is not available on this carrier."""


class _Undefined:
    """Marker for the partial addition x + y when x ≰ y⁻.

    Undefinedness is a value, not an error; callers test ``is UNDEFINED``.
    """

    _instance: ClassVar["_Undefined | None"] = None

    def __new__(cls) -> "_Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDEFINED"

    def __bool__(self) -> bool:
        return False


UNDEFINED = _Undefined()


def derive_seed(seed: int, *labels: Any) -> int:
    """Derive a child seed from a root seed and a label path.

    Hash-based so that independent checks consume independent, reproducible
    streams regardless of call order.
    """
    blob = ":".join([str(seed), *map(str, labels)]).encode()
    return int.from_bytes(sha256(blob).digest()[:8], "big")


def make_rng(seed: int, *labels: Any) -> random.Random:
    return random.Random(derive_seed(seed, *labels))


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible sampling parameters for algebras with infinite carriers."""

    seed: int = 0
    sample_count: int = 2000


@dataclass
class CheckResult:
    """Outcome of one universally quantified check.

    ``name`` is the key of the checked item.  ``witnesses`` holds up to
    :data:`MAX_WITNESSES` offending inputs in the (deterministic) order they
    were found.  ``checked`` counts the points walked; once the result is
    :attr:`settled`, later points of the walk are counted but not evaluated.
    """

    name: str
    passed: bool = True
    checked: int = 0
    witnesses: list = field(default_factory=list)

    MAX_WITNESSES: ClassVar[int] = 3

    def fail(self, witness: Any) -> None:
        """Record a failing point; the first :data:`MAX_WITNESSES` are kept."""
        self.passed = False
        if len(self.witnesses) < self.MAX_WITNESSES:
            self.witnesses.append(witness)

    @property
    def settled(self) -> bool:
        """Failed with every witness slot full: no later point can change it."""
        return not self.passed and len(self.witnesses) >= self.MAX_WITNESSES

    def __bool__(self) -> bool:
        return self.passed


@dataclass
class AxiomReport:
    """Per-axiom verdicts for the eight defining identities A1–A8."""

    axioms: dict[str, CheckResult]
    exhaustive: bool

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.axioms.values())

    @property
    def failing(self) -> list[str]:
        return [name for name, r in self.axioms.items() if not r.passed]


class Domains:
    """The points a check quantifies over, on one algebra.

    An enumerable carrier gives every element, pair or triple.  Otherwise a
    domain is ``budget`` points sampled from the stream its label names
    (``budget`` and ``seed`` default to the algebra's sampler), and elements
    start with 0 and 1.  Elements and pairs labelled like the triples are the
    leading coordinates of the triples' stream: that is how A1–A8 share one.
    A check may set ``elems`` or ``pairs`` to points of its own.  A point is
    a tuple, and is the witness when a row fails at it.
    """

    def __init__(self, algebra: PseudoMV, budget: int | None = None, seed: int | None = None,
                 *, elements: str | None = None, pairs: str | None = None,
                 triples: str | None = None):
        self.M = algebra
        self.budget = algebra.sampler.sample_count if budget is None else budget
        self.seed = algebra.sampler.seed if seed is None else seed
        self.labels = {"elements": elements, "pairs": pairs, "triples": triples}
        self.point_cache: dict = {}   # cleared by run_rows at each point

    def rng(self, label: str) -> random.Random:
        return make_rng(self.seed, label)

    @cached_property
    def elems(self) -> list:
        """The elements themselves, not wrapped as points."""
        M = self.M
        if M.enumerable:
            return list(M.elements())
        rng = self.rng(self.labels["elements"])
        return [M.zero, M.one] + [M.sample(rng) for _ in range(self.budget - 2)]

    def _tuples(self, domain: str, arity: int) -> Iterator[tuple]:
        if self.M.enumerable:
            return itertools.product(self.elems, repeat=arity)
        rng = self.rng(self.labels[domain])
        draws = map(self.M.sample, itertools.repeat(rng, arity * self.budget))
        return zip(*[draws] * arity)     # consecutive draws, ``arity`` at a time

    elements = property(lambda self: zip(self.elems))     # 1-tuples
    pairs = cached_property(lambda self: list(self._tuples("pairs", 2)))
    triples = property(lambda self: self._tuples("triples", 3))
    zero = property(lambda self: [(self.M.zero,)])
    one = property(lambda self: [(self.M.one,)])

    def walk(self, domain: str) -> str:
        """The domain whose points are walked for ``domain``: itself, or the
        triples when ``domain`` is sampled from the triples' stream."""
        label = self.labels.get(domain)
        if label is not None and label == self.labels["triples"] and not self.M.enumerable:
            return "triples"
        return domain


#: how many leading coordinates of a walked point a domain takes
_ARITY = {"elements": 1, "pairs": 2}


def run_rows(rows: Iterable[tuple], domains: Domains) -> dict[str, CheckResult]:
    """Count each row's predicate at every point of its domain into the
    :class:`CheckResult` of its item.

    A row is (item, domain, predicate): predicate(domains, *point) is counted
    at every point of the ``domains`` attribute named by domain, in row order.
    Consecutive rows walked on one domain share a single walk of it, and
    ``domains.point_cache`` is cleared at each point of a walk.  Once an
    item's result is settled (:attr:`CheckResult.settled`) its rows are not
    evaluated again, in this walk or a later one; ``checked`` still counts
    every point walked.
    """
    out: dict[str, CheckResult] = {}
    for walk, group in itertools.groupby(rows, key=lambda row: domains.walk(row[1])):
        counted = [(out.setdefault(item, CheckResult(item)), _ARITY.get(domain), holds)
                   for item, domain, holds in group]
        live = [row for row in counted if not row[0].settled]
        clear, points = domains.point_cache.clear, 0
        for point in getattr(domains, walk):
            points += 1
            clear()
            for res, arity, holds in live:
                # coordinates passed one by one: on float carriers a call
                # with *point costs about as much as the predicate
                if not (holds(domains, point[0]) if arity == 1
                        else holds(domains, point[0], point[1]) if arity == 2
                        else holds(domains, *point)):
                    res.fail(point[:arity])
                    if res.settled:     # rebinding leaves this point's loop as it is
                        live = [row for row in live if row[0] is not res]
        for res, _, _ in counted:
            res.checked += points
    return out


class PseudoMV(ABC):
    """A pseudo MV-algebra handle.

    Subclasses provide the primitives ``oplus``, ``neg`` (x⁻), ``tilde``
    (x∼), the constants, equality, membership, and sampling.  Handles are
    immutable once constructed and safe to share.
    """

    backend: str = "abstract"

    def __init__(self, sampler: SamplerConfig | None = None):
        self.sampler = sampler if sampler is not None else SamplerConfig()

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def zero(self) -> Any: ...

    @property
    @abstractmethod
    def one(self) -> Any: ...

    @abstractmethod
    def oplus(self, x: Any, y: Any) -> Any:
        """Primitive addition x ⊕ y (total)."""

    @abstractmethod
    def neg(self, x: Any) -> Any:
        """Left negation x⁻."""

    @abstractmethod
    def tilde(self, x: Any) -> Any:
        """Right negation x∼."""

    @abstractmethod
    def eq(self, x: Any, y: Any) -> bool:
        """Element equality; exact, or within the group's tolerance on float carriers."""

    @abstractmethod
    def contains(self, x: Any) -> bool: ...

    @abstractmethod
    def sample(self, rng: random.Random) -> Any:
        """Draw one element of the carrier."""

    @property
    def enumerable(self) -> bool:
        return False

    def elements(self) -> Iterator[Any]:
        raise UnsupportedBackend(f"{self.backend} carrier cannot be enumerated")

    @property
    def size(self) -> int | None:
        return None

    @property
    def is_degenerate(self) -> bool:
        return self.eq(self.zero, self.one)

    def format_element(self, x: Any) -> str:
        return str(x)

    def describe(self) -> dict:
        return {"backend": self.backend, "size": self.size}

    # ------------------------------------------------------------------
    # derived operations, all routed through the three primitives
    # ------------------------------------------------------------------

    def odot(self, x: Any, y: Any) -> Any:
        """Multiplication x ⊙ y = (y⁻ ⊕ x⁻)∼."""
        return self.tilde(self.oplus(self.neg(y), self.neg(x)))

    def arrow(self, x: Any, y: Any) -> Any:
        """Left residuum x → y = x⁻ ⊕ y."""
        return self.oplus(self.neg(x), y)

    def snake(self, x: Any, y: Any) -> Any:
        """Right residuum x ⇝ y = y ⊕ x∼."""
        return self.oplus(y, self.tilde(x))

    def join(self, x: Any, y: Any) -> Any:
        """Lattice join x ∨ y = x ⊕ (x∼ ⊙ y)."""
        return self.oplus(x, self.odot(self.tilde(x), y))

    def meet(self, x: Any, y: Any) -> Any:
        """Lattice meet x ∧ y = x ⊙ (x⁻ ⊕ y)."""
        return self.odot(x, self.oplus(self.neg(x), y))

    def leq(self, x: Any, y: Any) -> bool:
        return self.eq(self.meet(x, y), x)

    def lt(self, x: Any, y: Any) -> bool:
        return self.leq(x, y) and not self.eq(x, y)

    def partial_add(self, x: Any, y: Any) -> Any:
        """Partial addition: x + y = x ⊕ y when x ≤ y⁻, else UNDEFINED."""
        if self.leq(x, self.neg(y)):
            return self.oplus(x, y)
        return UNDEFINED

    def multiples(self, x: Any, n: int) -> tuple[Any, Any]:
        """Return (n.x, nx): the ⊕-iterate and the partial-sum iterate.

        The second component is UNDEFINED as soon as one partial step is.
        """
        if n < 0:
            raise ValueError("multiple count must be nonnegative")
        total = self.zero
        partial: Any = self.zero
        for _ in range(n):
            total = self.oplus(total, x)
            if partial is not UNDEFINED:
                partial = self.partial_add(partial, x)
        return total, partial

    def is_boolean_element(self, x: Any) -> bool:
        return self.eq(self.oplus(x, x), x)

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------

    def check_axioms(self, budget: int | None = None, seed: int | None = None) -> AxiomReport:
        """Check A1–A8: exhaustively on enumerable carriers, else on
        ``budget`` seeded pseudo-random triples."""
        res = run_rows(_axiom_rows(self), Domains(self, budget, seed, elements="axioms",
                                            pairs="axioms", triples="axioms"))
        return AxiomReport(dict(sorted(res.items())), exhaustive=self.enumerable)

    def boolean_skeleton(self) -> list:
        """All idempotents {x : x ⊕ x = x}; enumerable carriers only.

        The result is verified to be a subalgebra before it is returned.
        """
        if not self.enumerable:
            raise UnsupportedBackend("idempotent enumeration needs an enumerable carrier")
        skel = [x for x in self.elements() if self.is_boolean_element(x)]
        members = self._membership(skel)
        if not (members(self.zero) and members(self.one)):
            raise AlgebraError("idempotents do not contain the bounds")
        for x in skel:
            if not (members(self.neg(x)) and members(self.tilde(x))):
                raise AlgebraError(f"idempotents not closed under negation at {x!r}")
            for y in skel:
                if not members(self.oplus(x, y)):
                    raise AlgebraError(f"idempotents not closed under ⊕ at {(x, y)!r}")
        return skel

    def _membership(self, points: list) -> Callable[[Any], bool]:
        """Whether an element equals one of ``points`` under ``eq``."""
        return lambda v: any(self.eq(v, p) for p in points)

    def symmetry_check(self, budget: int | None = None, seed: int | None = None) -> CheckResult:
        """Check x⁻ = x∼ pointwise (exhaustive or sampled)."""
        eq, neg, tilde = self.eq, self.neg, self.tilde
        rows = (("symmetric", "elements", lambda d, x: eq(neg(x), tilde(x))),)
        return run_rows(rows, Domains(self, budget, seed, elements="symmetry"))["symmetric"]


def _axiom_rows(M: PseudoMV) -> tuple:
    """The rows of A1–A8 on M: A4, then the rows on elements, pairs and
    triples, which a sampled check walks as one stream (A2, A3, A8 | A5, A6, A7 | A1)."""
    eq, oplus, neg, tilde, odot, zero, one = M.eq, M.oplus, M.neg, M.tilde, M.odot, M.zero, M.one

    def a6(d, x, y):
        e1 = oplus(x, odot(tilde(x), y))
        e2 = oplus(y, odot(tilde(y), x))
        e3 = oplus(odot(x, neg(y)), y)
        e4 = oplus(odot(y, neg(x)), x)
        return eq(e1, e2) and eq(e2, e3) and eq(e3, e4)

    return (
        ("A4", "one", lambda d, x: eq(neg(x), zero) and eq(tilde(x), zero)),
        ("A2", "elements", lambda d, x: eq(oplus(x, zero), x) and eq(oplus(zero, x), x)),
        ("A3", "elements", lambda d, x: eq(oplus(x, one), one) and eq(oplus(one, x), one)),
        ("A8", "elements", lambda d, x: eq(tilde(neg(x)), x)),
        ("A5", "pairs", lambda d, x, y: eq(tilde(oplus(neg(x), neg(y))),
                                           neg(oplus(tilde(x), tilde(y))))),
        ("A6", "pairs", a6),
        ("A7", "pairs", lambda d, x, y: eq(odot(x, oplus(neg(x), y)),
                                           odot(oplus(x, tilde(y)), y))),
        ("A1", "triples", lambda d, x, y, z: eq(oplus(oplus(x, y), z), oplus(x, oplus(y, z)))),
    )


class ProductPMV(PseudoMV):
    """Direct product of two algebras; elements are pairs, operations are
    componentwise.  Mixed backends (finite × group interval) are allowed."""

    backend = "product"

    def __init__(self, left: PseudoMV, right: PseudoMV):
        super().__init__(left.sampler)
        self.left = left
        self.right = right

    @property
    def zero(self):
        return (self.left.zero, self.right.zero)

    @property
    def one(self):
        return (self.left.one, self.right.one)

    def _split(self, x):
        if not (isinstance(x, tuple) and len(x) == 2):
            raise BackendMismatch(f"product element expected, got {x!r}")
        return x

    def oplus(self, x, y):
        (a, b), (c, d) = self._split(x), self._split(y)
        return (self.left.oplus(a, c), self.right.oplus(b, d))

    def neg(self, x):
        a, b = self._split(x)
        return (self.left.neg(a), self.right.neg(b))

    def tilde(self, x):
        a, b = self._split(x)
        return (self.left.tilde(a), self.right.tilde(b))

    def eq(self, x, y):
        (a, b), (c, d) = self._split(x), self._split(y)
        return self.left.eq(a, c) and self.right.eq(b, d)

    def contains(self, x):
        if not (isinstance(x, tuple) and len(x) == 2):
            return False
        return self.left.contains(x[0]) and self.right.contains(x[1])

    def sample(self, rng):
        return (self.left.sample(rng), self.right.sample(rng))

    @property
    def enumerable(self):
        return self.left.enumerable and self.right.enumerable

    def elements(self):
        if not self.enumerable:
            raise UnsupportedBackend("product of non-enumerable carriers")
        return iter([(a, b)
                     for a in self.left.elements()
                     for b in self.right.elements()])

    @property
    def size(self):
        ls, rs = self.left.size, self.right.size
        return None if ls is None or rs is None else ls * rs

    def format_element(self, x):
        a, b = x
        return f"({self.left.format_element(a)}, {self.right.format_element(b)})"

    def describe(self):
        return {"backend": self.backend, "size": self.size,
                "factors": [self.left.describe(), self.right.describe()]}


class IntervalPMV(PseudoMV):
    """The algebra on [0, a] for an idempotent a: same ⊕, negations relativized
    to x⁻ ∧ a and x∼ ∧ a, top element a."""

    backend = "interval"

    def __init__(self, parent: PseudoMV, top: Any):
        if not parent.contains(top):
            raise BackendMismatch(f"interval endpoint {top!r:.20} not in the algebra")
        if not parent.is_boolean_element(top):
            raise AlgebraError("interval endpoint must be idempotent")
        super().__init__(parent.sampler)
        self.parent = parent
        self.top = top

    @property
    def zero(self):
        return self.parent.zero

    @property
    def one(self):
        return self.top

    def oplus(self, x, y):
        return self.parent.oplus(x, y)

    def neg(self, x):
        return self.parent.meet(self.parent.neg(x), self.top)

    def tilde(self, x):
        return self.parent.meet(self.parent.tilde(x), self.top)

    def eq(self, x, y):
        return self.parent.eq(x, y)

    def contains(self, x):
        return self.parent.contains(x) and self.parent.leq(x, self.top)

    def sample(self, rng):
        return self.project(self.parent.sample(rng))

    def project(self, x):
        """The surjective homomorphism x ↦ x ∧ a from the parent onto [0, a]."""
        return self.parent.meet(x, self.top)

    @property
    def enumerable(self):
        return self.parent.enumerable

    def elements(self):
        return iter([x for x in self.parent.elements()
                     if self.parent.leq(x, self.top)])

    @property
    def size(self):
        if not self.enumerable:
            return None
        return len(list(self.elements()))

    def format_element(self, x):
        return self.parent.format_element(x)

    def describe(self):
        return {"backend": self.backend, "size": self.size,
                "top": self.parent.format_element(self.top),
                "parent": self.parent.describe()}
