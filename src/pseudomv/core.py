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
⊙, ∧, ∨ and ≤ with the group's own operations;
``tests/test_core.py::test_gamma_native_ops_match_derived_definitions``
checks them against the definitions here.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, ClassVar, Iterator

__all__ = [
    "UNDEFINED",
    "AlgebraError",
    "BackendMismatch",
    "UnsupportedBackend",
    "SamplerConfig",
    "CheckResult",
    "AxiomReport",
    "PseudoMV",
    "ProductPMV",
    "IntervalPMV",
    "derive_seed",
    "make_rng",
]

AXIOM_NAMES = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8")


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
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def make_rng(seed: int, *labels: Any) -> random.Random:
    return random.Random(derive_seed(seed, *labels))


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible sampling parameters for algebras with infinite carriers."""

    seed: int = 0
    denominator_bound: int = 1024
    sample_count: int = 2000


@dataclass
class CheckResult:
    """Outcome of one universally quantified check.

    ``witnesses`` holds up to :data:`MAX_WITNESSES` offending inputs in
    the (deterministic) order they were found.
    """

    name: str
    passed: bool = True
    checked: int = 0
    witnesses: list = field(default_factory=list)

    MAX_WITNESSES: ClassVar[int] = 3

    def count(self, ok: bool, witness: Any = None) -> None:
        self.checked += 1
        if not ok:
            self.passed = False
            if witness is not None and len(self.witnesses) < self.MAX_WITNESSES:
                self.witnesses.append(witness)

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


class PseudoMV(ABC):
    """A pseudo MV-algebra handle.

    Subclasses provide the primitives ``oplus``, ``neg`` (x⁻), ``tilde``
    (x∼), the constants, equality, membership, and sampling.  Handles are
    immutable once constructed and safe to share.
    """

    backend: str = "abstract"

    def __init__(self, sampler: SamplerConfig | None = None, tolerance: float = 0.0):
        self.sampler = sampler if sampler is not None else SamplerConfig()
        self.tolerance = tolerance

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
        """Element equality; exact, or within ``tolerance`` on float carriers."""

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
    # probing and checks
    # ------------------------------------------------------------------

    def probe(self, budget: int | None = None, seed: int | None = None,
              label: str = "probe") -> list:
        """Elements to quantify over: the whole carrier when enumerable,
        otherwise 0, 1 and ``budget`` seeded samples."""
        if self.enumerable:
            return list(self.elements())
        rng = make_rng(self.sampler.seed if seed is None else seed, label)
        n = self.sampler.sample_count if budget is None else budget
        out = [self.zero, self.one]
        out.extend(self.sample(rng) for _ in range(max(0, n - 2)))
        return out

    def check_axioms(self, budget: int | None = None, seed: int | None = None) -> AxiomReport:
        """Check A1–A8: exhaustively on enumerable carriers, else on
        ``budget`` seeded pseudo-random triples."""
        res = {name: CheckResult(name) for name in AXIOM_NAMES}
        zero, one = self.zero, self.one
        eq = self.eq
        res["A4"].count(eq(self.neg(one), zero) and eq(self.tilde(one), zero), (one,))

        def singles(x):
            res["A2"].count(eq(self.oplus(x, zero), x) and eq(self.oplus(zero, x), x), (x,))
            res["A3"].count(eq(self.oplus(x, one), one) and eq(self.oplus(one, x), one), (x,))
            res["A8"].count(eq(self.tilde(self.neg(x)), x), (x,))

        def pairs(x, y):
            res["A5"].count(
                eq(self.tilde(self.oplus(self.neg(x), self.neg(y))),
                   self.neg(self.oplus(self.tilde(x), self.tilde(y)))),
                (x, y))
            e1 = self.oplus(x, self.odot(self.tilde(x), y))
            e2 = self.oplus(y, self.odot(self.tilde(y), x))
            e3 = self.oplus(self.odot(x, self.neg(y)), y)
            e4 = self.oplus(self.odot(y, self.neg(x)), x)
            res["A6"].count(eq(e1, e2) and eq(e2, e3) and eq(e3, e4), (x, y))
            res["A7"].count(
                eq(self.odot(x, self.oplus(self.neg(x), y)),
                   self.odot(self.oplus(x, self.tilde(y)), y)),
                (x, y))

        if self.enumerable:
            elems = list(self.elements())
            for x in elems:
                singles(x)
            for x, y in itertools.product(elems, elems):
                pairs(x, y)
            for x, y, z in itertools.product(elems, elems, elems):
                res["A1"].count(
                    eq(self.oplus(self.oplus(x, y), z), self.oplus(x, self.oplus(y, z))),
                    (x, y, z))
            return AxiomReport(res, exhaustive=True)

        rng = make_rng(self.sampler.seed if seed is None else seed, "axioms")
        n = self.sampler.sample_count if budget is None else budget
        for _ in range(n):
            x, y, z = self.sample(rng), self.sample(rng), self.sample(rng)
            singles(x)
            pairs(x, y)
            res["A1"].count(
                eq(self.oplus(self.oplus(x, y), z), self.oplus(x, self.oplus(y, z))),
                (x, y, z))
        return AxiomReport(res, exhaustive=False)

    def boolean_skeleton(self) -> list:
        """All idempotents {x : x ⊕ x = x}; enumerable carriers only.

        The result is verified to be a subalgebra before it is returned.
        """
        if not self.enumerable:
            raise UnsupportedBackend("idempotent enumeration needs an enumerable carrier")
        skel = [x for x in self.elements() if self.is_boolean_element(x)]
        members = lambda v: any(self.eq(v, s) for s in skel)
        if not (members(self.zero) and members(self.one)):
            raise AlgebraError("idempotents do not contain the bounds")
        for x in skel:
            if not (members(self.neg(x)) and members(self.tilde(x))):
                raise AlgebraError(f"idempotents not closed under negation at {x!r}")
            for y in skel:
                if not members(self.oplus(x, y)):
                    raise AlgebraError(f"idempotents not closed under ⊕ at {(x, y)!r}")
        return skel

    def symmetry_check(self, budget: int | None = None, seed: int | None = None) -> CheckResult:
        """Check x⁻ = x∼ pointwise (exhaustive or sampled)."""
        res = CheckResult("symmetric")
        for x in self.probe(budget, seed, "symmetry"):
            res.count(self.eq(self.neg(x), self.tilde(x)), (x,))
        return res


class ProductPMV(PseudoMV):
    """Direct product of two algebras; elements are pairs, operations are
    componentwise.  Mixed backends (finite × group interval) are allowed."""

    backend = "product"

    def __init__(self, left: PseudoMV, right: PseudoMV,
                 sampler: SamplerConfig | None = None):
        super().__init__(sampler or left.sampler,
                         max(left.tolerance, right.tolerance))
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
            raise BackendMismatch(f"interval endpoint {top!r} not in the algebra")
        if not parent.is_boolean_element(top):
            raise AlgebraError("interval endpoint must be idempotent")
        super().__init__(parent.sampler, parent.tolerance)
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
