"""Seeded operations for the three benchmark workloads, each with its
expected answer.

Every operation comes from a hand-written template that fixes the answer;
the seed only picks parameters that leave that answer unchanged (unit
values and denominators, table sizes, permutations, ideals, the CLI's own
``--seed``).  Expected answers are derived here from the theory, never by
calling the library under test:

* Γ(G, u) with G two-divisible has the closed form (x+u)/2, a strict
  square root with r(0) = u/2, when u/2 is central.  Heisenberg coordinates
  (a, b, c) are central exactly when a = b = 0.  A Heisenberg unit with
  a > 0 makes the interval noncommutative, and then only the weak form
  ((x−u)/2)+u exists, which respects no negation (``weak-only``).  (With
  a = 0 the interval would sit in an abelian subgroup and the weak form
  would be strict, so the templates never draw it.)
* H(p) with p odd, and Z, cannot halve a unit with an odd numerator, so no
  closed form exists.
* A finite algebra has a weak square root exactly when it is Boolean.
* In the (commutative) catalogue algebras every ideal is normal and is the
  down-set of an idempotent a; the quotient by ↓a has |A| / |↓a| classes.

Each workload is a fixed cycle of templates, so every run has the same mix
of operations whatever the seed.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# ----------------------------------------------------------------------
# operations and their checks
# ----------------------------------------------------------------------

#: Outcomes of one operation.  An operation has no verdict when it exits
#: with an ``error:`` or raises; that is an error unless its template is one
#: known to fail at this commit.  KNOWN_RED is a verdict that passes the gate
#: but shows a known defect in an item the gate leaves out.
OK, KNOWN_RED, WRONG = "ok", "known-red", "wrong"
NO_VERDICT, NO_VERDICT_KNOWN = "no-verdict", "no-verdict-known"
FAILED = frozenset({NO_VERDICT, NO_VERDICT_KNOWN})   # count in ``failed``
ERRORS = frozenset({NO_VERDICT, WRONG})              # count in ``verdict_errors``


@dataclass
class Op:
    """One CLI call: ``argv`` for ``pseudomv.cli.main`` plus the check of
    its (exit code, stdout, stderr).  ``known_failing`` marks a template
    that gets no verdict at this commit; ``known_red`` tells, for a verdict
    that passed ``check``, whether an ungated item shows a known defect."""

    template: str
    argv: list
    check: Callable[[int, str, str], bool]
    known_failing: bool = False
    known_red: Callable[[int, str, str], bool] | None = None

    def judge(self, code: int | None, out: str, err: str) -> str:
        if code is None or err.startswith("error:"):
            return NO_VERDICT_KNOWN if self.known_failing else NO_VERDICT
        try:
            if not self.check(code, out, err):
                return WRONG
            return KNOWN_RED if self.known_red and self.known_red(code, out, err) else OK
        except (ValueError, KeyError, TypeError, IndexError):
            return WRONG


def fmt(q: Fraction) -> str:
    """A rational as the CLI prints it: ``n`` or ``p/q``."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fmt_tuple(coords: list) -> str:
    return fmt(coords[0]) if len(coords) == 1 else "(" + ", ".join(map(fmt, coords)) + ")"


def _analyze_check(size=None, root=None, r0=None) -> Callable:
    """``root`` is None (no root found), ``("closed-form-sym", "strict")``,
    ``("closed-form-weak", "weak-only")`` or ``("brute-force", "boolean")``;
    a classification of None leaves it ungated."""

    def check(code, out, err):
        rep = json.loads(out)
        sq = rep["sqrt"]
        ok = code == 0 and rep["axioms"]["all_pass"] is True
        if size is not None:
            ok = ok and rep["algebra"]["size"] == size
        if root is None:
            return ok and sq["found"] is False and sq["construction"].startswith("none")
        how, cls = root
        ok = ok and sq["found"] is True and sq["construction"] == how
        if cls is not None:
            ok = ok and sq["classification"] == cls
            ok = ok and rep["decomposition"]["classification"] == cls
        return ok and (r0 is None or sq["r0"] == r0)

    return check


# ----------------------------------------------------------------------
# gamma-exact: seeded exact group intervals
# ----------------------------------------------------------------------

def _q(rng, lo=1, hi=9):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 9))


def _q_any(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _dyadic(rng, positive=True):
    m = rng.randrange(1, 16, 2) if positive else rng.randint(-15, 15)
    return Fraction(m, 1 << rng.randint(0, 4))


def _power_den(rng, p, odd_numerator=False):
    i = rng.randrange(1, 2 * p, 2) if odd_numerator else rng.randint(1, 2 * p)
    return Fraction(i, p ** rng.randint(1, 2))


EVEN_BASES = (2, 4, 6, 10)
ODD_BASES = (3, 5, 7, 9)


def _scalar(rng):
    """A two-divisible abelian scalar group, a positive member, and a
    generator of arbitrary members."""
    kind = rng.choice(("Q", "D", "H"))
    if kind == "Q":
        return "Q", _q(rng), _q_any
    if kind == "D":
        return "D", _dyadic(rng), lambda r: _dyadic(r, positive=False)
    p = rng.choice(EVEN_BASES)
    return f"H({p})", _power_den(rng, p), lambda r: _power_den(r, p) * r.choice((-1, 1))


def _heis(rng, central, thin=False):
    if central:
        return [Fraction(0), Fraction(0), _q(rng)]
    # The sampler draws Heisenberg coordinates from [-2, 2] and clamps them
    # into [0, u].  With a first coordinate below 1 few samples land inside,
    # and at the benchmark's budget the negation check can miss every
    # violation, reporting ``strict`` for a weak-only root (for example
    # heis (1/3, 2/3, -1/8) at --samples 40 --seed 974432).  Only the
    # ``heis-thin`` template draws such a unit, and its classification is
    # reported as known-red rather than gated; the others keep a in
    # [1, 5/2], where the sampled verdict is reliable.
    a = Fraction(rng.randint(1, 4), 5) if thin else Fraction(rng.randint(2, 5), 2)
    return [a, _q_any(rng), _q_any(rng)]


def _gamma_unit(rng, template):
    """(group expression, unit coordinates) for a gamma-exact template."""
    if template == "Q":
        return "Q", [_q(rng)]
    if template == "D":
        return "D", [_dyadic(rng)]
    if template == "H-even":
        p = rng.choice(EVEN_BASES)
        return f"H({p})", [_power_den(rng, p)]
    if template == "H-odd":
        p = rng.choice(ODD_BASES)
        return f"H({p})", [_power_den(rng, p, odd_numerator=True)]
    if template == "heis-central":
        return "heis", _heis(rng, True)
    if template == "heis-noncentral":
        return "heis", _heis(rng, False)
    if template == "heis-thin":
        return "heis", _heis(rng, False, thin=True)
    if template == "lex-Q-heis-central":
        return "lex(Q,heis)", [_q(rng)] + _heis(rng, True)
    if template == "lex-Q-heis-noncentral":
        return "lex(Q,heis)", [_q(rng)] + _heis(rng, False)
    g1, u1, any1 = _scalar(rng)
    g2, u2, any2 = _scalar(rng)
    shape = rng.randrange(3)
    if template == "prod-scalars":
        return f"prod({g1},{g2})", [u1, u2]
    # The shapes drawn for one template cost about the same.  A central
    # lex(lex(·,·),heis) costs twice as much as these two, and drawn for a
    # third of the cycles it made the tail follow how often it came up.
    if template == "nested-central":
        if shape % 2:
            return f"prod(lex({g1},Q),{g2})", [u1, _q_any(rng), u2]
        return f"lex({g1},prod({g2},Q))", [u1, any2(rng), _q_any(rng)]
    if template == "nested-noncentral":
        if shape == 0:
            return f"prod(lex({g1},Q),heis)", [u1, _q_any(rng)] + _heis(rng, False)
        if shape == 1:
            return f"lex(heis,prod({g1},Q))", _heis(rng, False) + [any1(rng), _q_any(rng)]
        return f"lex(lex(Q,heis),{g1})", [_q(rng)] + _heis(rng, False) + [any1(rng)]
    if template == "Z":
        return "Z", [Fraction(rng.randint(1, 6))]
    if template == "lex-Z-Z":
        return "lex(Z,Z)", [Fraction(rng.randrange(1, 8, 2)), Fraction(rng.randint(-4, 4))]
    raise ValueError(template)


GAMMA_EXPECT = {
    "Q": "strict", "D": "strict", "H-even": "strict", "heis-central": "strict",
    "lex-Q-heis-central": "strict", "prod-scalars": "strict", "nested-central": "strict",
    "heis-noncentral": "weak-only", "lex-Q-heis-noncentral": "weak-only",
    "nested-noncentral": "weak-only", "heis-thin": "weak-only",
    "H-odd": None, "Z": None, "lex-Z-Z": None,
}

#: Templates that get no verdict at this commit: the CLI exits 3 with
#: "integer expected, got Fraction(...)" (ROADMAP item 4).  Their expected
#: answer is the correct one, so a fix turns them into checked verdicts.
KNOWN_FAILING = ("Z", "lex-Z-Z")

#: Templates whose classification is a known sampler-coverage defect
#: (ROADMAP item 4): gated on the construction only, the classification is
#: counted as known-red when it is not the one the theory gives.
KNOWN_RED_CLASSIFICATION = ("heis-thin",)

LADDER_TEMPLATES = ("Q", "D", "H-even", "lex-Q-heis-central")

GAMMA_SAMPLES = 40


def gamma_exact_cycle(rng: random.Random, write: Callable[[dict], str]) -> list[Op]:
    ops = []
    for template, expect in GAMMA_EXPECT.items():
        group, coords = _gamma_unit(rng, template)
        path = write({"gamma": {"group": group, "unit": fmt_tuple(coords).replace(" ", "")}})
        known_red = None
        if expect == "strict":
            # u is central here, so u/2 halves every coordinate
            check = _analyze_check(root=("closed-form-sym", "strict"),
                                   r0=fmt_tuple([c / 2 for c in coords]))
        elif template in KNOWN_RED_CLASSIFICATION:
            check = _analyze_check(root=("closed-form-weak", None))
            known_red = lambda code, out, err, cls=expect: json.loads(out)["sqrt"]["classification"] != cls
        elif expect == "weak-only":
            check = _analyze_check(root=("closed-form-weak", "weak-only"))
        else:
            check = _analyze_check(root=None)
        argv = ["analyze", path, "--samples", str(GAMMA_SAMPLES), "--seed", str(rng.randrange(10**6))]
        ops.append(Op(f"analyze:{template}", argv, check,
                      known_failing=template in KNOWN_FAILING, known_red=known_red))
    for template in LADDER_TEMPLATES:
        group, coords = _gamma_unit(rng, template)
        path = write({"gamma": {"group": group, "unit": fmt_tuple(coords).replace(" ", "")}})
        depth = rng.randint(5, 8)
        rungs = [fmt_tuple([c / (1 << k) for c in coords]) for k in range(1, depth + 1)]

        def check(code, out, err, rungs=rungs):
            return code == 0 and json.loads(out)["ladder"] == rungs

        argv = ["ladder", path, "--depth", str(depth), "--seed", str(rng.randrange(10**6))]
        ops.append(Op(f"ladder:{template}", argv, check))
    return ops


# ----------------------------------------------------------------------
# finite-catalogue: the benchmark's own table model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Table:
    """Operation tables over {0, ..., n-1}; built here independently of the
    library, the same way the catalogue numbers its elements."""

    oplus: tuple
    neg: tuple
    tilde: tuple
    zero: int
    one: int

    @property
    def n(self) -> int:
        return len(self.neg)

    def odot(self, x, y):
        return self.tilde[self.oplus[self.neg[y]][self.neg[x]]]

    def leq(self, x, y):
        # every catalogue algebra is an MV-algebra: x ≤ y ⟺ x⁻ ⊕ y = 1
        return self.oplus[self.neg[x]][y] == self.one

    def meet(self, x, y):
        return self.odot(x, self.oplus[self.neg[x]][y])

    def idempotents(self) -> list:
        return [x for x in range(self.n) if self.oplus[x][x] == x]

    @property
    def is_boolean(self) -> bool:
        return len(self.idempotents()) == self.n

    def down(self, a) -> list:
        return [x for x in range(self.n) if self.leq(x, a)]

    def is_ideal(self, subset) -> bool:
        s = set(subset)
        return (bool(s)
                and all(y in s for x in s for y in self.down(x))
                and all(self.oplus[a][b] in s for a in s for b in s))

    def to_json(self) -> dict:
        return {"n": self.n, "oplus": [list(r) for r in self.oplus], "neg": list(self.neg),
                "tilde": list(self.tilde), "zero": self.zero, "one": self.one}


def chain(m: int) -> Table:
    r = range(m + 1)
    return Table(tuple(tuple(min(i + j, m) for j in r) for i in r),
                 tuple(m - i for i in r), tuple(m - i for i in r), 0, m)


def boolean(k: int) -> Table:
    r, full = range(1 << k), (1 << k) - 1
    return Table(tuple(tuple(i | j for j in r) for i in r),
                 tuple(full ^ i for i in r), tuple(full ^ i for i in r), 0, full)


def product(a: Table, b: Table) -> Table:
    nb = b.n
    pairs = [(i, j) for i in range(a.n) for j in range(nb)]
    idx = lambda i, j: i * nb + j
    return Table(tuple(tuple(idx(a.oplus[i][k], b.oplus[j][l]) for k, l in pairs) for i, j in pairs),
                 tuple(idx(a.neg[i], b.neg[j]) for i, j in pairs),
                 tuple(idx(a.tilde[i], b.tilde[j]) for i, j in pairs),
                 idx(a.zero, b.zero), idx(a.one, b.one))


def interval(a: Table, top: int) -> Table:
    carrier = a.down(top)
    pos = {x: i for i, x in enumerate(carrier)}
    return Table(tuple(tuple(pos[a.oplus[x][y]] for y in carrier) for x in carrier),
                 tuple(pos[a.meet(a.neg[x], top)] for x in carrier),
                 tuple(pos[a.meet(a.tilde[x], top)] for x in carrier),
                 pos[a.zero], pos[top])


def permute(t: Table, perm: list) -> Table:
    inv = [0] * t.n
    for x, y in enumerate(perm):
        inv[y] = x
    return Table(tuple(tuple(perm[t.oplus[inv[i]][inv[j]]] for j in range(t.n)) for i in range(t.n)),
                 tuple(perm[t.neg[inv[i]]] for i in range(t.n)),
                 tuple(perm[t.tilde[inv[i]]] for i in range(t.n)),
                 perm[t.zero], perm[t.one])


def spec(kind, *params) -> dict:
    return {"kind": kind, "params": list(params)}


def build(s: dict) -> Table:
    kind, p = s["kind"], s["params"]
    if kind == "chain":
        return chain(p[0])
    if kind == "boolean":
        return boolean(p[0])
    if kind == "product":
        return product(build(p[0]), build(p[1]))
    return interval(build(p[0]), p[1])


def _catalogue_spec(rng, template) -> dict:
    if template == "chain":
        return spec("chain", rng.randint(6, 11))
    if template == "boolean":
        return spec("boolean", rng.randint(2, 3))
    if template == "product-boolean":
        a = rng.randint(1, 2)
        return spec("product", spec("boolean", a), spec("boolean", 3 - a))
    if template == "product-mixed":
        a, b = rng.choice(((2, 3), (3, 2), (1, 5), (5, 1), (2, 1), (1, 2)))
        left = spec("chain", a) if a > 1 else spec("boolean", 1)
        right = spec("chain", b) if b > 1 else spec("boolean", 2)
        return spec("product", left, right)
    m, k = rng.randint(2, 3), rng.randint(1, 2)
    parent = spec("product", spec("chain", m), spec("boolean", k))
    nb = 1 << k
    if template == "interval-mixed":   # top (m, b): [0, top] ≅ chain(m) × 2^|b|
        return spec("interval", parent, m * nb + rng.randrange(nb))
    if template == "interval-boolean":  # top (0, b), b ≠ 0: [0, top] ≅ 2^|b|
        return spec("interval", parent, rng.randrange(1, nb))
    raise ValueError(template)


CATALOGUE_TEMPLATES = ("chain", "boolean", "product-boolean", "product-mixed",
                       "interval-mixed", "interval-boolean")

#: Rows of ``search --max-size 6``: chains 1..5 and Booleans 2¹, 2² (7), their
#: products of at most 6 elements (2·2 four ways, 2·3 four ways: 8), and the
#: intervals below nontrivial idempotents (2 in 2², 2 in each of the 8
#: products: 18).
SEARCH_ROWS = 33


_SEARCH_ROW = re.compile(r"^(.*?)\s+(\d+)\s+(True|False)\s+(True|False)\s+(yes|NO)\s+(.*)$")


def _search_check(code, out, err):
    lines = out.splitlines()
    rows = [_SEARCH_ROW.match(ln) for ln in lines[1:-1]]
    return (code == 0 and len(rows) == SEARCH_ROWS
            and all(r and r[3] == r[4] and r[5] == "yes" for r in rows)
            and lines[-1] == f"checked {SEARCH_ROWS} algebras, 0 inconsistent")


def _quotient_check(members, classes):
    def check(code, out, err):
        if classes is None:
            return code == 1 and err.startswith("not an ideal")
        rep = json.loads(out)
        return (code == 0 and rep["ideal"]["members"] == members and rep["ideal"]["normal"]
                and rep["quotient"]["size"] == classes)
    return check


def finite_catalogue_cycle(rng: random.Random, write: Callable[[dict], str]) -> list[Op]:
    ops = []
    seed = lambda: ["--seed", str(rng.randrange(10**6))]
    for template in CATALOGUE_TEMPLATES:
        s = _catalogue_spec(rng, template)
        t = build(s)
        root = ("brute-force", "boolean") if t.is_boolean else None
        ops.append(Op(f"analyze:{template}", ["analyze", write({"catalogue": s})] + seed(),
                      _analyze_check(size=t.n, root=root)))
    for boolean_table in (True, False):
        src = build(_catalogue_spec(rng, "product-boolean" if boolean_table else "product-mixed"))
        perm = list(range(src.n))
        rng.shuffle(perm)
        t = permute(src, perm)
        root = ("brute-force", "boolean") if boolean_table else None
        ops.append(Op(f"analyze:finite-{'boolean' if boolean_table else 'mixed'}",
                      ["analyze", write({"finite": t.to_json()})] + seed(),
                      _analyze_check(size=t.n, root=root)))
    for real in (True, False):
        s = _catalogue_spec(rng, rng.choice(("product-mixed", "interval-mixed", "chain")))
        t = build(s)
        if real:
            a = rng.choice(t.idempotents())
            members = t.down(a)
            classes = t.n // len(members)
        else:
            x = rng.choice([x for x in range(t.n) if x not in t.idempotents()])
            members = t.down(x)
            classes = None
        assert t.is_ideal(members) == real
        path = write({"catalogue": s})
        argv = ["quotient", path, "--ideal", ",".join(map(str, members))] + seed()
        ops.append(Op(f"quotient:{'ideal' if real else 'non-ideal'}", argv,
                      _quotient_check(members, classes)))
    ops.append(Op("search", ["search", "--max-size", "6"], _search_check))
    return ops


# ----------------------------------------------------------------------
# float-numeric: the float-backed semidirect carriers
# ----------------------------------------------------------------------

FLOAT_SAMPLES = 1000


def _counterexamples_check(code, out, err):
    rep = json.loads(out)
    ok = code == 0
    for name in ("scaling_action", "exp_action"):
        part, root = rep[name], rep[name]["root"]
        ok = ok and root["classification"] == "weak-only" and root["square"] and root["maximality"]
        ok = ok and not root["negation_compat"] and root["strict"]
        ok = ok and part["matches_weak_form"] and not part["symmetric"] and part["r0_is_half_unit"]
    gap = rep["scaling_action"]["negation_gap"]
    return ok and gap["violates"] and rep["exp_action"]["coordinate_change_intertwines"]


def float_numeric_cycle(rng: random.Random, write: Callable[[dict], str]) -> list[Op]:
    argv = ["counterexamples", "--samples", str(FLOAT_SAMPLES), "--tolerance", "1e-9",
            "--seed", str(rng.randrange(10**6))]
    ops = [Op("counterexamples", argv, _counterexamples_check)]
    # two budgets, so that the three operations of a cycle take clearly
    # different times and the pooled median sits inside one of them
    for template, samples in (("semi-axis", FLOAT_SAMPLES), ("semi-offset", 2 * FLOAT_SAMPLES)):
        h = Fraction(rng.randint(5, 16), 4)
        g = Fraction(0) if template == "semi-axis" else _q_any(rng)
        path = write({"gamma": {"group": "semi_numeric", "unit": f"({fmt(h)},{fmt(g)})"}})
        argv = ["analyze", path, "--samples", str(samples), "--tolerance", "1e-9",
                "--seed", str(rng.randrange(10**6))]
        ops.append(Op(f"analyze:{template}", argv,
                      _analyze_check(root=("closed-form-weak", "weak-only"))))
    return ops


# ----------------------------------------------------------------------

WORKLOADS = {
    # Exact Fraction group arithmetic under the derived operations and the
    # root suites, where profiling puts almost all run time; commutative
    # and Heisenberg carriers together show whether a gain is heis-only.
    "gamma-exact": gamma_exact_cycle,
    # Tables, the numpy axiom check, brute-force roots, ideal scans and
    # start-up, with no Fraction arithmetic: Γ-side changes should not move it.
    "finite-catalogue": finite_catalogue_cycle,
    # The same Γ, core and roots code as gamma-exact on cheap float group
    # operations: separates fewer operations from cheaper arithmetic.
    "float-numeric": float_numeric_cycle,
}


class Workload:
    """The seeded operation stream of one workload, cycle by cycle.

    Cycle ``k`` depends only on (name, seed, k); its input files are
    written under ``workdir``.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed, self.workdir = name, seed, workdir

    def cycle(self, k: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        count = itertools.count()

        def write(obj: dict) -> str:
            path = self.workdir / f"c{k}-{next(count)}.json"
            path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
            return str(path)

        return WORKLOADS[self.name](rng, write)
