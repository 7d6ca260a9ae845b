"""Command-line surface: parse algebra descriptions, run analyses, emit
deterministic JSON reports, and drive the finite search.

Input files are JSON objects with exactly one of three keys, whose objects
hold no keys but those shown, at every depth; anything else is refused::

    {"finite":    {"n": 4, "oplus": [[...]], "neg": [...], "tilde": [...],
                   "zero": 0, "one": 3}}
    {"gamma":     {"group": "lex(Q,heis)", "unit": "(1,0,0,0)"}}
    {"catalogue": {"kind": "product",
                   "params": [{"kind": "boolean", "params": [1]},
                              {"kind": "chain", "params": [2]}]}}

Group constructors: ``Z``, ``Q``, ``D``, ``H(p)``, ``heis``,
``semi_numeric``, ``lex(G,G)``, ``prod(G,G)``.  Element literals are
rationals ``p/q`` or flat tuples ``(a, b, ...)``.  Catalogue kinds and
their parameters are ``finite.CATALOGUE_KINDS``.

Reports are byte-stable for a fixed (input, flags, seed, version): keys are
sorted, rationals render as ``p/q``, floats with 12 significant digits.
Exit codes: 0 clean, 1 analysis found a violation, 2 axiom failure,
3 parse/usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from typing import Any

from . import __version__
from .core import (
    AlgebraError,
    AxiomReport,
    CheckResult,
    PseudoMV,
    SamplerConfig,
)
from .counterexamples import (
    COUNTEREXAMPLE_UNITS,
    NumericWitness,
    exp_action_verdicts,
    scaling_action_verdicts,
)
from .finite import (
    SEARCH_CEILING,
    TABLE_CEILING,
    CatalogueSpecError,
    FinitePMV,
    FiniteTable,
    _known_keys,
    _prefix,
    build_catalogue,
    catalogue_size,
    json_int,
    parse_catalogue,
    search_square_rootable,
)
from .ideals import (
    IDEAL_CEILING,
    NotAnIdeal,
    atoms,
    classify_ideal,
    enumerate_ideals,
    is_representable,
    quotient,
)
from .lgroups import (
    DyadicGroup,
    GammaPMV,
    HeisenbergGroup,
    IntegerGroup,
    LexProduct,
    LGroup,
    DirectProductGroup,
    PowerDenominatorGroup,
    RationalGroup,
    ScalingSemidirect,
    gamma,
)
from .roots import (
    MAX_LADDER_DEPTH,
    SKIPPED,
    Decomposition,
    SquareRootReport,
    decompose,
    detect_square_root,
    dyadic_ladder,
    square_root_properties,
    verify,
)

__all__ = ["main", "parse_group", "parse_element_literal", "load_algebra", "SpecFileError"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_AXIOMS = 2
EXIT_PARSE = 3

#: The largest ``--samples``: a run allocates and takes time in proportion
#: to it (50,000 samples on ``D`` take about 20 s).
SAMPLES_CEILING = 100_000

#: The default ``--tolerance``, and the one ``quotient`` loads its table with.
TOLERANCE_DEFAULT = 1e-9

#: The most digits the numerator or the denominator of a numeric literal may
#: have, counted as written before reduction (``1e999`` has 1,000).  Reports
#: format products of two coordinates, which then stay within Python's
#: 4,300-digit limit for converting an int to a string.
LITERAL_DIGITS_CEILING = 1000

#: Float carriers compare within the absolute ``--tolerance``, so a unit
#: coordinate whose rounding error comes near it fails the axioms.  A float
#: unit is accepted while max |uᵢ| · ε · FLOAT_UNIT_MARGIN ≤ tolerance.
FLOAT_UNIT_MARGIN = 4

#: The widest ``--tolerance`` a float carrier accepts.  A wider one reads
#: as a property of the algebra: semi_numeric (2, 0) fails its axioms at
#: 0.01, and ``counterexamples`` calls both roots no square root at 0.1.
FLOAT_TOLERANCE_CEILING = 1e-6

#: An ideal member as ``quotient --ideal`` reads it: ASCII digits only, as
#: ``int()`` would also take underscores and other scripts' digits.
_INDEX = re.compile(r"-?[0-9]+")
#: The base of ``H(p)``: ASCII digits only, with no sign.
_BASE = re.compile(r"[0-9]+")
#: The numeric literals read, all of which ``Fraction`` reads: ``p/q`` or a
#: decimal with an optional exponent, in ASCII digits grouped by underscores.
_DIGITS = r"[0-9]+(?:_[0-9]+)*"
_LITERAL = re.compile(rf"[-+]?(?:(?P<p>{_DIGITS})/(?P<q>{_DIGITS})|(?P<int>{_DIGITS})?"
                      rf"(?:\.(?P<frac>{_DIGITS})?)?(?:e(?P<exp>[-+]?{_DIGITS}))?)", re.IGNORECASE)


class SpecFileError(Exception):
    """The input file does not describe an algebra."""


# ----------------------------------------------------------------------
# the constructor DSL
# ----------------------------------------------------------------------

def parse_group(text: str, tolerance: float = 1e-9) -> LGroup:
    if not isinstance(text, str):
        raise SpecFileError(f"group expression must be a string, got {type(text).__name__}")
    text = text.strip()

    def parse(s: str) -> tuple[LGroup, str]:
        s = s.lstrip()
        for name, ctor in (("lex", LexProduct), ("prod", DirectProductGroup)):
            if s.startswith(name + "("):
                left, rest = parse(s[len(name) + 1:])
                rest = rest.lstrip()
                if not rest.startswith(","):
                    raise SpecFileError(f"expected ',' in {name}(...)")
                right, rest = parse(rest[1:])
                rest = rest.lstrip()
                if not rest.startswith(")"):
                    raise SpecFileError(f"expected ')' closing {name}(...)")
                return ctor(left, right), rest[1:]
        if s.startswith("H("):
            close = s.index(")")
            base = s[2:close].strip()
            if not _BASE.fullmatch(base):
                raise SpecFileError(f"bad H(p) base {_prefix(s[2:close])}")
            return PowerDenominatorGroup(int(base)), s[close + 1:]
        for name, make in (
            ("heis", HeisenbergGroup),
            ("semi_numeric", lambda: ScalingSemidirect(tolerance)),
            ("Z", IntegerGroup),
            ("Q", RationalGroup),
            ("D", DyadicGroup),
        ):
            if s.startswith(name):
                return make(), s[len(name):]
        raise SpecFileError(f"unknown group constructor near {_prefix(s)}")

    try:
        group, rest = parse(text)
    except (ValueError, IndexError, RecursionError) as exc:
        raise SpecFileError(f"bad group expression {_prefix(text)}: {exc}") from exc
    if rest.strip():
        raise SpecFileError(f"trailing input after group expression: {_prefix(rest.strip())}")
    return group


def _literal_digits(m: re.Match) -> float:
    """The digits of the numerator or the denominator that the literal ``m``
    matched writes, whichever has more, read from the text alone:
    ``Fraction`` would first expand the exponent, which takes minutes for
    ``1e10000000``."""
    digits = lambda group: len((m[group] or "").replace("_", ""))
    if m["q"] is not None:
        return max(digits("p"), digits("q"))
    try:
        exp = int(m["exp"] or 0)
    except ValueError:      # more digits than int() reads: far above the ceiling
        return math.inf
    frac = digits("frac")
    return max(digits("int") + frac + max(0, exp - frac), 1 + max(0, frac - exp))


def _parse_scalar(tok: str) -> Any:
    tok = tok.strip()
    m = _LITERAL.fullmatch(tok)
    if m is None:
        raise SpecFileError(f"bad numeric literal {_prefix(tok)}")
    if _literal_digits(m) > LITERAL_DIGITS_CEILING:
        raise SpecFileError(f"numeric literal {_prefix(tok)} has more than "
                            f"{LITERAL_DIGITS_CEILING} digits, the ceiling for literals")
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(f"bad numeric literal {_prefix(tok)}") from exc


def parse_element_literal(group: LGroup, text: str) -> Any:
    if not isinstance(text, str):
        raise SpecFileError(f"element literal must be a string, got {type(text).__name__}")
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        toks = text[1:-1].split(",")
    else:
        toks = [text]
    values = [_parse_scalar(t) for t in toks if t.strip()]
    try:
        return group.from_flat(values)     # a float factor converts its own coordinates
    except OverflowError as exc:
        raise SpecFileError(f"literal {_prefix(text)} does not fit a float") from exc
    except AlgebraError as exc:
        raise SpecFileError(str(exc)) from exc


def _check_float_unit(coordinates: list[float], tolerance: float) -> None:
    if tolerance > FLOAT_TOLERANCE_CEILING:
        raise SpecFileError(f"--tolerance {tolerance:.6g} exceeds {FLOAT_TOLERANCE_CEILING:.6g}, "
                            "the ceiling for float carriers")
    top = max(abs(v) for v in coordinates)
    bound = tolerance / (sys.float_info.epsilon * FLOAT_UNIT_MARGIN)
    if top > bound:
        raise SpecFileError(
            f"float unit coordinate {top:.6g} exceeds {bound:.6g}, the bound "
            f"--tolerance {tolerance:.6g} sets for float units")


def _check_table_size(size: int | None, what: str) -> None:
    if size is not None and size > TABLE_CEILING:
        raise SpecFileError(f"{what} needs more than {TABLE_CEILING} elements, "
                            "the ceiling for finite tables")


def load_algebra(path: str, sampler: SamplerConfig, tolerance: float) -> PseudoMV:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:        # also integers past the int() digit limit
        raise SpecFileError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpecFileError(f"{path} nests too deeply to read") from exc
    if not isinstance(data, dict):
        raise SpecFileError("top level must be an object")
    _known_keys(data, ("finite", "gamma", "catalogue"), "the top level", SpecFileError)
    if len(data) != 1:
        raise SpecFileError("expected exactly one of 'finite', 'gamma', 'catalogue'")

    if "finite" in data:
        spec = data["finite"]
        _known_keys(spec, ("n", "oplus", "neg", "tilde", "zero", "one"), "finite spec", SpecFileError)
        try:
            n = json_int(spec["n"])
            _check_table_size(n, "finite table")
            table = FiniteTable(
                n=n,
                oplus=tuple(tuple(map(json_int, row)) for row in spec["oplus"]),
                neg=tuple(map(json_int, spec["neg"])),
                tilde=tuple(map(json_int, spec["tilde"])),
                zero=json_int(spec["zero"]),
                one=json_int(spec["one"]),
            )
        except (KeyError, TypeError, AlgebraError) as exc:
            raise SpecFileError(f"bad finite table: {exc}") from exc
        return FinitePMV(table, sampler=sampler, name="file")
    if "gamma" in data:
        spec = data["gamma"]
        _known_keys(spec, ("group", "unit"), "gamma spec", SpecFileError)
        try:
            group = parse_group(spec["group"], tolerance)
            unit = parse_element_literal(group, spec["unit"])
            group.validate(unit)        # before sizing: a non-member has no interval
            if not group.exact:
                _check_float_unit(group.flatten(unit), tolerance)
            _check_table_size(group.interval_size(unit),
                              f"gamma interval [0, {group.format_element(unit)}]")
            return gamma(group, unit, sampler)
        except (KeyError, TypeError, AlgebraError) as exc:
            raise SpecFileError(f"bad gamma spec: {exc}") from exc
    try:
        spec = parse_catalogue(data["catalogue"])
        _check_table_size(catalogue_size(spec), f"catalogue {spec.label()}")
        # a table is enumerable, so no check reads the sampler it would carry
        return build_catalogue(spec)
    except CatalogueSpecError as exc:
        raise SpecFileError(str(exc)) from exc
    except (TypeError, ValueError, AlgebraError) as exc:
        raise SpecFileError(f"bad catalogue spec: {exc}") from exc


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def render_check(algebra: PseudoMV, res: CheckResult) -> dict:
    return {
        "passed": res.passed,
        "checked": res.checked,
        "witnesses": ["(" + ", ".join(map(algebra.format_element, w)) + ")"
                      for w in res.witnesses],
    }


def render_axioms(algebra: PseudoMV, report: AxiomReport) -> dict:
    out: dict[str, Any] = {"exhaustive": report.exhaustive, "all_pass": report.all_pass}
    for name, res in report.axioms.items():
        out[name] = render_check(algebra, res)
    return out


def render_root_report(algebra: PseudoMV, report: SquareRootReport) -> dict:
    return {
        "square": render_check(algebra, report.square),
        "maximality": render_check(algebra, report.maximality),
        "negation_compat": render_check(algebra, report.negation_compat),
        "standard": render_check(algebra, report.standard),
        "strict": report.strict,
        "r0": algebra.format_element(report.r0),
        "classification": report.classification,
        "boolean_witness": (None if report.witness_idempotent is None
                            else algebra.format_element(report.witness_idempotent)),
    }


def render_decomposition(algebra: PseudoMV, dec: Decomposition) -> dict:
    out: dict[str, Any] = {
        "classification": dec.classification,
        "witness": algebra.format_element(dec.witness),
        "checks": {name: render_check(algebra, res) for name, res in dec.checks.items()},
    }
    if dec.boolean_part is not None:
        out["boolean_part"] = dec.boolean_part.describe()
        out["strict_part"] = dec.strict_part.describe()
    return out


def render_numeric_witness(w: NumericWitness) -> dict:
    def pair(v):
        return [format(float(c), ".12g") for c in v]

    return {
        "point": pair(w.point),
        "lhs": pair(w.lhs),
        "rhs": pair(w.rhs),
        "gap": format(w.gap, ".12g"),
        "tolerance": format(w.tolerance, ".12g"),
        "violates": w.violates,
    }


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _symmetric(algebra: PseudoMV, args: argparse.Namespace) -> bool:
    """x⁻ = x∼ on the whole carrier, that is, u commutes with [0, u]: read
    off a finite table's negations; on exact Γ(G, u) it holds when u is
    central, and fails when u is not but is a strong unit, as [0, u] then
    generates G; elsewhere it is sampled."""
    if isinstance(algebra, FinitePMV):
        return tuple(algebra.table.neg) == tuple(algebra.table.tilde)
    group, unit = algebra.group, algebra.unit
    if group.exact:
        if group.center_has(unit):
            return True
        if group.strong_unit(unit):
            return False
    return algebra.symmetry_check(args.samples, args.seed).passed


def cmd_analyze(args: argparse.Namespace) -> int:
    sampler = SamplerConfig(seed=args.seed, sample_count=args.samples)
    algebra = load_algebra(args.path, sampler, args.tolerance)

    ax = algebra.check_axioms(budget=args.samples, seed=args.seed)
    report: dict[str, Any] = {
        "version": __version__,
        "seed": args.seed,
        "samples": args.samples,
        "tolerance": format(args.tolerance, ".12g"),
        "algebra": algebra.describe(),
        "axioms": render_axioms(algebra, ax),
    }
    report["algebra"]["degenerate"] = algebra.is_degenerate
    if not ax.all_pass:
        sys.stdout.write(canonical_json(report))
        return EXIT_AXIOMS

    report["algebra"]["symmetric"] = _symmetric(algebra, args)
    if isinstance(algebra, FinitePMV):
        report["algebra"]["representable"] = is_representable(algebra)
        report["algebra"]["boolean_skeleton_size"] = len(algebra.boolean_skeleton())
    else:
        report["algebra"]["representable"] = None

    root, how = detect_square_root(algebra)
    sqrt_section: dict[str, Any] = {"construction": how, "found": root is not None}
    if root is not None:
        sqrt_section["kind"] = root.kind
        rep = verify(algebra, root, budget=args.samples, seed=args.seed)
        sqrt_section.update(render_root_report(algebra, rep))
        if rep.is_square_root:
            dec = decompose(algebra, root, budget=args.samples, seed=args.seed)
            report["decomposition"] = render_decomposition(algebra, dec)
        else:
            report["decomposition"] = {"classification": rep.classification}
        props = square_root_properties(
            algebra, root, budget=min(args.samples, 400), seed=args.seed,
            negation_compat=rep.negation_compat.passed)
        report["properties"] = {
            name: (SKIPPED if res == SKIPPED else ("pass" if res.passed else "fail"))
            for name, res in props.items()
        }
    else:
        report["decomposition"] = None
        report["properties"] = None
    report["sqrt"] = sqrt_section

    if isinstance(algebra, FinitePMV) and algebra.size <= IDEAL_CEILING:
        handles = enumerate_ideals(algebra)
        found = atoms(algebra)
        # each nonzero x of a table lies above an atom and nothing lies strictly
        # between 0 and an atom, so the strong-atomless criterion fails iff one exists
        report["ideals"] = {
            "count": len(handles),
            "normal": sum(h.is_normal for h in handles),
            "prime": sum(h.is_prime for h in handles),
            "boolean_ideals": sum(h.is_boolean_ideal for h in handles),
            "atoms": [algebra.format_element(a) for a in found],
            "strongly_atomless": "counterexample" if found else "witnessed",
        }
    else:
        report["ideals"] = None

    sys.stdout.write(canonical_json(report))
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    rows = search_square_rootable(args.max_size)
    width = max(len(r.name) for r in rows)
    print(f"{'algebra':<{width}}  size  weak-sqrt  boolean  consistent  detail")
    bad = 0
    for r in rows:
        mark = "yes" if r.consistent else "NO"
        if not r.consistent:
            bad += 1
        print(f"{r.name:<{width}}  {r.size:>4}  {str(r.has_weak_sqrt):<9}  "
              f"{str(r.is_boolean_algebra):<7}  {mark:<10}  {r.detail}")
    print(f"checked {len(rows)} algebras, {bad} inconsistent")
    return EXIT_OK if bad == 0 else EXIT_VIOLATION


def cmd_counterexamples(args: argparse.Namespace) -> int:
    # the rule analyze applies to a float unit: --tolerance stays within its
    # ceiling, and the unit's rounding error stays below --tolerance; at that
    # ceiling each unit is far above 0
    for _, unit in COUNTEREXAMPLE_UNITS.values():
        _check_float_unit(unit, args.tolerance)
    scaling = scaling_action_verdicts(budget=args.samples, seed=args.seed,
                                      tolerance=args.tolerance)
    expo = exp_action_verdicts(budget=args.samples, seed=args.seed,
                               tolerance=args.tolerance)

    def root_summary(rep: SquareRootReport) -> dict:
        return {
            "square": rep.square.passed,
            "maximality": rep.maximality.passed,
            "negation_compat": rep.negation_compat.passed,
            "standard": rep.standard.passed,
            "strict": rep.strict,
            "classification": rep.classification,
        }

    report = {
        "version": __version__,
        "seed": args.seed,
        "samples": args.samples,
        "tolerance": format(args.tolerance, ".12g"),
        "scaling_action": {
            "root": root_summary(scaling.report),
            "negation_gap": render_numeric_witness(scaling.gap_witness),
            "negation_gap_algebraic": render_numeric_witness(scaling.gap_witness_algebraic),
            "standard_gap": render_numeric_witness(scaling.standard_witness),
            "matches_weak_form": scaling.weak_form_agreement.passed,
            "sym_form_differs": [render_numeric_witness(w) for w in scaling.sym_form_differs],
            "symmetric": scaling.symmetry.passed,
            "r0_is_half_unit": scaling.r0_is_half_unit,
        },
        "exp_action": {
            "root": root_summary(expo.report),
            "negation_formula": expo.negation_formula.passed,
            "matches_weak_form": expo.weak_form_agreement.passed,
            "coordinate_change_intertwines": expo.intertwine.passed,
            "symmetric": expo.symmetry.passed,
            "r0_is_half_unit": expo.r0_is_half_unit,
        },
    }
    sys.stdout.write(canonical_json(report))
    ok = (scaling.report.is_weak_square_root
          and not scaling.report.negation_compat.passed
          and expo.report.is_weak_square_root
          and not expo.report.negation_compat.passed)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_ladder(args: argparse.Namespace) -> int:
    # the seed picks the points detect_square_root probes; nothing samples more
    algebra = load_algebra(args.path, SamplerConfig(seed=args.seed), args.tolerance)
    if not isinstance(algebra, GammaPMV):
        raise SpecFileError("the ladder needs a gamma-backed algebra")
    root, how = detect_square_root(algebra)
    if root is None:
        print(f"no root construction available: {how}", file=sys.stderr)
        return EXIT_VIOLATION
    rungs = dyadic_ladder(algebra, root, args.depth)
    report = {
        "version": __version__,
        "seed": args.seed,
        "algebra": algebra.describe(),
        "construction": how,
        "depth": args.depth,
        "ladder": [algebra.format_element(a) for a in rungs],
    }
    sys.stdout.write(canonical_json(report))
    return EXIT_OK


def cmd_quotient(args: argparse.Namespace) -> int:
    # a table is enumerable and holds no float: --seed is only reported
    algebra = load_algebra(args.path, SamplerConfig(), TOLERANCE_DEFAULT)
    if not isinstance(algebra, FinitePMV):
        raise SpecFileError("quotients need a finite algebra")
    ax = algebra.check_axioms()
    if not ax.all_pass:
        print(f"axioms fail: {', '.join(ax.failing)}", file=sys.stderr)
        return EXIT_AXIOMS
    tokens = [tok for tok in map(str.strip, args.ideal.split(",")) if tok]
    for tok in tokens:
        if not _INDEX.fullmatch(tok):
            raise SpecFileError(f"bad ideal element list: {_prefix(tok)} is not an index")
    try:
        members = [int(tok) for tok in tokens]
    except ValueError as exc:       # more digits than int() reads
        raise SpecFileError(f"bad ideal element list: {exc}") from exc
    try:
        handle = classify_ideal(algebra, members)
    except NotAnIdeal as exc:
        print(f"not an ideal: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    root, how = detect_square_root(algebra)
    result = quotient(algebra, handle, root)
    report = {
        "version": __version__,
        "seed": args.seed,
        "algebra": algebra.describe(),
        "ideal": {
            "members": sorted(handle.members),
            "normal": handle.is_normal,
            "prime": handle.is_prime,
            "boolean_ideal": handle.is_boolean_ideal,
            "proper": handle.is_proper,
        },
        "quotient": {
            "size": result.algebra.size,
            "classes": [list(lbl) for lbl in result.algebra.labels],
            "root_construction": how,
            "checks": {name: render_check(result.algebra, res)
                       for name, res in result.checks.items()},
        },
    }
    sys.stdout.write(canonical_json(report))
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _int_between(lo: int, hi: int):
    """An argparse type: an integer at least ``lo`` and at most ``hi``."""
    def parse(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be between {lo} and {hi}, got {value}")
        return value

    parse.__name__ = "int"   # argparse names the type in "invalid int value"
    return parse


def _tolerance(text: str) -> float:
    """An argparse type: a finite float of at least 0."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


_tolerance.__name__ = "float"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="pseudomv",
        description="analysis of pseudo MV-algebras and their square roots")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p, samples=True, tolerance=True):
        p.add_argument("--seed", type=int, default=0)
        if samples:
            p.add_argument("--samples", type=_int_between(1, SAMPLES_CEILING), default=2000)
        if tolerance:
            p.add_argument("--tolerance", type=_tolerance, default=TOLERANCE_DEFAULT)

    p = sub.add_parser("analyze", help="full analysis of one algebra file")
    p.add_argument("path")
    options(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="finite catalogue search: weak root ⇔ Boolean")
    p.add_argument("--max-size", type=_int_between(2, SEARCH_CEILING), default=SEARCH_CEILING)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("counterexamples",
                       help="verdicts for the two numeric weak-root algebras")
    options(p)
    p.set_defaults(func=cmd_counterexamples)

    p = sub.add_parser("ladder", help="halving ladder u/2, u/4, ... on a gamma algebra")
    p.add_argument("path")
    p.add_argument("--depth", type=_int_between(1, MAX_LADDER_DEPTH), default=10)
    options(p, samples=False)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("quotient", help="quotient a finite algebra by a normal ideal")
    p.add_argument("path")
    p.add_argument("--ideal", required=True,
                   help="comma-separated element indices, e.g. '0,1'")
    options(p, samples=False, tolerance=False)
    p.set_defaults(func=cmd_quotient)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
