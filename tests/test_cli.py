"""CLI surface: file parsing, reports, exit codes, determinism."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pseudomv as pmv
from pseudomv.cli import (
    FLOAT_TOLERANCE_CEILING,
    GROUP_DEPTH_CEILING,
    LITERAL_DIGITS_CEILING,
    SAMPLES_CEILING,
    SpecFileError,
    _build_parser,
    load_algebra,
    main,
    parse_element_literal,
    parse_group,
)
from pseudomv.core import SamplerConfig
from pseudomv.finite import CATALOGUE_DEPTH_CEILING, TABLE_CEILING


def run_cli(*args):
    """``main`` on ``args``, in process, reported as a finished process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_process(*args):
    """``python -m pseudomv.cli`` on ``args``, for what only a fresh
    interpreter shows: the entry point, determinism across processes and
    recursion limits."""
    return subprocess.run(
        [sys.executable, "-m", "pseudomv.cli", *args],
        capture_output=True,
        text=True,
        check=False,
    )


def write(tmp_path, name, payload):
    path = tmp_path / name
    text = payload if isinstance(payload, str) else json.dumps(payload)
    path.write_text(text, encoding="utf-8")
    return str(path)


def nested_product(depth):
    """A catalogue spec ``depth`` levels deep, as text: json.dump recurses
    once per level too."""
    leaf = '{"kind": "boolean", "params": [0]}'
    spec = leaf
    for _ in range(depth - 1):
        spec = f'{{"kind": "product", "params": [{leaf}, {spec}]}}'
    return f'{{"catalogue": {spec}}}'


# Specs deep enough to reach the recursion limit run in a fresh
# interpreter, whose stack does not start at pytest's depth.
PRODUCT_600_DEEP = nested_product(600)
FINITE_1500_BRACKETS = '{"finite": {"n": 1, "oplus": ' + "[" * 1500 + "]" * 1500 + "}}"
GROUP_1200_DEEP = {"gamma": {"group": "lex(" * 1200 + "Q" + ",Q)" * 1200, "unit": "1"}}
DEEP_SPECS = (PRODUCT_600_DEEP, FINITE_1500_BRACKETS, GROUP_1200_DEEP)

CHAIN3 = {"catalogue": {"kind": "chain", "params": [3]}}
BOOL2 = {"catalogue": {"kind": "boolean", "params": [2]}}
GAMMA_DYADIC = {"gamma": {"group": "D", "unit": "1"}}
GAMMA_LEXHEIS = {"gamma": {"group": "lex(Q,heis)", "unit": "(1,0,0,0)"}}


# ----------------------------------------------------------------------
# DSL parsing
# ----------------------------------------------------------------------

def test_parse_group_atoms():
    assert parse_group("Z").dsl == "Z"
    assert parse_group("Q").dsl == "Q"
    assert parse_group("D").dsl == "D"
    assert parse_group("H(6)").dsl == "H(6)"
    assert parse_group("heis").dsl == "heis"
    assert parse_group("semi_numeric").dsl == "semi_numeric"
    assert parse_group("lex(Q,heis)").dsl == "lex(Q,heis)"
    assert parse_group("prod(Z,D)").dsl == "prod(Z,D)"
    assert parse_group("lex(Q, lex(D, heis))").flat_arity == 5


def test_parse_group_rejects_garbage():
    for bad in ("ring", "lex(Q)", "lex(Q,heis", "Q,D", "H(x)"):
        with pytest.raises(SpecFileError):
            parse_group(bad)


def test_parse_element_literals():
    g = parse_group("lex(Q,heis)")
    x = parse_element_literal(g, "(1/2, 1, 0, -3/4)")
    assert x == g.from_flat([F(1, 2), 1, 0, F(-3, 4)])
    assert g.flatten(x) == [F(1, 2), F(1), F(0), F(-3, 4)]
    z = parse_group("Z")
    assert parse_element_literal(z, "3") == (3, 1)
    assert parse_element_literal(parse_group("lex(Z,Z)"), "(3, -1)") == ((3, 1), (-1, 1))
    with pytest.raises(pmv.BackendMismatch, match="1/2 lies outside Z"):
        z.validate(parse_element_literal(z, "1/2"))
    s = parse_group("semi_numeric")
    assert parse_element_literal(s, "(2, 0)") == (2.0, 0.0)
    # a float factor converts its own coordinates and an exact one keeps
    # its literal exact
    mixed = parse_group("lex(Q,semi_numeric)")
    x = parse_element_literal(mixed, "(1/3, 2, 0)")
    assert x == ((1, 3), (2.0, 0.0)) and type(x[1][0]) is float
    with pytest.raises(SpecFileError, match="does not fit a float"):
        parse_element_literal(mixed, "(1, 1e400, 0)")


def test_load_algebra_shapes(tmp_path):
    sampler = SamplerConfig()
    a = load_algebra(write(tmp_path, "c.json", CHAIN3), sampler, 1e-9)
    assert a.size == 4
    b = load_algebra(write(tmp_path, "g.json", GAMMA_DYADIC), sampler, 1e-9)
    assert b.backend == "gamma-interval"
    table = pmv.chain(2).table
    payload = {"finite": {"n": 3, "oplus": [list(r) for r in table.oplus],
                          "neg": list(table.neg), "tilde": list(table.tilde),
                          "zero": 0, "one": 2}}
    c = load_algebra(write(tmp_path, "f.json", payload), sampler, 1e-9)
    assert c.table == pmv.chain(2).table


def test_serialized_catalogue_reparses_isomorphic(tmp_path):
    src = pmv.product(pmv.boolean(1), pmv.chain(2))
    payload = {"finite": {
        "n": src.size,
        "oplus": [list(r) for r in src.table.oplus],
        "neg": list(src.table.neg),
        "tilde": list(src.table.tilde),
        "zero": src.zero,
        "one": src.one,
    }}
    again = load_algebra(write(tmp_path, "rt.json", payload), SamplerConfig(), 1e-9)
    assert again.table == src.table


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------

def test_analyze_chain3_reports_no_root(tmp_path):
    proc = run_cli("analyze", write(tmp_path, "c3.json", CHAIN3),
                   "--samples", "200")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["sqrt"]["found"] is False
    assert "none" in payload["sqrt"]["construction"]
    assert payload["axioms"]["all_pass"] is True
    assert payload["algebra"]["representable"] is True
    assert payload["ideals"]["count"] == 2


def test_analyze_boolean2_classification(tmp_path):
    proc = run_cli("analyze", write(tmp_path, "b2.json", BOOL2),
                   "--samples", "200")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["sqrt"]["classification"] == "boolean"
    assert payload["sqrt"]["kind"] == "table"
    assert payload["decomposition"]["classification"] == "boolean"
    assert payload["properties"]["preserves_meet"] == "pass"


def test_analyze_gamma_dyadic_strict(tmp_path):
    proc = run_cli("analyze", write(tmp_path, "d.json", GAMMA_DYADIC),
                   "--samples", "300")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["sqrt"]["classification"] == "strict"
    assert payload["sqrt"]["strict"] is True
    assert payload["sqrt"]["r0"] == "1/2"
    assert payload["sqrt"]["kind"] == "closed-form-sym"
    assert payload["ideals"] is None


@pytest.mark.parametrize("spec, symmetric", [
    ({"gamma": {"group": "heis", "unit": "(1/3,2/3,-1/8)"}}, False),
    ({"gamma": {"group": "heis", "unit": "(0,0,3/2)"}}, True),
    ({"gamma": {"group": "heis", "unit": "(1,0,3/2)"}}, False),
    ({"gamma": {"group": "lex(Z,heis)", "unit": "(1,0,1,0)"}}, False),
    # noncentral units that are not strong: every x in [0, u] has x₀ = 0
    # in the heis coordinate and so commutes with u; these are sampled
    ({"gamma": {"group": "heis", "unit": "(0,1,0)"}}, True),
    ({"gamma": {"group": "prod(Z,heis)", "unit": "(1,0,1,0)"}}, True),
    ({"gamma": {"group": "lex(Z,heis)", "unit": "(0,0,1,0)"}}, True),
    ({"catalogue": {"kind": "product", "params": [{"kind": "chain", "params": [2]},
                                                   {"kind": "boolean", "params": [1]}]}}, True),
])
def test_analyze_symmetry_is_a_fact_on_exact_carriers(tmp_path, spec, symmetric):
    # two samples reach only 0 and 1, where x⁻ = x∼ always holds; the unit's
    # centrality, or a noncentral unit's strength, decides the whole carrier
    # (on a table, its negations)
    proc = run_cli("analyze", write(tmp_path, "s.json", spec), "--samples", "2")
    assert json.loads(proc.stdout)["algebra"]["symmetric"] is symmetric


def test_analyze_axiom_failure_exits_2(tmp_path):
    table = pmv.chain(2).table
    rows = [list(r) for r in table.oplus]
    rows[1][1] = 1
    payload = {"finite": {"n": 3, "oplus": rows, "neg": list(table.neg),
                          "tilde": list(table.tilde), "zero": 0, "one": 2}}
    proc = run_cli("analyze", write(tmp_path, "bad.json", payload))
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["axioms"]["all_pass"] is False


def test_analyze_parse_error_exits_3(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json", encoding="utf-8")
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "error" in proc.stderr

    proc = run_cli("analyze", str(tmp_path / "missing.json"))
    assert proc.returncode == 3

    # json reads this integer and then refuses its digit count
    path.write_text('{"catalogue": {"kind": "chain", "params": [1' + "0" * 5000 + "]}}",
                    encoding="utf-8")
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 3 and proc.stderr.startswith("error:")


@pytest.mark.parametrize("group, unit", [("Z", "2"), ("Z", "3"), ("lex(Z,Z)", "(3,1)"),
                                         ("prod(Z,Z)", "(1,1)"), ("prod(Z,D)", "(2,1)"),
                                         ("prod(Z,D)", "(3,1)")])
def test_analyze_integer_units(tmp_path, group, unit):
    # Z halves no odd unit, and no point of Γ(Z, 2) between the bounds; a
    # mixed form needs a factor that halves beside a Z factor with unit 1
    path = write(tmp_path, "z.json", {"gamma": {"group": group, "unit": unit}})
    proc = run_cli("analyze", path, "--samples", "40")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["axioms"]["all_pass"] is True
    assert payload["sqrt"]["found"] is False


@pytest.mark.parametrize("group, r0, witness", [("prod(Z,D)", "(0, 1/2)", "(1, 0)"),
                                                 ("prod(D,Z)", "(1/2, 0)", "(0, 1)")])
def test_analyze_finds_the_mixed_root(tmp_path, group, r0, witness):
    # the unit (1, 1) cannot be halved, but [0, 1] in Z is {0, 1}: the mixed
    # form splits off that Boolean factor and halves the other one
    path = write(tmp_path, "m.json", {"gamma": {"group": group, "unit": "(1,1)"}})
    proc = run_cli("analyze", path, "--samples", "100")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    sqrt = report["sqrt"]
    assert sqrt["construction"] == "closed-form-mixed" and sqrt["found"] is True
    assert sqrt["kind"] == "mixed" and sqrt["classification"] == "product"
    assert sqrt["r0"] == r0 and sqrt["boolean_witness"] == witness
    dec = report["decomposition"]
    assert dec["classification"] == "product" and dec["witness"] == witness
    assert dec["boolean_part"]["top"] == witness
    assert all(check["passed"] for check in dec["checks"].values())


@pytest.mark.parametrize("group, unit", [("lex(Q,semi_numeric)", "(1,2,0)"),
                                         ("prod(semi_numeric,Q)", "(2,0,1)"),
                                         ("lex(semi_numeric,Q)", "(2,0,1)"),
                                         ("lex(semi_numeric,Q)", "(1,0,1)"),
                                         ("prod(Q,semi_numeric)", "(1,2,0)")])
def test_analyze_mixed_exact_float_groups(tmp_path, group, unit):
    # lex and prod take an exact factor beside a float one; each factor
    # reads its own coordinates of the unit
    path = write(tmp_path, "mixed.json", {"gamma": {"group": group, "unit": unit}})
    proc = run_cli("analyze", path, "--samples", "60")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["axioms"]["all_pass"] is True
    assert payload["algebra"]["exact"] is False


@pytest.mark.parametrize("unit", ["()", 1])
def test_analyze_malformed_unit_exits_3(tmp_path, unit):
    path = write(tmp_path, "bad.json", {"gamma": {"group": "Z", "unit": unit}})
    proc = run_cli("analyze", path)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("group, unit, carrier", [
    ("Z", "1/2", "Z"), ("lex(Z,Z)", "(1,1/2)", "Z"), ("prod(Z,Z)", "(1000/3,1)", "Z"),
    ("D", "1/3", "D"),
])
def test_analyze_unit_outside_the_group_exits_3(tmp_path, group, unit, carrier):
    # the unit is validated before its interval is sized, so a non-member
    # is named as one, not as a table above the ceiling
    path = write(tmp_path, "bad.json", {"gamma": {"group": group, "unit": unit}})
    proc = run_cli("analyze", path)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:") and f"lies outside {carrier}" in proc.stderr


@pytest.mark.parametrize("payload", [
    {"gamma": {"group": 1, "unit": "1"}},
    {"catalogue": {"kind": "chain", "params": [-1]}},
    {"catalogue": {"kind": "chain", "params": "x"}},
    {"catalogue": {"kind": "interval", "params": [CHAIN3["catalogue"], 1]}},
    {"catalogue": {"kind": "product", "params": [CHAIN3["catalogue"]]}},
    PRODUCT_600_DEEP,
    FINITE_1500_BRACKETS,
    nested_product(CATALOGUE_DEPTH_CEILING + 1),
    GROUP_1200_DEEP,
    {"gamma": {"group": "Q", "unit": "1e10000000"}},
    {"gamma": {"group": "semi_numeric", "unit": "(1e400,0)"}},
    '{"catalogue": {"kind": "chain", "params": [1e400]}}',
    '{"finite": {"n": 1e400, "oplus": [], "neg": [], "tilde": [], "zero": 0, "one": 0}}',
    {"gamma": {"group": "semi_numeric", "unit": "(1e8,0)"}},
    {"gamma": {"group": "semi_numeric", "unit": "(4,1e8)"}},
    {"catalogue": {"kind": "chain", "params": {"a": 1}}},
    {"catalogue": {"kind": "product", "params": {"a": 1}}},
    {"catalogue": {"kind": "interval", "params": {"a": 1}}},
    {"catalogue": {"kind": "chain", "params": "12"}},
    {"catalogue": {"kind": "interval", "params": [BOOL2["catalogue"], int("9" * 4000)]}},
    {"catalogue": {"kind": "chain", "params": [2, 99]}},
    {"catalogue": {"kind": "product", "params": [CHAIN3["catalogue"]] * 3}},
    {**CHAIN3, **GAMMA_DYADIC},
    {**BOOL2, "finite": {"n": 2, "oplus": [[0, 1], [1, 1]], "neg": [1, 0], "tilde": [1, 0],
                         "zero": 0, "one": 1}},
    {"catalogue": {"kind": "chain", "params": [2], "prams": [5]}},
    {"catalogue": {"kind": "product", "params": [
        CHAIN3["catalogue"], {"kind": "chain", "params": [1], "prams": [5]}]}},
    {"gamma": {"group": "Z", "unit": "3", "units": "3"}},
    {**CHAIN3, "note": "chain(3)"},
    {"finite": {"n": 2, "oplus": [[0, 1], [1, 1]], "neg": [1, 0], "tilde": [1, 0],
                "zero": 0, "one": 1, "labels": ["0", "1"]}},
    {**GAMMA_DYADIC, "k" * 5000: 1},
    {"gamma": {"group": "Q", "unit": "\u0663"}},
    {"gamma": {"group": "Q", "unit": "\uff11/2"}},
    {"gamma": {"group": "H(1_0)", "unit": "1"}},
    {"gamma": {"group": "H(\u0661\u0660)", "unit": "1"}},
    {"gamma": {"group": "H(+6)", "unit": "1"}},
], ids=["group-number", "chain-negative", "chain-params-string",
        "interval-top-not-idempotent", "product-one-param", "product-600-deep",
        "finite-1500-brackets", "catalogue-above-depth-ceiling", "group-1200-deep",
        "q-unit-1e10000000", "semi-unit-1e400", "chain-param-1e400", "finite-n-1e400",
        "semi-unit-1e8", "semi-unit-4-1e8", "chain-params-object", "product-params-object",
        "interval-params-object", "chain-params-digits", "interval-top-4000-digits",
        "chain-two-params", "product-three-params", "catalogue-and-gamma", "catalogue-and-finite",
        "catalogue-unknown-key", "nested-catalogue-unknown-key", "gamma-unknown-key",
        "top-unknown-key", "finite-unknown-key", "top-5000-char-key", "unit-arabic-indic-digit",
        "unit-fullwidth-digit", "h-base-underscore", "h-base-arabic-indic",
        "h-base-signed"])
def test_analyze_malformed_spec_exits_3(tmp_path, payload):
    path = write(tmp_path, "bad.json", payload)
    proc = (run_process if payload in DEEP_SPECS else run_cli)("analyze", path)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    # the error echoes a prefix of the input, not the whole of it
    assert len(proc.stderr.encode()) < 200


def test_unknown_key_is_named(tmp_path):
    # a misspelt key two levels down is refused by name, not read as absent
    spec = {"catalogue": {"kind": "product", "params": [
        CHAIN3["catalogue"], {"kind": "chain", "params": [1], "prams": [5]}]}}
    proc = run_cli("analyze", write(tmp_path, "bad.json", spec))
    assert proc.returncode == 3
    assert proc.stderr == "error: unknown key 'prams' in catalogue spec\n"


CHAIN1_TABLE = {"n": 2, "oplus": [[0, 1], [1, 1]], "neg": [1, 0], "tilde": [1, 0],
                "zero": 0, "one": 1}


@pytest.mark.parametrize("payload", [
    {"finite": {"n": 2, "oplus": [[0, 1.7], [1, 1]], "neg": "10", "tilde": [1, 0],
                "zero": 0, "one": True}},
    {"finite": dict(CHAIN1_TABLE, oplus=[[0, 1.7], [1, 1]])},
    {"finite": dict(CHAIN1_TABLE, neg="10")},
    {"finite": dict(CHAIN1_TABLE, one=True)},
    {"finite": dict(CHAIN1_TABLE, n=2.0)},
    {"catalogue": {"kind": "chain", "params": [1.7]}},
    {"catalogue": {"kind": "boolean", "params": ["2"]}},
    {"catalogue": {"kind": "interval", "params": [BOOL2["catalogue"], True]}},
], ids=["mixed", "oplus-float", "neg-string", "one-true", "n-float", "chain-float",
        "boolean-string", "interval-top-true"])
def test_non_integer_entries_exit_3(tmp_path, payload):
    # only JSON integers are read: 1.7 is not truncated, "10" is not the
    # row (1, 0), and true is not 1
    proc = run_cli("analyze", write(tmp_path, "bad.json", payload))
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:") and "expected an integer" in proc.stderr


@pytest.mark.parametrize("unit, tolerance, code", [
    ("(1e6,0)", "1e-9", 0),
    ("(3e6,0)", "1e-9", 3),
    ("(2,0)", "0", 3),
], ids=["below-bound", "above-bound", "tolerance-0"])
def test_float_unit_bound(tmp_path, unit, tolerance, code):
    # float carriers compare within an absolute tolerance; a unit whose
    # rounding error comes near it is refused before its axioms fail
    path = write(tmp_path, "semi.json", {"gamma": {"group": "semi_numeric", "unit": unit}})
    proc = run_cli("analyze", path, "--tolerance", tolerance)
    assert proc.returncode == code, proc.stderr
    if code == 3:
        assert proc.stderr.startswith("error:")
        assert "bound" in proc.stderr and f"--tolerance {float(tolerance):.6g}" in proc.stderr


@pytest.mark.parametrize("argv, code", [
    (["analyze", "SEMI", "--samples", "300", "--tolerance", "0.01"], 3),
    (["ladder", "SEMI", "--tolerance", "0.01"], 3),
    (["counterexamples", "--samples", "300", "--tolerance", "0.1"], 3),
    (["analyze", "SEMI", "--samples", "300", "--tolerance", "1e-6"], 0),
    (["counterexamples", "--samples", "300", "--tolerance", "1e-6"], 0),
    (["analyze", "EXACT", "--samples", "300", "--tolerance", "0.5"], 0),
], ids=["analyze-0.01", "ladder-0.01", "counterexamples-0.1", "analyze-at-ceiling",
        "counterexamples-at-ceiling", "exact-carrier"])
def test_float_tolerance_ceiling(tmp_path, argv, code):
    # a float carrier refuses a --tolerance wider than FLOAT_TOLERANCE_CEILING,
    # which would otherwise fail its axioms (semi_numeric (2, 0) exits 2 at
    # 0.01) or misclassify both counterexample roots (at 0.1); exact
    # carriers never read it
    paths = {"SEMI": write(tmp_path, "semi.json",
                           {"gamma": {"group": "semi_numeric", "unit": "(2,0)"}}),
             "EXACT": write(tmp_path, "q.json", {"gamma": {"group": "Q", "unit": "1"}})}
    proc = run_cli(*[paths.get(a, a) for a in argv])
    assert proc.returncode == code, proc.stderr
    if code == 3:
        assert proc.stderr.startswith("error:") and proc.stdout == ""
        ceiling = f"{FLOAT_TOLERANCE_CEILING:.6g}"
        assert f"--tolerance {float(argv[-1]):.6g} exceeds {ceiling}" in proc.stderr


def chain_table(n):
    return {"n": n + 1, "oplus": [[min(i + j, n) for j in range(n + 1)] for i in range(n + 1)],
            "neg": [n - i for i in range(n + 1)], "tilde": [n - i for i in range(n + 1)],
            "zero": 0, "one": n}


@pytest.mark.parametrize("payload, code", [
    ({"finite": chain_table(TABLE_CEILING - 1)}, 0),
    ({"finite": chain_table(TABLE_CEILING)}, 3),
    ({"catalogue": {"kind": "chain", "params": [TABLE_CEILING]}}, 3),
    (nested_product(CATALOGUE_DEPTH_CEILING), 0),
    ({"gamma": {"group": "Q", "unit": f"1e{LITERAL_DIGITS_CEILING - 1}"}}, 0),
    ({"gamma": {"group": "Q", "unit": "1/" + "9" * LITERAL_DIGITS_CEILING}}, 0),
    ({"gamma": {"group": "Q", "unit": f"1e{LITERAL_DIGITS_CEILING}"}}, 3),
    ({"gamma": {"group": "Q", "unit": f"1e-{LITERAL_DIGITS_CEILING}"}}, 3),
], ids=["finite-at-ceiling", "finite-above", "catalogue-above", "catalogue-at-depth-ceiling",
        "literal-exponent-at-ceiling", "literal-denominator-at-ceiling", "literal-exponent-above",
        "literal-negative-exponent-above"])
def test_table_size_ceiling(tmp_path, payload, code):
    # the largest carrier allowed, the smallest ones above the ceiling, the
    # deepest catalogue spec allowed, and the longest numeric literals allowed
    proc = run_cli("analyze", write(tmp_path, "big.json", payload), "--samples", "20")
    assert proc.returncode == code, proc.stderr
    if code == 3:
        assert proc.stderr.startswith("error:") and "ceiling" in proc.stderr


@pytest.mark.parametrize("group, unit, code", [
    ("Z", "63", 0),
    ("Z", "64", 3),
    ("prod(Z,Z)", "(8,8)", 3),
    ("prod(Z,D)", "(1000000001,1)", 0),
], ids=["Z-at-ceiling", "Z-above", "prod-above", "prod-with-unlisted-factor"])
def test_enumerable_gamma_ceiling(tmp_path, group, unit, code):
    # Γ lists [0, u] as it is built when the group can, and every check on it
    # is then exhaustive; its size is read off u first.  A product with a
    # factor it cannot list lists nothing, however large the other factor.
    path = write(tmp_path, "g.json", {"gamma": {"group": group, "unit": unit}})
    proc = run_cli("analyze", path, "--samples", "20")
    assert proc.returncode == code, proc.stderr
    if code == 3:
        assert proc.stderr.startswith("error:") and "ceiling" in proc.stderr
    else:
        assert json.loads(proc.stdout)["axioms"]["exhaustive"] is (group == "Z")


def test_analyze_is_deterministic(tmp_path):
    path = write(tmp_path, "lh.json", GAMMA_LEXHEIS)
    a = run_process("analyze", path, "--seed", "42", "--samples", "150")
    b = run_process("analyze", path, "--seed", "42", "--samples", "150")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout == run_cli("analyze", path, "--seed", "42",
                                           "--samples", "150").stdout
    c = run_cli("analyze", path, "--seed", "43", "--samples", "150")
    assert json.loads(c.stdout)["seed"] == 43


def test_environment_seed_changes_nothing(tmp_path, monkeypatch):
    path = write(tmp_path, "d.json", GAMMA_DYADIC)
    before = run_cli("analyze", path, "--seed", "7", "--samples", "100")
    monkeypatch.setenv("PMV_SEED", "99")
    after = run_cli("analyze", path, "--seed", "7", "--samples", "100")
    assert after.stdout == before.stdout and json.loads(after.stdout)["seed"] == 7


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

def test_search_table_is_consistent():
    proc = run_cli("search", "--max-size", "4")
    assert proc.returncode == 0
    assert "0 inconsistent" in proc.stdout
    assert "chain(2)" in proc.stdout


def test_search_single_row():
    proc = run_cli("search", "--max-size", "2")
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if l.startswith(("chain", "boolean"))]
    assert lines and all("True" in l for l in lines)


# ----------------------------------------------------------------------
# counterexamples, ladder, quotient
# ----------------------------------------------------------------------

def test_counterexamples_command():
    proc = run_cli("counterexamples", "--samples", "300")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    scaling = payload["scaling_action"]
    assert scaling["root"]["square"] is True
    assert scaling["root"]["negation_compat"] is False
    assert scaling["negation_gap"]["violates"] is True
    assert abs(float(scaling["negation_gap"]["gap"]) - 0.0857864376269) < 1e-9
    assert payload["exp_action"]["coordinate_change_intertwines"] is True

    again = run_process("counterexamples", "--samples", "300")
    assert again.returncode == 0, again.stderr
    assert again.stdout == proc.stdout


@pytest.mark.parametrize("tolerance, code", [("0", 3), ("1", 3), ("1e-9", 0)])
def test_counterexamples_float_unit_rule(tolerance, code):
    # analyze's float-unit rule on the command's fixed units: at 0 every unit
    # exceeds the rounding bound, and at 1 the scaling unit (2, 0) is no
    # longer strictly above the identity (1, 0)
    proc = run_cli("counterexamples", "--samples", "300", "--tolerance", tolerance)
    assert proc.returncode == code, proc.stderr
    if code == 3:
        assert proc.stderr.startswith("error:") and proc.stdout == ""
        assert f"--tolerance {float(tolerance):.6g}" in proc.stderr


def test_ladder_command(tmp_path):
    proc = run_cli("ladder", write(tmp_path, "d.json", GAMMA_DYADIC),
                   "--depth", "5")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ladder"] == ["1/2", "1/4", "1/8", "1/16", "1/32"]


def nested_gamma(levels):
    """A Γ spec whose group is ``len(levels) + 1`` levels deep: each
    (constructor, atom, atom_first) of ``levels``, from the outside in,
    pairs an atom with the rest, and the innermost rest is ``Q``.  A lex
    keeps its atom as the head, which must be linearly ordered.  The unit
    is (1, ..., 1), one coordinate per atom."""
    text = "Q"
    for ctor, atom, atom_first in reversed(levels):
        text = f"{ctor}({atom},{text})" if atom_first or ctor == "lex" else f"{ctor}({text},{atom})"
    unit = "(" + ",".join(["1"] * (len(levels) + 1)) + ")"
    return {"gamma": {"group": text, "unit": unit}}


@pytest.mark.parametrize("command, depth, code", [
    (["analyze", "--samples", "40"], GROUP_DEPTH_CEILING, 0),
    (["ladder"], GROUP_DEPTH_CEILING, 0),
    (["analyze", "--samples", "40"], GROUP_DEPTH_CEILING + 1, 3),
    (["ladder"], GROUP_DEPTH_CEILING + 1, 3),
    (["quotient", "--ideal", "0"], GROUP_DEPTH_CEILING + 1, 3),
], ids=["analyze-at", "ladder-at", "analyze-past", "ladder-past", "quotient-past"])
def test_group_depth_ceiling(tmp_path, command, depth, code):
    spec = nested_gamma([("lex", "Q", True)] * (depth - 1))
    proc = run_cli(command[0], write(tmp_path, "deep.json", spec), *command[1:])
    assert proc.returncode == code, proc.stderr
    if code == 3:
        assert proc.stderr.startswith("error:")
        assert f"deeper than {GROUP_DEPTH_CEILING} levels" in proc.stderr


def test_ladder_needs_gamma(tmp_path):
    proc = run_cli("ladder", write(tmp_path, "c.json", CHAIN3), "--depth", "3")
    assert proc.returncode == 3


def test_quotient_command(tmp_path):
    path = write(tmp_path, "b2.json", BOOL2)
    proc = run_cli("quotient", path, "--ideal", "0,1")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ideal"]["normal"] is True
    assert payload["quotient"]["size"] == 2
    assert payload["quotient"]["checks"]["square"]["passed"] is True

    proc = run_cli("quotient", path, "--ideal", "0,3")
    assert proc.returncode == 1
    assert "not an ideal" in proc.stderr


def test_quotient_non_element_echoes_a_prefix(tmp_path):
    path = write(tmp_path, "c.json", CHAIN3)
    proc = run_cli("quotient", path, "--ideal", "0," + "9" * 4000)
    assert proc.returncode == 1
    assert proc.stderr.startswith("not an ideal:")
    assert len(proc.stderr.encode()) < 200


@pytest.mark.parametrize("members, code", [
    ("0,1_1", 3),          # int() reads 11
    ("٠", 3),         # an Arabic-Indic zero, which int() reads as 0
    ("0,１", 3),       # a fullwidth one
    ("+1", 3),
    ("0,x", 3),
    ("-1", 1),             # an integer, but not an element
    ("0,\t0 ,", 0),
])
def test_quotient_reads_ascii_indices_only(tmp_path, members, code):
    path = write(tmp_path, "c11.json", {"catalogue": {"kind": "chain", "params": [11]}})
    proc = run_cli("quotient", path, "--ideal", members)
    assert proc.returncode == code, proc.stderr
    if code == 3:
        assert proc.stderr.startswith("error: bad ideal element list:") and proc.stdout == ""


def test_usage_error_exit_code():
    proc = run_cli("analyze")  # missing path
    assert proc.returncode == 3


@pytest.mark.parametrize("args", [
    ["search", "--max-size", "7"],
    ["search", "--max-size", "0"],
    ["search", "--max-size", "-1"],
    ["ladder", "d.json", "--depth", "0"],
    ["ladder", "d.json", "--depth", "25"],
    ["analyze", "d.json", "--samples", "-3"],
    ["counterexamples", "--samples", "0"],
    ["analyze", "d.json", "--samples", str(SAMPLES_CEILING + 1)],
    ["analyze", "d.json", "--samples", "1000000000"],
    ["analyze", "d.json", "--tolerance", "-1"],
    ["analyze", "d.json", "--tolerance", "nan"],
    ["analyze", "d.json", "--tolerance", "inf"],
], ids=["search-max-size-7", "search-max-size-0", "search-max-size-neg1", "ladder-depth-0",
        "ladder-depth-25", "analyze-samples-neg3", "counterexamples-samples-0",
        "analyze-samples-100001", "analyze-samples-1e9",
        "analyze-tolerance-neg1", "analyze-tolerance-nan", "analyze-tolerance-inf"])
def test_out_of_range_options_exit_3(tmp_path, args):
    write(tmp_path, "d.json", GAMMA_DYADIC)
    args = [str(tmp_path / a) if a == "d.json" else a for a in args]
    proc = run_cli(*args)
    assert proc.returncode == 3
    assert "error: argument" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ["ladder", "d.json", "--samples", "5"],
    ["quotient", "d.json", "--ideal", "0", "--samples", "5"],
    ["quotient", "d.json", "--ideal", "0", "--tolerance", "0.1"],
], ids=["ladder-samples", "quotient-samples", "quotient-tolerance"])
def test_unread_options_are_refused(tmp_path, args):
    # the ladder samples nothing, and a quotient's table holds no float
    write(tmp_path, "d.json", GAMMA_DYADIC)
    args = [str(tmp_path / a) if a == "d.json" else a for a in args]
    proc = run_cli(*args)
    assert proc.returncode == 3
    assert "unrecognized arguments" in proc.stderr and proc.stdout == ""


def test_cli_surface():
    # every option is one its command reads; an unread one comes back only
    # by changing this table
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    surface = {name: [a.option_strings[0] for a in p._actions
                      if a.option_strings and not isinstance(a, argparse._HelpAction)]
               for name, p in commands.items()}
    assert surface == {
        "analyze": ["--seed", "--samples", "--tolerance"],
        "search": ["--max-size"],
        "counterexamples": ["--seed", "--samples", "--tolerance"],
        "ladder": ["--depth", "--seed", "--tolerance"],
        "quotient": ["--ideal", "--seed"],
    }


def test_shared_parser_runs_like_a_fresh_interpreter(tmp_path):
    # the parser is built once per process; a usage error, an analysis and a
    # quotient in a row on it answer as each does in a fresh interpreter
    assert _build_parser() is _build_parser()
    path = write(tmp_path, "b2.json", BOOL2)
    for args, code in ((["analyze"], 3), (["analyze", path, "--samples", "40"], 0),
                       (["quotient", path, "--ideal", "0,1"], 0)):
        shared, fresh = run_cli(*args), run_process(*args)
        assert (shared.returncode, shared.stdout) == (code, fresh.stdout), args
        assert fresh.returncode == code, args


def test_samples_ceiling_is_accepted():
    args = _build_parser().parse_args(["analyze", "d.json", "--samples", str(SAMPLES_CEILING)])
    assert args.samples == SAMPLES_CEILING == 100_000


def test_cli_import_loads_no_numpy():
    # the package has no runtime dependency; keep one from coming back unnoticed
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pseudomv.cli; sys.exit('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr or "importing pseudomv.cli loaded numpy"


def test_cli_import_loads_no_openssl():
    # seeds hash with the built-in SHA-256 where the interpreter has one;
    # hashlib would load OpenSSL, about 3.6 MB of resident memory
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    snippet = ("import importlib.util, sys, pseudomv.cli\n"
               "sys.exit('_hashlib' in sys.modules and bool(importlib.util.find_spec('_sha256')))")
    proc = subprocess.run([sys.executable, "-c", snippet],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr or "importing pseudomv.cli loaded OpenSSL"


# ----------------------------------------------------------------------
# fuzzing main over small documents
# ----------------------------------------------------------------------

# Sizes stay far below TABLE_CEILING and CATALOGUE_DEPTH_CEILING: at most
# two group factors with unit coordinates up to 3, and catalogue specs of
# at most two leaves, so no carrier has more than 16 elements.
small_q = st.fractions(min_value=-1, max_value=3, max_denominator=4)
group_texts = st.recursive(
    st.sampled_from(["Z", "Q", "D", "H(2)", "H(3)", "heis", "semi_numeric"]),
    lambda inner: st.builds("{}({},{})".format, st.sampled_from(["lex", "prod"]), inner, inner),
    max_leaves=2)


def tuple_text(values):
    return "(" + ",".join(map(str, values)) + ")"


def gamma_documents(group):
    """A unit of the right arity for ``group``, or of any arity."""
    k = parse_group(group).flat_arity
    units = st.one_of(st.lists(small_q, min_size=k, max_size=k).map(tuple_text),
                      st.lists(small_q, min_size=1, max_size=5).map(tuple_text),
                      small_q.map(str))
    return st.builds(lambda u: {"gamma": {"group": group, "unit": u}}, units)


catalogue_specs = st.recursive(
    st.one_of(st.builds(lambda k: {"kind": "chain", "params": [k]}, st.integers(-1, 3)),
              st.builds(lambda k: {"kind": "boolean", "params": [k]}, st.integers(-1, 2))),
    lambda inner: st.one_of(
        st.builds(lambda a, b: {"kind": "product", "params": [a, b]}, inner, inner),
        st.builds(lambda a, i: {"kind": "interval", "params": [a, i]}, inner, st.integers(-1, 5))),
    max_leaves=2)
finite_specs = st.integers(1, 4).flatmap(lambda n: st.one_of(
    st.just(chain_table(n - 1)),
    st.fixed_dictionaries({
        "n": st.just(n),
        "oplus": st.lists(st.lists(st.integers(-1, n), min_size=n, max_size=n),
                          min_size=n, max_size=n),
        "neg": st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        "tilde": st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        "zero": st.integers(0, n - 1),
        "one": st.integers(0, n - 1)})))
documents = st.one_of(
    group_texts.flatmap(gamma_documents),
    st.builds(lambda s: {"catalogue": s}, catalogue_specs),
    st.builds(lambda s: {"finite": s}, finite_specs))
malformed = st.one_of(
    st.sampled_from(["", "{", "[1,", "nul", '{"gamma": }']),
    st.one_of(st.none(), st.integers(), st.text(max_size=5),
              st.lists(st.integers(), max_size=3)).map(json.dumps),
    st.sampled_from([
        {"other": {}},
        {"gamma": {"group": "X", "unit": "1"}},
        {"gamma": {"group": "lex(Q", "unit": "1"}},
        {"gamma": {"group": "H()", "unit": "1"}},
        {"gamma": {"group": ["Q"], "unit": "1"}},
        {"gamma": {"group": "Q", "unit": "0"}},
        {"gamma": {"group": "Q", "unit": "(1,2)"}},
        {"gamma": {"group": "Q"}},
        {"catalogue": {"kind": "cube", "params": [1]}},
        {"catalogue": {"kind": "chain"}},
        {"finite": dict(CHAIN1_TABLE, one=True)},
        {"catalogue": {"kind": "chain", "params": [TABLE_CEILING]}},
        {"gamma": {"group": "Z", "unit": "1000000000"}},
        {"gamma": {"group": "prod(Z,Z)", "unit": "(100,100)"}},
        {"finite": {"n": 2}},
        {"finite": {"n": 2, "oplus": [[0]], "neg": [1, 0], "tilde": [1, 0],
                    "zero": 0, "one": 1}},
    ]),
    st.builds(lambda kind, params: {"catalogue": {"kind": kind, "params": params}},
              st.sampled_from(["chain", "boolean", "product", "interval"]),
              st.one_of(st.none(), st.integers(), st.text(max_size=3),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))))
commands = st.one_of(
    st.builds(lambda k, s: ["analyze", "--samples", str(k), "--seed", str(s)],
              st.integers(1, 20), st.integers(0, 9)),
    st.builds(lambda d: ["ladder", "--depth", str(d)], st.integers(1, 3)))


def run_main(document, command):
    """``main`` on ``document`` (an object, or raw text), in process: an
    exception escaping ``main`` fails the test, as a traceback would."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = run_cli(command[0], write(Path(tmp), "doc.json", document), *command[1:])
    return proc.returncode, proc.stderr


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents, commands)
def test_main_fuzz_exit_codes(document, command):
    code, err = run_main(document, command)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None)
@given(malformed, commands)
def test_main_fuzz_parse_errors_exit_3(document, command):
    code, err = run_main(document, command)
    assert code == 3
    assert err.startswith("error:") and "Traceback" not in err


#: Group expressions nested up to twice GROUP_DEPTH_CEILING, for
#: ``nested_gamma``.
nesting_levels = st.integers(0, 2 * GROUP_DEPTH_CEILING).flatmap(lambda n: st.lists(
    st.tuples(st.sampled_from(["lex", "prod"]), st.sampled_from(["Q", "D", "H(2)"]), st.booleans()),
    min_size=n, max_size=n))


@settings(max_examples=30, deadline=None)
@given(nesting_levels, st.sampled_from([["analyze", "--samples", "2"], ["ladder", "--depth", "2"]]))
def test_main_fuzz_nested_groups_exit_3_past_the_ceiling(levels, command):
    # every atom halves 1, so each carrier within the ceiling has a strict root
    code, err = run_main(nested_gamma(levels), command)
    if len(levels) + 1 > GROUP_DEPTH_CEILING:
        assert code == 3 and err.startswith("error:") and f"deeper than {GROUP_DEPTH_CEILING}" in err
    else:
        assert code == 0, err
