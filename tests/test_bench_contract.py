"""What the benchmark under ``bench/`` uses of the library: the set-up
call that loads an input file, the functions and methods its tracer wraps
by name, the gate its run applies to the first cycle of each workload, the
bytes of the first gamma-exact cycle, and a short run of ``bench/run.py``
itself."""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pseudomv as pmv
import pseudomv.cli as cli
from pseudomv.cli import load_algebra
from pseudomv.core import SamplerConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"

SPECS = {
    "gamma": {"gamma": {"group": "lex(Q,heis)", "unit": "(1,0,0,0)"}},
    "catalogue": {"catalogue": {"kind": "product", "params": [
        {"kind": "boolean", "params": [1]}, {"kind": "chain", "params": [2]}]}},
    "finite": {"finite": {"n": 2, "oplus": [[0, 1], [1, 1]], "neg": [1, 0],
                          "tilde": [1, 0], "zero": 0, "one": 1}},
}


def test_setup_call_loads_every_spec_kind(tmp_path):
    paths = []
    for kind, spec in SPECS.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        paths.append(str(path))
        assert load_algebra(str(path), SamplerConfig(), 1e-9).describe()["backend"]
    # the benchmark makes the same call in a fresh interpreter
    snippet = ("import sys\n"
               "from pseudomv.cli import load_algebra\n"
               "from pseudomv.core import SamplerConfig\n"
               "for path in sys.argv[1:]:\n"
               "    load_algebra(path, SamplerConfig(), 1e-9)\n")
    proc = subprocess.run([sys.executable, "-c", snippet, *paths],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr


def test_traced_owners_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = [owner for table in (tracing.COARSE, tracing.FINE)
              for layer in table.values() for owner in layer]
    assert owners
    for owner in owners:
        mod_name, attr = owner.split(":")
        module = importlib.import_module(f"pseudomv.{mod_name}")
        if "." in attr:      # the tracer reads a method from its class's own __dict__
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), owner
        else:
            assert callable(getattr(module, attr)), owner


#: One group expression per group class the CLI's DSL builds, with a unit;
#: the last two put an exact factor beside a float one.
DSL_GROUPS = {"Z": "2", "Q": "1", "D": "1", "H(6)": "1", "heis": "(1,0,0)",
              "semi_numeric": "(2,0)", "lex(Q,semi_numeric)": "(1,2,0)",
              "prod(semi_numeric,Q)": "(2,0,1)"}


def test_every_dsl_group_keeps_sample_interval():
    # the tracer's CountingGroup wraps group.sample_interval on every Γ it counts
    groups = {text: cli.parse_group(text) for text in DSL_GROUPS}
    assert {type(g) for g in groups.values()} == {
        pmv.IntegerGroup, pmv.RationalGroup, pmv.DyadicGroup, pmv.PowerDenominatorGroup,
        pmv.HeisenbergGroup, pmv.ScalingSemidirect, pmv.LexProduct, pmv.DirectProductGroup}
    for text, g in groups.items():
        m = pmv.gamma(g, cli.parse_element_literal(g, DSL_GROUPS[text]))
        assert callable(g.sample_interval), text
        assert m.contains(g.sample_interval(random.Random(0), m.unit)), text


def _load_bench(monkeypatch, name):
    """``bench/<name>.py`` as a module, registered in ``sys.modules`` before it
    runs: a dataclass looks its own module up there."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _run(op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(op.argv)
    return code, out.getvalue(), err.getvalue()


def test_first_cycle_passes_the_benchmark_gate(monkeypatch, tmp_path):
    # the gate of bench/run.py: every op gets a right verdict, and the first
    # op, run again after the loop, repeats its exit code and stdout
    workloads = _load_bench(monkeypatch, "workloads")
    for name in workloads.WORKLOADS:
        ops = workloads.Workload(name, 1, tmp_path).cycle(0)
        first = _run(ops[0])
        for op in ops:
            code, out, err = _run(op)
            assert op.judge(code, out, err) in (workloads.OK, workloads.KNOWN_RED), (
                name, op.template, op.argv, code, err)
        assert _run(ops[0])[:2] == first[:2], name


#: SHA-256 of the exit code and stdout, "<code>\n<stdout>", of each op of
#: gamma-exact cycle 0 at seed 1.  A change meant to alter report bytes
#: (a new sampler, say) updates these on purpose; any other change keeps them.
GAMMA_EXACT_CYCLE0_SEED1 = [
    ("analyze:Q", "0bd73b87233debbd5ae3890f37aa1235f10163ff34ff89110c617377f83aeac5"),
    ("analyze:D", "eddbd73bc31f8abe209b41578bc5b263707d8f07d83651244ee8853898a010b4"),
    ("analyze:H-even", "8622d9e0fafbfb1d8ae57ae4cf91ce8cb44ed77dd52672a11f5b694b62640e44"),
    ("analyze:heis-central", "4e0d78f5d4f772efd983c322b6bd9422e31a4bcd89bf9f035b8f1a759adc5021"),
    ("analyze:lex-Q-heis-central", "54f3d6cefc98c6495a89ba079695d5273e2b22b090b863a304c9086c68e53def"),
    ("analyze:prod-scalars", "90305d45ecc3ad6b36214faf49022dd8e67e43d60aba33451f6ba38c598aa040"),
    ("analyze:nested-central", "48389652bce7feebe79ac0b3b0a245c30abb97ce434888ab877795153ae98708"),
    ("analyze:heis-noncentral", "0c03aa5a7d44cec301905e90339d3972e87ea7a9ea813afa9a296d64089964bc"),
    ("analyze:lex-Q-heis-noncentral", "40cfda2b110eeb7700264456d7c6f77502efd063c72df064036cc11139b18838"),
    ("analyze:nested-noncentral", "8b6084db4b75c430ab50ebc1b984eebd7155b30319d561a108aa6e89e9f2c1d4"),
    ("analyze:heis-thin", "99db9713e416f41d0514d9b964111255381e1cc77ccb00503c4864c13e029bb7"),
    ("analyze:H-odd", "573b918f29c86e4421507cbe5e62c5657421e310884e1268a8b70cf65aafe94b"),
    ("analyze:Z", "a3d6efe6fdbff611c1e2459b7aafaa55b5f9050e1f42fc903602dd03b84882ee"),
    ("analyze:lex-Z-Z", "28f6b022a96a8eb71dd1142405efc3379d946e334b2594991cb22558f97aa9bb"),
    ("ladder:Q", "795c4aa49c6295869ffd33687d0d78731f42b0e4aa43d201d4f239cefccdff42"),
    ("ladder:D", "62a6f8caf96d0cb93093485c422f2e7a9f2716aabbf67be4651580645dcfab19"),
    ("ladder:H-even", "32f576e1c65c18a7ce4278388b5decea7da233be30f5700b61aa649066d12b5c"),
    ("ladder:lex-Q-heis-central", "6d38385316fde184d34f255dc3decff28edfb1973adf15de02dd912541d72373"),
]


def test_gamma_exact_cycle_bytes_are_pinned(monkeypatch, tmp_path):
    workloads = _load_bench(monkeypatch, "workloads")
    got = []
    for op in workloads.Workload("gamma-exact", 1, tmp_path).cycle(0):
        code, out, _ = _run(op)
        got.append((op.template, hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()))
    assert got == GAMMA_EXACT_CYCLE0_SEED1


def test_tracer_installs_and_undoes_in_a_fresh_interpreter():
    snippet = ("import sys\n"
               "sys.path.insert(0, sys.argv[1])\n"
               "from tracing import Tracer\n"
               "Tracer().install()()\n")
    proc = subprocess.run([sys.executable, "-c", snippet, str(BENCH)],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload, trace", [
    ("gamma-exact", 1), ("finite-catalogue", 1), ("float-numeric", 1), ("finite-catalogue", 0),
])
def test_benchmark_runs_one_cycle(workload, trace):
    # one cycle of the real run, traced or timed, from a fresh interpreter
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
