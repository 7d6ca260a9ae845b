"""What the benchmark under ``bench/`` uses of the library: the set-up
call that loads an input file, the functions and methods its tracer wraps
by name, the gate its run applies to the first cycle of each workload, and
a short run of ``bench/run.py`` itself."""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
