"""What the benchmark under ``bench/`` uses of the library: the set-up
call that loads an input file, and the functions and methods its tracer
wraps by name."""

from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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
