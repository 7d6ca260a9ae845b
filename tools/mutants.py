"""One-line mutants of the library, each run against the tier-1 suite.

Usage (from the root of a checkout)::

    python3 tools/mutants.py

The tree is copied once, unmutated, into a temporary directory and tier-1
runs on it: the baseline.  Then each mutant of ``MUTANTS`` patches its own
copy, replacing ``old`` (which must occur exactly once in its file) by
``new``, and is judged on that copy, ``JOBS`` copies at a time, each run
under ``TIMEOUT`` seconds.  A mutant is killed when a test that passes on
the baseline fails (or errors); it survives when tier-1 finishes without
one; a run cut by the time bound is reported as ``timeout``.

Killer first: each mutant names the test that killed it in an earlier
gate, and that test runs alone first.  Only if it passes does the rest of
tier-1 run, with ``-q``, stopping at its first failure beyond the number
of tests that fail at baseline (``--maxfail``), so a failure the tree
already has neither stops a run nor counts.  These are two pytest
invocations: given a node id and a directory, pytest runs the directory in
its own order, not the node id first.  The log names, for each kill, the
test that killed it, as the node id a later gate can store.

Each run starts in a session of its own.  On SIGTERM or SIGINT the tool
kills the process groups of the runs in progress, starts no more, removes
the copies and exits with 128 plus the signal's number.

This is not part of tier-1; it takes a few minutes on two cores.  The exit
status is 0 when every mutant was killed, 1 when one survived or timed
out, and 2 when a mutant no longer applies or the baseline errs.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: What tier-1 reads of the tree.
COPIED = ("src", "tests", "bench", "pyproject.toml", "BENCHMARK.json")

#: Tier-1 runs at a time, and the seconds each may take.
JOBS = 2
TIMEOUT = 600

LG = "src/pseudomv/lgroups.py"
FN = "src/pseudomv/finite.py"
FU = "src/pseudomv/fused.py"

#: name -> (file, old, new, killer).  Each mutant changes one line; ``old``
#: may carry the neighbouring lines that make it unique.  ``killer`` is the
#: node id of the test that killed the mutant in the last gate, or None.
MUTANTS = {
    # exact fast paths of the groups
    "heis-leq-strict": (LG, "_cmp(a[2], b[2])) <= 0", "_cmp(a[2], b[2])) < 0",
        "tests/test_acceptance.py::test_criterion_04_representation_closed_forms"),
    "heis-join-tie-b": (LG, "return b if (_cmp(a[0], b[0]) or _cmp(a[1], b[1]) or _cmp(a[2], b[2])) < 0",
                        "return b if (_cmp(a[0], b[0]) or _cmp(a[1], b[1]) or _cmp(a[2], b[2])) <= 0",
        "tests/test_lgroups.py::test_exact_fast_paths_match_derived_definitions[heis]"),
    "heis-meet-tie-a": (LG, "return a if (_cmp(a[0], b[0]) or _cmp(a[1], b[1]) or _cmp(a[2], b[2])) < 0",
                        "return a if (_cmp(a[0], b[0]) or _cmp(a[1], b[1]) or _cmp(a[2], b[2])) <= 0",
        "tests/test_lgroups.py::test_exact_fast_paths_match_derived_definitions[heis]"),
    "heis-eq-two-coordinates": (LG, "        return a == b\n\n    def leq(self, a, b):\n        return (_cmp",
                                "        return a[:2] == b[:2]\n\n    def leq(self, a, b):\n        return (_cmp",
        "tests/test_bench_contract.py::test_first_cycle_passes_the_benchmark_gate"),
    "lex-leq-tie-lt": (LG, "return self.second.leq(a[1], b[1])", "return self.second.lt(a[1], b[1])",
        "tests/test_acceptance.py::test_criterion_04_representation_closed_forms"),
    "lex-leq-head-sign": (LG, "        if c:\n            return c < 0", "        if c:\n            return c > 0",
        "tests/test_acceptance.py::test_criterion_04_representation_closed_forms"),
    "lex-cmp-tail-first": (LG, "return self.first.cmp(a[0], b[0]) or self.second.cmp(a[1], b[1])",
                           "return self.second.cmp(a[1], b[1]) or self.first.cmp(a[0], b[0])",
        "tests/test_bench_contract.py::test_benchmark_runs_one_cycle[gamma-exact-1]"),
    "prod-leq-or": (LG, "return self.first.leq(a[0], b[0]) and self.second.leq(a[1], b[1])",
                    "return self.first.leq(a[0], b[0]) or self.second.leq(a[1], b[1])",
        "tests/test_bench_contract.py::test_gamma_exact_cycle_bytes_are_pinned"),
    "prod-eq-ignores-exact": (LG, "        if self.exact:\n            return a == b",
                              "        if True:\n            return a == b",
        "tests/test_cli.py::test_analyze_mixed_exact_float_groups[lex(Q,semi_numeric)-(1,2,0)]"),
    "pair-validate-takes-bools": (LG, "type(a[0]) is int", "isinstance(a[0], int)",
        "tests/test_core.py::test_backend_mismatch_errors"),
    "z-member-admits-halves": (LG, "return a[1] == 1", "return a[1] <= 2",
        "tests/test_bench_contract.py::test_first_cycle_passes_the_benchmark_gate"),
    # the Heisenberg third coordinate
    "heis-add-drops-cross-term": (LG, "        p = a0[0] * b1[0]\n", "        p = 0\n",
        "tests/test_acceptance.py::test_criterion_01_axiom_suite"),
    # a cocycle of the other sign still makes a group, so only an identity
    # or a kernel held to its specification can tell
    "heis-cocycle-sign": (LG, "        p = a0[0] * b1[0]\n", "        p = -a0[0] * b1[0]\n",
        "tests/test_acceptance.py::test_criterion_01_axiom_suite"),
    "heis-add-cross-term-sign": (LG, "            n += p\n        g = math.gcd(n, d)\n        return (_add",
                                 "            n -= p\n        g = math.gcd(n, d)\n        return (_add",
        "tests/test_acceptance.py::test_criterion_01_axiom_suite"),
    "heis-add-unreduced": (LG, "return (_add(a0, b0), _add(a1, b1), (n, d) if g == 1 else (n // g, d // g))",
                           "return (_add(a0, b0), _add(a1, b1), (n, d))",
        "tests/test_acceptance.py::test_criterion_01_axiom_suite"),
    "heis-neg-cross-term-sign": (LG, "_sum3(-n, d, 0, d, a0[0] * a1[0]", "_sum3(-n, d, 0, d, -a0[0] * a1[0]",
        "tests/test_bench_contract.py::test_benchmark_runs_one_cycle[gamma-exact-1]"),
    "heis-sub-cross-term-sign": (LG, "-d0[0] * b1[0], d0[1] * b1[1])", "d0[0] * b1[0], d0[1] * b1[1])",
        "tests/test_acceptance.py::test_criterion_01_axiom_suite"),
    "heis-lsub-cross-term-sign": (LG, "-b0[0] * d1[0]", "b0[0] * d1[0]",
        "tests/test_acceptance.py::test_criterion_01_axiom_suite"),
    # a + (−b) for −b + a in the tail, which only a noncommutative tail shows
    "pair-lsub-calls-sub": (LG, "self.second.lsub(a1, b1)", "self.second.sub(a1, b1)",
        "tests/test_bench_contract.py::test_first_cycle_passes_the_benchmark_gate"),
    "sum3-unreduced": (LG, "    g = math.gcd(n, d)\n    return (n, d) if g == 1 else (n // g, d // g)\n",
                       "    g = math.gcd(n, d)\n    return n, d\n",
        "tests/test_acceptance.py::test_criterion_01_axiom_suite"),
    "heis-halve-quarter": (LG, "(n * q << 2) - p * d", "(n * q << 1) - p * d",
        "tests/test_acceptance.py::test_criterion_04_representation_closed_forms"),
    # bare numbers read in cmp's unpacking
    "cmp-bare-reads-b-as-a": (LG, "        nb, db = _pair(b)\n    x = na * db",
                              "        nb, db = _pair(a)\n    x = na * db",
        "tests/test_lgroups.py::test_rational_groups_read_bare_numbers[Z]"),
    # sampler bounds
    "heis-sample-upper-bound": (LG, "lo, hi = -2 * d, 2 * d + 1", "lo, hi = -2 * d, 2 * d",
        "tests/test_bench_contract.py::test_gamma_exact_cycle_bytes_are_pinned"),
    "rational-denominator-bound": (LG, "1 + rng._randbelow(SAMPLE_DENOMINATOR_BOUND)",
                                   "1 + rng._randbelow(SAMPLE_DENOMINATOR_BOUND - 1)",
        "tests/test_bench_contract.py::test_gamma_exact_cycle_bytes_are_pinned"),
    # the top numerator u·d left out; at u = 0 it still draws 0
    "rational-sample-upper-bound": (LG, "n = rng._randbelow(un * d // ud + 1)",
                                    "n = rng._randbelow(max(un * d // ud, 1))",
        "tests/test_bench_contract.py::test_gamma_exact_cycle_bytes_are_pinned"),
    "dyadic-exponent-bound": (LG, "1 << rng._randbelow(SAMPLE_DENOMINATOR_BOUND.bit_length())",
                              "1 << rng._randbelow(SAMPLE_DENOMINATOR_BOUND.bit_length() - 1)",
        "tests/test_lgroups.py::test_samplers_reach_the_denominator_bound[D]"),
    # the interval samplers' clamps: (0, 0, c) with c > 0 sent to 0, and a
    # lex tail left unjoined where the head ties 0
    "heis-sampler-zero-tie": (LG, "not k0 and (k1 < 0", "not k0 and (k1 <= 0",
        "tests/test_lgroups.py::test_fused_exact_gamma_kernels_match_generic[heis-noncentral]"),
    "lex-sampler-skips-tie-join": (LG, "t = t_join(t, zt)", "t = t",
        "tests/test_acceptance.py::test_criterion_01_axiom_suite"),
    # other layers: the first measurement of the mutation gate
    "gamma-odot-unclamped": (LG, "return g.join(g.add(g.sub(x, self.unit), y), self._zero)",
                             "return g.add(g.sub(x, self.unit), y)",
        "tests/test_cli.py::test_analyze_mixed_exact_float_groups[lex(Q,semi_numeric)-(1,2,0)]"),
    "gamma-oplus-unclamped": (LG, "return self.group.meet(self.group.add(x, y), self.unit)",
                              "return self.group.add(x, y)",
        "tests/test_cli.py::test_analyze_mixed_exact_float_groups[lex(Q,semi_numeric)-(1,2,0)]"),
    "core-odot-swapped-negations": ("src/pseudomv/core.py",
                                    "return self.tilde(self.oplus(self.neg(y), self.neg(x)))",
                                    "return self.tilde(self.oplus(self.neg(x), self.neg(y)))",
        "tests/test_core.py::test_gamma_derived_ops_match_group_formulas"),
    "float-leq-edge": (LG, "return d < -t or not a[1] - b[1] > t", "return d < -t or not a[1] - b[1] >= t",
        "tests/test_lgroups.py::test_float_kernels_match_derived_definitions[semi_numeric-1e-09]"),
    "half-odd-numerator": (LG, "        return n, d << 1\n", "        return n, d << 2\n",
        "tests/test_acceptance.py::test_criterion_04_representation_closed_forms"),
    "weak-form-operand-order": ("src/pseudomv/roots.py",
                                "lambda x: group.add(halve_or_raise(group.sub(x, unit)), unit))",
                                "lambda x: group.add(unit, halve_or_raise(group.sub(x, unit))))",
        "tests/test_acceptance.py::test_criterion_04_representation_closed_forms"),
    "table-a6-dropped": (FN, "lambda x, y: op[x][od[tl[x]][y]] ==",
                         "lambda x, y: True or op[x][od[tl[x]][y]] ==",
        "tests/test_core.py::test_axioms_table_and_generic_paths_agree"),
    "standard-row-operand-order": ("src/pseudomv/roots.py",
                                   "s.M.eq(s.M.odot(rx := s.r(x), s.r0), s.M.odot(s.r0, rx))",
                                   "s.M.eq(s.M.odot(rx := s.r(x), s.r0), s.M.odot(rx, s.r0))",
        "tests/test_bench_contract.py::test_gamma_exact_cycle_bytes_are_pinned"),
    "strict-classified-product": ("src/pseudomv/roots.py", 'classification = "strict"',
                                  'classification = "product"',
        "tests/test_bench_contract.py::test_first_cycle_passes_the_benchmark_gate"),
    "commutative-check-drops-tilde": (FN, "return tuple(t.neg) == tuple(t.tilde) and ", "return ",
        "tests/test_ideals.py::test_noncommutative_tables_are_refused[neg-not-tilde]"),
    "commutative-check-drops-oplus": (FN, " and tuple(map(tuple, t.oplus)) == tuple(zip(*t.oplus))",
                                      "",
        "tests/test_ideals.py::test_noncommutative_tables_are_refused[oplus-not-commutative]"),
    # the catalogue table, the product order and the float carriers' shape
    "catalogue-arity-unchecked": (FN, "if len(params) != len(shapes):", "if False:",
        "tests/test_cli.py::test_analyze_malformed_spec_exits_3[chain-two-params]"),
    "chain-size-off-by-one": (FN, "CatalogueKind((int,), lambda n: n + 1, chain)",
                              "CatalogueKind((int,), lambda n: n, chain)",
        "tests/test_cli.py::test_table_size_ceiling[catalogue-above]"),
    "prod-cmp-ignores-disagreement": (LG, "if c is None or d is None or c * d < 0:",
                                      "if c is None or d is None:",
        "tests/test_lgroups.py::test_direct_product_partial_order"),
    "float-validate-takes-bools": (LG, "isinstance(v, (int, float)) and not isinstance(v, bool) for v",
                                   "isinstance(v, (int, float)) for v",
        "tests/test_lgroups.py::test_float_carriers_refuse_bool_coordinates[semi_numeric]"),
    # the table order of tabulate, and the unknown-key checks of spec files
    "tabulate-reversed-order": (FN, "    elems = list(algebra.elements())\n    # every enumerable",
                                "    elems = list(algebra.elements())[::-1]\n    # every enumerable",
        "tests/test_bench_contract.py::test_first_cycle_passes_the_benchmark_gate"),
    "finite-spec-keys-unchecked": ("src/pseudomv/cli.py", '        _known_keys(spec, ("n", "oplus"',
                                   '        False and _known_keys(spec, ("n", "oplus"',
        "tests/test_cli.py::test_analyze_malformed_spec_exits_3[finite-unknown-key]"),
    "nested-catalogue-keys-unchecked": (FN, '    _known_keys(obj, ("kind", "params")',
                                        '    depth > 1 or _known_keys(obj, ("kind", "params")',
        "tests/test_cli.py::test_analyze_malformed_spec_exits_3[nested-catalogue-unknown-key]"),
    # the fused Γ operations and sampler of the float groups
    "fused-oplus-unclamped": (FU, "        s1 = y0 * x[1] + y[1]\n        d = s0 - u0\n",
                              "        s1 = y0 * x[1] + y[1]\n        return (s0, s1)\n",
        "tests/test_acceptance.py::test_criterion_01_axiom_suite"),
    "fused-odot-zero-clamp-dropped": (FU, "        d = s0 - 1.0\n", "        return (s0, s1)\n",
        "tests/test_acceptance.py::test_criterion_01_axiom_suite"),
    "fused-sampler-meet-tie-flipped": (LG, "return (x0, x1) if d < -t or x1 - u1 < -t else unit",
                                       "return (x0, x1) if d < -t or u1 - x1 < -t else unit",
        "tests/test_cli.py::test_analyze_mixed_exact_float_groups[lex(semi_numeric,Q)-(1,0,1)]"),
    # the symmetry fact, which a noncentral unit decides only when strong
    "symmetric-ignores-strong-unit": ("src/pseudomv/cli.py", "        if group.strong_unit(unit):\n",
                                      "        if True:\n",
        "tests/test_cli.py::test_analyze_symmetry_is_a_fact_on_exact_carriers[spec4-True]"),
    "heis-strong-unit-nonnegative": (LG, "return u[0][0] > 0", "return u[0][0] >= 0",
        "tests/test_cli.py::test_analyze_symmetry_is_a_fact_on_exact_carriers[spec4-True]"),
    # the finite tables' inline index tests, shared axiom report, row-wise
    # A1, product by index arithmetic and brute force read off the tables
    "inline-guard-drops-lower-bound": (FN, "        if type(x) is int and 0 <= x < n and type(y) is int and 0 <= y < n:\n"
                                           "            return self._op[x][y]",
                                       "        if type(x) is int and x < n and type(y) is int and 0 <= y < n:\n"
                                       "            return self._op[x][y]",
        "tests/test_finite.py::test_inline_guards_refuse_what_idx_refuses"),
    "axiom-report-recomputed": (FN, "        return self._axioms\n", "        return FinitePMV._axioms.func(self)\n",
        "tests/test_costs.py::test_analyze_checks_each_table_once[analyze-catalogue]"),
    "a1-against-wrong-row": (FN, "left, right = op[row[y]], cols[y](row)", "left, right = op[row[y]], cols[x](row)",
        '.py::tests.test_ideals'),
    "product-index-transposed": (FN, "for p in ta.oplus[i] for q in tb.oplus[j]",
                                 "for q in tb.oplus[j] for p in ta.oplus[i]",
        "tests/test_acceptance.py::test_criterion_01_axiom_suite"),
    "product-neg-from-tilde": (FN, "neg=tuple(ta.neg[i] * nb + tb.neg[j] for i, j in cells)",
                               "neg=tuple(ta.tilde[i] * nb + tb.tilde[j] for i, j in cells)",
        "tests/test_finite.py::test_product_table_matches_tabulate"),
    "brute-force-leq-reversed": (FN, "if mt[zz][x] == zz]", "if mt[zz][x] == x]",
        "tests/test_acceptance.py::test_criterion_02_finite_trichotomy"),
    # the fused Γ kernels of the exact groups: a ℚ ⊕ that clamps only past
    # u (a tie then reads as below u to a lex head), a Heisenberg ⊙ that
    # exits on the wrong sign, a lex ⊕ whose head tie skips the tail's
    # clamp, and a lex x − u + y that leaves its tail unshifted, which only
    # a lex in a lex tail reads
    "fused-rational-oplus-tie-below": (FU, "            c = n * ud - un * d\n            if c < 0:\n",
                                       "            c = n * ud - un * d\n            if c <= 0:\n",
        "tests/test_acceptance.py::test_criterion_01_axiom_suite"),
    "fused-heis-odot-exit-sign": (FU, "            if s0 < 0 and clamp:\n",
                                  "            if s0 > 0 and clamp:\n",
        "tests/test_acceptance.py::test_criterion_04_representation_closed_forms"),
    "fused-lex-tie-skips-tail-clamp": (FU, "            s = t_cap(xt, yt)\n            if s is None:\n                return over\n",
                                       "            s = t_add(xt, yt)\n            if s is None:\n                return over\n",
        "tests/test_acceptance.py::test_criterion_01_axiom_suite"),
    "fused-lex-rest-drops-tail": (FU, "        return (h_rest(x[0], y[0]), t_rest(x[1], y[1]))\n",
                                  "        return (h_rest(x[0], y[0]), x[1])\n",
        "tests/test_cli.py::test_group_depth_ceiling[analyze-at]"),
    # the row runner's early stop: retiring a result before its witnesses
    # are all held changes them, and never retiring one costs evaluations
    "run-rows-retires-at-first-witness": ("src/pseudomv/core.py",
                                          "len(self.witnesses) >= self.MAX_WITNESSES",
                                          "len(self.witnesses) >= 1",
        "tests/test_bench_contract.py::test_gamma_exact_cycle_bytes_are_pinned"),
    "run-rows-never-retires": ("src/pseudomv/core.py", "                    if res.settled:",
                               "                    if False:",
        "tests/test_core.py::test_run_rows_stops_evaluating_a_settled_item"),
    "negation-compat-drops-tilde": ("src/pseudomv/roots.py",
                                    "and algebra.eq(root(algebra.tilde(x)), algebra.snake(rx, r0)))",
                                    "and True)", None),
}


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def apply(dest: Path, mutant: tuple[str, str, str, str | None]) -> None:
    path, old, new, _ = mutant
    target = dest / path
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise ValueError(f"{path}: the old text occurs {text.count(old)} times, not once")
    target.write_text(text.replace(old, new), encoding="utf-8")


class Stopped(Exception):
    """SIGTERM or SIGINT arrived; ``args[0]`` is its number."""


def _raise_stopped(signum, frame):
    raise Stopped(signum)


class Runs:
    """The tier-1 runs in progress, and whether new ones may start."""

    def __init__(self):
        self.lock = threading.Lock()
        self.running: set[subprocess.Popen] = set()
        self.stopping = False

    def start(self, argv, **kwargs) -> subprocess.Popen | None:
        """``argv`` in a session of its own, or None once halted."""
        with self.lock:
            if self.stopping:
                return None
            proc = subprocess.Popen(argv, start_new_session=True, **kwargs)
            self.running.add(proc)
            return proc

    def done(self, proc: subprocess.Popen) -> None:
        with self.lock:
            self.running.discard(proc)

    def halt(self) -> None:
        """Start no more runs and kill the ones in progress."""
        with self.lock:
            self.stopping = True
            for proc in self.running:
                kill(proc)


def kill(proc: subprocess.Popen) -> None:
    """Kill the session ``proc`` leads: pytest and whatever it started."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run_suite(runs: Runs, tree: Path, maxfail: int,
              tests: tuple[str, ...] = ()) -> tuple[set[str] | None, float]:
    """The node ids of the tests that failed or erred on ``tree`` (None when
    the run was cut by the time bound or by ``runs.halt``), and the seconds
    it took: ``tests`` alone if given, else tier-1."""
    report = tree / "junit.xml"
    report.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", f"--maxfail={maxfail}", "-q",
            "--continue-on-collection-errors", "-p", "no:cacheprovider", f"--junitxml={report}",
            *tests]
    start = time.perf_counter()
    proc = runs.start(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if proc is None:
        return None, 0.0
    try:
        proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        kill(proc)
        proc.wait()
        return None, time.perf_counter() - start
    finally:
        runs.done(proc)
    seconds = time.perf_counter() - start
    if not report.exists():
        return {"<no report>"}, seconds
    failed = set()
    for case in ET.parse(report).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(node_id(case.get("classname"), case.get("name")))
    return failed, seconds


def node_id(classname: str, name: str) -> str:
    """The pytest node id of a junit test case: the classname
    ``tests.test_cli`` is the module ``tests/test_cli.py``."""
    return f"{classname.replace('.', '/')}.py::{name}"


def main() -> int:
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _raise_stopped)
    try:
        return run_all()
    except Stopped as exc:
        print(f"stopped by signal {exc.args[0]}; runs killed and copies removed", flush=True)
        return 128 + exc.args[0]


def run_all() -> int:
    names = list(MUTANTS)
    start = time.perf_counter()
    status = {}
    # the runs go to the pool's threads, so a signal reaches the main thread
    # while it waits, never between starting a run and recording it
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tmp = Path(tmp)
        trees = {}
        for name in ["baseline", *names]:
            trees[name] = tmp / name
            copy_tree(trees[name])
            if name != "baseline":
                try:
                    apply(trees[name], MUTANTS[name])
                except ValueError as exc:
                    print(f"{name}: does not apply: {exc}")
                    return 2
        runs, pool = Runs(), ThreadPoolExecutor(max_workers=JOBS)
        try:
            baseline, seconds = pool.submit(run_suite, runs, trees["baseline"], 1 << 30).result()
            if baseline is None:
                print(f"baseline: timeout after {seconds:.0f} s")
                return 2
            print(f"baseline: {seconds:.1f} s, {len(baseline)} failing: {', '.join(sorted(baseline))}")

            def judge(name):
                killer, seconds = MUTANTS[name][3], 0.0
                if killer:
                    failed, seconds = run_suite(runs, trees[name], 1, (killer,))
                    if failed is not None and failed - baseline:
                        return name, "killed", seconds, min(failed - baseline)
                failed, more = run_suite(runs, trees[name], len(baseline) + 1)
                seconds += more
                if failed is None:
                    return name, "timeout", seconds, ""
                new = sorted(failed - baseline)
                return name, ("killed" if new else "survived"), seconds, (new[0] if new else "")

            for name, verdict, seconds, test in pool.map(judge, names):
                status[name] = verdict
                print(f"{verdict:8} {seconds:6.1f} s  {name}  {test}", flush=True)
        finally:
            for signum in (signal.SIGTERM, signal.SIGINT):   # cleaning up is not cut short
                signal.signal(signum, signal.SIG_IGN)
            runs.halt()
            pool.shutdown(cancel_futures=True)
    killed = sum(v == "killed" for v in status.values())
    print(f"{killed} of {len(names)} killed in {time.perf_counter() - start:.0f} s; "
          f"survived or timed out: {', '.join(n for n, v in status.items() if v != 'killed') or 'none'}")
    return 0 if killed == len(names) else 1


if __name__ == "__main__":
    sys.exit(main())
