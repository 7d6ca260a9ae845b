"""One-line mutants of the library, each run against the tier-1 suite.

Usage (from the root of a checkout)::

    python3 tools/mutants.py

The tree is copied once, unmutated, into a temporary directory and tier-1
runs on it: the baseline.  Then each mutant of ``MUTANTS`` patches its own
copy, replacing ``old`` (which must occur exactly once in its file) by
``new``, and tier-1 runs on that copy with ``-q``, ``JOBS`` copies at a
time, each under ``TIMEOUT`` seconds.  A run stops at its first failure
beyond the number of tests that fail at baseline (``--maxfail``), so a
failure the tree already has neither stops a run nor counts.  A mutant is killed when a test that passes on the
baseline fails (or errors); it survives when the suite finishes without
one; a run cut by the time bound is reported as ``timeout``.

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

#: name -> (file, old, new).  Each mutant changes one line; ``old`` may
#: carry the neighbouring lines that make it unique.
MUTANTS = {
    # exact fast paths of the groups
    "heis-leq-strict": (LG, "_cmp(a[2], b[2])) <= 0", "_cmp(a[2], b[2])) < 0"),
    "heis-join-tie-b": (LG, "return b if (_cmp(a[0], b[0]) or _cmp(a[1], b[1]) or _cmp(a[2], b[2])) < 0",
                        "return b if (_cmp(a[0], b[0]) or _cmp(a[1], b[1]) or _cmp(a[2], b[2])) <= 0"),
    "heis-meet-tie-a": (LG, "return a if (_cmp(a[0], b[0]) or _cmp(a[1], b[1]) or _cmp(a[2], b[2])) < 0",
                        "return a if (_cmp(a[0], b[0]) or _cmp(a[1], b[1]) or _cmp(a[2], b[2])) <= 0"),
    "heis-eq-two-coordinates": (LG, "        return a == b\n\n    def leq(self, a, b):\n        return (_cmp",
                                "        return a[:2] == b[:2]\n\n    def leq(self, a, b):\n        return (_cmp"),
    "lex-leq-tie-lt": (LG, "return self.second.leq(a[1], b[1])", "return self.second.lt(a[1], b[1])"),
    "lex-leq-head-sign": (LG, "        if c:\n            return c < 0", "        if c:\n            return c > 0"),
    "lex-cmp-tail-first": (LG, "return self.first.cmp(a[0], b[0]) or self.second.cmp(a[1], b[1])",
                           "return self.second.cmp(a[1], b[1]) or self.first.cmp(a[0], b[0])"),
    "prod-leq-or": (LG, "return self.first.leq(a[0], b[0]) and self.second.leq(a[1], b[1])",
                    "return self.first.leq(a[0], b[0]) or self.second.leq(a[1], b[1])"),
    "prod-eq-ignores-exact": (LG, "        if self.exact:\n            return a == b",
                              "        if True:\n            return a == b"),
    "z-validate-takes-bools": (LG, "if type(a) is not int:", "if not isinstance(a, int):"),
    # the Heisenberg third coordinate
    "heis-add-drops-cross-term": (LG, "        p = a0[0] * b1[0]\n", "        p = 0\n"),
    "heis-add-cross-term-sign": (LG, "            n += p\n        g = math.gcd(n, d)\n        return (_add",
                                 "            n -= p\n        g = math.gcd(n, d)\n        return (_add"),
    "heis-add-unreduced": (LG, "return (_add(a0, b0), _add(a1, b1), (n, d) if g == 1 else (n // g, d // g))",
                           "return (_add(a0, b0), _add(a1, b1), (n, d))"),
    "heis-neg-cross-term-sign": (LG, "_sum3(-n, d, 0, d, a0[0] * a1[0]", "_sum3(-n, d, 0, d, -a0[0] * a1[0]"),
    "heis-sub-cross-term-sign": (LG, "-d0[0] * b1[0], d0[1] * b1[1])", "d0[0] * b1[0], d0[1] * b1[1])"),
    "sum3-unreduced": (LG, "    return (n, d) if g == 1 else (n // g, d // g)\n", "    return n, d\n"),
    "heis-halve-quarter": (LG, "(n * q << 2) - p * d", "(n * q << 1) - p * d"),
    # bare numbers read in cmp's unpacking
    "cmp-bare-reads-b-as-a": (LG, "        nb, db = _pair(b)\n    x = na * db",
                              "        nb, db = _pair(a)\n    x = na * db"),
    # sampler bounds
    "heis-sample-upper-bound": (LG, "lo, hi = -2 * d, 2 * d + 1", "lo, hi = -2 * d, 2 * d"),
    "rational-denominator-bound": (LG, "rng.randrange(1, SAMPLE_DENOMINATOR_BOUND + 1)",
                                   "rng.randrange(1, SAMPLE_DENOMINATOR_BOUND)"),
    "rational-sample-upper-bound": (LG, "rng.randrange(0, max(hi, 0) + 1)", "rng.randrange(0, max(hi, 0))"),
    "dyadic-exponent-bound": (LG, "SAMPLE_DENOMINATOR_BOUND.bit_length())",
                              "SAMPLE_DENOMINATOR_BOUND.bit_length() - 1)"),
    # other layers: the first measurement of the mutation gate
    "gamma-odot-unclamped": (LG, "return g.join(g.add(g.sub(x, self.unit), y), self._zero)",
                             "return g.add(g.sub(x, self.unit), y)"),
    "gamma-oplus-unclamped": (LG, "return self.group.meet(self.group.add(x, y), self.unit)",
                              "return self.group.add(x, y)"),
    "core-odot-swapped-negations": ("src/pseudomv/core.py",
                                    "return self.tilde(self.oplus(self.neg(y), self.neg(x)))",
                                    "return self.tilde(self.oplus(self.neg(x), self.neg(y)))"),
    "float-leq-edge": (LG, "return d < -t or not a[1] - b[1] > t", "return d < -t or not a[1] - b[1] >= t"),
    "half-odd-numerator": (LG, "        return n, d << 1\n", "        return n, d << 2\n"),
    "weak-form-operand-order": ("src/pseudomv/roots.py",
                                "lambda x: group.add(halve_or_raise(group.sub(x, unit)), unit))",
                                "lambda x: group.add(unit, halve_or_raise(group.sub(x, unit))))"),
    "table-a6-dropped": (FN, "lambda x, y: op[x][od[tl[x]][y]] ==",
                         "lambda x, y: True or op[x][od[tl[x]][y]] =="),
    "standard-row-operand-order": ("src/pseudomv/roots.py",
                                   "s.M.eq(s.M.odot(rx := s.r(x), s.r0), s.M.odot(s.r0, rx))",
                                   "s.M.eq(s.M.odot(rx := s.r(x), s.r0), s.M.odot(rx, s.r0))"),
    "strict-classified-product": ("src/pseudomv/roots.py", 'classification = "strict"',
                                  'classification = "product"'),
    "commutative-check-drops-tilde": (FN, "return tuple(t.neg) == tuple(t.tilde) and ", "return "),
    "commutative-check-drops-oplus": (FN, " and tuple(map(tuple, t.oplus)) == tuple(zip(*t.oplus))",
                                      ""),
    # the catalogue table, the product order and the float carriers' shape
    "catalogue-arity-unchecked": (FN, "if len(params) != len(shapes):", "if False:"),
    "chain-size-off-by-one": (FN, "CatalogueKind((int,), lambda n: n + 1, chain)",
                              "CatalogueKind((int,), lambda n: n, chain)"),
    "prod-cmp-ignores-disagreement": (LG, "if c is None or d is None or c * d < 0:",
                                      "if c is None or d is None:"),
    "float-validate-takes-bools": (LG, "isinstance(v, (int, float)) and not isinstance(v, bool) for v",
                                   "isinstance(v, (int, float)) for v"),
    # the table order of tabulate, and the unknown-key checks of spec files
    "tabulate-reversed-order": (FN, "    elems = list(algebra.elements())\n    # every enumerable",
                                "    elems = list(algebra.elements())[::-1]\n    # every enumerable"),
    "finite-spec-keys-unchecked": ("src/pseudomv/cli.py", '        _known_keys(spec, ("n", "oplus"',
                                   '        False and _known_keys(spec, ("n", "oplus"'),
    "nested-catalogue-keys-unchecked": (FN, '    _known_keys(obj, ("kind", "params")',
                                        '    depth > 1 or _known_keys(obj, ("kind", "params")'),
    # the fused Γ operations and sampler of the float groups
    "fused-oplus-unclamped": (LG, "            s1 = y0 * x[1] + y[1]\n            d = s0 - u0\n",
                              "            s1 = y0 * x[1] + y[1]\n            return (s0, s1)\n"),
    "fused-odot-zero-clamp-dropped": (LG, "            d = s0 - 1.0\n", "            return (s0, s1)\n"),
    "fused-sampler-meet-tie-flipped": (LG, "return (x0, x1) if d < -t or x1 - u1 < -t else unit",
                                       "return (x0, x1) if d < -t or u1 - x1 < -t else unit"),
    # the symmetry fact, which a noncentral unit decides only when strong
    "symmetric-ignores-strong-unit": ("src/pseudomv/cli.py", "        if group.strong_unit(unit):\n",
                                      "        if True:\n"),
    "heis-strong-unit-nonnegative": (LG, "return u[0][0] > 0", "return u[0][0] >= 0"),
    # the finite tables' inline index tests, shared axiom report, row-wise
    # A1, product by index arithmetic and brute force read off the tables
    "inline-guard-drops-lower-bound": (FN, "        if type(x) is int and 0 <= x < n and type(y) is int and 0 <= y < n:\n"
                                           "            return self._op[x][y]",
                                       "        if type(x) is int and x < n and type(y) is int and 0 <= y < n:\n"
                                       "            return self._op[x][y]"),
    "axiom-report-recomputed": (FN, "        return self._axioms\n", "        return FinitePMV._axioms.func(self)\n"),
    "a1-against-wrong-row": (FN, "left, right = op[row[y]], cols[y](row)", "left, right = op[row[y]], cols[x](row)"),
    "product-index-transposed": (FN, "for p in ta.oplus[i] for q in tb.oplus[j]",
                                 "for q in tb.oplus[j] for p in ta.oplus[i]"),
    "product-neg-from-tilde": (FN, "neg=tuple(ta.neg[i] * nb + tb.neg[j] for i, j in cells)",
                               "neg=tuple(ta.tilde[i] * nb + tb.tilde[j] for i, j in cells)"),
    "brute-force-leq-reversed": (FN, "if mt[zz][x] == zz]", "if mt[zz][x] == x]"),
    # the fused Γ kernels of the exact groups: a ℚ ⊕ that clamps only past
    # u (a tie then reads as below u to a lex head), a Heisenberg ⊙ that
    # exits on the wrong sign, and a lex ⊕ whose head tie skips the tail's
    # clamp
    "fused-rational-oplus-tie-below": (FU, "            c = n * ud - un * d\n            if c < 0:\n",
                                       "            c = n * ud - un * d\n            if c <= 0:\n"),
    "fused-heis-odot-exit-sign": (FU, "            if s0 < 0 and clamp:\n",
                                  "            if s0 > 0 and clamp:\n"),
    "fused-lex-tie-skips-tail-clamp": (FU, "            s = t_cap(xt, yt)\n            if s is None:\n                return over\n",
                                       "            s = t_add(xt, yt)\n            if s is None:\n                return over\n"),
    "negation-compat-drops-tilde": ("src/pseudomv/roots.py",
                                    "and algebra.eq(root(algebra.tilde(x)), algebra.snake(rx, r0)))",
                                    "and True)"),
}


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def apply(dest: Path, mutant: tuple[str, str, str]) -> None:
    path, old, new = mutant
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


def run_suite(runs: Runs, tree: Path, maxfail: int) -> tuple[set[str] | None, float]:
    """The ids of the tests that failed or erred on ``tree`` (None when the
    run was cut by the time bound or by ``runs.halt``), and the seconds it
    took."""
    report = tree / "junit.xml"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", f"--maxfail={maxfail}", "-q",
            "--continue-on-collection-errors", "-p", "no:cacheprovider", f"--junitxml={report}"]
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
            failed.add(f"{case.get('classname')}::{case.get('name')}")
    return failed, seconds


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
                failed, seconds = run_suite(runs, trees[name], len(baseline) + 1)
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
