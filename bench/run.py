"""The pseudomv benchmark: time to a verdict, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload gamma-exact --seed 1 --seconds 30 --trace 0

One process per run, one client, closed loop: each CLI operation is passed
to ``pseudomv.cli.main(argv)`` only after the previous one has returned.
Inputs come from the seed (see ``workloads.py``), and every verdict is
checked against the template's expected answer.  ``--trace 0`` measures
the end-to-end metrics, with every time scaled to a reference machine
speed by the calibration bursts of ``speed.py``; ``--trace 1`` measures the
same loop untraced, then replays its first cycle under the tracer for the
per-layer metrics.  The last line of stdout is one JSON object; the lines
before it name every metric with its unit.  Exit status is 1 when a
verdict is wrong or missing (outside the templates known to fail at this
commit), 2 on a usage error or when no library sources sit next to
``bench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, SpeedClock
from tracing import Tracer
from workloads import ERRORS, FAILED, KNOWN_RED, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Fresh interpreters started, one after another, to time set-up.
SETUP_REPEATS = 11
#: Cycles replayed under the tracer; fixed so that counts repeat exactly.
TRACE_CYCLES = 1

SETUP_SNIPPET = (
    "import sys\n"
    "from pseudomv.cli import load_algebra\n"
    "from pseudomv.core import SamplerConfig\n"
    "load_algebra(sys.argv[1], SamplerConfig(), 1e-9)\n"
)

END_TO_END = {   # name -> unit
    "setup_s": "s", "verdict_p50_s": "s", "verdict_tail_s": "s",
    "ops_per_s": "1/s", "peak_rss_mb": "MB",
}


def run_op(cli_main, op):
    """One closed-loop call: (exit code or None on a traceback, stdout,
    stderr, seconds from argv to report bytes)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(op.argv)
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


class Ledger:
    """Outcomes and latencies of the operations run so far."""

    def __init__(self):
        self.rows = []    # (cycle, template, outcome, seconds, start)

    def add(self, cycle, op, outcome, seconds, start):
        self.rows.append((cycle, op.template, outcome, seconds, start))

    def count(self, outcomes):
        return sum(r[2] in outcomes for r in self.rows)

    def templates(self, outcomes):
        return ", ".join(sorted({r[1] for r in self.rows if r[2] in outcomes})) or "-"

    def busy(self, cycles=None):
        return sum(r[3] for r in self.rows if cycles is None or r[0] < cycles)

    def scaled(self, clock):
        """(cycle, seconds at the reference speed) of every operation."""
        return [(r[0], clock.scale(r[3], r[4])) for r in self.rows]


def run_cycles(cli_main, workload, ledger, seconds=None, cycles=None, hook=None,
               between=None, clock=None):
    """Run whole cycles until ``seconds`` have passed (and at least
    ``TRACE_CYCLES`` cycles), or exactly ``cycles`` cycles.  ``between`` is
    called after each cycle with the seconds elapsed so far; ``clock`` gets
    a tick before each operation."""
    start = perf_counter()
    k = 0
    while (k < cycles) if cycles is not None else (
            k < TRACE_CYCLES or perf_counter() - start < seconds):
        for op in workload.cycle(k):
            if clock:
                clock.tick()
            op_start = perf_counter()
            code, out, err, dt = hook(op) if hook else run_op(cli_main, op)
            outcome = op.judge(code, out, err)
            if outcome in ERRORS:
                print(f"{outcome}: {op.template} {' '.join(op.argv)} -> exit {code}\n"
                      f"{err[-2000:]}", file=sys.stderr)
            ledger.add(k, op, outcome, dt, op_start)
        k += 1
        if between:
            between(perf_counter() - start)
    return k


def tail(latencies):
    """(percentile, value): the highest whole percentile with at least ten
    samples above it, by nearest rank."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 0, xs[0]


class SetupClock:
    """Times a fresh interpreter importing ``pseudomv.cli`` and loading the
    workload's first input.  :meth:`between` spreads the repeats evenly
    over the measured run, between cycles, so that they see the same
    machine as the operations."""

    def __init__(self, first_input, seconds, clock):
        self.first_input, self.seconds, self.clock = first_input, seconds, clock
        self.times = []   # (seconds, start)
        self.env = {k: v for k, v in os.environ.items() if k != "PMV_SEED"}
        self.env["PYTHONPATH"] = str(SRC) + os.pathsep + self.env.get("PYTHONPATH", "")

    def measure(self):
        self.clock.measure()
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, self.first_input],
                              env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120)
        self.times.append((perf_counter() - start, start))
        self.clock.measure()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.decode()[-2000:]}")

    def between(self, elapsed):
        due = len(self.times) * self.seconds / SETUP_REPEATS
        if len(self.times) < SETUP_REPEATS and elapsed >= due:
            self.measure()

    def median(self):
        """(raw median, median at the reference speed)."""
        while len(self.times) < SETUP_REPEATS:
            self.measure()
        return (statistics.median(t for t, _ in self.times),
                statistics.median(self.clock.scale(t, s) for t, s in self.times))


def line(name, value, unit, note=""):
    print(f"{name:<28} {value:>14.6g} {unit:<9} {note}".rstrip())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pseudomv" / "cli.py").is_file():
        print(f"error: no library sources at {SRC}; run from a pseudomv checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one vCPU for the loop, the calibration bursts and the set-up
    # interpreters (which inherit it), so that all three see the same machine
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ.pop("PMV_SEED", None)   # the CLI would let it override --seed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_build" / f"pmvbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = perf_counter()
        import pseudomv.cli as cli
        import_s = perf_counter() - start

        workload = Workload(args.workload, args.seed, workdir)
        first_cycle = workload.cycle(0)
        first = first_cycle[0]

        # warm-up, and the same-seed repeat that must be byte-identical
        warm_code, warm_out, _, _ = run_op(cli.main, first)

        setup = clock = None
        if not args.trace:
            clock = SpeedClock()
            clock.measure()
            setup = SetupClock(next(op.argv[1] for op in first_cycle
                                    if op.argv[0] in ("analyze", "ladder", "quotient")),
                               args.seconds, clock)
        ledger = Ledger()
        start = perf_counter()
        cycles = run_cycles(cli.main, workload, ledger, seconds=args.seconds,
                            between=setup and setup.between, clock=clock)
        wall = perf_counter() - start
        repeat_code, repeat_out, _, _ = run_op(cli.main, first)
        byte_mismatch = int((warm_code, warm_out) != (repeat_code, repeat_out))

        attempted = len(ledger.rows)
        failed = ledger.count(FAILED)
        errors = ledger.count(ERRORS) + byte_mismatch
        per_cycle = attempted // cycles
        print(f"workload {args.workload}  seed {args.seed}  measured {wall:.1f} s  "
              f"cycles {cycles} x {per_cycle} ops  closed loop, 1 client")

        if args.trace:
            metrics = traced_metrics(cli, workload, ledger, import_s, args)
            errors += metrics.pop("_errors")
        else:
            # Every operation counts, whatever its outcome: an input that
            # starts to get a verdict stays in the same place in the pool.
            clock.measure()
            scaled = ledger.scaled(clock)
            latencies = [s for _, s in scaled]
            cycle_times = [0.0] * cycles
            for k, s in scaled:
                cycle_times[k] += s
            raw = [r[3] for r in ledger.rows]
            pct, tail_value = tail(latencies)
            setup_raw, setup_scaled = setup.median()
            metrics = {
                "setup_s": setup_scaled,
                "verdict_p50_s": statistics.median(latencies),
                "verdict_tail_s": tail_value,
                "ops_per_s": per_cycle / statistics.median(cycle_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            notes = {
                "setup_s": f"median of {SETUP_REPEATS} fresh interpreters; raw {setup_raw:.4g} s",
                "verdict_p50_s": f"median, n={attempted}; raw {statistics.median(raw):.4g} s",
                "verdict_tail_s": f"p{pct}, n={attempted}; raw {tail(raw)[1]:.4g} s",
                "ops_per_s": f"{per_cycle} ops per cycle / median busy time of {cycles} cycles",
                "peak_rss_mb": "ru_maxrss of this process",
            }
            bursts = [b / REFERENCE_S for b in clock.lengths]
            print(f"machine speed: {len(bursts)} calibration bursts took {statistics.median(bursts):.3f}x "
                  f"the reference time (min {min(bursts):.3f}x, max {max(bursts):.3f}x); "
                  f"times below are scaled to the reference")
            for name, unit in END_TO_END.items():
                line(name, metrics[name], unit, notes[name])
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        line("failed_ratio", failed / attempted, "ratio",
             f"{failed} of {attempted} gave no verdict: {ledger.templates(FAILED)}")
        line("known_red", ledger.count({KNOWN_RED}), "count",
             f"gated verdicts showing a known ungated defect: {ledger.templates({KNOWN_RED})}")
        line("verdict_errors", errors, "count",
             f"wrong or unexpectedly missing, incl. same-seed repeat "
             f"{'differs' if byte_mismatch else 'identical'}")
        print(json.dumps({"correct": errors == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}, sort_keys=True))
        return 0 if errors == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def trace_replay(cli, workload):
    """Replay the first ``TRACE_CYCLES`` cycles of ``workload`` under a fresh
    tracer; return the tracer and the replay's ledger."""
    tracer = Tracer()
    uninstall = tracer.install()
    traced = Ledger()

    def hook(op):
        tracer.begin_op()
        return tracer.timed(f"op:{op.argv[0]}", run_op, cli.main, op)

    try:
        run_cycles(cli.main, workload, traced, cycles=TRACE_CYCLES, hook=hook)
    finally:
        uninstall()
    return tracer, traced


def layer_metrics(tracer, overhead_s, import_s):
    """Every per-layer metric: name -> (value, unit).  Times are totals over
    the replay, inclusive for ``*_s`` of a call and self time for
    ``*.self_s``; counts are exact."""
    calls, self_s, incl = tracer.calls, tracer.self_time, tracer.incl
    leq_calls, leq_ops = tracer.gamma_cost["leq"]
    odot_calls, odot_ops = tracer.gamma_cost["odot"]
    evals = calls["roots.eval"]
    return {
        "lgroups.ops": (tracer.group_ops["total"], "count"),
        "lgroups.self_s": (self_s["lgroups.op"], "s"),
        "lgroups.sample_s": (incl["lgroups.sample"], "s"),
        "gamma.prim_calls": (calls["gamma.prim"], "count"),
        "gamma.prim_self_s": (self_s["gamma.prim"], "s"),
        "gamma.ops_per_leq": (leq_ops / leq_calls if leq_calls else 0.0, "ops/call"),
        "gamma.ops_per_odot": (odot_ops / odot_calls if odot_calls else 0.0, "ops/call"),
        "core.derived_calls": (calls["core.derived"], "count"),
        "core.derived_self_s": (self_s["core.derived"], "s"),
        "core.check_axioms_s": (incl["core.check_axioms"], "s"),
        "roots.root_evals": (evals, "count"),
        "roots.root_distinct_ratio": (tracer.root_distinct / evals if evals else 0.0, "ratio"),
        "roots.verify_s": (incl["roots.verify"], "s"),
        "roots.decompose_s": (incl["roots.decompose"], "s"),
        "roots.properties_s": (incl["roots.properties"], "s"),
        "roots.ladder_s": (incl["roots.ladder"], "s"),
        "finite.check_axioms_s": (incl["finite.check_axioms"], "s"),
        "finite.table_calls": (calls["finite.table"], "count"),
        "finite.table_self_s": (self_s["finite.table"], "s"),
        "finite.brute_force_s": (incl["finite.brute_force"], "s"),
        "finite.search_s": (incl["finite.search"], "s"),
        "ideals.enumerate_s": (incl["ideals.enumerate"], "s"),
        "ideals.classify_calls": (calls["ideals.classify"], "count"),
        "ideals.quotient_s": (incl["ideals.quotient"], "s"),
        "ideals.representable_s": (incl["ideals.representable"], "s"),
        "ideals.atomless_s": (incl["ideals.atomless"], "s"),
        "counterexamples.verdicts_s": (incl["counterexamples.verdicts"], "s"),
        "cli.import_s": (import_s, "s"),
        "cli.load_s": (incl["cli.load"], "s"),
        "cli.render_s": (incl["cli.render"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def traced_metrics(cli, workload, untraced, import_s, args):
    """Print every per-layer metric, write the spans next to the build
    outputs, and return the ``per_layer`` metrics of ``BENCHMARK.json``
    plus the replay's error count under ``_errors``."""
    tracer, traced = trace_replay(cli, workload)
    overhead = traced.busy() - untraced.busy(TRACE_CYCLES)
    values = layer_metrics(tracer, overhead, import_s)
    print(f"traced replay: {TRACE_CYCLES} cycle(s), {len(traced.rows)} ops; "
          f"times are totals over the replay")
    for name, (value, unit) in values.items():
        line(name, value, unit)
    out = ROOT / ".bench_build" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(out, {"metrics": {k: v[0] for k, v in values.items()}})
    print(f"spans written to {out.relative_to(ROOT)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = {m["name"]: {"value": values[m["name"]][0], "unit": values[m["name"]][1]}
              for m in spec["per_layer"]}
    result["_errors"] = traced.count(ERRORS)
    return result


if __name__ == "__main__":
    sys.exit(main())
