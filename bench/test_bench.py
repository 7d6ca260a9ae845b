"""Tests of the benchmark itself: the operation-count anchors, exact repeats
of every count, the correctness gate, the seeded generator, and the
benchmark's own table model.

Run from the root of a checkout::

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pseudomv as pmv  # noqa: E402
import pseudomv.cli as cli  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from run import layer_metrics, tail, trace_replay  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_anchor_costs_on_lex_heis():
    tracer = Tracer()
    uninstall = tracer.install()
    try:
        m = pmv.gamma(pmv.LexProduct(pmv.RationalGroup(), pmv.HeisenbergGroup()),
                      (F(1), (F(0), F(0), F(0))))
        x = (F(1, 3), (F(1, 2), F(-1), F(2)))
        y = (F(2, 3), (F(-1, 4), F(3), F(0)))
        before = tracer.group_ops["total"]
        m.leq(x, y)
        leq_cost = tracer.group_ops["total"] - before
        before = tracer.group_ops["total"]
        m.odot(x, y)
        odot_cost = tracer.group_ops["total"] - before
    finally:
        uninstall()
    assert (leq_cost, odot_cost) == (13, 8)
    assert tracer.gamma_cost["leq"] == [1, 13] and tracer.gamma_cost["odot"][1] == 8 * tracer.gamma_cost["odot"][0]


def test_an_overriding_leq_is_still_traced(monkeypatch):
    # a native lattice order on Γ should read as one group op per ≤
    monkeypatch.setattr(pmv.GammaPMV, "leq", lambda self, x, y: self.group.leq(x, y),
                        raising=False)
    tracer = Tracer()
    uninstall = tracer.install()
    try:
        m = pmv.gamma(pmv.RationalGroup(), F(1))
        m.leq(F(1, 3), F(1, 2))
    finally:
        uninstall()
    assert tracer.gamma_cost["leq"] == [1, 1]


def test_uninstall_restores_the_library():
    originals = (pmv.PseudoMV.leq, pmv.GammaPMV.__init__, cli.load_algebra, pmv.roots.verify)
    Tracer().install()()
    assert (pmv.PseudoMV.leq, pmv.GammaPMV.__init__, cli.load_algebra, pmv.roots.verify) == originals


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_and_verdicts_hold(name, tmp_path):
    runs = []
    for _ in range(2):
        tracer, ledger = trace_replay(cli, workloads.Workload(name, 7, tmp_path))
        assert ledger.count(workloads.ERRORS) == 0
        runs.append({k: v for k, (v, unit) in layer_metrics(tracer, 0.0, 0.0).items()
                     if unit != "s"})
    assert runs[0] == runs[1]
    if name != "finite-catalogue":
        assert runs[0]["gamma.ops_per_leq"] == 13 and runs[0]["gamma.ops_per_odot"] == 8


def _raises(argv):
    raise RuntimeError("stub")


def _exits_with_error(argv):
    print("error: stub", file=sys.stderr)
    return 4


@pytest.mark.parametrize("name, stub", [("gamma-exact", _raises),
                                        ("float-numeric", _exits_with_error)])
def test_a_run_without_verdicts_fails(name, stub, monkeypatch, capsys):
    # gamma-exact's known-failing templates must not excuse the others
    monkeypatch.setattr(cli, "main", stub)
    code = run.main(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_judge_exempts_only_known_failures():
    holds = lambda code, out, err: True
    assert workloads.Op("t", [], holds).judge(3, "", "error: x") in workloads.ERRORS
    known = workloads.Op("t", [], holds, known_failing=True).judge(3, "", "error: x")
    assert known in workloads.FAILED and known not in workloads.ERRORS
    red = workloads.Op("t", [], holds, known_red=holds).judge(0, "{}", "")
    assert red == workloads.KNOWN_RED and red not in workloads.ERRORS | workloads.FAILED


def test_generator_is_seeded(tmp_path):
    def snapshot(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        ops = workloads.Workload("gamma-exact", seed, d).cycle(3)
        return [(op.argv[0], op.argv[2:], Path(op.argv[1]).read_text()) for op in ops]

    first = snapshot(5, "a")
    assert first == snapshot(5, "b")
    assert first != snapshot(6, "c")


@pytest.mark.parametrize("spec", [
    workloads.spec("chain", 4),
    workloads.spec("boolean", 3),
    workloads.spec("product", workloads.spec("chain", 2), workloads.spec("boolean", 2)),
    workloads.spec("interval", workloads.spec("product", workloads.spec("chain", 3),
                                              workloads.spec("boolean", 1)), 6),
])
def test_own_tables_number_elements_like_the_catalogue(spec):
    ours = workloads.build(spec)
    theirs = pmv.build_catalogue(cli.parse_catalogue(spec)).table
    assert (ours.oplus, ours.neg, ours.tilde, ours.zero, ours.one) == (
        theirs.oplus, theirs.neg, theirs.tilde, theirs.zero, theirs.one)


def test_permuted_table_is_isomorphic():
    t = workloads.build(workloads.spec("product", workloads.spec("chain", 2),
                                       workloads.spec("boolean", 1)))
    perm = [3, 0, 5, 1, 4, 2]
    p = workloads.permute(t, perm)
    assert all(p.oplus[perm[x]][perm[y]] == perm[t.oplus[x][y]]
               for x in range(t.n) for y in range(t.n))
    assert (p.zero, p.one) == (perm[t.zero], perm[t.one])


def test_tail_percentile_keeps_ten_samples_above():
    assert tail(list(range(1, 101))) == (90, 90)
    assert tail(list(range(1, 201))) == (95, 190)


def test_speed_clock_scales_by_the_bursts_around_an_operation():
    clock = speed.SpeedClock()
    clock.times = [i / 10 for i in range(100)]
    clock.lengths = [speed.REFERENCE_S * (1 if i < 50 else 2) for i in range(100)]
    assert clock.scale(0.1, 1.0) == pytest.approx(0.1)
    assert clock.scale(0.1, 8.0) == pytest.approx(0.05)
