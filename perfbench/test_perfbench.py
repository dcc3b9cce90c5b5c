"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
import spec
from corpus import ARITH, DECOMPOSE, INSTANCES, SPLITTING, make_ops
from harness import Result, Runner, load_cli
from spans import Tracer

CLI = load_cli()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _runner(budget=spec.OP_BUDGET_S):
    return Runner(CLI, budget, time.perf_counter() + 120)


def _cheap(workload, k=6):
    """A smoke slice: the first k ops on small instances."""
    return [op for op in make_ops(workload, 7) if op.inst.n <= 4 and op.inst.p < 50][:k]


# -- the records ----------------------------------------------------------


def test_benchmark_json_and_record_are_generated_from_spec():
    assert json.loads(spec.BENCHMARK_JSON.read_text()) == spec.benchmark_json()
    assert json.loads(spec.RECORD_JSON.read_text()) == spec.record_json()


def test_benchmark_json_keeps_the_contract_limits():
    b = spec.benchmark_json()
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= b["run_seconds"] <= 60 and 2 <= len(b["workloads"]) <= 8
    names = [m["name"] for m in b["end_to_end"] + b["per_layer"]] + [w["name"] for w in b["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in b["workloads"])
    assert all(UNIT.match(m["unit"]) for m in b["end_to_end"] + b["per_layer"])
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    assert all(0 < v <= 0.25 for v in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= len(b["per_layer"]) <= 128
    assert set(spec.WORKLOADS) == set(INSTANCES)


def test_layer_map_covers_every_per_layer_metric_once():
    listed = [m for g in spec.record_json()["layer_map"] for m in g["metrics"]]
    assert sorted(listed) == sorted(n for n, _, _ in spec.PER_LAYER)
    e2e = {n for n, _, _, _ in spec.END_TO_END}
    for g in spec.LAYER_GROUPS:
        assert set(g["moves"]) <= e2e
        assert set(g["on"]) | set(g["no_change_on"]) <= set(spec.WORKLOADS)


# -- pinned answers against an independent oracle --------------------------


def _sympy_poly(text):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    expr = sympy.sympify(re.sub(r"(\d)x", r"\1*x", text).replace("^", "**"), locals={"x": x})
    return sympy.Poly(expr, x, domain=sympy.ZZ), x


def _vp(n, p):
    n, k = abs(int(n)), 0
    while n % p == 0:
        n, k = n // p, k + 1
    return k


@pytest.mark.parametrize("inst", DECOMPOSE + SPLITTING + ARITH,
                         ids=lambda i: f"{i.poly}@{i.p}")
def test_pinned_answers_agree_with_sympy(inst):
    poly, x = _sympy_poly(inst.poly)
    from sympy import discriminant, resultant
    from sympy.polys.numberfields.basis import round_two
    from sympy.polys.numberfields.primes import prime_decomp

    assert poly.is_irreducible
    assert poly.degree() == inst.n
    zk, dk = round_two(poly)
    primes = prime_decomp(inst.p, poly, dK=dk, ZK=zk)
    assert tuple(sorted((P.e, P.f) for P in primes)) == inst.ef
    if inst.index_val is not None:
        assert (_vp(discriminant(poly), inst.p) - _vp(dk, inst.p)) // 2 == inst.index_val
    for coeffs, vnorm in inst.pool:
        u = sum(c * x**k for k, c in enumerate(coeffs))
        assert _vp(resultant(poly.as_expr(), u, x), inst.p) == vnorm


def test_arith_instances_have_equal_residue_degrees_and_unit_pool_elements():
    for inst in ARITH:
        assert len({f for _, f in inst.ef}) == 1
        assert sum(1 for _, v in inst.pool if v == 0) >= 2


# -- generator -------------------------------------------------------------


def test_same_seed_same_ops_and_seed_changes_arith():
    for w in spec.WORKLOADS:
        assert [o.argv for o in make_ops(w, 3)] == [o.argv for o in make_ops(w, 3)]
    assert [o.argv for o in make_ops("arith", 3)] != [o.argv for o in make_ops("arith", 4)]
    assert sorted(o.argv for o in make_ops("splitting", 3)) == sorted(
        o.argv for o in make_ops("splitting", 4))


# -- harness ---------------------------------------------------------------


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_slice_passes_its_checks(workload):
    ops = _cheap(workload)
    assert ops
    results, _ = _runner().run_pass(ops)
    assert [r.error for r in results] == [None] * len(ops)
    assert all(r.seconds > 0 for r in results)


def _first(workload, command):
    return next(o for o in make_ops(workload, 7) if o.command == command and o.inst.n <= 4)


@pytest.mark.parametrize("command,wrong", [
    ("extensions", lambda op: dataclasses.replace(
        op, inst=dataclasses.replace(op.inst, ef=((op.inst.n, 1),) if len(op.inst.ef) > 1
                                     else ((1, 1),) * op.inst.n))),
    ("order", lambda op: dataclasses.replace(
        op, inst=dataclasses.replace(op.inst, index_val=op.inst.index_val + 1))),
    ("value", lambda op: dataclasses.replace(op, expect={"vnorm": op.expect["vnorm"] + 1})),
    ("residue", lambda op: dataclasses.replace(op, expect={"zero": not op.expect["zero"]})),
    ("weak-approx", lambda op: dataclasses.replace(
        op, expect={"targets": [[(c + 1) % op.inst.p for c in t] for t in op.expect["targets"]]})),
    ("approx", lambda op: dataclasses.replace(
        op, expect={**op.expect, "gamma": op.expect["gamma"] + 1})),
])
def test_wrong_expected_answer_counts_as_failure(command, wrong):
    workload = {"extensions": "decompose", "order": "decompose"}.get(command, "arith")
    op = _first(workload, command)
    good, bad = _runner().run_pass([op, wrong(op)])[0]
    assert good.error is None
    assert bad.error and bad.stdout == good.stdout


def test_usage_errors_exceptions_and_hangs_count_as_failures(monkeypatch):
    op = _first("arith", "approx")
    bad_flag = dataclasses.replace(op, argv=op.argv + ("--no-such-flag",))
    slow = next(o for o in make_ops("splitting", 1) if o.argv[2:5] == ("211", "--poly", "x^2+1"))
    results, _ = _runner(budget=0.05).run_pass([bad_flag, slow])
    assert results[0].error.startswith("exit 2")
    assert results[1].error.startswith("timeout")

    def boom(*args, **kwargs):
        raise AssertionError("internal invariant broken")

    monkeypatch.setattr(CLI, "run_command", boom)
    (result,), _ = _runner().run_pass([op])
    assert result.error == "AssertionError: internal invariant broken"


def test_reference_scaling_divides_each_op_by_its_reference():
    op = _first("arith", "value")
    ref = spec.REFERENCE_S
    results = [Result(op, 0.010, "", None, 0, 2 * ref), Result(op, 0.030, "", None, 0, ref),
               Result(op, None, "", "not run: hard deadline reached")]
    throughput, p50, _ = run._speed(results, scaled=True)
    assert p50 == pytest.approx(17.5) and throughput == pytest.approx(2 / 0.035)
    throughput, p50, _ = run._speed(results, scaled=False)
    assert p50 == pytest.approx(20.0) and throughput == pytest.approx(2 / 0.040)


def test_deadline_marks_remaining_ops_as_failed():
    runner = Runner(CLI, 30, time.perf_counter() - 1)
    results, _ = runner.run_pass(_cheap("arith", 3))
    assert all(r.seconds is None and r.error.startswith("not run") for r in results)


# -- tracing ---------------------------------------------------------------


def _valext_bindings():
    mods = [m for k, m in sys.modules.items() if k == "valext" or k.startswith("valext.")]
    return {(id(m), k): v for m in mods for k, v in vars(m).items()}


def test_tracer_replaces_every_binding_and_restores_them():
    import valext

    before = _valext_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        originals = {id(orig) for _, _, orig in tracer._undo}
        assert not [k for k, v in _valext_bindings().items() if id(v) in originals]
        assert all(vars(owner)[key] is not orig
                   for owner, key, orig in tracer._undo if isinstance(owner, type))
        assert valext.extensions.split_reduced is valext.fpalgebra.split_reduced
        assert valext.theorems.value is valext.extensions.value
        assert valext.cli.extensions_of is valext.extensions.extensions_of
    finally:
        tracer.uninstall()
    assert _valext_bindings() == before


def test_traced_pass_matches_untraced_output_and_attributes_time():
    ops = _cheap("decompose", 4)
    tracer = Tracer()
    results, overhead, op_s, _ = run.traced(_runner(), tracer, ops, 0)
    assert [r.error for r in results] == [None] * (2 * len(ops))
    m = tracer.layer_metrics([n for n, _, _ in spec.PER_LAYER], overhead)
    assert m["orders.p_maximal_order.calls"] == len(ops)
    assert 0 < m["orders.p_maximal_order.total_s"] <= op_s
    assert m["cli.run_command.total_s"] >= m["orders.p_maximal_order.total_s"]


def _rank_probes():
    ops = [o for o in make_ops("splitting", 5) if o.inst.p in (7, 103)]
    tracer = Tracer()
    run.traced(_runner(), tracer, ops, 0)
    return tracer.layer_metrics(["fpalgebra.split_reduced.rank_probes",
                                 "fpalgebra.split_reduced.components"], 0.0)


def test_split_rank_probes_repeat_exactly():
    first, second = _rank_probes(), _rank_probes()
    assert first == second
    assert first["fpalgebra.split_reduced.rank_probes"] > first["fpalgebra.split_reduced.components"] > 0


# -- the command -----------------------------------------------------------


def _main_json(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(list(argv)) == 0
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, kind):
    lines, out = _main_json("--workload", "arith", "--seed", "2", "--seconds", "0",
                            "--trace", trace)
    declared = {m["name"]: m["unit"] for m in spec.benchmark_json()[kind]}
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(re.match(rf"\s+{re.escape(name)} = \S+ {re.escape(unit)}\b", ln) for ln in lines)
    assert any(ln.strip().startswith("fail_frac = 0 ") for ln in lines)
    if trace == "0":
        assert all(out["metrics"][n]["value"] > 0 for n in declared)


def test_spans_file_holds_properly_nested_spans(tmp_path):
    out = tmp_path / "spans.jsonl"
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(["--workload", "arith", "--seed", "1", "--seconds", "0",
                         "--trace", "1", "--spans", str(out)]) == 0
    spans = [json.loads(line) for line in out.read_text().splitlines()]
    assert {s["name"] for s in spans} >= {"cli.main", "fpalgebra.split_reduced", "linalg.fp_rref"}
    for i, s in enumerate(spans):
        assert s["start"] <= s["end"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert s["parent"] < i and parent["op"] == s["op"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
        else:
            assert s["name"] == "cli.main"


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(spec.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(spec.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "arith", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
