"""Tests of the benchmark itself: python -m pytest perfbench"""
import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pythmod as pm  # noqa: E402
import pythmod.cli  # noqa: E402,F401

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_same_inputs(workload):
    for index in (0, 3):
        assert workloads.make_pass(workload, 7, index) == workloads.make_pass(workload, 7, index)
    assert workloads.make_pass(workload, 7, 0) != workloads.make_pass(workload, 8, 0)


def test_declared_metrics_match_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == spans.PER_LAYER


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_declared(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "closed", "--seed", "1",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert list(result["metrics"]) == list(declared)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def _flagged(kind, inputs):
    """Whether an expsum or circle_closed operation draws the known defect."""
    if kind == "expsum":
        return inputs[4] is None and workloads.unit_required_draw(7, *inputs[:3])
    return kind == "circle_closed" and workloads.unit_required_draw(*inputs[:4])


def test_workloads_leave_out_the_known_defect():
    """No operation of a workload draws (k1, k2) where the closed circle sum
    raises UnitRequired; the defect probe draws only those."""
    for workload in sorted(workloads.GENERATORS):
        assert not any(_flagged(*op) for op in workloads.make_pass(workload, 3, 0))
    for workload in ("expsum", "closed"):
        probe = workloads.defect_probe(workload, 3)
        assert len(probe) == workloads.DEFECT_PROBES and all(_flagged(*op) for op in probe)
    assert workloads.defect_probe("exact", 3) == []


def test_any_raise_is_wrong():
    refs = workloads.Refs(pm)
    check = workloads.KINDS["circle_closed"][2]
    flagged = (7, 4, 7, 1, 1)
    assert workloads.unit_required_draw(7, 4, 7, 1)
    assert check(flagged, {"raised": "UnitRequired"}, refs)[0] == "wrong"
    assert check(flagged, (1.0, 0.0), refs)[0] == "wrong"  # the docstring promises 0
    assert check(flagged, (0.0, 0.0), refs)[0] == "ok"
    exit2 = {"rc": 2, "result": None, "error": "UnitRequired"}
    assert workloads.KINDS["expsum"][2]((4, 7, 1, 1, None), exit2, refs)[0] == "wrong"
    assert workloads.is_known_defect(exit2) and workloads.is_known_defect({"raised": "UnitRequired"})
    assert not workloads.is_known_defect({"raised": "ZeroDivisionError"})
    assert not workloads.is_known_defect({"rc": 2, "result": None, "error": "TooLarge"})


def test_speed_factor_is_reference_over_kernel_median():
    meter = speed.Speed(speed.KERNELS["closed"])
    assert meter.ref_s == speed.REF_S[speed.interpreted] + 2 * speed.REF_S[speed.calls]
    now = speed.perf_counter()
    factor = meter.factors(np.array([now - 0.01]), np.array([now]))[0]
    assert factor == pytest.approx(meter.ref_s / np.median(meter.took))
    assert meter.factor_now() > 0


@pytest.mark.parametrize("p,n,N", workloads.CRITERION_10)
def test_fft_reference_matches_count_smoothed(p, n, N):
    cfg = pm.CountConfig(modulus=pm.PrimePowerModulus(p, n), N=float(N), weight=pm.gaussian(1.0))
    measured = pm.count_smoothed(cfg).measured_T
    assert reference.smoothed_count_fft(p, p**n, N) == pytest.approx(measured, rel=1e-12)


def test_tracer_restores_every_binding():
    before = {name: getattr(pm, name) for name in pm.__all__}
    tracer = spans.Tracer()
    tracer.install(pm)
    try:
        assert pm.jacobi_symbol is not before["jacobi_symbol"]
        assert pm.padic.jacobi_symbol is pm.expsums.jacobi_symbol is pm.jacobi_symbol
        pm.lattice_circle_weight(25, 2, 10.0, pm.gaussian(1.0), 7)
    finally:
        tracer.uninstall()
    assert {name: getattr(pm, name) for name in pm.__all__} == before
    assert tracer.calls["weights.fourier"] > 0 and tracer.calls["padic.jacobi_symbol"] > 0


def test_no_private_names_or_planned_removals():
    """The benchmark uses only exported names, so later changes may delete
    private helpers and the kernel-selection options without breaking it."""
    banned = ["--" + "threads", "--" + "method", "CHUNK" + "_ROWS", "_" + "chunks"]
    for path in HERE.glob("*.py"):
        if path.name == Path(__file__).name:
            continue
        text = path.read_text()
        assert not [b for b in banned if b in text], path.name
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "pm":
                private = node.attr.startswith("_") and not node.attr.endswith("__")
                assert not private, (path.name, node.attr)
