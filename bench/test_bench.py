"""Self-checks of the benchmark: tracer counts, zero-call layers, contract.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from cohdiff import ccdc, pcs, poly, polymap, rewrite, semantics  # noqa: E402

COUNTED = {
    "polymap.compose": polymap.compose,
    "polymap.differential": polymap.differential,
    "pcs.certify": pcs.PcsInstance.certify,
    "rewrite.normalize": rewrite.normalize,
}


def _short_theorems():
    inputs = workloads.theorems_setup(1)
    inputs.order = inputs.order[:12]
    return workloads.theorems_verdict(inputs, workloads.Items())


SHORT = {
    "axioms-pcs": lambda: workloads.axioms_verdict(
        workloads.axioms_setup("pcs", 3), workloads.Items()),
    "axioms-poly": lambda: workloads.axioms_verdict(
        workloads.axioms_setup("poly", 3), workloads.Items()),
    "theorems": _short_theorems,
    "frontend": lambda: workloads.frontend_verdict(
        workloads.frontend_setup(3), workloads.Items()),
}


def _traced(run):
    tracer = tracing.Tracer().install()
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer


def _profiled_calls(run) -> dict[str, int]:
    profile = cProfile.Profile()
    profile.runcall(run)
    stats = pstats.Stats(profile).stats
    out = {}
    for name, fn in COUNTED.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        out[name] = stats[key][1] if key in stats else 0
    return out


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_wrapper_counts_equal_cprofile(workload):
    run = SHORT[workload]
    expected = _profiled_calls(run)
    totals = _traced(run).totals()
    got = {name: int(totals.get(name, {"calls": 0})["calls"]) for name in COUNTED}
    assert got == expected


def test_layers_a_workload_must_not_reach():
    frontend = tracing.layer_metrics(_traced(SHORT["frontend"]))
    assert frontend["polymap.compose.calls"][0] == 0
    assert frontend["pcs.certify.calls"][0] == 0
    assert frontend["rewrite.normalize.calls"][0] > 0
    poly = tracing.layer_metrics(_traced(SHORT["axioms-poly"]))
    assert poly["pcs.certify.calls"][0] == 0
    assert poly["polymap.compose.calls"][0] > 0
    assert poly["poly.pair_witness.calls"][0] > 0


def test_uninstall_restores_every_binding():
    def bindings():
        return (polymap.compose, semantics.normalize, semantics.interp_term,
                dict(vars(pcs.PcsInstance)), dict(vars(poly.PolyInstance)),
                list(ccdc.ALL_LAWS))

    before = bindings()
    _traced(lambda: None)
    assert bindings() == before


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    names = list(tracing.layer_metrics(tracing.Tracer()))
    names += [f"cli.{c}.s" for c in ("check", "diff", "reduce", "eval")]
    names += ["cli.import_s", "trace.overhead"]
    assert sorted(per_layer) == sorted(names)

    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "frontend", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 200
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "frontend", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
