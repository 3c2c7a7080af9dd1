"""Tests of the benchmark itself: seeded inputs, exact counts, checks, wrappers.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

EXACT = [
    name
    for name in run.PER_LAYER_UNITS
    if name.endswith(".calls") or name in ("jacobi.events", "jacobi.expm_per_event")
]


def bench(*args, cwd=ROOT) -> tuple[int, list[str], str]:
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=cwd,
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def result(lines: list[str]) -> dict:
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_items_depend_only_on_the_seed(workload):
    first = workloads.make_items(workload, 7)
    assert first == workloads.make_items(workload, 7)
    assert first != workloads.make_items(workload, 8)
    for item in first:
        assert item.kind == "pinching" or workloads.THETA_MIN <= item.theta <= math.pi / 2
        assert item.s is None or workloads.S_MIN <= item.s <= 1.0
        assert workloads.KAPPA_MIN <= item.kappa <= workloads.KAPPA_MAX


@pytest.mark.parametrize("workload", ["conj-mix", "pinching"])
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        code, out, err = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                               "--trace", "1", "--items", "2")
        assert code == 0, err
        doc = result(out)
        assert doc["correct"] and doc["failed"] == 0
        assert list(doc["metrics"]) == list(run.PER_LAYER_UNITS)
        runs.append({name: doc["metrics"][name]["value"] for name in EXACT})
    assert runs[0] == runs[1]
    assert runs[0]["catalog.build_space.calls"] > 0
    if workload == "conj-mix":
        assert runs[0]["jacobi.expm.calls"] > 0 and runs[0]["jacobi.events"] > 0
    else:
        assert runs[0]["pinching.estimate_pinching.calls"] == 2
        assert runs[0]["jacobi.expm.calls"] == 0


def test_untraced_run_reports_end_to_end_metrics_without_wrappers():
    code, out, err = bench("--workload", "conj-mix", "--seed", "0", "--seconds", "1",
                           "--items", "2")
    assert code == 0, err
    doc = result(out)
    assert list(doc["metrics"]) == list(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    assert doc["attempted"] >= 2 * run.MIN_PASSES and doc["attempted"] % 2 == 0
    assert "benchmark wrappers installed during the timed phase: 0" in err
    assert "reference: bench/reference/conj-mix-seed0.json" in err


def test_tracer_restores_every_binding():
    hg = run.import_library()
    before = hg.cross_validate, hg.closed_form.scan_conjugate_times, hg.jacobi.fundamental_block
    tracer = spans.Tracer()
    with tracer:
        assert spans.installed_wrappers() > len(spans.LAYERS)
        assert hg.cross_validate is not before[0]
        space = hg.build_space("berger:m=1,s=0.5,kappa=1")
    assert spans.installed_wrappers() == 0
    assert (hg.cross_validate, hg.closed_form.scan_conjugate_times,
            hg.jacobi.fundamental_block) == before
    assert space is hg.build_space("berger:m=1,s=0.5,kappa=1")
    assert tracer.summary()["catalog.build_space"]["calls"] == 1


def test_reference_check_uses_the_time_tolerance():
    reference = workloads.load_reference("conj-b13", 0)
    ref = reference[0]
    item = workloads.Item(**ref["item"])
    out = json.loads(json.dumps(ref["output"]))
    assert workloads.check_reference(item, out, reference, 0) == []
    assert workloads.check_reference(item, out, reference, 1)
    out["events"][0][0] += 0.5 * workloads.T_ATOL
    assert workloads.check_reference(item, out, reference, 0) == []
    out["events"][0][0] += 2 * workloads.T_ATOL
    assert workloads.check_reference(item, out, reference, 0)
    out = json.loads(json.dumps(ref["output"]))
    out["events"][0][1] += 1
    assert workloads.check_reference(item, out, reference, 0)


def test_closed_form_check_catches_a_wrong_lambda_and_delta():
    ref = workloads.load_reference("conj-b13", 0)[0]
    item = workloads.Item(**ref["item"])
    out = dict(ref["output"], lam=ref["output"]["lam"] * (1 + 1e-8))
    assert workloads.check_closed_forms(item, ref["output"]) == []
    assert workloads.check_closed_forms(item, out)
    pin = workloads.load_reference("pinching", 0)
    b13 = next(r for r in pin if r["item"]["family"] == "b13")
    item = workloads.Item(**b13["item"])
    assert workloads.check_closed_forms(item, b13["output"]) == []
    assert workloads.check_closed_forms(item, dict(b13["output"], k_min=4.01))
    small = pin[0]
    item = workloads.Item(**small["item"])
    assert workloads.check_closed_forms(item, small["output"]) == []
    wrong = dict(small["output"], delta=small["output"]["expected_delta"] * 1.02)
    assert workloads.check_closed_forms(item, wrong)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out, err = bench("--workload", "conj-b13", "--seed", "0", "--seconds", "1",
                           "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in out)
    assert "homogeodesy" in err
