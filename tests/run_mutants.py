"""Mutation gate: each mutant in tests/mutants.json must be caught by its tests.

    python tests/run_mutants.py

A mutant names a file under src/, an exact text that occurs there once, the text
that replaces it, why it must be caught, and its test subset.  The gate first runs
the union of the subsets on an unmutated copy of src/, which must pass, and times
it.  Then, serially and with no process pool, it copies src/ to a temporary
directory, applies one mutant, and runs that mutant's subset with pytest against the
copy.  A mutant is killed when pytest fails, or when its subset runs longer than
TIMEOUT_FACTOR times the unmutated union (a sampler that never stops); the limit
scales with the machine, so a slow runner does not turn a survivor into a kill.
"expect": "killed" mutants must be killed, and neutral ones ("expect": "survives",
a change of no result, such as another basis of the same kernel) must survive, so
that no test pins an incidental bit.  Prints each outcome and the total wall time,
and exits 1 on any mutant that does not do as expected.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "mutants.json"
TIMEOUT_FACTOR = 3  # a subset is at most the union (each takes under half of it), so a run past 3x is a runaway


def run_tests(src: Path, tests: list[str], timeout: float | None = None) -> tuple[int, float]:
    """pytest's exit code on `tests` with the package imported from `src` (-1 past
    `timeout` seconds), and the wall time."""
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        code = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        code = -1
    return code, time.perf_counter() - start


def mutated_copy(tmp: Path, mutant: dict | None) -> Path:
    """A fresh copy of src/ under tmp, with the mutant applied (None: unmutated)."""
    src = tmp / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / mutant["file"]
        text = path.read_text()
        count = text.count(mutant["old"])
        if count != 1:
            raise SystemExit(f"{mutant['id']}: the old text occurs {count} times in {mutant['file']}")
        path.write_text(text.replace(mutant["old"], mutant["new"]))
    return src


def main() -> int:
    mutants = json.loads(MUTANTS.read_text())
    start, bad = time.perf_counter(), []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        union = sorted({test for m in mutants for test in m["tests"]})
        code, took = run_tests(mutated_copy(Path(tmp), None), union)
        print(f"unmutated: pytest exit {code} in {took:.1f} s")
        if code != 0:
            print("the unmutated source fails the gate's tests, so no outcome below would mean anything")
            return 1
        timeout = TIMEOUT_FACTOR * took
        for mutant in mutants:
            code, took = run_tests(mutated_copy(Path(tmp), mutant), mutant["tests"], timeout)
            if code not in (0, 1, 2, -1):  # usage error, or no test collected
                raise SystemExit(f"{mutant['id']}: pytest exit {code}, check its test subset")
            outcome = {0: "survives", -1: "killed (timed out)"}.get(code, "killed")
            ok = outcome.split()[0] == mutant["expect"]
            bad += [] if ok else [mutant["id"]]
            note = "" if ok else f"  <-- expected {mutant['expect']}"
            print(f"{mutant['id']}: {outcome} ({took:.1f} s){note}", flush=True)
    print(f"{len(mutants)} mutants, {len(bad)} not as expected, {time.perf_counter() - start:.1f} s in all")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
