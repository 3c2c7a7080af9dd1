"""Seeded closed-loop benchmark of the homogeodesy library.

Run from the repository root:

    python3 bench/run.py --workload conj-b13 --seed 0 --seconds 24 --trace 0

One single-threaded process per workload drives the README-documented calls
(build_space, geodesic_pair, extract_cp_data, cross_validate,
estimate_pinching, expected_delta) in a closed loop: each item starts when
the previous one ends.  A pass is the workload's seeded item list (see
workloads.py); passes repeat while another one fits in --seconds, and at least
two always run.  The library is imported from this checkout's ``src``.

--trace 0 reports the end-to-end metrics:
  setup_s      median over fresh processes that import the package and build
               every space of the workload from a cold cache
  wall_s       time of one pass: the sum over items of each item's median
               latency across the passes
  item_p50_s   median over items of each item's median latency
  peak_rss_mb  peak resident memory of this process
The three times are calibrated seconds: each measured time is scaled by
CALIBRATION_REFERENCE_S over the time of a fixed kernel run right before and
after it (see Calibration), which cancels most of the drift of a shared
machine.  The report on stderr also gives the uncalibrated times.  Failures
are counted in the result's ``attempted`` and ``failed`` fields and printed as
fail_ratio in the report.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced pass (its set-up builds included), plus
trace.overhead_s, the traced minus the untraced pass time in calibrated
seconds.

Every output is checked against the closed forms and, for seeds with a
recorded file under reference/, against the reference outputs.  The report
goes to stderr; the last stdout line is the JSON result.  Exit code 0 when
every check passed, 1 on a correctness miss, 2 when the library cannot be
loaded from this checkout.
"""
from __future__ import annotations

import os

# Single-threaded BLAS and sweeps, fixed before numpy is first imported.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "HOMOGEODESY_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
MIN_PASSES = 2
CALIBRATION_REPEATS = 50
# Calibrated seconds are seconds on a machine whose calibration kernel takes
# this long (about its time on the 2-CPU machine the baseline was taken on).
CALIBRATION_REFERENCE_S = 3e-3
PROBE_TIMEOUT_S = 120
AUDIT_PROBE_SAMPLES = 100_000
AUDIT_PROBE_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "jacobi.expm.calls": "count",
    "jacobi.expm.s": "s",
    "jacobi.fundamental_block.calls": "count",
    "jacobi.fundamental_block.s": "s",
    "jacobi.scan_conjugate_times.s": "s",
    "jacobi.scan_conjugate_times.self_s": "s",
    "jacobi.events": "count",
    "jacobi.expm_per_event": "ratio",
    "jacobi.build_system.s": "s",
    "jacobi.classify_isotropy.s": "s",
    "jacobi.classify_isotropy.calls": "count",
    "closed_form.extract_cp_data.s": "s",
    "closed_form.closed_form_times.s": "s",
    "closed_form.cross_validate.self_s": "s",
    "catalog.build_space.s": "s",
    "catalog.build_space.calls": "count",
    "algebra.assemble_algebra.s": "s",
    "algebra.assemble_algebra.calls": "count",
    "pinching.estimate_pinching.s": "s",
    "pinching.estimate_pinching.calls": "count",
    "pinching.converged_ratio": "ratio",
    "pinching.audit_pairs_per_s": "1/s",
    "trace.overhead_s": "s",
}


class LibraryMissing(RuntimeError):
    pass


def import_library():
    """Import homogeodesy from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import homogeodesy
    except ImportError as exc:
        raise LibraryMissing(f"cannot import homogeodesy from {SRC}: {exc}") from exc
    origin = Path(homogeodesy.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise LibraryMissing(f"homogeodesy was imported from {origin}, not from {SRC}")
    return homogeodesy


def build_all(hg, items):
    for desc in dict.fromkeys(item.desc for item in items):
        hg.build_space(desc)


class Calibration:
    """Times a fixed kernel of the scanner's own operations, to read the
    machine's current speed beside every timed item.

    On a shared machine the same item runs up to 2x slower from one minute to
    the next, and the kernel slows with it; dividing by the kernel's time
    cancels most of that drift.  The kernel binds its functions at
    construction, so a traced run never counts its calls.
    """

    def __init__(self):
        import numpy
        import scipy.linalg

        rng = numpy.random.default_rng(0)
        self._a = 0.3 * rng.standard_normal((20, 20))
        self._b = rng.standard_normal((12, 12))
        self._expm, self._svd = scipy.linalg.expm, numpy.linalg.svd

    def __call__(self) -> float:
        start = perf_counter()
        for _ in range(CALIBRATION_REPEATS):
            self._expm(self._a)
            self._svd(self._b, compute_uv=False)
        return perf_counter() - start


def run_pass(hg, items, tracer=None, calibration=None):
    """Drive every item once, in order.

    Returns the pass seconds, each item's latency, each item's calibrated
    latency (none without a calibration) and the outputs.
    """
    latencies, outputs, calibrated = [], [], []
    kernel = calibration() if calibration else None
    start = perf_counter()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        t0 = perf_counter()
        try:
            result = (workloads.drive(hg, item), None)
        except Exception as exc:  # a failed item is counted, the loop goes on
            result = (None, f"{type(exc).__name__}: {exc}")
        latency = perf_counter() - t0
        latencies.append(latency)
        outputs.append(result)
        if calibration:
            before, kernel = kernel, calibration()
            calibrated.append(latency * CALIBRATION_REFERENCE_S / (0.5 * (before + kernel)))
    wall = perf_counter() - start
    return wall, latencies, calibrated, outputs


def judge(items, passes, reference) -> tuple[int, int, list[str]]:
    """Check every attempt; return (attempted, failed, messages)."""
    attempted = failed = 0
    messages = []
    first = [out for out, _ in passes[0]]
    for outputs in passes:
        for index, (item, (out, err)) in enumerate(zip(items, outputs)):
            attempted += 1
            if err is not None:
                problems = [err]
            else:
                problems = workloads.check_closed_forms(item, out)
                if reference is not None:
                    problems += workloads.check_reference(item, out, reference, index)
                if out != first[index]:
                    problems.append("output differs from the first pass")
            if problems:
                failed += 1
                messages.append(f"item {index} ({item.desc}): " + "; ".join(problems))
    return attempted, failed, messages


def setup_probe(args) -> float:
    """Seconds for a fresh process to import the package and build every space."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    if args.items:
        cmd += ["--items", str(args.items)]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT
    )
    if proc.returncode != 0:
        raise LibraryMissing(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def audit_probe(hg) -> float:
    """Audit pairs per second of estimate_pinching on b13 with no optimizer steps."""
    space = hg.build_space("b13")
    times = []
    for _ in range(AUDIT_PROBE_REPEATS):
        t0 = perf_counter()
        hg.estimate_pinching(
            space,
            multistarts=workloads.MULTISTARTS,
            seed=0,
            max_iter=0,
            audit_samples=AUDIT_PROBE_SAMPLES,
        )
        times.append(perf_counter() - t0)
    return AUDIT_PROBE_SAMPLES / statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
    }


def layer_metrics(tracer, untraced_s, traced_s, audit_rate) -> dict:
    summary = tracer.summary()

    def get(layer, key):
        return summary[layer][key] if layer in summary else 0

    metrics = {}
    for name in PER_LAYER_UNITS:
        layer, _, key = name.rpartition(".")
        if key in ("calls", "s", "self_s"):
            metrics[name] = get(layer, key)
    events = tracer.counts["jacobi.events"]
    estimates = get("pinching.estimate_pinching", "calls")
    metrics["jacobi.events"] = events
    metrics["jacobi.expm_per_event"] = get("jacobi.expm", "calls") / events if events else 0.0
    metrics["pinching.converged_ratio"] = (
        tracer.counts["pinching.converged"] / estimates if estimates else 0.0
    )
    metrics["pinching.audit_pairs_per_s"] = audit_rate
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def measure(args, hg, items):
    """Run the workload; return (metrics, outputs of each pass, report lines, units)."""
    lines = []
    calibration = Calibration()
    if args.trace:
        tracer = spans.Tracer()
        with tracer:
            build_all(hg, items)
        _, _, untraced_cal, untraced = run_pass(hg, items, calibration=calibration)
        with tracer:
            _, _, traced_cal, traced = run_pass(hg, items, tracer, calibration)
        if spans.installed_wrappers():
            raise RuntimeError("tracer left wrappers installed")
        audit_rate = audit_probe(hg) if args.workload == "pinching" else 0.0
        untraced_s, traced_s = sum(untraced_cal), sum(traced_cal)
        metrics = layer_metrics(tracer, untraced_s, traced_s, audit_rate)
        lines.append(
            f"untraced pass {untraced_s:.4f} s, traced pass {traced_s:.4f} s (calibrated)"
        )
        for (parent, child), calls in sorted(tracer.edges().items()):
            lines.append(f"span edge {parent} -> {child}: {calls} calls")
        return metrics, [untraced, traced], lines, PER_LAYER_UNITS

    setup, setup_raw = [], []
    for _ in range(SETUP_SAMPLES):
        before = calibration()
        seconds = setup_probe(args)
        setup_raw.append(seconds)
        setup.append(seconds * CALIBRATION_REFERENCE_S / (0.5 * (before + calibration())))
    build_all(hg, items)
    if spans.installed_wrappers():
        raise RuntimeError("untraced run found benchmark wrappers installed")
    walls, latencies, calibrated, passes = [], [], [], []
    start = perf_counter()
    while len(walls) < MIN_PASSES or (
        perf_counter() - start + statistics.median(walls) <= args.seconds
    ):
        wall, lat, cal, outputs = run_pass(hg, items, calibration=calibration)
        walls.append(wall)
        latencies.append(lat)
        calibrated.append(cal)
        passes.append(outputs)
    wrappers = spans.installed_wrappers()
    if wrappers:
        raise RuntimeError(f"{wrappers} benchmark wrappers appeared in an untraced run")
    # each item's median over the passes, so one stalled pass does not count
    item_times = [statistics.median(per_item) for per_item in zip(*calibrated)]
    item_raw = [statistics.median(per_item) for per_item in zip(*latencies)]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(item_times),
        "item_p50_s": statistics.median(item_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines += [
        f"calibration kernel: {1e3 * calibration():.4f} ms now, reference "
        f"{1e3 * CALIBRATION_REFERENCE_S:.4f} ms",
        "set-up samples (s, uncalibrated): " + ", ".join(f"{x:.4f}" for x in setup_raw),
        f"passes: {len(walls)}, pass times (s, uncalibrated): "
        + ", ".join(f"{w:.4f}" for w in walls),
        f"uncalibrated: wall {sum(item_raw):.4f} s, item p50 {statistics.median(item_raw):.4f} s",
        f"items per pass: {len(item_times)}; item_p50_s is the median of their "
        f"medians over {len(walls)} passes",
        "benchmark wrappers installed during the timed phase: 0",
    ]
    return metrics, passes, lines, END_TO_END_UNITS


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--items", type=int, default=0, help="run only the first N items of a pass"
    )
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="record one pass as the reference outputs of this workload and seed",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    items = workloads.make_items(args.workload, args.seed)
    if args.items:
        items = items[: args.items]
    if args.setup_probe:
        start = perf_counter()
        hg = import_library()
        build_all(hg, items)
        print(perf_counter() - start)
        return 0
    try:
        hg = import_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_reference:
        build_all(hg, items)
        _, _, _, outputs = run_pass(hg, items)
        _, failed, messages = judge(items, [outputs], None)
        if failed:
            print("\n".join(messages), file=sys.stderr)
            return 1
        workloads.write_reference(args.workload, args.seed, items, [o for o, _ in outputs])
        print(f"wrote {workloads.reference_path(args.workload, args.seed)}", file=sys.stderr)
        return 0

    reference = workloads.load_reference(args.workload, args.seed)
    try:
        metrics, passes, lines, units = measure(args, hg, items)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted, failed, messages = judge(items, passes, reference)

    env = environment()
    report = [
        f"workload {args.workload}, seed {args.seed}, {len(items)} items per pass, "
        f"trace {args.trace}, closed loop with one client",
        "environment: " + json.dumps(env, sort_keys=True),
        "reference: "
        + (str(workloads.reference_path(args.workload, args.seed).relative_to(ROOT))
           if reference is not None else "none recorded for this seed; closed forms only"),
        *lines,
        *(f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()),
        f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} items)",
        *(f"FAIL {msg}" for msg in messages),
    ]
    print("\n".join(report), file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
