"""Seeded inputs of the benchmark workloads and the checks on their outputs.

Inputs come from ``random.Random(seed)`` alone, so item generation imports no
numerical library and a set-up probe can start its clock before the package
import.  Each workload is a fixed composition (families, strata, item count)
whose values the seed draws; the composition keeps the work of one pass close
across seeds while every seed still sees different geodesics and spaces.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

T_MAX_FACTOR = 7.0  # every geodesic is cross-validated to t_max = 7 / sqrt(lambda + rho)
MULTISTARTS = 32  # one fixed multistart count below the library default of 256
THETA_MIN = 0.01  # see _theta
JITTER = 0.2  # see _fractions
S_MIN = 0.25
KAPPA_MIN, KAPPA_MAX = 0.5, 2.0
LAMBDA_RHO_RTOL = 1e-9
T_ATOL = 1e-10
DELTA_RTOL_REFERENCE = 1e-9
DELTA_RTOL_FORMULA = 0.01
B13_K_MIN_BOUND = 4.0
B13_K_MAX_BOUND = 29.0 / 4.0
BOUND_SLACK = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

@dataclass(frozen=True)
class Item:
    """One closed-loop request: a geodesic cell or a pinching estimate."""

    kind: str  # "conj" or "pinching"
    desc: str
    family: str
    m: int | None = None
    s: float | None = None
    kappa: float = 1.0
    theta: float = 0.0
    aux: dict = field(default_factory=dict)


def _fractions(rng: random.Random, count: int) -> list[float]:
    """``count`` points of ]0, 1[, one per equal-width stratum, each moved from
    its stratum's middle by a seeded jitter of at most JITTER/2 of the width.

    The scan cost varies smoothly with theta, s and kappa, but by up to 2x
    across their ranges (10x at the w7 and cpodd corners), so points drawn
    over whole strata made the work of a pass differ by 8-15% between seeds.
    Jittered strata keep every seed's geodesics distinct while the work of a
    pass stays within a few percent.
    """
    return [(i + 0.5 + JITTER * (rng.random() - 0.5)) / count for i in range(count)]


def _theta(fraction: float) -> float:
    """A slope angle in [THETA_MIN, pi/2].

    Angles below THETA_MIN are left out: as theta -> 0 the first tan-family
    root approaches the 2p*pi family and closed_form_times refuses to separate
    them (seen near theta = 1e-4), which is an edge input, not a workload.
    """
    return THETA_MIN + fraction * (math.pi / 2 - THETA_MIN)


def _space_desc(family: str, m: int | None, s: float | None, kappa: float) -> str:
    if family == "b13":
        return "b13"
    if family == "w7":
        return f"w7:s={s!r}"
    if family == "cpodd":
        return f"cpodd:m={m},kappa={kappa!r}"
    return f"{family}:m={m},s={s!r},kappa={kappa!r}"


def _aux(rng: random.Random, family: str, m: int | None) -> dict:
    if family == "berger":
        return {"alpha": rng.randint(1, m)}
    if family == "spsphere":
        return {
            "phi1": rng.uniform(0.0, math.pi),
            "phi2": rng.uniform(0.0, 2 * math.pi),
            "alpha": rng.randint(1, m),
        }
    if family == "cpodd":
        return {"phi": rng.uniform(0.0, 2 * math.pi), "alpha": rng.randint(1, m)}
    if family == "w7":
        return {"phi": rng.uniform(0.0, 2 * math.pi), "alpha": rng.randint(1, 2)}
    return {"phi1": rng.uniform(0.0, math.pi), "phi2": rng.uniform(0.0, 2 * math.pi)}


def _conj_b13(rng: random.Random) -> list[Item]:
    return [
        Item("conj", "b13", "b13", theta=_theta(f), aux=_aux(rng, "b13", None))
        for f in _fractions(rng, CONJ_B13_ITEMS)
    ]


# family, m, and how many cells of it one conj-mix pass holds.  Most cells are
# small Berger systems, so item_p50_s reads the per-cell fixed cost; the
# heavier families carry the tail that dominates wall_s.
CONJ_MIX_FAMILIES = (
    ("berger", 1, 10),
    ("berger", 2, 10),
    ("spsphere", 1, 2),
    ("spsphere", 2, 2),
    ("cpodd", 1, 2),
    ("cpodd", 2, 2),
    ("w7", None, 2),
)
CONJ_B13_ITEMS = 4
# family, m and how many small spaces of it one pinching pass holds; b13 closes
# the pass.  The Berger spaces are the majority, so item_p50_s reads a small
# space bound by per-iteration overhead and wall_s is dominated by b13.
PINCHING_FAMILIES = (("berger", 1, 4), ("berger", 2, 4), ("spsphere", 1, 2), ("cpodd", 1, 2))


def _conj_mix(rng: random.Random) -> list[Item]:
    items = []
    for family, m, count in CONJ_MIX_FAMILIES:
        # A cell costs up to 10x more at small theta with small s (w7) or with
        # large kappa (cpodd); along the line theta up, s down, kappa up the
        # cost is nearly flat, so each cell sits on that line.
        for f in _fractions(rng, count):
            theta = _theta(f)
            s = 1.0 - f * (1.0 - S_MIN)
            kappa = 1.0 if family == "w7" else KAPPA_MIN + f * (KAPPA_MAX - KAPPA_MIN)
            s_used = None if family == "cpodd" else s
            items.append(
                Item(
                    "conj",
                    _space_desc(family, m, s_used, kappa),
                    family,
                    m=m,
                    s=s_used,
                    kappa=kappa,
                    theta=theta,
                    aux=_aux(rng, family, m),
                )
            )
    return items


def _pinching(rng: random.Random) -> list[Item]:
    items = []
    for family, m, count in PINCHING_FAMILIES:
        for f in _fractions(rng, count):
            s = S_MIN + f * (1.0 - S_MIN)
            kappa = rng.uniform(KAPPA_MIN, KAPPA_MAX)  # delta does not depend on kappa
            s_used = None if family == "cpodd" else s
            items.append(
                Item(
                    "pinching",
                    _space_desc(family, m, s_used, kappa),
                    family,
                    m=m,
                    s=s_used,
                    kappa=kappa,
                )
            )
    items.append(Item("pinching", "b13", "b13"))
    return items


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {"conj-b13": _conj_b13, "conj-mix": _conj_mix, "pinching": _pinching}


def make_items(workload: str, seed: int) -> list[Item]:
    """The seeded item list of one pass; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


# -- the README-documented calls, one item at a time --------------------------


def drive(hg, item: Item) -> dict:
    """Run one item through the public API and return its checkable outputs."""
    space = hg.build_space(item.desc)
    if item.kind == "conj":
        u, v = hg.geodesic_pair(space, item.theta, item.aux)
        data = hg.extract_cp_data(space, u, v)
        t_max = T_MAX_FACTOR / math.sqrt(data.lam + data.rho)
        cv = hg.cross_validate(space, u, v, t_max)
        return {
            "lam": data.lam,
            "rho": data.rho,
            "cv_lam": cv.lam,
            "cv_rho": cv.rho,
            "t_max": t_max,
            "matched": cv.all_matched,
            "closed_form": [c.t for c in cv.closed_form],
            "events": [
                [ev.t, ev.multiplicity, ev.isotropic_exists, ev.strictly_isotropic]
                for ev in cv.events
            ],
        }
    report = hg.estimate_pinching(space, multistarts=MULTISTARTS)
    expected = None
    if item.family != "b13":
        expected = hg.expected_delta(item.family, m=item.m, s=item.s)
    return {
        "delta": report.delta,
        "k_min": report.k_min,
        "k_max": report.k_max,
        "converged": report.converged,
        "expected_delta": expected,
    }


# -- checks --------------------------------------------------------------------


def expected_lambda_rho(item: Item) -> tuple[float, float]:
    """(lambda, rho) of the conjugate-point theorems, from the family formulas."""
    sin2 = math.sin(item.theta) ** 2
    if item.family == "b13":
        return 1.0, sin2
    if item.family == "w7":
        return item.s / (1.0 + item.s), sin2 / (1.0 + item.s)
    if item.family == "berger":
        tau = item.kappa * item.s * (item.m + 1) / (2 * item.m)
    elif item.family == "spsphere":
        tau = item.kappa * item.s / 2
    else:  # cpodd
        tau = item.kappa / 2
    return 4.0 * tau, 4.0 * (item.kappa - tau) * sin2


def _rel(value: float, want: float, floor: float = 1e-300) -> float:
    return abs(value - want) / max(abs(want), floor)


def check_closed_forms(item: Item, out: dict) -> list[str]:
    """Problems with one output against the closed forms (empty when clean)."""
    problems = []
    if item.kind == "conj":
        lam, rho = expected_lambda_rho(item)
        for key, want, floor in (("lam", lam, 1e-300), ("rho", rho, 1.0)):
            for got in (out[key], out[f"cv_{key}"]):
                if _rel(got, want, floor) > LAMBDA_RHO_RTOL:
                    problems.append(f"{key} = {got!r}, family formula gives {want!r}")
        if not out["matched"]:
            problems.append("cross_validate did not match every closed-form time")
        return problems
    if out["expected_delta"] is not None:
        if _rel(out["delta"], out["expected_delta"]) > DELTA_RTOL_FORMULA:
            problems.append(
                f"delta = {out['delta']!r} is off expected_delta = {out['expected_delta']!r}"
            )
    if item.family == "b13":
        if out["k_min"] > B13_K_MIN_BOUND + BOUND_SLACK:
            problems.append(f"b13 k_min = {out['k_min']!r} above 4")
        if out["k_max"] < B13_K_MAX_BOUND - BOUND_SLACK:
            problems.append(f"b13 k_max = {out['k_max']!r} below 29/4")
    return problems


def check_reference(item: Item, out: dict, reference: list[dict], index: int) -> list[str]:
    """Problems with item ``index`` of a pass against its recorded reference."""
    if index >= len(reference) or reference[index]["item"] != asdict(item):
        return ["reference was recorded for another input"]
    want = reference[index]["output"]
    if item.kind == "conj":
        got_ev, want_ev = out["events"], want["events"]
        if len(got_ev) != len(want_ev):
            return [f"{len(got_ev)} events, reference has {len(want_ev)}"]
        problems = []
        for (t, *flags), (t_ref, *flags_ref) in zip(got_ev, want_ev):
            if abs(t - t_ref) > T_ATOL:
                problems.append(f"event t = {t!r}, reference {t_ref!r}")
            if flags != flags_ref:
                problems.append(f"event at t = {t!r} has {flags}, reference {flags_ref}")
        return problems
    return [
        f"{key} = {out[key]!r}, reference {want[key]!r}"
        for key in ("delta", "k_min", "k_max")
        if _rel(out[key], want[key]) > DELTA_RTOL_REFERENCE
    ]


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def load_reference(workload: str, seed: int) -> list[dict] | None:
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    return json.loads(path.read_text())["items"]


def write_reference(workload: str, seed: int, items: list[Item], outputs: list[dict]):
    doc = {
        "workload": workload,
        "seed": seed,
        "items": [{"item": asdict(i), "output": o} for i, o in zip(items, outputs)],
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference_path(workload, seed).write_text(json.dumps(doc, indent=1) + "\n")
