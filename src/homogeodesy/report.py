"""Batch runners behind the CLI: validation suites and theorem sweeps."""
from __future__ import annotations

import itertools
import math

from .algebra import (
    antisymmetry_residual,
    check_biinvariance,
    jacobi_identity_residual,
    reconstruction_residual,
)
from .catalog import build_space, symmetric_conjugate_times
from .closed_form import (
    FAMILY_TAN,
    CrossValidation,
    HypothesisViolated,
    Mismatch,
    closed_form_times,
    cross_validate,
    extract_cp_data,
    nearest_events,
)
from .homogeneous import (
    MissingSplit,
    NoWitness,
    ReductiveSpace,
    isotropy_transitivity_check,
    lts_check,
    rank_one_check,
    sectional_curvature,
)
from .jacobi import conjugate_events, geodesic_pair
from .pinching import DEFAULT_MULTISTARTS, Table, delta_row, estimate_pinching

THETA_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
S_GRID = (0.25, 0.5, 2.0 / 3.0, 0.9, 1.0)
M_GRID = (1, 2)
LAMBDA_RHO_RTOL = 1e-9
FIBRATION_TOL = 1e-7
DELTA_RTOL = 0.01
T_MAX_FACTOR = 7.0  # sweeps cross-validate to t_max = T_MAX_FACTOR / sqrt(lambda + rho)


# -- verification ------------------------------------------------------------


def _residual(measure):
    def check(space: ReductiveSpace, seed: int) -> dict:
        res = measure(space.algebra)
        return {"pass": res <= 1e-12, "residual": res}

    return check


def _lts(space: ReductiveSpace, seed: int) -> dict:
    if space.m0_indices is None:
        return {"pass": True, "skipped": "no m0/m1 split"}
    vecs = [space.basis_vector(space.algebra.labels[i]) for i in space.m0_indices]
    return lts_check(space, vecs).to_dict()


def _transitivity(part: str):
    def check(space: ReductiveSpace, seed: int) -> dict:
        try:  # informational: a computed non-transitive result has no "pass" key
            return isotropy_transitivity_check(space, part).to_dict()
        except (NoWitness, MissingSplit) as exc:
            return {"pass": False, "error": str(exc)}

    return check


def _split(space: ReductiveSpace) -> bool:
    return space.m0_indices is not None


# name -> (check, when): check(space, seed) returns the JSON result, which passes
# unless its "pass" is false; when(space) says if the check runs when none is
# named, None meaning always
CHECKS = {
    "antisymmetry": (_residual(antisymmetry_residual), None),
    "jacobi-identity": (_residual(jacobi_identity_residual), None),
    "reconstruction": (_residual(reconstruction_residual), None),
    "bi-invariance": (lambda space, seed: check_biinvariance(space.algebra).to_dict(), None),
    "reductive": (lambda space, seed: space.validate().to_dict(), None),
    "lts": (_lts, None),
    "m0-transitivity": (_transitivity("M0"), _split),
    "m1-transitivity": (_transitivity("M1"), _split),
    "m-transitivity": (
        _transitivity("M"),
        lambda space: not _split(space) and "M" in space.witnesses,
    ),
    "rank-one": (lambda space, seed: rank_one_check(space, seed).to_dict(), lambda space: False),
}
ALL_CHECKS = tuple(CHECKS)


def run_verify(space: ReductiveSpace, checks=None, seed: int = 0) -> dict:
    """Validation suite for one space; `checks` selects a subset by name."""
    if checks:
        selected = list(checks)
    else:
        selected = [name for name, (_, when) in CHECKS.items() if not when or when(space)]
    for check in selected:
        if check not in CHECKS:
            raise ValueError(f"unknown check {check!r}")
    results = {check: CHECKS[check][0](space, seed) for check in selected}
    failed = [check for check in selected if not results[check].get("pass", True)]

    p = space.params
    round_berger = (p.get("family"), p.get("m"), p.get("s")) == ("berger", 1, 1)
    constant = p.get("family") == "round" or round_berger
    notes = [f"constant curvature {p.get('kappa', 1.0):g}"] if constant else []
    return {
        "check": "verify",
        "space": space.name,
        "params": dict(p),
        "pass": not failed,
        "failed": failed,
        "results": results,
        "notes": notes,
    }


# -- theorem sweeps ----------------------------------------------------------


def expected_lambda_rho(space: ReductiveSpace, theta: float) -> tuple[float, float]:
    """The printed (lambda, rho) of the conjugate-point theorems, per family."""
    p = space.params
    fam = p["family"]
    sin2 = math.sin(theta) ** 2
    if fam in ("berger", "spsphere", "cpodd"):
        kappa, tau = p["kappa"], p["tau"]
        return 4.0 * tau, 4.0 * (kappa - tau) * sin2
    if fam == "b13":
        return 1.0, sin2
    if fam == "w7":
        s = p["s"]
        return s / (1.0 + s), sin2 / (1.0 + s)
    raise ValueError(f"no closed-form (lambda, rho) for family {fam!r}")


def _fibration_consistent(space: ReductiveSpace, cv: CrossValidation, t_max: float) -> bool:
    """Horizontal isotropic conjugate times must project to base-space times."""
    if space.base_reference is None:
        return True
    base = symmetric_conjugate_times(space.base_reference, t_max * (1 + 1e-9))
    isotropic = (ev.t for ev in cv.events if ev.isotropic_exists)
    return all(any(abs(t - b) < FIBRATION_TOL for b in base) for t in isotropic)


def run_theorem_cell(space: ReductiveSpace, theta: float) -> dict:
    """One (space, theta) cell: lambda/rho agreement + scan cross-validation."""
    u, v = geodesic_pair(space, theta)
    cell = {"space": space.name, "theta": theta, "pass": False}
    try:
        data = extract_cp_data(space, u, v)
        lam_exp, rho_exp = expected_lambda_rho(space, theta)
        lam_err = abs(data.lam - lam_exp) / max(abs(lam_exp), 1e-300)
        rho_err = abs(data.rho - rho_exp) / max(abs(rho_exp), 1.0)
        cell |= data.to_dict() | {"lambda_expected": lam_exp, "rho_expected": rho_exp}
        if max(lam_err, rho_err) > LAMBDA_RHO_RTOL:
            cell["error"] = f"lambda/rho relative error {max(lam_err, rho_err):.2e}"
            return cell
        t_max = T_MAX_FACTOR / math.sqrt(data.lam + data.rho)
        cv = cross_validate(space, u, v, t_max)
        cell["matched"] = cv.all_matched
        cell["events"] = [ev.to_dict() for ev in cv.events]
        cell["closed_form"] = [c.to_dict() for c in cv.closed_form]
        if abs(theta - math.pi / 2) < 1e-12:  # horizontal
            for pred, ev in cv.matched:
                if pred.family == FAMILY_TAN and ev.isotropic_exists:
                    cell["error"] = (
                        f"tan-family event at t = {ev.t:.12g} is isotropic on a "
                        f"horizontal geodesic"
                    )
                    return cell
            if not _fibration_consistent(space, cv, t_max):
                cell["error"] = "isotropic horizontal time missing from base-space times"
                return cell
        cell["pass"] = True
    except Mismatch as exc:
        cell["error"] = str(exc)
    return cell


def _theorem_cells(cells) -> list[dict]:
    return [run_theorem_cell(build_space(desc), theta) for desc, theta in cells]


def _cimp1_family(space: ReductiveSpace, u, v, lam: float, first: float) -> tuple[float, bool]:
    """Cross-validate (u, v) to T_MAX_FACTOR / sqrt(lam): the measured lambda, and
    whether it is lam and a closed-form time falls at `first`."""
    cv = cross_validate(space, u, v, T_MAX_FACTOR / math.sqrt(lam))
    lam_ok = abs(cv.lam - lam) <= LAMBDA_RHO_RTOL * lam
    return cv.lam, lam_ok and any(abs(c.t - first) < FIBRATION_TOL for c in cv.closed_form)


def _cimp1_cells() -> list[dict]:
    """Vertical CP^{2m+1} geodesics: the isotropic family at sqrt(2k)p*pi/(4k), from
    the vertical 2-plane (lambda = 8k), and the non-strict family at sqrt(2k)p*pi/k,
    from the mixed pair (lambda = 2k)."""
    cells = []
    for m, kappa, phi in itertools.product(M_GRID, (1.0, 2.0), (0.0, 0.7)):
        space = build_space(f"cpodd:m={m},kappa={kappa:.12g}")
        # u is the vertical geodesic; v_mixed its companion in the mixed pair
        u, v_mixed = geodesic_pair(space, 0.0, {"phi": phi})
        x2, x3 = space.basis_vector("X_2"), space.basis_vector("X_3")
        v_plane = space.unit(math.cos(phi) * x3 - math.sin(phi) * x2)
        first_iso = math.pi * math.sqrt(2 * kappa) / (4 * kappa)
        first_ns = math.pi * math.sqrt(2 * kappa) / kappa
        cell = {"space": space.name, "phi": phi, "pass": False}
        try:
            lam_plane, iso_ok = _cimp1_family(space, u, v_plane, 8 * kappa, first_iso)
            lam_mixed, ns_ok = _cimp1_family(space, u, v_mixed, 2 * kappa, first_ns)
            cell |= {"lambda_plane": lam_plane, "lambda_mixed": lam_mixed, "pass": iso_ok and ns_ok}
            cell |= {"isotropic_time": first_iso, "non_strict_time": first_ns}
        except Mismatch as exc:
            cell["error"] = str(exc)
        cells.append(cell)
    return cells


def _pinching_table_rows(seed: int, multistarts: int) -> list[dict]:
    """Pinching constants of the classification items (ii)-(iv), plus the B13 bounds."""
    jobs = [("cpodd:m=1,kappa=1", "cpodd", 1, None)]
    jobs += [
        (f"berger:m={m},s={s:.12g},kappa=1", "berger", m, s) for m in M_GRID for s in S_GRID
    ]
    jobs += [(f"spsphere:m=1,s={s:.12g},kappa=1", "spsphere", 1, s) for s in S_GRID]

    rows = []
    for desc, family, m, s in jobs:
        row = {"space": desc} | delta_row(build_space(desc), family, m, s, multistarts, seed)
        measured, formula = row["delta_measured"], row["delta_formula"]
        rows.append(row | {"pass": abs(measured - formula) / formula <= DELTA_RTOL})

    b13 = build_space("b13")
    k_erfr = sectional_curvature(b13, b13.basis_vector("e_1"), b13.basis_vector("f_1"))
    rep = estimate_pinching(b13, multistarts=multistarts, seed=seed)
    b13_row = {
        "space": "b13",
        "K_er_fr": k_erfr,
        "k_min": rep.k_min,
        "k_max": rep.k_max,
        "delta_measured": rep.delta,
        "delta_formula": None,
        "pass": abs(k_erfr - 29.0 / 4.0) < 1e-10
        and rep.k_min <= 4.0 + 1e-9
        and rep.k_max >= 29.0 / 4.0 - 1e-9,
    }
    rows.append(b13_row)
    return rows


# name -> runner(seed, multistarts) of the sweep's cells; seed and multistarts
# affect only pinching-table
SWEEPS = {
    "conj": lambda seed, multistarts: _theorem_cells(
        [
            (f"{family}:m={m},s={s:.12g},kappa=1", theta)
            for m in M_GRID
            for s in S_GRID
            for theta in THETA_GRID
            for family in ("berger", "spsphere")
        ]
        + [(f"cpodd:m={m},kappa=1", theta) for m in M_GRID for theta in THETA_GRID]
    ),
    "conjB13": lambda seed, multistarts: _theorem_cells(
        ("b13", theta) for theta in THETA_GRID
    ),
    "conjW7": lambda seed, multistarts: _theorem_cells(
        (f"w7:s={s:.12g}", theta) for s in S_GRID for theta in THETA_GRID
    ),
    "cimp1": lambda seed, multistarts: _cimp1_cells(),
    "pinching-table": _pinching_table_rows,
}
REPRODUCE_NAMES = tuple(SWEEPS)


def reproduce(name: str, seed: int = 0, multistarts: int = DEFAULT_MULTISTARTS) -> dict:
    """Run one of the theorem-reproduction sweeps and report a pass/fail matrix."""
    if name not in SWEEPS:
        raise ValueError(f"unknown theorem {name!r}; choose from {REPRODUCE_NAMES}")
    cells = SWEEPS[name](seed, multistarts)
    return {"theorem": name, "cells": cells, "pass": all(c["pass"] for c in cells)}


# -- conjugate tables --------------------------------------------------------


def conjugate_table(
    space: ReductiveSpace,
    theta: float,
    t_max: float,
    aux: dict | None = None,
) -> dict:
    """Scan one geodesic and annotate events with closed-form matches.

    The closed forms come first, as in cross_validate, so times that cannot be
    resolved fail before the scan."""
    u, v = geodesic_pair(space, theta, aux)
    predictions = []
    try:
        data = extract_cp_data(space, u, v)
        predictions = closed_form_times(data, t_max)
    except HypothesisViolated:
        data = None
    events = conjugate_events(space, u, t_max)
    params_text = ";".join(f"{k}={v}" for k, v in space.params.items() if k != "family")
    nearest = nearest_events(predictions, events)  # each prediction labels its nearest event
    labels = {idx: pred.family for pred, idx in zip(predictions, nearest) if idx is not None}
    # one value per column, in the columns' order
    columns = ("space", "params", "theta", "t", "multiplicity")
    columns += ("isotropic_exists", "strictly_isotropic", "closed_form_match")
    values = (
        (space.name, params_text, theta, ev.t, ev.multiplicity)
        + (ev.isotropic_exists, ev.strictly_isotropic, labels.get(idx, ""))
        for idx, ev in enumerate(events)
    )
    return {
        "space": space.name,
        "params": dict(space.params),
        "theta": theta,
        "t_max": t_max,
        "cp_data": data.to_dict() if data else None,
        "rows": Table(columns, values),
    }
