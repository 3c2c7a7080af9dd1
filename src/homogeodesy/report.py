"""Batch runners behind the CLI: validation suites and theorem sweeps."""
from __future__ import annotations

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
from .pinching import DEFAULT_MULTISTARTS, estimate_pinching, expected_delta

THETA_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
S_GRID = (0.25, 0.5, 2.0 / 3.0, 0.9, 1.0)
M_GRID = (1, 2)
LAMBDA_RHO_RTOL = 1e-9
FIBRATION_TOL = 1e-7
DELTA_RTOL = 0.01
REPRODUCE_NAMES = ("conj", "conjB13", "conjW7", "cimp1", "pinching-table")


# -- verification ------------------------------------------------------------

HARD_CHECKS = (
    "antisymmetry",
    "jacobi-identity",
    "reconstruction",
    "bi-invariance",
    "reductive",
    "lts",
)
INFO_CHECKS = ("m0-transitivity", "m1-transitivity", "m-transitivity")
OPTIONAL_CHECKS = ("rank-one",)
ALL_CHECKS = HARD_CHECKS + INFO_CHECKS + OPTIONAL_CHECKS
_RESIDUALS = {
    "antisymmetry": antisymmetry_residual,
    "jacobi-identity": jacobi_identity_residual,
    "reconstruction": reconstruction_residual,
}


def run_verify(space: ReductiveSpace, checks=None, seed: int = 0) -> dict:
    """Validation suite for one space; `checks` selects a subset by name."""
    if checks:
        selected = list(checks)
    else:
        selected = list(HARD_CHECKS)
        if space.m0_indices is not None:
            selected += ["m0-transitivity", "m1-transitivity"]
        elif "M" in space.witnesses:
            selected += ["m-transitivity"]
    reports = {  # checks that return a report with .passed and .to_dict()
        "bi-invariance": lambda: check_biinvariance(space.algebra),
        "reductive": space.validate,
        "rank-one": lambda: rank_one_check(space, seed=seed),
    }
    results = {}
    failed = []
    for check in selected:
        if check in _RESIDUALS:
            res = _RESIDUALS[check](space.algebra)
            ok = res <= 1e-12
            results[check] = {"pass": ok, "residual": res}
        elif check in reports:
            rep = reports[check]()
            ok = rep.passed
            results[check] = rep.to_dict()
        elif check == "lts":
            if space.m0_indices is None:
                results[check] = {"pass": True, "skipped": "no m0/m1 split"}
                ok = True
            else:
                vecs = [space.basis_vector(space.algebra.labels[i]) for i in space.m0_indices]
                rep = lts_check(space, vecs)
                ok = rep.is_lts and rep.closes_subalgebra
                results[check] = rep.to_dict()
        elif check in INFO_CHECKS:
            part = check.split("-")[0].upper()
            try:
                rep = isotropy_transitivity_check(space, part)
                results[check] = rep.to_dict()
                ok = True  # informational: a computed non-transitive result is valid
            except (NoWitness, MissingSplit) as exc:
                results[check] = {"pass": False, "error": str(exc)}
                ok = False
        else:
            raise ValueError(f"unknown check {check!r}")
        if not ok:
            failed.append(check)

    notes = []
    p = space.params
    if p.get("family") == "round" or (
        p.get("family") == "berger" and p.get("m") == 1 and p.get("s") == 1
    ):
        notes.append(f"constant curvature {p.get('kappa', 1.0):g}")
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
    for ev in cv.events:
        if ev.isotropic_exists:
            if not any(abs(ev.t - b) < FIBRATION_TOL for b in base):
                return False
    return True


def run_theorem_cell(
    space: ReductiveSpace,
    theta: float,
    aux: dict | None = None,
    t_max_factor: float = 7.0,
) -> dict:
    """One (space, theta) cell: lambda/rho agreement + scan cross-validation."""
    u, v = geodesic_pair(space, theta, aux)
    cell = {"space": space.name, "theta": theta, "pass": False}
    try:
        data = extract_cp_data(space, u, v)
        lam_exp, rho_exp = expected_lambda_rho(space, theta)
        lam_err = abs(data.lam - lam_exp) / max(abs(lam_exp), 1e-300)
        rho_err = abs(data.rho - rho_exp) / max(abs(rho_exp), 1.0)
        cell.update(
            {
                "lambda": data.lam,
                "rho": data.rho,
                "lambda_expected": lam_exp,
                "rho_expected": rho_exp,
                "branch": data.branch,
            }
        )
        if max(lam_err, rho_err) > LAMBDA_RHO_RTOL:
            cell["error"] = f"lambda/rho relative error {max(lam_err, rho_err):.2e}"
            return cell
        t_max = t_max_factor / math.sqrt(data.lam + data.rho)
        cv = cross_validate(space, u, v, t_max)
        cell["matched"] = cv.all_matched
        cell["events"] = [ev.to_dict() for ev in cv.events]
        cell["closed_form"] = [c.to_dict() for c in cv.closed_form]
        horizontal = abs(theta - math.pi / 2) < 1e-12
        if horizontal:
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


def _sphere_cells() -> list[tuple[str, float]]:
    cells = []
    for m in M_GRID:
        for s in S_GRID:
            for theta in THETA_GRID:
                cells.append((f"berger:m={m},s={s:.12g},kappa=1", theta))
                cells.append((f"spsphere:m={m},s={s:.12g},kappa=1", theta))
    for m in M_GRID:
        for theta in THETA_GRID:
            cells.append((f"cpodd:m={m},kappa=1", theta))
    return cells


def reproduce(name: str, t_max_factor: float = 7.0, seed: int = 0,
              multistarts: int = DEFAULT_MULTISTARTS) -> dict:
    """Run one of the theorem-reproduction suites and report a pass/fail matrix."""
    if name == "conj":
        cells = _sphere_cells()
    elif name == "conjB13":
        cells = [("b13", theta) for theta in THETA_GRID]
    elif name == "conjW7":
        cells = [
            (f"w7:s={s:.12g}", theta) for s in S_GRID for theta in THETA_GRID
        ]
    elif name == "cimp1":
        return _reproduce_cimp1(t_max_factor)
    elif name == "pinching-table":
        return _reproduce_pinching_table(seed=seed, multistarts=multistarts)
    else:
        raise ValueError(f"unknown theorem {name!r}; choose from {REPRODUCE_NAMES}")

    results = [
        run_theorem_cell(build_space(desc), theta, t_max_factor=t_max_factor)
        for desc, theta in cells
    ]
    return {
        "theorem": name,
        "cells": results,
        "pass": all(c["pass"] for c in results),
    }


def _reproduce_cimp1(t_max_factor: float) -> dict:
    """Vertical CP^{2m+1} geodesics: isotropic family at sqrt(2k)p*pi/(4k) and the
    non-strict family at sqrt(2k)p*pi/k."""
    cells = []
    for m in M_GRID:
        for kappa in (1.0, 2.0):
            space = build_space(f"cpodd:m={m},kappa={kappa:.12g}")
            for phi in (0.0, 0.7):
                # u is the vertical geodesic; v_mixed its companion in the mixed pair
                u, v_mixed = geodesic_pair(space, 0.0, {"phi": phi})
                x2, x3 = space.basis_vector("X_2"), space.basis_vector("X_3")
                v_plane = space.unit(math.cos(phi) * x3 - math.sin(phi) * x2)
                cell = {
                    "space": space.name,
                    "phi": phi,
                    "pass": False,
                }
                try:
                    # isotropic family from the vertical 2-plane, lambda = 8 kappa
                    t_max_a = t_max_factor / math.sqrt(8 * kappa)
                    cv_a = cross_validate(space, u, v_plane, t_max_a)
                    lam_ok = abs(cv_a.lam - 8 * kappa) <= LAMBDA_RHO_RTOL * 8 * kappa
                    first_iso = math.pi * math.sqrt(2 * kappa) / (4 * kappa)
                    iso_ok = any(
                        abs(c.t - first_iso) < FIBRATION_TOL for c in cv_a.closed_form
                    )
                    # non-strict family from the mixed pair, lambda = 2 kappa
                    t_max_b = t_max_factor / math.sqrt(2 * kappa)
                    cv_b = cross_validate(space, u, v_mixed, t_max_b)
                    lam_b_ok = abs(cv_b.lam - 2 * kappa) <= LAMBDA_RHO_RTOL * 2 * kappa
                    first_ns = math.pi * math.sqrt(2 * kappa) / kappa
                    ns_ok = any(
                        abs(c.t - first_ns) < FIBRATION_TOL for c in cv_b.closed_form
                    )
                    cell.update(
                        {
                            "lambda_plane": cv_a.lam,
                            "lambda_mixed": cv_b.lam,
                            "isotropic_time": first_iso,
                            "non_strict_time": first_ns,
                            "pass": lam_ok and iso_ok and lam_b_ok and ns_ok,
                        }
                    )
                except Mismatch as exc:
                    cell["error"] = str(exc)
                cells.append(cell)
    return {"theorem": "cimp1", "cells": cells, "pass": all(c["pass"] for c in cells)}


def _reproduce_pinching_table(seed: int, multistarts: int) -> dict:
    """Pinching constants of the classification items (ii)-(iv), plus the B13 bounds."""
    jobs = [("cpodd:m=1,kappa=1", "cpodd", 1, None)]
    for m in M_GRID:
        for s in S_GRID:
            jobs.append((f"berger:m={m},s={s:.12g},kappa=1", "berger", m, s))
    for s in S_GRID:
        jobs.append((f"spsphere:m=1,s={s:.12g},kappa=1", "spsphere", 1, s))

    rows = []
    for desc, family, m, s in jobs:
        report = estimate_pinching(build_space(desc), multistarts=multistarts, seed=seed)
        formula = expected_delta(family, m=m, s=s)
        rel = abs(report.delta - formula) / formula
        rows.append(
            {
                "space": desc,
                "delta_measured": report.delta,
                "delta_formula": formula,
                "rel_error": rel,
                "converged": report.converged,
                "pass": rel <= DELTA_RTOL,
            }
        )

    b13 = build_space("b13")
    k_erfr = sectional_curvature(
        b13, b13.basis_vector("e_1"), b13.basis_vector("f_1"), mode="normal"
    )
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
    return {
        "theorem": "pinching-table",
        "cells": rows,
        "pass": all(r["pass"] for r in rows),
    }


# -- conjugate tables --------------------------------------------------------


def conjugate_table(
    space: ReductiveSpace,
    theta: float,
    t_max: float,
    aux: dict | None = None,
) -> dict:
    """Scan one geodesic and annotate events with closed-form matches."""
    u, v = geodesic_pair(space, theta, aux)
    events = conjugate_events(space, u, t_max)
    predictions = []
    try:
        data = extract_cp_data(space, u, v)
        predictions = closed_form_times(data, t_max)
    except HypothesisViolated:
        data = None
    params_text = ";".join(f"{k}={v}" for k, v in space.params.items() if k != "family")
    rows = []
    for ev in events:
        family = next((p.family for p in predictions if abs(p.t - ev.t) < FIBRATION_TOL), "")
        rows.append(
            {
                "space": space.name,
                "params": params_text,
                "theta": theta,
                "t": ev.t,
                "multiplicity": ev.multiplicity,
                "isotropic_exists": ev.isotropic_exists,
                "strictly_isotropic": ev.strictly_isotropic,
                "closed_form_match": family,
            }
        )
    return {
        "space": space.name,
        "params": dict(space.params),
        "theta": theta,
        "t_max": t_max,
        "cp_data": data.to_dict() if data else None,
        "rows": rows,
    }
