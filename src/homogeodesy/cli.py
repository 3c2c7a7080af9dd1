"""Command-line front end.

Exit codes: 0 success, 1 validation failure (also a non-finite number in the
output or closed-form times that cannot be resolved), 2 closed-form/scan
mismatch, 3 bad configuration.  All numbers are printed with 12 significant
digits and JSON output is byte-identical for a fixed seed and configuration,
modulo the ``generated_at`` timestamp field.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .algebra import AlgebraError, algebra_to_json
from .catalog import BadParams, build_space, known_families
from .closed_form import (
    ClosedFormError,
    HypothesisViolated,
    Mismatch,
    closed_form_times,
    extract_cp_data,
)
from .homogeneous import GeometryError
from .jacobi import BadAngle, BadAux, JacobiError, geodesic_pair
from .pinching import DEFAULT_MULTISTARTS, estimate_pinching, pinching_curve
from .report import (
    ALL_CHECKS,
    REPRODUCE_NAMES,
    conjugate_table,
    reproduce,
    run_verify,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(3)


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take non-negative integers only."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


class NonFiniteOutput(RuntimeError):
    """A number bound for the output is NaN or infinite."""


def _fmt(value, key="$"):
    """Round floats to 12 digits for output; `key` locates value in the document."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise NonFiniteOutput(f"{key} is {float(value)}, not a finite number")
        return float(f"{float(value):.12g}")
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist(), key)
    if isinstance(value, dict):
        return {k: _fmt(v, f"{key}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v, f"{key}[{i}]") for i, v in enumerate(value)]
    return value


def _emit(doc, args, rows_key=None, columns=None) -> None:
    payload = dict(_fmt(doc))
    if getattr(args, "format", "json") == "csv" and rows_key is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in doc[rows_key]:
            writer.writerow(
                [
                    f"{row[c]:.12g}" if isinstance(row[c], float) else row[c]
                    for c in columns
                ]
            )
        text = buf.getvalue()
    else:
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _aux_from(args) -> dict:
    aux = {}
    for key in ("phi", "phi1", "phi2", "x0"):
        val = getattr(args, key, None)
        if val is not None:
            aux[key] = val
    if getattr(args, "alpha", None) is not None:
        aux["alpha"] = args.alpha
    return aux


# -- commands ---------------------------------------------------------------


def cmd_list(args) -> int:
    doc = {
        "families": known_families(),
        "reproduce": list(REPRODUCE_NAMES),
        "examples": [
            "berger:m=2,s=0.5,kappa=1",
            "spsphere:m=1,s=0.667",
            "cpodd:m=1,kappa=1",
            "b13",
            "w7:s=0.5",
            "round:n=3,kappa=1",
        ],
    }
    _emit(doc, args)
    return 0


def cmd_verify(args) -> int:
    space = build_space(args.space)
    result = run_verify(space, checks=args.check or None, seed=args.seed)
    _emit(result, args)
    if not result["pass"]:
        sys.stderr.write(f"verification failed: {result['failed'][0]}\n")
        return 1
    return 0


def cmd_brackets(args) -> int:
    space = build_space(args.space)
    alg = space.algebra
    table = []
    c = alg.structure
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            terms = [
                {"label": alg.labels[k], "coeff": float(c[i, j, k])}
                for k in np.flatnonzero(np.abs(c[i, j]) > 1e-12)
            ]
            if terms:
                table.append({"left": alg.labels[i], "right": alg.labels[j], "terms": terms})
    doc = {"algebra": algebra_to_json(alg), "table": table}
    _emit(doc, args)
    return 0


def cmd_conjugate(args) -> int:
    space = build_space(args.space)
    doc = conjugate_table(space, args.theta, args.tmax, _aux_from(args))
    _emit(
        doc,
        args,
        rows_key="rows",
        columns=[
            "space",
            "params",
            "theta",
            "t",
            "multiplicity",
            "isotropic_exists",
            "strictly_isotropic",
            "closed_form_match",
        ],
    )
    return 0


def cmd_closedform(args) -> int:
    space = build_space(args.space)
    u, v = geodesic_pair(space, args.theta, _aux_from(args))
    data = extract_cp_data(space, u, v)
    times = closed_form_times(data, args.tmax)
    doc = {
        "space": space.name,
        "theta": args.theta,
        "lambda": data.lam,
        "rho": data.rho,
        "branch": data.branch,
        "times": [t.to_dict() for t in times],
    }
    _emit(doc, args)
    return 0


def cmd_pinching(args) -> int:
    if args.family and args.space:
        sys.stderr.write(f"give a space descriptor or --family, not both ({args.space!r})\n")
        return 3
    if args.family:
        if args.grid is None:
            sys.stderr.write("--grid is required with --family\n")
            return 3
        grid = [float(x) for x in args.grid.split(",") if x.strip()]
        if not grid:
            sys.stderr.write(f"--grid {args.grid!r} holds no s values\n")
            return 3
        rows = pinching_curve(
            args.family, args.m, grid, multistarts=args.multistarts, seed=args.seed
        )
        doc = {"family": args.family, "m": args.m, "rows": rows}
        _emit(
            doc,
            args,
            rows_key="rows",
            columns=["s", "delta_measured", "delta_formula", "rel_error", "converged"],
        )
        return 0
    if not args.space:
        sys.stderr.write("give a space descriptor or --family\n")
        return 3
    report = estimate_pinching(
        build_space(args.space), multistarts=args.multistarts, seed=args.seed
    )
    _emit(report.to_dict(), args)
    return 0


def cmd_reproduce(args) -> int:
    bundle = reproduce(
        args.name,
        t_max_factor=args.tmax_factor,
        seed=args.seed,
        multistarts=args.multistarts,
    )
    _emit(bundle, args)
    if not bundle["pass"]:
        sys.stderr.write(f"reproduction of {args.name} failed\n")
        return 2
    return 0


# -- parser -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="homogeodesy",
        description="Conjugate points and pinching on rank-one normal homogeneous spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list space families and sweep names")
    _output_args(p)
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("verify", help="run the validation suite for a space")
    p.add_argument("space")
    p.add_argument("--check", action="append", choices=ALL_CHECKS)
    p.add_argument("--seed", type=_seed, default=0)
    _output_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("brackets", help="export the bracket table and algebra JSON")
    p.add_argument("space")
    _output_args(p)
    p.set_defaults(func=cmd_brackets)

    for name, fn in (("conjugate", cmd_conjugate), ("closedform", cmd_closedform)):
        p = sub.add_parser(name, help=f"{name} table along a slope-angle geodesic")
        p.add_argument("space")
        p.add_argument("--theta", type=float, default=math.pi / 2)
        p.add_argument("--tmax", type=float, default=12.0)
        p.add_argument("--phi", type=float, default=None)
        p.add_argument("--phi1", type=float, default=None)
        p.add_argument("--phi2", type=float, default=None)
        p.add_argument("--x0", type=float, default=None)
        p.add_argument("--alpha", type=int, default=None)
        _output_args(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("pinching", help="pinching report for a space or an s-curve")
    p.add_argument("space", nargs="?")
    p.add_argument("--family", choices=["berger", "spsphere"])
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--grid", type=str, default=None, help="comma-separated s values")
    p.add_argument("--multistarts", type=int, default=DEFAULT_MULTISTARTS)
    p.add_argument("--seed", type=_seed, default=0)
    _output_args(p)
    p.set_defaults(func=cmd_pinching)

    p = sub.add_parser("reproduce", help="run a theorem-reproduction sweep")
    p.add_argument("name", choices=REPRODUCE_NAMES)
    p.add_argument("--tmax-factor", dest="tmax_factor", type=float, default=7.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--multistarts", type=int, default=DEFAULT_MULTISTARTS)
    _output_args(p)
    p.set_defaults(func=cmd_reproduce)
    return parser


def _output_args(p) -> None:
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", type=str, default=None)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 3
    try:
        return args.func(args)
    except (BadParams, BadAngle, BadAux, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except Mismatch as exc:
        sys.stderr.write(f"mismatch: {exc}\n")
        return 2
    except (
        AlgebraError,
        ClosedFormError,
        GeometryError,
        JacobiError,
        HypothesisViolated,
        NonFiniteOutput,
    ) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
