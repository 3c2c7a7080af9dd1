"""Write the pinned references of the `reproduce` sweeps and of the cut-short
edge inputs to tests/reference/.

Run from the repository root, after a change that moves an output on purpose:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/write_references.py

Each sweep's reference keeps its pass verdict and, per cell, its scalar
fields, with each event as [repr(t), multiplicity, isotropic_exists,
strictly_isotropic]; edge.json keeps the events of each of EDGE_INPUTS, scanned
at EDGE_THETA, in the same form.  tests/test_references.py recomputes them and
compares.  One cell (or input) per line, so that a diff shows the ones that
moved.
"""
import json
import pathlib

from homogeodesy.catalog import build_space
from homogeodesy.jacobi import conjugate_events, geodesic_direction
from homogeodesy.report import REPRODUCE_NAMES, reproduce

REFERENCE_DIR = pathlib.Path(__file__).parent / "reference"

# the stiffest inputs the CI step scans (largest kappa, smallest s), cut short
# to t_max so that Tier-1 can take them
EDGE_THETA = 0.7
EDGE_INPUTS = [("cpodd:m=1,kappa=1e4", 1.0), ("spsphere:m=1,s=1e-6", 0.5), ("w7:s=1e-6", 0.5)]
EVENT_KEYS = ("multiplicity", "isotropic_exists", "strictly_isotropic")


def compact_event(event: dict) -> list:
    return [repr(event["t"]), *(event[key] for key in EVENT_KEYS)]


def edge_events(desc: str, t_max: float) -> list[list]:
    """The compact events of an edge input, scanned at EDGE_THETA to t_max."""
    space = build_space(desc)
    events = conjugate_events(space, geodesic_direction(space, EDGE_THETA), t_max)
    return [compact_event(ev.to_dict()) for ev in events]


def compact(doc: dict) -> dict:
    """A sweep's document with its lists dropped, apart from the events."""
    cells = []
    for cell in doc["cells"]:
        row = {key: value for key, value in cell.items() if not isinstance(value, list)}
        if "events" in cell:
            row["events"] = [compact_event(ev) for ev in cell["events"]]
        cells.append(row)
    return {"theorem": doc["theorem"], "pass": doc["pass"], "cells": cells}


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in REPRODUCE_NAMES:
        doc = compact(reproduce(name))
        cells = ",\n".join(json.dumps(cell, separators=(",", ":")) for cell in doc["cells"])
        head = f'"theorem": {json.dumps(name)}, "pass": {json.dumps(doc["pass"])}'
        (REFERENCE_DIR / f"{name}.json").write_text(f'{{{head}, "cells": [\n{cells}\n]}}\n')
    rows = [
        {"space": desc, "t_max": t_max, "events": edge_events(desc, t_max)}
        for desc, t_max in EDGE_INPUTS
    ]
    inputs = ",\n".join(json.dumps(row, separators=(",", ":")) for row in rows)
    (REFERENCE_DIR / "edge.json").write_text(f'{{"theta": {EDGE_THETA}, "inputs": [\n{inputs}\n]}}\n')


if __name__ == "__main__":
    main()
