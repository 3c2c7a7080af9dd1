"""Write the pinned references of the `reproduce` sweeps to tests/reference/.

Run from the repository root, after a change that moves an output on purpose:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/write_references.py

Each reference keeps a sweep's pass verdict and, per cell, its scalar fields,
with each event as [repr(t), multiplicity, isotropic_exists,
strictly_isotropic]; tests/test_references.py recomputes the sweeps and
compares them.  One cell per line, so that a diff shows the cells that moved.
"""
import json
import pathlib

from homogeodesy.report import REPRODUCE_NAMES, reproduce

REFERENCE_DIR = pathlib.Path(__file__).parent / "reference"


def compact(doc: dict) -> dict:
    """A sweep's document with its lists dropped, apart from the events."""
    cells = []
    for cell in doc["cells"]:
        row = {key: value for key, value in cell.items() if not isinstance(value, list)}
        if "events" in cell:
            keys = ("multiplicity", "isotropic_exists", "strictly_isotropic")
            row["events"] = [[repr(ev["t"]), *(ev[key] for key in keys)] for ev in cell["events"]]
        cells.append(row)
    return {"theorem": doc["theorem"], "pass": doc["pass"], "cells": cells}


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in REPRODUCE_NAMES:
        doc = compact(reproduce(name))
        cells = ",\n".join(json.dumps(cell, separators=(",", ":")) for cell in doc["cells"])
        head = f'"theorem": {json.dumps(name)}, "pass": {json.dumps(doc["pass"])}'
        (REFERENCE_DIR / f"{name}.json").write_text(f'{{{head}, "cells": [\n{cells}\n]}}\n')


if __name__ == "__main__":
    main()
