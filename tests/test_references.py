"""The `reproduce` sweeps and the cut-short edge inputs against their pinned
references in tests/reference/.

A refactor must reproduce its parent's sweeps.  Each sweep is recomputed here
and compared cell by cell with the reference that write_references.py wrote:
- the same cells, with the same keys, and the same number of events;
- every event time within jacobi.T_TOL, the promised accuracy of event times;
- equal multiplicities, isotropy flags, pass and converged verdicts, names and
  branches;
- every other number (lambda, rho, k_min, k_max, delta, ...) within 1e-9
  relative, the sweeps' own LAMBDA_RHO_RTOL and the tolerance of the
  benchmark's reference outputs; a number that is zero up to rounding (rho on
  a vertical geodesic, the rel_error of an exact delta) within 1e-12.
An edge input's events are compared in the same way.  Its w7 close pairs near
t = 0.47-0.5 are the kind of event that moved under earlier refactors: a move
there is a finding about clusters, not a reason to loosen the comparison.
"""
import json
import math

import pytest

from homogeodesy.jacobi import T_TOL
from homogeodesy.report import LAMBDA_RHO_RTOL, REPRODUCE_NAMES, reproduce

from write_references import EDGE_INPUTS, EDGE_THETA, REFERENCE_DIR, compact, edge_events

ZERO_ATOL = 1e-12


def _assert_events_match(got, want, where):
    assert len(got) == len(want), (where, len(got), len(want))
    for event, reference in zip(got, want):
        assert abs(float(event[0]) - float(reference[0])) <= T_TOL, (where, event, reference)
        assert event[1:] == reference[1:], (where, event, reference)


def _assert_cell_matches(got, want, where):
    assert got.keys() == want.keys(), (where, sorted(got), sorted(want))
    for key, reference in want.items():
        value = got[key]
        if key == "events":
            _assert_events_match(value, reference, where)
        elif isinstance(reference, float):
            close = math.isclose(value, reference, rel_tol=LAMBDA_RHO_RTOL, abs_tol=ZERO_ATOL)
            assert close, (where, key, value, reference)
        else:
            assert value == reference, (where, key, value, reference)


@pytest.mark.parametrize("name", REPRODUCE_NAMES)
def test_sweep_matches_its_reference(name):
    want = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
    got = compact(reproduce(name))
    assert (got["theorem"], got["pass"]) == (want["theorem"], want["pass"])
    assert len(got["cells"]) == len(want["cells"])
    for index, (cell, reference) in enumerate(zip(got["cells"], want["cells"])):
        _assert_cell_matches(cell, reference, f"{name} cell {index} ({reference['space']})")


@pytest.mark.parametrize("desc,t_max", EDGE_INPUTS)
def test_edge_input_matches_its_reference(desc, t_max):
    want = json.loads((REFERENCE_DIR / "edge.json").read_text())
    reference = {row["space"]: row for row in want["inputs"]}[desc]
    assert (want["theta"], reference["t_max"]) == (EDGE_THETA, t_max)
    _assert_events_match(edge_events(desc, t_max), reference["events"], desc)
