"""Outside-in spans: wrap library functions at the names their callers look up.

A traced run replaces every binding of a tracked function (in the package
modules, the package namespace, and ``scipy.linalg`` for ``expm``) with a
wrapper that records one span per call: layer name, parent span, item id,
start and end.  ``uninstall`` restores the original bindings, and
``installed_wrappers`` counts wrappers still bound, so an untraced run can
prove it measures the unwrapped library.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer name -> (module that defines the function, attribute)
LAYERS = {
    "jacobi.expm": ("scipy.linalg", "expm"),
    "jacobi.fundamental_block": ("homogeodesy.jacobi", "fundamental_block"),
    "jacobi.scan_conjugate_times": ("homogeodesy.jacobi", "scan_conjugate_times"),
    "jacobi.build_system": ("homogeodesy.jacobi", "build_system"),
    "jacobi.classify_isotropy": ("homogeodesy.jacobi", "classify_isotropy"),
    "jacobi.geodesic_pair": ("homogeodesy.jacobi", "geodesic_pair"),
    "closed_form.extract_cp_data": ("homogeodesy.closed_form", "extract_cp_data"),
    "closed_form.closed_form_times": ("homogeodesy.closed_form", "closed_form_times"),
    "closed_form.cross_validate": ("homogeodesy.closed_form", "cross_validate"),
    "catalog.build_space": ("homogeodesy.catalog", "build_space"),
    "algebra.assemble_algebra": ("homogeodesy.algebra", "assemble_algebra"),
    "pinching.estimate_pinching": ("homogeodesy.pinching", "estimate_pinching"),
    "pinching.expected_delta": ("homogeodesy.pinching", "expected_delta"),
}

# outputs counted where the work happens: layer -> counter name, count of a result
RESULT_COUNTERS = {
    "jacobi.scan_conjugate_times": ("jacobi.events", len),
    "pinching.estimate_pinching": ("pinching.converged", lambda rep: int(rep.converged)),
}

_MARK = "_bench_layer"


def _binding_modules() -> list:
    """Modules whose globals may bind a tracked function."""
    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "homogeodesy"]
    return mods + [importlib.import_module("scipy.linalg")]


def installed_wrappers() -> int:
    """How many bindings in the package (and scipy.linalg) are benchmark wrappers."""
    return sum(
        1
        for mod in _binding_modules()
        for value in list(vars(mod).values())
        if callable(value) and hasattr(value, _MARK)
    )


class Tracer:
    """Spans and result counts for the calls made while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (layer, parent index or -1, item, start, end)
        self.counts: dict[str, int] = defaultdict(int)
        self.item = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = RESULT_COUNTERS.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, parent, self.item, start, end)
            if counter is not None:
                counts[counter[0]] += counter[1](result)
            return result

        setattr(wrapper, _MARK, layer)
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _binding_modules()
        for layer, (mod_name, attr) in LAYERS.items():
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is None:
                continue  # the layer no longer exists; its metrics read 0
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))

    def uninstall(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict[str, dict]:
        """Per layer: calls, total seconds, self seconds (minus child spans)."""
        child = [0.0] * len(self.spans)
        for layer, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for index, (layer, _, _, start, end) in enumerate(self.spans):
            row = out[layer]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[index]
        return out

    def edges(self) -> dict[tuple[str, str], int]:
        """Call counts per (parent layer, child layer), the span tree in brief."""
        out: dict[tuple[str, str], int] = defaultdict(int)
        for layer, parent, *_ in self.spans:
            out[(self.spans[parent][0] if parent >= 0 else "item", layer)] += 1
        return out
