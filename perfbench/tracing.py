"""In-memory span tracer that instruments teichlen from outside.

Each traced public function is replaced, in every teichlen module that
binds its name, by a wrapper that records one span: name, parent span,
start and end.  Spans live in flat arrays while the traced pass runs and
are written out afterwards; self time is a span's duration minus the
durations of its direct children.  A few functions that run tens of
thousands of times per operation are counted instead of spanned, so
their time stays in their caller's self time.  Nothing inside the
library changes, and ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

# Span targets: (module, attribute path, span name).  Several parsers
# share one name, because the file layer is one step of a command.
SPANNED = (
    ("distance", "kerckhoff_distance_estimate", "distance.kerckhoff_distance_estimate"),
    ("distance", "default_curve_family", "distance.default_curve_family"),
    ("distance", "product_region_discrepancy", "distance.product_region_discrepancy"),
    ("collar", "collar_decomposition", "collar.collar_decomposition"),
    ("pants", "pants_orthogeodesics", "pants.pants_orthogeodesics"),
    ("extremal", "lambda_surface_estimate", "extremal.lambda_surface_estimate"),
    ("files", "parse_surface", "files.parse"),
    ("files", "parse_fn", "files.parse"),
    ("files", "parse_curves", "files.parse"),
    ("halfplane", "geodesic_point", "halfplane.geodesic_point"),
    ("halfplane", "hyp_distance", "halfplane.hyp_distance"),
    ("instability", "instability_lower_bound", "instability.instability_lower_bound"),
    ("instability", "segment_distance", "instability.segment_distance"),
    ("instability", "hyp_product_space", "instability.hyp_product_space"),
    ("instability", "sup_product_space", "instability.sup_product_space"),
    ("spaces", "pi_image_space", "spaces.pi_image_space"),
    ("surface", "Marking.pinch", "surface.Marking.pinch"),
    ("cli", "main", "cli.main"),
)

# Count-only targets: about four calls per family member and point.
COUNTED = (
    ("extremal", "arc_multiplicities", "extremal.arc_multiplicities.calls"),
)

# Constructors of the spaces the workloads search; their handles get counted hooks.
SPACE_CONSTRUCTORS = {
    "instability.hyp_product_space", "instability.sup_product_space", "spaces.pi_image_space",
}


def program_modules():
    """The loaded teichlen package and its submodules."""
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "teichlen" or name.startswith("teichlen."))]


def clear_program_caches():
    """Empty every functools cache held at module level in teichlen."""
    for mod in program_modules():
        for obj in list(vars(mod).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def _resolve(module: str, path: str):
    """(owner, attribute, object) for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(f"teichlen.{module}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; ``after(args, kwargs, result)`` runs on return."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def run(self, name: str, thunk):
        """Call ``thunk()`` inside a span of the benchmark itself."""
        return self.wrap(name, thunk)()

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_iter(self, key: str, fn):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.count(key)
                yield item

        return wrapper

    def _instrument_space(self, args, kwargs, handle):
        """Count the candidates a space handle's search hooks produce."""
        if getattr(handle, "witnesses", None) is not None:
            handle.witnesses = self._counted_iter(
                "instability.candidates.structured", handle.witnesses)
        if getattr(handle, "random_triple", None) is not None:
            handle.random_triple = self._counted(
                "instability.candidates.random", handle.random_triple)

    def _after(self, name: str, fn):
        if name == "distance.kerckhoff_distance_estimate":
            signature = inspect.signature(fn)

            def members(args, kwargs, result):
                family = signature.bind(*args, **kwargs).arguments.get("family")
                if family is not None:
                    self.count("distance.kerckhoff_distance_estimate.members", len(family))

            return members
        if name == "distance.default_curve_family":
            return lambda args, kwargs, result: self.count(
                "distance.default_curve_family.members", len(result))
        if name in SPACE_CONSTRUCTORS:
            return self._instrument_space
        return None

    def _patch(self, module: str, path: str, make):
        found = _resolve(module, path)
        if found is None:
            return
        owner, attr, original = found
        replacement = make(original)
        if "." in path:  # a method: the class is its only binding
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        for mod in program_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, replacement)

    def install(self):
        for module, path, name in SPANNED:
            self._patch(module, path,
                        lambda fn, name=name: self.wrap(name, fn, self._after(name, fn)))
        for module, path, key in COUNTED:
            self._patch(module, path, lambda fn, key=key: self._counted(key, fn))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        import numpy as np

        name = np.frombuffer(self.span_name, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = (np.frombuffer(self.span_end, dtype=float)
                    - np.frombuffer(self.span_start, dtype=float))
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=len(duration))
        own = duration - children
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(total[i])) for i, n in enumerate(self.names)}

    def save(self, path):
        """Write every span (name id, parent index, start, end) as one .npz file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
        )
