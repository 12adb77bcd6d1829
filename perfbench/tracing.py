"""Outside-in layer tracing: spans around khull's public entry points.

Each traced name is replaced, for the duration of a `Tracer.active()`
block, in every khull module namespace that binds it (a function
imported into another module is bound there too), so calls that cross
modules are seen. Methods and constructors are wrapped on their class.
Spans (name, start, end, parent, work) stay in memory; self time is a
span's duration minus the durations of the wrapped spans nested in it.
"""
from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute, class name or None)
TRACED = (
    ("body.uniform_sample", "body", "uniform_sample", None),
    ("body.surface_sampler", "body", "surface_sampler", "Ball"),
    ("body.surface_sampler", "body", "surface_sampler", "Ellipsoid"),
    ("body.surface_sampler", "body", "surface_sampler", "PNormBall"),
    ("body.surface_sampler", "body", "surface_sampler", "Polytope"),
    ("hull.disk_intersection_boundary", "hull", "disk_intersection_boundary", None),
    ("hull.khull_boundary_2d", "hull", "khull_boundary_2d", None),
    ("hull.IntersectionBody", "hull", "__init__", "IntersectionBody"),
    ("faces.general_position_check_2d", "faces", "general_position_check_2d", None),
    ("faces.kfacet_count_2d", "faces", "kfacet_count_2d", None),
    ("faces.polar_family", "faces", "polar_family", None),
    ("faces.owner_tagged_hull", "faces", "owner_tagged_hull", None),
    ("faces.fvector_from_tagged_hull", "faces", "fvector_from_tagged_hull", None),
    ("faces.tagged_hull_from_points", "faces", "tagged_hull_from_points", None),
    ("tessellation.zero_cell", "tessellation", "zero_cell", None),
    ("tessellation.intrinsic_volumes", "tessellation", "intrinsic_volumes", None),
    ("tessellation.scaled_sample_statistics", "tessellation",
     "scaled_sample_statistics", None),
    ("experiments.run_experiment", "experiments", "run_experiment", None),
)

LAYERS = tuple(dict.fromkeys(name for name, *_ in TRACED))


def _owner_hull_work(args, result) -> tuple[int, int]:
    """(points in, hull vertices out) of one owner_tagged_hull call."""
    family = args[0]
    return sum(len(cloud) for _, cloud in family), int(result.points.shape[0])


_WORK = {"faces.owner_tagged_hull": _owner_hull_work}


class Tracer:
    """Collects spans while active; restores every binding on exit."""

    def __init__(self):
        self.names: list[str] = list(LAYERS)
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = _WORK.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                done = work(args, result) if work and result is not None else None
                spans[idx] = (name_id, start, end, parent, done)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def active(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "khull" or key.startswith("khull."))]
        undo: list[tuple[object, str, object]] = []
        try:
            for name, module, attr, cls_name in TRACED:
                home = sys.modules[f"khull.{module}"]
                if cls_name is not None:
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(name, original))
                    undo.append((cls, attr, original))
                    continue
                original = getattr(home, attr)
                wrapped = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
                            undo.append((m, key, original))
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    def mark(self) -> int:
        """Position in the span list, to delimit the spans of one block."""
        return len(self.spans)

    def summary(self, ranges) -> dict[str, dict[str, float]]:
        """Calls, self seconds and summed work per layer over span ranges."""
        out = {name: {"calls": 0, "self_s": 0.0, "work_in": 0, "work_out": 0}
               for name in self.names}
        child = defaultdict(float)
        for lo, hi in ranges:
            for name_id, start, end, parent, _ in self.spans[lo:hi]:
                if parent >= 0:
                    child[parent] += end - start
        for lo, hi in ranges:
            for idx in range(lo, hi):
                name_id, start, end, _, done = self.spans[idx]
                rec = out[self.names[name_id]]
                rec["calls"] += 1
                rec["self_s"] += (end - start) - child[idx]
                if done is not None:
                    rec["work_in"] += done[0]
                    rec["work_out"] += done[1]
        return out

    def write(self, path) -> None:
        """Dump the spans as CSV: name, start_s, end_s, parent index."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name_id, start, end, parent, _ in self.spans:
                fh.write(f"{self.names[name_id]},{start!r},{end!r},{parent}\n")
