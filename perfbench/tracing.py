"""Per-layer tracing from outside the program.

``installed`` replaces public functions of the package's modules with timed
wrappers, each at the name its caller looks it up by (for example
``enclosure2d.cli.assemble_dtn_matrix``, which ``cmd_dtn`` calls, or
``enclosure2d.probes.ml_eval_many``, which ``ml_probe_trace`` calls).  A span's
self time is its duration minus the durations of the wrapped calls nested in
it.  The program's source is not changed.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """Span totals per name: calls, self seconds, total seconds; plus counters
    (summed) and problem sizes (largest value seen)."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.sizes: dict[str, int] = {}
        self._child = [0.0]          # time of wrapped children, per open span

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def size(self, name: str, n: int) -> None:
        self.sizes[name] = max(self.sizes.get(name, 0), int(n))

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(tracer, args, result)`` records
        counters.  Its own time counts as a child of the enclosing span, so it
        inflates no layer's self time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self._child.pop()
                self._child[-1] += dt
                span = self.spans.setdefault(name, [0, 0.0, 0.0])
                span[0] += 1
                span[1] += dt - child
                span[2] += dt
            if after is not None:
                t1 = perf_counter()
                after(self, args, result)
                self._child[-1] += perf_counter() - t1
            return result

        return traced

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "sizes": self.sizes}


# ---------------------------------------------------------------------------
# counters recorded after a wrapped call


def _mesh_size(tr: Tracer, args, mesh) -> None:
    tr.size("mesh.vertices", mesh.n_vertices)
    tr.size("mesh.boundary_nodes", len(mesh.boundary_loop))


def _solve_columns(tr: Tracer, args, dtn) -> None:
    tr.count("fem.solve_columns", dtn.matrix.shape[0])


def _dtn_bytes(tr: Tracer, args, _) -> None:
    tr.count("fem.dtn_bytes", os.path.getsize(args[1]))


def _ml_points(tr: Tracer, args, _) -> None:
    """Regime bands by |z| against the hand-off radii, as the dispatcher draws them."""
    params = args[0]
    absz = np.abs(np.asarray(args[1], dtype=complex)).ravel()
    series = int(np.count_nonzero(absz <= params.r_small))
    asym = int(np.count_nonzero(absz >= params.r_large))
    tr.count("mittag.points", absz.size)
    tr.count("mittag.points.series", series)
    tr.count("mittag.points.asymptotic", asym)
    tr.count("mittag.points.kernel", absz.size - series - asym)


def _classify_tie(tr: Tracer, args, result) -> None:
    if result[1]:
        tr.count("indicator.low_confidence")


def _targets():
    """(owner, attribute, span name, counter hook) for every wrapped name."""
    import enclosure2d.cli as cli
    import enclosure2d.fem as fem
    import enclosure2d.indicator as indicator
    import enclosure2d.mittag as mittag
    import enclosure2d.probes as probes

    return [
        (cli, "cmd_mesh", "cli.mesh", None),
        (cli, "cmd_dtn", "cli.dtn", None),
        (cli, "cmd_indicate", "cli.indicate", None),
        (cli, "cmd_reconstruct", "cli.reconstruct", None),
        (cli, "cmd_mleval", "cli.mleval", None),
        (cli, "build_disk_mesh", "mesh.build", _mesh_size),
        (cli, "write_mesh", "mesh.write", None),
        (fem.DirichletSystem, "__init__", "fem.system", None),
        (cli, "assemble_dtn_matrix", "fem.solve", _solve_columns),
        (cli, "write_dtn", "fem.write_dtn", _dtn_bytes),
        (cli, "read_dtn", "fem.read_dtn", None),
        (fem.BoundaryBasis, "expand", "fem.expand", None),
        (indicator, "cgo_trace", "probes.cgo_trace", None),
        (indicator, "ml_probe_trace", "probes.ml_trace", None),
        (mittag, "ml_eval_many", "mittag.eval", _ml_points),      # ml_eval, hence mleval
        (probes, "ml_eval_many", "mittag.eval", _ml_points),      # ml_probe_trace
        (cli, "transition_search_ml", "indicator.search", None),
        (indicator, "classify_series", "indicator.classify", _classify_tie),
        (cli, "indicator_cgo", "indicator.cgo", None),            # indicate
        (indicator, "indicator_cgo", "indicator.cgo", None),      # reconstruct's support fits
        (cli, "indicator_ml", "indicator.ml", None),
        (cli, "fit_support_directions", "indicator.fit", None),
        (cli, "convex_hull_estimate", "indicator.carve", None),
        (cli, "cone_carving", "indicator.carve", None),
        (cli, "write_indicator_csv", "indicator.output", None),
        (cli, "write_region_svg", "indicator.output", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore them."""
    saved = []
    try:
        for owner, attr, name, hook in _targets():
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, hook))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics from the merged counters of a traced pipeline


def merge(parts: list[dict]) -> dict:
    """Sum spans and counters over the traced children; keep the largest sizes."""
    out = {"spans": {}, "counts": {}, "sizes": {}, "warnings": {}}
    for p in parts:
        for name, (calls, self_s, total_s) in p["spans"].items():
            s = out["spans"].setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += self_s
            s[2] += total_s
        for key in ("counts", "warnings"):
            for name, n in p.get(key, {}).items():
                out[key][name] = out[key].get(name, 0) + n
        for name, n in p["sizes"].items():
            out["sizes"][name] = max(out["sizes"].get(name, 0), n)
    return out


def layer_metrics(merged: dict) -> dict:
    """Per-layer metric values (seconds are self times)."""
    spans, counts, sizes = merged["spans"], merged["counts"], merged["sizes"]

    def self_s(*names):
        return float(sum(spans.get(n, [0, 0.0, 0.0])[1] for n in names))

    def calls(name):
        return int(spans.get(name, [0])[0])

    return {
        "mesh.build_s": self_s("mesh.build"),
        "mesh.write_s": self_s("mesh.write"),
        "mesh.vertices": sizes.get("mesh.vertices", 0),
        "mesh.boundary_nodes": sizes.get("mesh.boundary_nodes", 0),
        "fem.system_s": self_s("fem.system"),
        "fem.systems": calls("fem.system"),
        "fem.solve_s": self_s("fem.solve"),
        "fem.solve_columns": int(counts.get("fem.solve_columns", 0)),
        "fem.write_dtn_s": self_s("fem.write_dtn"),
        "fem.dtn_bytes": int(counts.get("fem.dtn_bytes", 0)),
        "fem.read_dtn_s": self_s("fem.read_dtn"),
        "fem.expand_s": self_s("fem.expand"),
        "fem.expand_calls": calls("fem.expand"),
        "probes.cgo_trace_s": self_s("probes.cgo_trace"),
        "probes.cgo_trace_calls": calls("probes.cgo_trace"),
        "probes.ml_trace_s": self_s("probes.ml_trace"),
        "probes.ml_trace_calls": calls("probes.ml_trace"),
        "mittag.eval_s": self_s("mittag.eval"),
        "mittag.calls": calls("mittag.eval"),
        "mittag.points": int(counts.get("mittag.points", 0)),
        "mittag.points.series": int(counts.get("mittag.points.series", 0)),
        "mittag.points.kernel": int(counts.get("mittag.points.kernel", 0)),
        "mittag.points.asymptotic": int(counts.get("mittag.points.asymptotic", 0)),
        "mittag.uncertified": int(merged["warnings"].get("MLAccuracyWarning", 0)),
        "indicator.search_s": self_s("indicator.search"),
        "indicator.searches": calls("indicator.search"),
        "indicator.classify_calls": calls("indicator.classify"),
        "indicator.low_confidence": int(counts.get("indicator.low_confidence", 0)),
        "indicator.cgo_s": self_s("indicator.cgo"),
        "indicator.cgo_calls": calls("indicator.cgo"),
        "indicator.ml_s": self_s("indicator.ml"),
        "indicator.ml_calls": calls("indicator.ml"),
        "indicator.fit_s": self_s("indicator.fit"),
        "indicator.carve_s": self_s("indicator.carve"),
        "indicator.output_s": self_s("indicator.output"),
        "cli.self_s": self_s("cli.mesh", "cli.dtn", "cli.indicate", "cli.reconstruct",
                             "cli.mleval"),
    }
