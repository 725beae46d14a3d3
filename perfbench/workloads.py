"""The benchmark's three workloads: fixed experiment configs and the CLI
subcommands that run them.

Every seed yields the same inputs.  The quality metrics and work counts must
repeat exactly from run to run, the SHA-256 comparison needs one reference
per workload, and an input variant is only usable once it has been shown to
produce no unsound hull or cone, which one 60-80 s cone run per candidate
makes impractical for arbitrary seeds.  The seed is still recorded with each
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

HULL_CONFIG = """\
[domain]
radius = 1.0
mesh_h = 0.0102

[inclusion]
kind = disk
center = 0.0 0.0
radius = 0.5

[coefficients]
a = 1.0
b = 0.5
omega = 1.0

[probes]
family = cgo
directions = 16
t = 0.0
tau_min = 1.0
tau_max = 15.0
tau_points = 12
"""

CONE_CONFIG = """\
[domain]
radius = 1.0
mesh_h = 0.0102

[inclusion]
kind = disk
center = 0.3 0.0
radius = 0.3

[coefficients]
a = 1.0
b = 0.0
omega = 0.0

[probes]
family = mittag_leffler
t = -0.7
tau_min = 0.35
tau_max = 2.4
tau_points = 16
ml_alpha = 0.5
vertex_ring_radius = 3.0
vertex_count = 8
direction_offset_deg = 70.0
t_search = -6.0 -0.2
"""

# |Re z|, |Im z| <= 32 on an odd grid, so z = 0 and the imaginary axis (the
# sector edge |arg z| = pi*alpha for alpha = 1/2) are grid points.
ML_ALPHA = 0.5
ML_EXTENT = 32
ML_N = 201

CONFIG_FILE = "workload.cfg"
OUT_DIR = "out"        # the CLI's default output directory, relative to the run directory
ML_FILE = "ml.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]     # CLI argv lists, run in order
    config: Optional[str] = None              # experiment config text, if the commands read one
    outputs: tuple[str, ...] = ()             # numeric output files, relative to the run directory
    # ground truth, for the output checks
    inclusion: Optional[tuple[tuple[float, float], float]] = None   # disk centre, radius
    directions: int = 0
    ml_alpha: float = ML_ALPHA
    ml_points: int = 0                        # grid points tabulated by mleval
    cone_geometry: tuple = ()                 # ((y, theta), ...) of the ML probes
    t_search: tuple[float, float] = (0.0, 0.0)


def _ring_geometry(count: int, radius: float, offset_deg: float):
    """Vertex/direction pairs as ExperimentConfig.ml_probe_geometry builds them."""
    pairs = []
    off = math.radians(offset_deg)
    for k in range(count):
        phi = 2 * math.pi * k / count
        y = (radius * math.cos(phi), radius * math.sin(phi))
        ang = phi + (off if k % 2 == 0 else -off)
        pairs.append((y, (math.cos(ang), math.sin(ang))))
    return tuple(pairs)


_PIPELINE_OUTPUTS = ("mesh.txt", "dtn_perturbed.txt", "dtn_background.txt",
                     "indicators.csv")


def _pipeline(dtn_args: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    cfg = ("--config", CONFIG_FILE)
    return (("mesh",) + cfg, ("dtn",) + cfg + dtn_args,
            ("indicate",) + cfg, ("reconstruct",) + cfg)


WORKLOADS = {
    "hull": Workload(
        name="hull", config=HULL_CONFIG,
        commands=_pipeline(("--basis", "fourier", "--modes", "64")),
        outputs=tuple(f"{OUT_DIR}/{f}" for f in _PIPELINE_OUTPUTS + ("hull.csv", "overlay.svg")),
        inclusion=((0.0, 0.0), 0.5), directions=16),
    "cone": Workload(
        name="cone", config=CONE_CONFIG,
        commands=_pipeline(("--basis", "nodal")),
        outputs=tuple(f"{OUT_DIR}/{f}" for f in _PIPELINE_OUTPUTS + ("cones.csv", "overlay.svg")),
        inclusion=((0.3, 0.0), 0.3),
        cone_geometry=_ring_geometry(8, 3.0, 70.0), t_search=(-6.0, -0.2)),
    "mlgrid": Workload(
        name="mlgrid",
        commands=(("mleval", "--alpha", f"{ML_ALPHA}",
                   "--grid", f"-{ML_EXTENT} {ML_EXTENT} -{ML_EXTENT} {ML_EXTENT} {ML_N}",
                   "--out", ML_FILE),),
        outputs=(ML_FILE,), ml_points=ML_N * ML_N),
}


def workload(name: str, seed: int) -> Workload:
    """The inputs of one run; identical for every seed (see the module docstring)."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return WORKLOADS[name]
