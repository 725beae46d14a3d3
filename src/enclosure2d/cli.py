"""Experiment driver: mesh -> field -> operator assembly -> indicator sweeps ->
reconstruction.

Configuration is a flat sectioned key-value file (INI syntax, see
``example_config``).  A section or key that no read takes under the config's
own choices is refused: a disk's ``semi_axes``, say; ``[probes]`` is the
exception, and takes both probe families' keys whichever family it names.
``[coefficients]`` states the one material: the jumps ``a`` and ``b`` of sigma
and epsilon on the inclusion over the constant background ``sigma0``,
``epsilon0`` (default 1 and 0) at frequency ``omega``, which the field
reduces to the unit background.  Every output file carries provenance lines
with the config hash, mesh size, and solver tolerance: a header in the text
files, and the ``provenance`` entry of the operator archive.  Only mesh and
dtn use ``[domain]``: reconstruction commands take the domain radius and mesh
size from that archive and the probes from the config, never the mesh
interior, unless validation mode rebuilds the mesh from the archive's radius
and size and the config's inclusion.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the operator archive then keeps its
# bytes whatever thread count the environment asks for, and the forked workers
# of dtn and reconstruct do not oversubscribe the cores they share.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import configparser
import hashlib
import math
import mmap
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, mittag
from .admittivity import AdmittivityField, FieldError
from .fem import (DtNMatrix, SolverError, assemble_dtn_matrix, check_band_limit, gap_matrix,
                  nodal_basis_for_mesh, read_dtn, write_dtn)
from .indicator import (IndicatorError, cone_carving, convex_hull_estimate,
                        cones_avoid_shape, fit_support_directions,
                        hull_contains_shape, indicator_cgo, indicator_ml, j_oracle,
                        transition_search_ml, write_indicator_csv, write_region_svg)
from .mesh import Mesh, MeshError, ShapeSpec, build_disk_mesh, provenance_header, write_mesh
from .mittag import MLError, MLParams
from .probes import ProbeSpec, ProbeError

EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# the operator archive of a dtn run, in the output directory
DTN_FILE = "dtn.npz"


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    """Validated experiment parameters (see ``example_config`` for the file format)."""

    domain_radius: float = 1.0
    mesh_h: float = 0.05
    inclusion: Optional[ShapeSpec] = None
    a_value: float = 1.0
    b_value: float = 0.0
    omega: float = 0.0
    sigma0: float = 1.0
    epsilon0: float = 0.0
    probe_family: str = "cgo"
    n_directions: int = 16
    t_value: float = 0.0
    tau_min: float = 1.0
    tau_max: Optional[float] = None
    tau_points: int = 12
    ml_alpha: float = 0.5
    vertex_ring_radius: float = 3.0
    vertex_count: int = 16
    direction_offset_deg: float = 70.0
    t_search: tuple[float, float] = (-5.0, -0.2)
    out_dir: str = "out"
    validation_mode: bool = False
    config_hash: str = ""

    def tau_ladder(self, h: float) -> np.ndarray:
        """Geometric tau grid from tau_min to tau_max, by default to the
        mesh-resolution cap 0.3 / h of mesh size h (at least 2 tau_min)."""
        top = self.tau_max
        if top is None:
            top = max(0.3 / h, 2.0 * self.tau_min)
        return np.geomspace(self.tau_min, top, self.tau_points)

    def probes(self, h: float) -> list[ProbeSpec]:
        """The configured family's probes at depth t over the tau ladder for
        mesh size h, with theta_perp the left normal of theta: exponential
        probes in equally spaced directions, or cone probes with vertices on
        the ring, each probing at the configured offset angle from the outward
        radial (alternating side).  Warns if the ladder's top exceeds the
        mesh-resolution advisory 0.9 / h."""
        taus = self.tau_ladder(h)
        if taus[-1] * h > 0.9:
            warnings.warn(f"tau_max = {taus[-1]:g} exceeds the mesh-resolution "
                          f"advisory {0.9 / h:g} for mesh_h = {h:g}")
        if self.probe_family == "cgo":
            ang = 2 * math.pi * np.arange(self.n_directions) / self.n_directions
            return [ProbeSpec(kind="cgo", theta=(c, s), theta_perp=(-s, c), t=self.t_value,
                              tau=taus) for c, s in zip(np.cos(ang), np.sin(ang))]
        off = math.radians(self.direction_offset_deg)
        probes = []
        for k in range(self.vertex_count):
            phi = 2 * math.pi * k / self.vertex_count
            ang = phi + (off if k % 2 == 0 else -off)
            c, s = math.cos(ang), math.sin(ang)
            y = (self.vertex_ring_radius * math.cos(phi), self.vertex_ring_radius * math.sin(phi))
            probes.append(ProbeSpec(kind="mittag_leffler", theta=(c, s), theta_perp=(-s, c),
                                    t=self.t_value, tau=taus, y=y, alpha=self.ml_alpha))
        return probes

    def provenance(self, h: float) -> dict:
        return {"config": self.config_hash, "mesh_h": f"{h:.17g}",
                "solver_tol": "1e-10", "version": __version__}


def example_config() -> str:
    return """\
[domain]
radius = 1.0          ; domain disk radius (length units)
mesh_h = 0.05         ; target element size

[inclusion]
kind = disk           ; disk | ellipse | polygon | none
center = 0.0 0.0
radius = 0.5
; ellipse: semi_axes = 0.4 0.2 / rotation = 0.0 (radians)
; polygon: vertices = x1 y1; x2 y2; ... (convex, counterclockwise)

[coefficients]
a = 1.0               ; jump of the conductivity (a*I on the inclusion)
b = 0.0               ; jump of the permittivity (b*I on the inclusion)
omega = 0.0           ; frequency
;sigma0 = 1.0         ; background conductivity (default 1)
;epsilon0 = 0.0       ; background permittivity (default 0)

[probes]
family = cgo          ; cgo | mittag_leffler
directions = 16       ; direction count for support sweeps
t = 0.0               ; probe depth for indicator sweeps
tau_min = 1.0
tau_points = 12
; tau_max = 20.0      ; default: mesh-resolution cap 0.3 / mesh_h
ml_alpha = 0.5        ; order of the cone probes
vertex_ring_radius = 3.0
vertex_count = 16
direction_offset_deg = 70.0
t_search = -5.0 -0.2  ; offset interval for the transition search

[output]
directory = out
"""


def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    # a [DEFAULT] section would lend its keys to every section
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    cfg = ExperimentConfig()
    cfg.config_hash = hashlib.sha256(text.encode()).hexdigest()[:16]
    read = set()        # every (section, key) that get took, present in the file or not

    def get(section, key, cast, default=None, required=False):
        read.add((section, key))
        if not (required or parser.has_option(section, key)):
            return default
        raw = parser.get(section, key)      # NoOptionError if a required key is missing
        try:
            value = cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
        if cast is float and not math.isfinite(value):
            raise ConfigError(f"[{section}] {key}: {raw!r} is not a finite number")
        return value

    cfg.domain_radius = get("domain", "radius", float, cfg.domain_radius)
    cfg.mesh_h = get("domain", "mesh_h", float, cfg.mesh_h)
    # the mesher has no refinement; older templates still carry refine_levels = 0
    if get("domain", "refine_levels", int, 0) != 0:
        raise ConfigError("[domain] refine_levels: mesh refinement is not supported; "
                          "set it to 0 or remove it")

    kind = get("inclusion", "kind", str, "none").strip().lower()
    if kind != "none":
        # a polygon's vertices place it: only a disk and an ellipse read a center
        center = (get("inclusion", "center", _parse_pair, (0.0, 0.0))
                  if kind in ("disk", "ellipse") else None)
        try:
            if kind == "disk":
                cfg.inclusion = ShapeSpec.disk(center, get("inclusion", "radius", float,
                                                           required=True))
            elif kind == "ellipse":
                cfg.inclusion = ShapeSpec.ellipse(
                    center, get("inclusion", "semi_axes", _parse_pair, required=True),
                    get("inclusion", "rotation", float, 0.0))
            elif kind == "polygon":
                verts = get("inclusion", "vertices", lambda text: [
                    _parse_pair(p) for p in text.split(";") if p.strip()], required=True)
                cfg.inclusion = ShapeSpec.polygon(np.array(verts))
            else:
                raise ConfigError(f"[inclusion] unknown kind {kind!r}")
        except (MeshError, configparser.NoOptionError) as exc:
            raise ConfigError(f"[inclusion] {exc}") from exc

    cfg.a_value = get("coefficients", "a", float, cfg.a_value)
    cfg.b_value = get("coefficients", "b", float, cfg.b_value)
    cfg.omega = get("coefficients", "omega", float, cfg.omega)
    cfg.sigma0 = get("coefficients", "sigma0", float, cfg.sigma0)
    cfg.epsilon0 = get("coefficients", "epsilon0", float, cfg.epsilon0)
    for key in ("omega", "sigma0", "epsilon0"):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"[coefficients] {key} must be nonnegative")

    cfg.probe_family = get("probes", "family", str, cfg.probe_family).strip().lower()
    if cfg.probe_family not in ("cgo", "mittag_leffler"):
        raise ConfigError(f"[probes] unknown family {cfg.probe_family!r}")
    cfg.n_directions = get("probes", "directions", int, cfg.n_directions)
    cfg.t_value = get("probes", "t", float, cfg.t_value)
    cfg.tau_min = get("probes", "tau_min", float, cfg.tau_min)
    cfg.tau_max = get("probes", "tau_max", float, cfg.tau_max)
    cfg.tau_points = get("probes", "tau_points", int, cfg.tau_points)
    cfg.ml_alpha = get("probes", "ml_alpha", float, cfg.ml_alpha)
    cfg.vertex_ring_radius = get("probes", "vertex_ring_radius", float, cfg.vertex_ring_radius)
    cfg.vertex_count = get("probes", "vertex_count", int, cfg.vertex_count)
    cfg.direction_offset_deg = get("probes", "direction_offset_deg", float,
                                   cfg.direction_offset_deg)
    cfg.t_search = get("probes", "t_search", _parse_pair, cfg.t_search)
    if not (0 < cfg.ml_alpha < 1):
        raise ConfigError("[probes] ml_alpha must lie in (0, 1)")
    if cfg.tau_points < 5:
        raise ConfigError("[probes] need at least 5 tau points")
    if not cfg.tau_min > 0:
        raise ConfigError("[probes] tau_min must be positive")
    if cfg.tau_max is not None and not cfg.tau_max > cfg.tau_min:
        raise ConfigError("[probes] tau_max must exceed tau_min")
    if cfg.n_directions < 3:
        raise ConfigError("[probes] need at least 3 directions")
    if cfg.vertex_count < 1:
        raise ConfigError("[probes] need at least 1 cone vertex")
    if not (cfg.t_search[0] < cfg.t_search[1] < 0):
        raise ConfigError("[probes] t_search must satisfy t_lo < t_hi < 0")

    cfg.out_dir = get("output", "directory", str, cfg.out_dir)
    # --validate is the one switch; older templates still carry validation_mode = false
    if get("output", "validation_mode", lambda s: s.strip().lower() in ("1", "true", "yes"),
           False):
        raise ConfigError("[output] validation_mode: use the --validate flag of indicate "
                          "and reconstruct; set it to false or remove it")

    # the reads above are the format: a section or key that none of them took,
    # under the choices the file makes itself, would be ignored, so it is refused
    for section in parser.sections():
        if not any(s == section for s, _ in read):
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if (section, key) not in read:
                raise ConfigError(f"[{section}] unknown key {key!r}")
    return cfg


def _parse_pair(text: str) -> tuple[float, float]:
    try:
        x, y = map(float, text.replace(",", " ").split())
    except ValueError:                  # not two parts, or one that is no number
        x = y = math.nan
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ConfigError(f"expected two finite numbers, got {text!r}")
    return x, y


# ---------------------------------------------------------------------------
# Shared pipeline pieces


def _build_mesh(cfg: ExperimentConfig) -> Mesh:
    try:
        return build_disk_mesh(cfg.domain_radius, cfg.mesh_h, cfg.inclusion)
    except MeshError as exc:        # each of the mesher's checks reads the mesh size
        raise ConfigError(f"[domain] mesh_h: {exc}") from exc


def _build_field(cfg: ExperimentConfig, mesh: Mesh) -> AdmittivityField:
    return AdmittivityField.from_scalars(mesh, cfg.a_value, cfg.b_value, cfg.omega,
                                         cfg.sigma0, cfg.epsilon0)


def _out(cfg: ExperimentConfig) -> Path:
    p = Path(cfg.out_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


# the task of a forked worker, inherited with everything it reads, so that
# only task indices and results cross the pipe
_task = None


def _set_task(task) -> None:
    global _task
    _task = task


def _run_task(i: int):
    """_task(i) in a worker, with every warning it raised, unfiltered."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = _task(i)
    return result, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _in_workers(task, n: int) -> list:
    """[task(0), ..., task(n - 1)] from a pool of forked processes, at most one
    per core.  Each task's warnings are re-emitted here, in input order and
    through this process's filters, so stderr reads as in one process."""
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    results, registry = [], {}
    # fork stated explicitly (Python 3.14 changes the default), so that the
    # task reaches the workers unpickled; the with block joins every worker,
    # on the error path too
    with ProcessPoolExecutor(min(n, len(os.sched_getaffinity(0))),
                             mp_context=get_context("fork"), initializer=_set_task,
                             initargs=(task,)) as pool:
        for result, caught in pool.map(_run_task, range(n)):
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno, registry=registry)
            results.append(result)
    return results


# ---------------------------------------------------------------------------
# Subcommands


def cmd_mesh(cfg: ExperimentConfig) -> int:
    mesh = _build_mesh(cfg)
    out = _out(cfg) / "mesh.txt"
    write_mesh(mesh, out, provenance=cfg.provenance(mesh.h))
    print(f"mesh: {mesh.n_vertices} vertices, {mesh.n_triangles} triangles, "
          f"{len(mesh.boundary_loop)} boundary nodes -> {out}")
    return 0


def cmd_dtn(cfg: ExperimentConfig, modes: int = 0) -> int:
    """The operator archive DTN_FILE of the perturbed and the background
    operator, band-limited to the modes |n| <= modes, or full for modes = 0."""
    mesh = _build_mesh(cfg)
    try:
        check_band_limit(modes, len(mesh.boundary_loop))
    except ValueError as exc:
        raise ConfigError(f"--modes: {exc}") from exc
    names = ("perturbed", "background")
    n = len(mesh.boundary_loop)
    # one anonymous map shared with the workers, a half for each operator: a
    # worker condenses its root into its half and writes its operator there,
    # complex128 or float64 in the half's first bytes, so that only the
    # operator's dtype and scale cross the pipe
    shared = mmap.mmap(-1, 2 * n * n * 16)

    def operator(i: int) -> tuple[np.dtype, float]:
        # each worker builds only its own field, and holds it no longer than
        # it takes to form its coefficient; an invalid perturbed field fails
        # in its worker, and _in_workers re-raises that error once
        half = memoryview(shared)[i * n * n * 16:(i + 1) * n * n * 16]
        try:
            dtn = assemble_dtn_matrix(mesh, _build_field(cfg, mesh) if i == 0
                                      else AdmittivityField.from_scalars(mesh, 0, 0, cfg.omega),
                                      modes, out=half)
        except SolverError as exc:
            raise SolverError(f"{names[i]} operator: {exc}") from exc
        return dtn.matrix.dtype, dtn.scale

    # the two systems share the mesh and its dissection, formed here once
    # before the two workers fork, so that each condenses one system with it
    # and inherits no field
    mesh.dissection

    basis = nodal_basis_for_mesh(mesh)
    pair = tuple(DtNMatrix(basis=basis, omega=cfg.omega, mesh_h=mesh.h, modes=modes,
                           scale=scale,
                           matrix=np.frombuffer(shared, dtype, n * n, i * n * n * 16).reshape(n, n))
                 for i, (dtype, scale) in enumerate(_in_workers(operator, len(names))))
    out = _out(cfg) / DTN_FILE
    write_dtn(pair, out, provenance=cfg.provenance(mesh.h))
    del pair            # the views of the map, which it cannot close while they stand
    shared.close()
    print(f"operators: {n} nodes, band limit {modes or 'none'} -> {out}")
    return 0


def _load_gap(cfg: ExperimentConfig) -> DtNMatrix:
    """The operator gap of the dtn run's archive."""
    path = _out(cfg) / DTN_FILE
    if not path.exists():
        raise ConfigError(f"missing operator file {path}; run the dtn command first")
    try:
        return gap_matrix(read_dtn(path))
    except SolverError as exc:
        raise ConfigError(f"cannot read operator file {path}: {exc}") from exc


def cmd_indicate(cfg: ExperimentConfig) -> int:
    gap = _load_gap(cfg)
    mesh = (build_disk_mesh(gap.basis.radius, gap.mesh_h, cfg.inclusion)
            if cfg.validation_mode else None)
    rows = []
    for probe in cfg.probes(gap.mesh_h):
        vals = indicator_cgo(gap, probe) if probe.kind == "cgo" else indicator_ml(gap, probe)
        js = j_oracle(mesh, probe).tolist() if mesh is not None else [None] * len(vals)
        y_x, y_y = probe.y or (None, None)
        for tau, val, j in zip(probe.tau.tolist(), vals.tolist(), js):
            rows.append({"family": probe.kind, "alpha": probe.alpha, "theta_x": probe.theta[0],
                         "theta_y": probe.theta[1], "y_x": y_x, "y_y": y_y, "t": probe.t,
                         "tau": tau, "I": val, "J": j,
                         "logabsI": math.log(abs(val)) if val != 0 and math.isfinite(val)
                         else None})
    out = _out(cfg) / "indicators.csv"
    write_indicator_csv(out, rows, provenance=cfg.provenance(gap.mesh_h))
    print(f"indicators: {len(rows)} rows -> {out}")
    return 0


def cmd_reconstruct(cfg: ExperimentConfig) -> int:
    gap = _load_gap(cfg)
    probes = cfg.probes(gap.mesh_h)
    out = _out(cfg)
    if cfg.probe_family == "cgo":
        fits = fit_support_directions(gap, probes)
        region = convex_hull_estimate(fits, gap.basis.radius)
        with open(out / "hull.csv", "w") as f:
            f.write(provenance_header(cfg.provenance(gap.mesh_h)))
            f.write("x,y\n")
            for p in region.polygon:
                f.write(f"{p[0]:.17g},{p[1]:.17g}\n")
        print(f"hull: {len(region.polygon)} vertices, area {region.area():.6g}")
        if cfg.validation_mode and cfg.inclusion is not None:
            sound = hull_contains_shape(fits, cfg.inclusion)
            print(f"validation: hull contains true inclusion: {sound}")
    else:
        # the searches are independent: the workers share them out
        ests = _in_workers(lambda i: transition_search_ml(gap, probes[i], cfg.t_search),
                           len(probes))
        for probe, est in zip(probes, ests):
            tag = f"{est.h_est:.4f}" if est.h_est is not None else "none"
            y = probe.y
            print(f"vertex ({y[0]:+.3f},{y[1]:+.3f}) offset estimate: {tag} [{est.status}]")
        region = cone_carving(ests, gap.basis.radius)
        with open(out / "cones.csv", "w") as f:
            f.write(provenance_header(cfg.provenance(gap.mesh_h)))
            f.write("vertex_x,vertex_y,axis_x,axis_y,half_aperture\n")
            for c in region.cones:
                f.write(f"{c.vertex[0]:.17g},{c.vertex[1]:.17g},"
                        f"{c.axis[0]:.17g},{c.axis[1]:.17g},{c.half_aperture:.17g}\n")
        print(f"cones: {len(region.cones)} carved, kept area {region.area():.6g}")
        if cfg.validation_mode and cfg.inclusion is not None:
            print(f"validation: cones avoid true inclusion: "
                  f"{cones_avoid_shape(region, cfg.inclusion)}")
    write_region_svg(out / "overlay.svg", region,
                     true_shape=cfg.inclusion if cfg.validation_mode else None,
                     provenance=cfg.provenance(gap.mesh_h))
    print(f"overlay -> {out / 'overlay.svg'}")
    return 0


def cmd_mleval(alpha: float, grid_spec: str, out_path: str) -> int:
    """Tabulate E_alpha on a grid: re_min re_max im_min im_max n."""
    parts = grid_spec.split()
    if len(parts) != 5:
        raise ConfigError("grid spec must be 're_min re_max im_min im_max n'")
    try:
        re0, re1, im0, im1 = (float(x) for x in parts[:4])
        n = int(parts[4])
    except ValueError as exc:
        raise ConfigError(f"grid spec: {exc}") from exc
    if n < 0:
        raise ConfigError("grid spec: n must be nonnegative")
    if not all(math.isfinite(x) for x in (re0, re1, im0, im1)):
        raise ConfigError("grid spec: the bounds must be finite")
    if not (math.isfinite(re1 - re0) and math.isfinite(im1 - im0)):
        raise ConfigError("grid spec: the spans re_max - re_min and im_max - im_min "
                          "must be finite")
    reals, imags = np.linspace(re0, re1, n), np.linspace(im0, im1, n)
    zs = np.empty((n, n), dtype=complex)
    zs.real, zs.imag = reals, imags[:, None]
    regimes = mittag.sectors(alpha, zs)
    # the whole grid in one evaluation, whose values equal per-point ones;
    # called on the module so that perfbench/tracing.py's wrapper sees it
    vals = mittag.ml_eval_many(MLParams(alpha=alpha), zs)
    # alpha and each real part formatted once per file, each imaginary part
    # once per row, and E's two parts by one %-format per point, with one
    # write per grid row; '%.17g' gives the same text as f"{v:.17g}".  One
    # %-format for a whole row is a little faster, but its growing result
    # string fragments the heap that the evaluation leaves, which measured
    # 1.5 MB more peak RSS.
    head = f"{alpha:.17g},"
    heads = [f"{head}{re:.17g}," for re in reals.tolist()]
    with open(out_path, "w") as f:
        f.write(f"# alpha: {alpha:.17g}\n# grid: {grid_spec}\n# version: {__version__}\n")
        f.write("alpha,re_z,im_z,re_E,im_E,regime\n")
        for im, v, regime in zip(imags.tolist(), vals, regimes):
            line = f"%s{im:.17g},%.17g,%.17g,%s\n"
            f.write("".join([line % (h, x, y, r) for h, x, y, r
                             in zip(heads, v.real.tolist(), v.imag.tolist(), regime.tolist())]))
    print(f"tabulated {n * n} values -> {out_path}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="enclosure2d",
        description="Synthetic boundary data and inclusion reconstruction for "
                    "2D impedance tomography")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("mesh", "dtn", "indicate", "reconstruct"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", help="output directory (overrides config)")
        if name in ("indicate", "reconstruct"):
            p.add_argument("--validate", action="store_true",
                           help="enable validation mode (ground-truth checks)")
        if name == "dtn":
            p.add_argument("--basis", choices=("nodal", "fourier"), default="nodal",
                           help="fourier: measure with trigonometric current patterns")
            p.add_argument("--modes", type=int,
                           help="band limit N >= 1 of the patterns when --basis fourier "
                                "(default 8)")

    p = sub.add_parser("mleval")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--grid", required=True, help="'re_min re_max im_min im_max n'")
    p.add_argument("--out", default="ml.csv")

    p = sub.add_parser("example-config")

    args = parser.parse_args(argv)
    if args.command == "example-config":
        print(example_config(), end="")
        return 0
    try:
        if args.command == "mleval":
            return cmd_mleval(args.alpha, args.grid, args.out)
        cfg = load_config(args.config)
        if getattr(args, "out", None):
            cfg.out_dir = args.out
        if getattr(args, "validate", False):
            cfg.validation_mode = True
        if args.command == "mesh":
            return cmd_mesh(cfg)
        if args.command == "dtn":
            if args.basis != "fourier":
                if args.modes is not None:
                    raise ConfigError("--modes: a band limit needs --basis fourier")
                return cmd_dtn(cfg)
            modes = 8 if args.modes is None else args.modes
            if modes < 1:
                raise ConfigError(f"--modes: band limit N = {modes} must be at least 1")
            return cmd_dtn(cfg, modes)
        if args.command == "indicate":
            return cmd_indicate(cfg)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg)
        raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, MeshError, ProbeError, MLError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, IndicatorError, FieldError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
