"""Experiment driver: mesh -> field -> operator assembly -> indicator sweeps ->
reconstruction, plus a self-check suite.

Configuration is a flat sectioned key-value file (INI syntax, see
``example_config``); every output file carries a provenance header with the
config hash, mesh size, and solver tolerance.  Reconstruction commands consume
only the operator files and the probe configuration, never the mesh interior,
unless validation mode is switched on.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .admittivity import (AdmittivityField, FieldError, ReductionInput,
                          complex_admittivity, reduce_background)
from .fem import (DirichletSystem, DtNMatrix, SolverError, assemble_dtn_matrix,
                  fourier_basis_for_mesh, nodal_basis_for_mesh, prop21_check,
                  analytic_two_layer_dtn, fourier_trace, read_dtn, write_dtn)
from .indicator import (IndicatorError, cone_carving, convex_hull_estimate,
                        cones_avoid_shape, default_tau_ladder,
                        fit_support_directions, hull_contains_shape,
                        indicator_cgo, indicator_ml, j_oracle,
                        transition_search_ml, write_indicator_csv,
                        write_region_svg)
from .mesh import Mesh, MeshError, ShapeSpec, build_disk_mesh, write_mesh
from .mittag import MLError, MLParams, growth_sector, ml_eval
from .probes import ProbeSpec, ProbeError, rot90

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    """Validated experiment parameters (see ``example_config`` for the file format)."""

    domain_radius: float = 1.0
    mesh_h: float = 0.05
    refine_levels: int = 0
    inclusion: Optional[ShapeSpec] = None
    a_value: float = 1.0
    b_value: float = 0.0
    omega: float = 0.0
    background: Optional[tuple[float, float, float]] = None   # sigma0, epsilon0, omega
    alpha_orig: float = 0.0
    beta_orig: float = 0.0
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
    seed: int = 0
    config_hash: str = ""

    def tau_ladder(self) -> np.ndarray:
        if self.tau_max is not None:
            return np.geomspace(self.tau_min, self.tau_max, self.tau_points)
        return default_tau_ladder(self.mesh_h, self.tau_points, self.tau_min)

    def directions(self) -> np.ndarray:
        ang = 2 * math.pi * np.arange(self.n_directions) / self.n_directions
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)

    def ml_probe_geometry(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(vertex, direction) pairs: vertices on the ring, each probing at the
        configured offset angle from the outward radial (alternating side)."""
        pairs = []
        off = math.radians(self.direction_offset_deg)
        for k in range(self.vertex_count):
            phi = 2 * math.pi * k / self.vertex_count
            y = self.vertex_ring_radius * np.array([math.cos(phi), math.sin(phi)])
            sgn = 1.0 if k % 2 == 0 else -1.0
            ang = phi + sgn * off
            th = np.array([math.cos(ang), math.sin(ang)])
            pairs.append((y, th))
        return pairs

    def provenance(self) -> dict:
        return {"config": self.config_hash, "mesh_h": f"{self.mesh_h:.17g}",
                "solver_tol": "1e-10", "version": __version__}


def example_config() -> str:
    return """\
[domain]
radius = 1.0          ; domain disk radius (length units)
mesh_h = 0.05         ; target element size
refine_levels = 0     ; refinement passes around the inclusion boundary

[inclusion]
kind = disk           ; disk | ellipse | polygon | none
center = 0.0 0.0
radius = 0.5
; ellipse: semi_axes = 0.4 0.2 / rotation = 0.0 (radians)
; polygon: vertices = x1 y1; x2 y2; ... (counterclockwise)

[coefficients]
a = 1.0               ; conductivity contrast (a*I on the inclusion)
b = 0.0               ; permittivity (b*I on the inclusion)
omega = 0.0           ; frequency

; optional original-background block; triggers the unit-background reduction
;[background]
;sigma0 = 1.0
;epsilon0 = 1.0
;omega = 1.0
;alpha = 1.0          ; conductivity perturbation (alpha*I on the inclusion)
;beta = 0.5           ; permittivity perturbation

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
validation_mode = false
"""


def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    cfg = ExperimentConfig()
    cfg.config_hash = hashlib.sha256(text.encode()).hexdigest()[:16]

    def get(section, key, cast, default):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                return cast(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
        return default

    cfg.domain_radius = get("domain", "radius", float, cfg.domain_radius)
    cfg.mesh_h = get("domain", "mesh_h", float, cfg.mesh_h)
    cfg.refine_levels = get("domain", "refine_levels", int, cfg.refine_levels)
    if cfg.domain_radius <= 0:
        raise ConfigError("[domain] radius must be positive")
    if not (0 < cfg.mesh_h < cfg.domain_radius / 4):
        raise ConfigError("[domain] mesh_h must lie in (0, radius/4)")

    if parser.has_section("inclusion"):
        kind = parser.get("inclusion", "kind", fallback="none").strip().lower()
        if kind == "none":
            cfg.inclusion = None
        else:
            center = _parse_pair(parser.get("inclusion", "center", fallback="0 0"))
            try:
                if kind == "disk":
                    cfg.inclusion = ShapeSpec.disk(center, float(parser.get("inclusion", "radius")))
                elif kind == "ellipse":
                    axes = _parse_pair(parser.get("inclusion", "semi_axes"))
                    rot = float(parser.get("inclusion", "rotation", fallback="0"))
                    cfg.inclusion = ShapeSpec.ellipse(center, axes, rot)
                elif kind == "polygon":
                    verts = [_parse_pair(p) for p in
                             parser.get("inclusion", "vertices").split(";") if p.strip()]
                    cfg.inclusion = ShapeSpec.polygon(np.array(verts))
                else:
                    raise ConfigError(f"[inclusion] unknown kind {kind!r}")
            except (MeshError, ValueError, configparser.NoOptionError) as exc:
                raise ConfigError(f"[inclusion] {exc}") from exc

    cfg.a_value = get("coefficients", "a", float, cfg.a_value)
    cfg.b_value = get("coefficients", "b", float, cfg.b_value)
    cfg.omega = get("coefficients", "omega", float, cfg.omega)
    if cfg.omega < 0:
        raise ConfigError("[coefficients] omega must be nonnegative")

    if parser.has_section("background"):
        s0 = get("background", "sigma0", float, 1.0)
        e0 = get("background", "epsilon0", float, 1.0)
        w = get("background", "omega", float, 0.0)
        cfg.background = (s0, e0, w)
        cfg.alpha_orig = get("background", "alpha", float, 0.0)
        cfg.beta_orig = get("background", "beta", float, 0.0)
        if s0 < 0 or e0 <= 0:
            raise ConfigError("[background] needs sigma0 >= 0 and epsilon0 > 0")

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
    if parser.has_option("probes", "t_search"):
        cfg.t_search = _parse_pair(parser.get("probes", "t_search"))
    if not (0 < cfg.ml_alpha < 1):
        raise ConfigError("[probes] ml_alpha must lie in (0, 1)")
    if cfg.vertex_ring_radius <= cfg.domain_radius:
        raise ConfigError("[probes] vertex ring must lie outside the domain")
    if cfg.tau_points < 5:
        raise ConfigError("[probes] need at least 5 tau points")
    if not cfg.tau_min > 0:
        raise ConfigError("[probes] tau_min must be positive")
    if cfg.tau_max is not None and not cfg.tau_max > cfg.tau_min:
        raise ConfigError("[probes] tau_max must exceed tau_min")
    if cfg.n_directions < 3:
        raise ConfigError("[probes] need at least 3 directions")
    if not (cfg.t_search[0] < cfg.t_search[1] < 0):
        raise ConfigError("[probes] t_search must satisfy t_lo < t_hi < 0")

    cfg.out_dir = get("output", "directory", str, cfg.out_dir)
    cfg.validation_mode = get("output", "validation_mode",
                              lambda s: s.strip().lower() in ("1", "true", "yes"),
                              cfg.validation_mode)
    if cfg.tau_max is not None and cfg.tau_max * cfg.mesh_h > 0.9:
        warnings.warn(f"tau_max = {cfg.tau_max:g} exceeds the mesh-resolution "
                      f"advisory {0.9 / cfg.mesh_h:g} for mesh_h = {cfg.mesh_h:g}")
    return cfg


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ConfigError(f"expected two numbers, got {text!r}")
    return float(parts[0]), float(parts[1])


# ---------------------------------------------------------------------------
# Shared pipeline pieces


def _build_mesh(cfg: ExperimentConfig) -> Mesh:
    return build_disk_mesh(cfg.domain_radius, cfg.mesh_h, cfg.inclusion,
                           refine_levels=cfg.refine_levels)


def _build_field(cfg: ExperimentConfig, mesh: Mesh) -> AdmittivityField:
    if cfg.background is not None:
        s0, e0, w = cfg.background
        inc = (mesh.labels == 1).astype(float)[:, None, None]
        eye = np.eye(2)
        inp = ReductionInput(sigma0=s0, epsilon0=e0, omega=w,
                             alpha=inc * cfg.alpha_orig * eye,
                             beta=inc * cfg.beta_orig * eye)
        return reduce_background(inp, mesh)
    return AdmittivityField.from_scalars(mesh, cfg.a_value, cfg.b_value, cfg.omega)


def _out(cfg: ExperimentConfig) -> Path:
    p = Path(cfg.out_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


# ---------------------------------------------------------------------------
# Subcommands


def cmd_mesh(cfg: ExperimentConfig) -> int:
    mesh = _build_mesh(cfg)
    out = _out(cfg) / "mesh.txt"
    write_mesh(mesh, out, provenance=cfg.provenance())
    print(f"mesh: {mesh.n_vertices} vertices, {mesh.n_triangles} triangles, "
          f"{len(mesh.boundary_loop)} boundary nodes -> {out}")
    return 0


def cmd_dtn(cfg: ExperimentConfig, basis_kind: str = "nodal",
            fourier_modes: int = 8) -> int:
    mesh = _build_mesh(cfg)
    field = _build_field(cfg, mesh)
    omega = field.omega
    try:
        basis = (nodal_basis_for_mesh(mesh) if basis_kind == "nodal"
                 else fourier_basis_for_mesh(mesh, fourier_modes))
    except ValueError as exc:
        raise ConfigError(f"--modes: {exc}") from exc
    out = _out(cfg)
    prov = cfg.provenance()
    for name, fld in (("dtn_perturbed.txt", field),
                      ("dtn_background.txt", AdmittivityField.from_scalars(mesh, 0.0, 0.0, omega))):
        dtn = assemble_dtn_matrix(mesh, fld, basis)
        write_dtn(dtn, out / name, provenance=prov)
        print(f"{name}: {basis.kind} basis, size {basis.size}, "
              f"symmetry defect {dtn.symmetry_defect():.2e}")
    return 0


def _load_pair(cfg: ExperimentConfig) -> tuple[DtNMatrix, DtNMatrix]:
    out = _out(cfg)
    paths = (out / "dtn_perturbed.txt", out / "dtn_background.txt")
    for p in paths:
        if not p.exists():
            raise ConfigError(f"missing operator file {p}; run the dtn command first")
    pair = []
    for p in paths:
        try:
            pair.append(read_dtn(p))
        except (SolverError, ValueError) as exc:
            raise ConfigError(f"cannot read operator file {p}: {exc}") from exc
    return pair[0], pair[1]


def cmd_indicate(cfg: ExperimentConfig) -> int:
    pair = _load_pair(cfg)
    taus = cfg.tau_ladder()
    mesh = _build_mesh(cfg) if cfg.validation_mode else None
    if cfg.probe_family == "cgo":
        probes = [ProbeSpec(kind="cgo", theta=(th[0], th[1]), theta_perp=tuple(rot90(th)),
                            t=cfg.t_value, tau=0.0) for th in cfg.directions()]
    else:
        probes = [ProbeSpec(kind="mittag_leffler", theta=(th[0], th[1]),
                            theta_perp=tuple(rot90(th)), t=cfg.t_value, tau=0.0,
                            y=(y[0], y[1]), alpha=cfg.ml_alpha)
                  for y, th in cfg.ml_probe_geometry()]
    rows = []
    for probe in probes:
        for tau in taus:
            spec = probe.with_t_tau(cfg.t_value, float(tau))
            if spec.kind == "cgo":
                val = indicator_cgo(pair, spec.theta, spec.theta_perp, spec.t, spec.tau)
            else:
                val = indicator_ml(pair, spec.alpha, spec.y, spec.theta, spec.t, spec.tau)
            row = {"family": spec.kind, "alpha": spec.alpha, "theta_x": spec.theta[0],
                   "theta_y": spec.theta[1], "t": spec.t, "tau": spec.tau, "I": val,
                   "logabsI": math.log(abs(val)) if val != 0 and math.isfinite(val) else None}
            if spec.y is not None:
                row["y_x"], row["y_y"] = spec.y
            if mesh is not None:
                row["J"] = j_oracle(mesh, spec, spec.tau, spec.t)
            rows.append(row)
    out = _out(cfg) / "indicators.csv"
    write_indicator_csv(out, rows, provenance=cfg.provenance())
    print(f"indicators: {len(rows)} rows -> {out}")
    return 0


def cmd_reconstruct(cfg: ExperimentConfig) -> int:
    pair = _load_pair(cfg)
    taus = cfg.tau_ladder()
    out = _out(cfg)
    if cfg.probe_family == "cgo":
        est = fit_support_directions(pair, cfg.directions(), cfg.t_value, taus)
        region = convex_hull_estimate(est, cfg.domain_radius)
        with open(out / "hull.csv", "w") as f:
            for key, val in cfg.provenance().items():
                f.write(f"# {key}: {val}\n")
            f.write("x,y\n")
            for p in region.polygon:
                f.write(f"{p[0]:.17g},{p[1]:.17g}\n")
        print(f"hull: {len(region.polygon)} vertices, area {region.area():.6g}")
        if cfg.validation_mode and cfg.inclusion is not None:
            sound = hull_contains_shape(est, cfg.inclusion, tol=1e-9)
            print(f"validation: hull contains true inclusion: {sound}")
    else:
        ests = []
        for y, th in cfg.ml_probe_geometry():
            est = transition_search_ml(pair, cfg.ml_alpha, y, th, cfg.t_search, taus)
            ests.append(est)
            tag = f"{est.h_est:.4f}" if est.h_est is not None else "none"
            print(f"vertex ({y[0]:+.3f},{y[1]:+.3f}) offset estimate: {tag} [{est.status}]")
        region = cone_carving([e for e in ests if e.status == "ok"], cfg.domain_radius)
        with open(out / "cones.csv", "w") as f:
            for key, val in cfg.provenance().items():
                f.write(f"# {key}: {val}\n")
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
                     provenance=cfg.provenance())
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
    params = MLParams(alpha=alpha)
    with open(out_path, "w") as f:
        f.write(f"# alpha: {alpha:.17g}\n# grid: {grid_spec}\n# version: {__version__}\n")
        f.write("alpha,re_z,im_z,re_E,im_E,regime\n")
        for im in np.linspace(im0, im1, n):
            for re in np.linspace(re0, re1, n):
                z = complex(re, im)
                v = ml_eval(params, z)
                regime = growth_sector(alpha, z) if z != 0 else "origin"
                f.write(f"{alpha:.17g},{re:.17g},{im:.17g},"
                        f"{v.real:.17g},{v.imag:.17g},{regime}\n")
    print(f"tabulated {n * n} values -> {out_path}")
    return 0


def cmd_validate(cfg: ExperimentConfig) -> int:
    """Self-check suite: reduction scaling, integral inequalities, matrix
    identity, oracle comparison, and sign checks on a coarse benchmark."""
    rng = np.random.default_rng(cfg.seed)
    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        if not ok:
            failures += 1
        print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")

    mesh = build_disk_mesh(1.0, 0.08, ShapeSpec.disk((0.0, 0.0), 0.5))

    # reduction scaling of the boundary operators
    inc = (mesh.labels == 1).astype(float)[:, None, None]
    eye = np.eye(2)
    inp = ReductionInput(sigma0=1.0, epsilon0=1.0, omega=1.0,
                         alpha=inc * 1.0 * eye, beta=inc * 0.5 * eye)
    reduced = reduce_background(inp, mesh)
    basis = fourier_basis_for_mesh(mesh, 4)
    from .admittivity import original_admittivity
    sys_orig = DirichletSystem(mesh, original_admittivity(inp, mesh))
    b_orig = assemble_dtn_matrix(mesh, reduced, basis, system=sys_orig)
    b_red = assemble_dtn_matrix(mesh, reduced, basis)
    scale = inp.sigma0 - 1j * inp.omega * inp.epsilon0
    defect = np.linalg.norm(b_orig.matrix - scale * b_red.matrix) / np.linalg.norm(b_orig.matrix)
    report("reduction scaling", defect < 1e-8, f"defect {defect:.2e}")

    # integral inequalities on random coefficient pairs
    bad = 0
    for _ in range(5):
        a1 = _random_spd_perturbation(rng, mesh)
        a2 = _random_spd_perturbation(rng, mesh)
        b1 = _random_sym(rng, mesh, 0.4)
        b2 = _random_sym(rng, mesh, 0.4)
        f1 = AdmittivityField(mesh=mesh, a=a1, b=b1, omega=1.0)
        f2 = AdmittivityField(mesh=mesh, a=a2, b=b2, omega=1.0)
        sys1 = DirichletSystem(mesh, complex_admittivity(f1))
        sys2 = DirichletSystem(mesh, complex_admittivity(f2))
        for _ in range(4):
            coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
            tr = sum(c * fourier_trace(mesh, n) for c, n in zip(coeffs, range(-4, 5)))
            rep = prop21_check(f1, f2, 1.0, tr, systems=(sys1, sys2))
            if not rep.passed:
                bad += 1
    report("integral inequalities", bad == 0, f"{bad} failures / 20")

    # inverse-difference matrix identity
    worst = 0.0
    for _ in range(100):
        a = _random_invertible_sym(rng)
        b = _random_invertible_sym(rng)
        lhs = np.linalg.inv(a) - np.linalg.inv(b)
        bi = np.linalg.inv(b)
        rhs = bi @ (b - a) @ bi + bi @ (b - a) @ np.linalg.inv(a) @ (b - a) @ bi
        worst = max(worst, np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-30))
    report("inverse-difference identity", worst < 1e-10, f"worst {worst:.2e}")

    # two-layer oracle comparison
    f_two = AdmittivityField.from_scalars(mesh, 1.0, 0.0, 0.0)
    b_two = assemble_dtn_matrix(mesh, f_two, basis)
    modes = basis.mode_numbers
    errs = []
    for n in range(1, 5):
        j = int(np.flatnonzero(modes == n)[0])
        k = int(np.flatnonzero(modes == -n)[0])
        lam = b_two.matrix[j, k] / (2 * math.pi)
        ref = analytic_two_layer_dtn(0.5, 2.0, n)
        errs.append(abs(lam - ref) / abs(ref))
    report("two-layer oracle", max(errs) < 0.02, f"worst rel err {max(errs):.2e}")

    # sign checks
    f_pos = AdmittivityField.from_scalars(mesh, 1.0, 0.5, 1.0)
    f_neg = AdmittivityField.from_scalars(mesh, -0.5, 1.0, 0.25)
    nodal = nodal_basis_for_mesh(mesh)
    pair_pos = (assemble_dtn_matrix(mesh, f_pos, nodal),
                assemble_dtn_matrix(mesh, AdmittivityField.from_scalars(mesh, 0.0, 0.0, 1.0),
                                    nodal))
    pair_neg = (assemble_dtn_matrix(mesh, f_neg, nodal),
                assemble_dtn_matrix(mesh, AdmittivityField.from_scalars(mesh, 0.0, 0.0, 0.25),
                                    nodal))
    taus = default_tau_ladder(mesh.h, 8)
    th = np.array([1.0, 0.0])
    vals_pos = [indicator_cgo(pair_pos, th, rot90(th), 0.5, float(t)) for t in taus]
    vals_neg = [indicator_cgo(pair_neg, th, rot90(th), 0.5, float(t)) for t in taus]
    report("positive-jump sign", all(v > -1e-12 for v in vals_pos),
           f"min {min(vals_pos):.2e}")
    report("negative-jump sign", all(v < 0 for v in vals_neg[len(vals_neg) // 2:]),
           f"trailing max {max(vals_neg[len(vals_neg) // 2:]):.2e}")

    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing checks")
    return 0 if failures == 0 else EXIT_NUMERIC


def _random_spd_perturbation(rng, mesh):
    """a with I + a symmetric positive definite (eigenvalues in [0.3, 3])."""
    inc = (mesh.labels == 1).astype(float)[:, None, None]
    phi = rng.uniform(0, math.pi)
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    sigma = rot @ np.diag(rng.uniform(0.3, 3.0, size=2)) @ rot.T
    return inc * (sigma - np.eye(2))


def _random_sym(rng, mesh, scale):
    inc = (mesh.labels == 1).astype(float)[:, None, None]
    q = rng.normal(size=(2, 2)) * scale
    return inc * (q + q.T) / 2


def _random_invertible_sym(rng):
    while True:
        q = rng.normal(size=(2, 2))
        m = (q + q.T) / 2
        if abs(np.linalg.det(m)) > 0.1:
            return m


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="enclosure2d",
        description="Synthetic boundary data and inclusion reconstruction for "
                    "2D impedance tomography")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("mesh", "dtn", "indicate", "reconstruct", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        if name != "validate":
            p.add_argument("--out", help="output directory (overrides config)")
        if name in ("indicate", "reconstruct"):
            p.add_argument("--validate", action="store_true",
                           help="enable validation mode (ground-truth checks)")
        if name == "dtn":
            p.add_argument("--basis", choices=("nodal", "fourier"), default="nodal")
            p.add_argument("--modes", type=int, default=8,
                           help="fourier mode cutoff when --basis fourier")
        if name == "validate":
            p.add_argument("--seed", type=int, default=0)

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
        cfg.seed = getattr(args, "seed", cfg.seed)
        if args.command == "mesh":
            return cmd_mesh(cfg)
        if args.command == "dtn":
            return cmd_dtn(cfg, basis_kind=args.basis, fourier_modes=args.modes)
        if args.command == "indicate":
            return cmd_indicate(cfg)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
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
