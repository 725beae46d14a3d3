import hashlib
import importlib.util
import math
import os
import pickle
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import enclosure2d
import enclosure2d.cli as cli
from enclosure2d.cli import ConfigError, ExperimentConfig, example_config, load_config, main
from enclosure2d.admittivity import AdmittivityField, reduce_background
from enclosure2d.fem import assemble_dtn_matrix, gap_matrix, read_dtn
from enclosure2d.indicator import j_oracle, transition_search_ml
from enclosure2d.mesh import INCLUSION, ShapeSpec, build_disk_mesh
from enclosure2d.mittag import MLAccuracyWarning, MLParams, ml_eval, sectors
from enclosure2d.probes import ProbeError, ProbeSpec, cone_avoids_shape, rot90
from dtn_archive import CORRUPTIONS, MATRICES, entries, rewrite
from indicator_csv import read_indicator_csv

BASE_CONFIG = """\
[domain]
radius = 1.0
mesh_h = 0.08

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
directions = 8
t = 0.0
tau_min = 1.0
tau_points = 8

[output]
directory = {out}
"""

EMPTY_CONFIG = """\
[domain]
radius = 1.0
mesh_h = 0.1

[inclusion]
kind = none

[coefficients]
a = 0.0
b = 0.0
omega = 0.0

[probes]
family = cgo
directions = 4
t = 0.2
tau_points = 6

[output]
directory = {out}
"""


def _write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_example_config_parses(tmp_path):
    cfg_path = _write(tmp_path, example_config())
    cfg = load_config(cfg_path)
    assert cfg.domain_radius == 1.0
    assert cfg.inclusion is not None and cfg.inclusion.kind == "disk"


def test_config_validation_errors(tmp_path, capsys):
    # the mesher owns the check of [domain]: mesh and dtn refuse a mesh size
    # outside (0, radius/4) before they build anything
    bad = BASE_CONFIG.format(out=tmp_path / "out").replace("mesh_h = 0.08", "mesh_h = 0.6")
    for command in ("mesh", "dtn"):
        assert main([command, "--config", _write(tmp_path, bad)]) == 2
        assert capsys.readouterr().err == ("error: [domain] mesh_h: mesh size 0.6 must lie in "
                                           "(0, radius/4) = (0, 0.25)\n")
    assert not (tmp_path / "out").exists()
    bad2 = BASE_CONFIG.format(out=tmp_path).replace("family = cgo", "family = sine")
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, bad2, "e2.cfg"))
    # tau grid, direction count and search interval: each refused on load
    for k, (old, new) in enumerate([("tau_min = 1.0", "tau_min = 0"),
                                    ("tau_min = 1.0", "tau_min = 1.0\ntau_max = 1.0"),
                                    ("tau_min = 1.0", "tau_min = 1.0\ntau_max = 0.5"),
                                    ("directions = 8", "directions = 2"),
                                    ("t = 0.0", "t = 0.0\nt_search = -0.2 -5.0"),
                                    ("t = 0.0", "t = 0.0\nt_search = -1.0 0.5")]):
        text = BASE_CONFIG.format(out=tmp_path).replace(old, new)
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, text, f"e{k + 3}.cfg"))
    # the mesher has no refinement: a config asking for it is refused rather
    # than given an unrefined mesh, and the 0 of older templates still loads
    refined = BASE_CONFIG.format(out=tmp_path).replace("mesh_h = 0.08",
                                                       "mesh_h = 0.08\nrefine_levels = {}")
    with pytest.raises(ConfigError, match=r"\[domain\] refine_levels"):
        load_config(_write(tmp_path, refined.format(2), "refined.cfg"))
    assert load_config(_write(tmp_path, refined.format(0), "unrefined.cfg")).mesh_h == 0.08


def test_validation_mode_key_names_the_flag(tmp_path, capsys):
    # --validate is the one switch: a config that turns the old key on is
    # refused, and the false of older templates still loads
    text = BASE_CONFIG.format(out=tmp_path) + "validation_mode = "
    assert main(["reconstruct", "--config", _write(tmp_path, text + "true\n")]) == 2
    assert "--validate" in capsys.readouterr().err
    assert load_config(_write(tmp_path, text + "false\n", "off.cfg")).out_dir == str(tmp_path)


def test_cli_exit_code_on_config_error(tmp_path, capsys):
    bad = _write(tmp_path, "[domain]\nmesh_h = not_a_number\n")
    assert main(["mesh", "--config", bad]) == 2
    # formerly an uncaught geomspace ValueError (exit 1)
    bad = _write(tmp_path, "[probes]\ntau_min = 0\n", "tau.cfg")
    assert main(["mesh", "--config", bad]) == 2
    # formerly reconstruct carved no cone, kept the whole domain and exited 0
    bad = _write(tmp_path, "[probes]\nfamily = mittag_leffler\nvertex_count = 0\n", "cone.cfg")
    assert main(["reconstruct", "--config", bad]) == 2
    assert "[probes] need at least 1 cone vertex" in capsys.readouterr().err
    # formerly an uncaught ValueError (exit 1), mesh's exit 0 and dtn's exit 3
    # on a nan stiffness matrix, and mesh's exit 0 after a numpy warning
    for k, (text, message) in enumerate([
            ("[probes]\nt_search = a b\n", "[probes] t_search: cannot parse 'a b'"),
            ("[coefficients]\nomega = nan\n", "[coefficients] omega: 'nan' is not a finite"),
            ("[probes]\ntau_min = inf\n", "[probes] tau_min: 'inf' is not a finite"),
            # formerly mesh's exit 1 on a math domain error, and an exit 2
            # that only the mesher's coarseness check gave
            ("[inclusion]\nkind = ellipse\nsemi_axes = 0.4 0.2\nrotation = inf\n",
             "[inclusion] rotation: 'inf' is not a finite"),
            ("[inclusion]\nkind = disk\nradius = nan\n",
             "[inclusion] radius: 'nan' is not a finite")]):
        bad = _write(tmp_path, text, f"number{k}.cfg")
        assert main(["mesh", "--config", bad]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


def test_unknown_sections_and_keys_are_refused(tmp_path, capsys, monkeypatch):
    # formerly read past: a misspelt key or section fell back to its default
    # and mesh exited 0.  A [DEFAULT] section would lend its keys to every
    # section, and keys are checked in their own section only
    for k, (old, new, message) in enumerate([
            ("tau_min = 1.0", "tau_mx = 5", "[probes] unknown key 'tau_mx'"),
            ("directions = 8", "direction = 8", "[probes] unknown key 'direction'"),
            ("[probes]", "[probe]", "unknown section [probe]"),
            ("[domain]", "[DEFAULT]\nmesh_h = 0.08\n\n[domain]", "unknown section [DEFAULT]"),
            ("mesh_h = 0.08", "mesh_h = 0.08\ndirections = 8",
             "[domain] unknown key 'directions'")]):
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(old, new)
        assert main(["mesh", "--config", _write(tmp_path, text, f"{k}.cfg")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    # a key is refused where the config's own choices leave it unread, which
    # formerly loaded and was ignored: a disk's semi_axes, a polygon's center
    # and an [inclusion] without kind (no inclusion).  [coefficients] holds the
    # background's constants: the former [background] section is unknown
    polygon = "kind = polygon\nvertices = -0.2 -0.2; 0.2 -0.2; 0 0.2\ncenter = 0.0 0.0"
    for k, (old, new, message) in enumerate([
            ("radius = 0.5", "radius = 0.5\nsemi_axes = 0.4 0.2",
             "[inclusion] unknown key 'semi_axes'"),
            ("kind = disk\ncenter = 0.0 0.0\nradius = 0.5", polygon,
             "[inclusion] unknown key 'center'"),
            ("kind = disk\ncenter = 0.0 0.0\n", "", "[inclusion] unknown key 'radius'"),
            ("[probes]", "[background]\nsigma0 = 1.0\nepsilon0 = 1.0\nomega = 1.0\n\n[probes]",
             "unknown section [background]")]):
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(old, new)
        assert main(["mesh", "--config", _write(tmp_path, text, f"shape{k}.cfg")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()
    # the three CI templates and the benchmark's two configs load
    template = example_config()
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)     # for its dataclasses
    spec.loader.exec_module(workloads)
    for k, text in enumerate([template,
                              template.replace("kind = disk ", "kind = ellipse ").replace(
                                  "\nradius = 0.5\n", "\nsemi_axes = 0.45 0.25\nrotation = 0.4\n"),
                              template.replace("family = cgo", "family = mittag_leffler"),
                              workloads.HULL_CONFIG, workloads.CONE_CONFIG]):
        load_config(_write(tmp_path, text, f"ok{k}.cfg"))


def _advisories(caught) -> list[str]:
    return [str(w.message) for w in caught if "mesh-resolution advisory" in str(w.message)]


def test_tau_ladder_default_and_advisory(tmp_path):
    # the default ladder runs to 0.3 / h, or to 2 tau_min if that is higher;
    # the advisory judges the ladder's top, explicit or default, against
    # 0.9 / h and warns once when the probes are built, not on load.  h is
    # the operators' mesh size: the config's mesh_h = 0.08 is not read
    assert np.array_equal(ExperimentConfig(tau_points=10).tau_ladder(0.03),
                          np.geomspace(1.0, 0.3 / 0.03, 10))
    cases = [("tau_min = 1.0", []),
             ("tau_min = 1.0\ntau_max = 20.0", ["tau_max = 20 exceeds the mesh-resolution "
                                                "advisory 18 for mesh_h = 0.05"]),
             ("tau_min = 10.0", ["tau_max = 20 exceeds the mesh-resolution "
                                 "advisory 18 for mesh_h = 0.05"])]
    for k, (probes, expected) in enumerate(cases):
        text = BASE_CONFIG.format(out=tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = load_config(_write(tmp_path, text.replace("tau_min = 1.0", probes), f"{k}.cfg"))
            assert _advisories(caught) == []
            cfg.probes(0.05)
        assert _advisories(caught) == expected


def test_advisory_warns_once_per_command(tmp_path):
    # a ladder past 0.9 / mesh_h = 11.25: indicate and reconstruct, which
    # build the ladder, warn once each, and neither the indicators of 8
    # directions nor their support fits repeat it per tau; mesh and dtn
    # build no ladder and do not warn
    out = tmp_path / "out"
    cfg = _write(tmp_path, BASE_CONFIG.format(out=out).replace("tau_min = 1.0",
                                                               "tau_min = 1.0\ntau_max = 12.0"))
    for command, warned in (("mesh", 0), ("dtn", 0), ("indicate", 1), ("reconstruct", 1)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg]) == 0
        assert len(_advisories(caught)) == warned, command


def test_mesh_command(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "out"))
    assert main(["mesh", "--config", cfg]) == 0
    assert (tmp_path / "out" / "mesh.txt").exists()


def test_dtn_indicate_reconstruct_pipeline(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, BASE_CONFIG.format(out=out))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["dtn", "--config", cfg]) == 0
        assert main(["indicate", "--config", cfg]) == 0
        assert main(["reconstruct", "--config", cfg]) == 0
    pert, back = read_dtn(out / "dtn.npz")
    assert pert.modes == back.modes == 0
    assert pert.matrix.shape == back.matrix.shape == (pert.basis.size,) * 2
    rows = read_indicator_csv(out / "indicators.csv")
    assert len(rows) == 8 * 8  # directions x tau points
    assert (out / "hull.csv").exists()
    assert (out / "overlay.svg").exists()
    # provenance headers carried on outputs
    assert (out / "indicators.csv").read_text().startswith("# config: ")


def test_empty_inclusion_indicators_vanish(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, EMPTY_CONFIG.format(out=out))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["dtn", "--config", cfg]) == 0
        assert main(["indicate", "--config", cfg]) == 0
    rows = read_indicator_csv(out / "indicators.csv")
    assert all(abs(r["I"]) < 1e-9 for r in rows)


def test_indicate_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, BASE_CONFIG.format(out=out))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        main(["dtn", "--config", cfg])
        main(["indicate", "--config", cfg])
        first = (out / "indicators.csv").read_bytes()
        main(["indicate", "--config", cfg])
        second = (out / "indicators.csv").read_bytes()
    assert first == second


def test_dtn_files_are_byte_identical_and_load_without_the_package(tmp_path, monkeypatch):
    # a second run with the clock moved on writes the same bytes, and bare
    # numpy reads both matrices back with this package neither on the path
    # nor imported
    cfg = _write(tmp_path, EMPTY_CONFIG.format(out=tmp_path / "out"))
    runs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["dtn", "--config", cfg, "--out", str(out)]) == 0
        runs.append((out / "dtn.npz").read_bytes())
        monkeypatch.setattr("time.time", lambda: 2e9)
    assert runs[0] == runs[1]
    path = tmp_path / "a" / "dtn.npz"
    script = ("import hashlib, sys, numpy as np\n"
              "z = np.load(sys.argv[1], allow_pickle=False)\n"
              "print(z['format'], *(f'{z[m].dtype}:{hashlib.sha256(z[m].tobytes()).hexdigest()}'\n"
              "                     for m in ('perturbed', 'background')),\n"
              "      'enclosure2d' in sys.modules)\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", script, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digests = [f"float64:{hashlib.sha256(b.matrix.tobytes()).hexdigest()}"
               for b in read_dtn(path)]
    assert proc.stdout.split() == ["enclosure2d", "dtn", "v4", *digests, "False"]


def test_indicate_missing_upstream_fails(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "nowhere"))
    assert main(["indicate", "--config", cfg]) == 2


def test_indicate_truncated_operator_file_fails(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, EMPTY_CONFIG.format(out=out))
    assert main(["dtn", "--config", cfg]) == 0
    path = out / "dtn.npz"
    path.write_bytes(path.read_bytes()[:-100])
    assert main(["indicate", "--config", cfg]) == 2
    assert "dtn.npz" in capsys.readouterr().err


@pytest.mark.parametrize("damage", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_indicate_damaged_operator_file_fails(tmp_path, capsys, damage):
    out = tmp_path / "out"
    cfg = _write(tmp_path, EMPTY_CONFIG.format(out=out))
    assert main(["dtn", "--config", cfg]) == 0
    path = out / "dtn.npz"
    written = path.read_bytes()
    for name in MATRICES:
        path.write_bytes(written)
        damage(path, name)
        capsys.readouterr()
        assert main(["indicate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "dtn.npz" in err and "corrupt operator file" in err


def test_indicate_non_numeric_operator_entry_fails(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, EMPTY_CONFIG.format(out=out))
    assert main(["dtn", "--config", cfg]) == 0
    path = out / "dtn.npz"
    rewrite(path, background=entries(path)["background"].astype(str))      # same shape
    assert main(["indicate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "dtn.npz" in err and "entry 'background'" in err


def test_indicate_operator_file_above_alias_limit_fails(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, EMPTY_CONFIG.format(out=out))
    assert main(["dtn", "--config", cfg, "--basis", "fourier", "--modes", "4"]) == 0
    path = out / "dtn.npz"
    n = len(read_dtn(path)[0].basis.thetas) // 8 + 1    # a consistent file, one mode too many
    rewrite(path, modes=np.int64(n))
    assert main(["indicate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "dtn.npz" in err and "aliasing limit" in err


def test_indicate_v2_operator_file_asks_for_a_new_dtn_run(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, EMPTY_CONFIG.format(out=out))
    assert main(["dtn", "--config", cfg]) == 0
    CORRUPTIONS["v2 archive"](out / "dtn.npz", "perturbed")
    assert main(["indicate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "dtn.npz" in err and "format enclosure2d dtn v2" in err
    assert "needs a new dtn run" in err


def test_indicate_v3_operator_files_ask_for_a_new_dtn_run(tmp_path, capsys):
    # v3 wrote one archive per operator: named dtn.npz, such an archive is of
    # another format, and the two files of the old layout are not read at all
    out = tmp_path / "out"
    cfg = _write(tmp_path, EMPTY_CONFIG.format(out=out))
    assert main(["dtn", "--config", cfg]) == 0
    path = out / "dtn.npz"
    for name in MATRICES:
        shutil.copy(path, out / f"dtn_{name}.npz")
        CORRUPTIONS["v3 archive"](out / f"dtn_{name}.npz", name)
    shutil.copy(out / "dtn_perturbed.npz", path)
    capsys.readouterr()
    assert main(["indicate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "dtn.npz" in err and "format enclosure2d dtn v3" in err
    assert "needs a new dtn run" in err
    path.unlink()
    assert main(["indicate", "--config", cfg]) == 2
    assert capsys.readouterr().err == (f"error: missing operator file {path}; "
                                       "run the dtn command first\n")


@pytest.mark.parametrize("command", ["indicate", "reconstruct"])
def test_non_finite_operator_entry_fails(tmp_path, capsys, command):
    out = tmp_path / "out"
    cfg = _write(tmp_path, EMPTY_CONFIG.format(out=out))
    assert main(["dtn", "--config", cfg]) == 0
    path = out / "dtn.npz"
    written = entries(path)
    for name in MATRICES:
        matrix = written[name].copy()
        matrix[-1, 0] = np.nan
        rewrite(path, **(written | {name: matrix}))
        capsys.readouterr()
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "dtn.npz" in err and f"non-finite {name} operator entry" in err


@pytest.mark.parametrize("argv", [["indicate", "--threads", "2"], ["mesh", "--seed", "1"],
                                  ["validate"]])
def test_subcommand_rejects_flags_it_does_not_read(tmp_path, argv):
    cfg = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", cfg])
    assert exc.value.code == 2


def test_mleval_exponential_column(tmp_path):
    out = tmp_path / "ml.csv"
    assert main(["mleval", "--alpha", "1.0", "--grid", "-2 2 0 0 9",
                 "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().strip().splitlines() if not ln.startswith("#")]
    assert lines[0].split(",")[:6] == ["alpha", "re_z", "im_z", "re_E", "im_E", "regime"]
    for ln in lines[1:]:
        parts = ln.split(",")
        z = complex(float(parts[1]), float(parts[2]))
        val = complex(float(parts[3]), float(parts[4]))
        assert abs(val - np.exp(z)) <= 1e-12 * abs(np.exp(z))



def test_mleval_rows_equal_per_point_values(tmp_path):
    # the whole grid is one batch; its text must be that of per-point ml_eval
    # and sectors on every path: the origin, the contour rule below and
    # past |z| = 30 at the corners, and the overflow at z = 31
    out = tmp_path / "ml.csv"
    assert main(["mleval", "--alpha", "0.5", "--grid", "-31 31 -31 31 13",
                 "--out", str(out)]) == 0
    p = MLParams(alpha=0.5)
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if not ln.startswith(("#", "alpha"))]
    assert len(rows) == 169
    grid = np.linspace(-31, 31, 13).tolist()
    for k, r in enumerate(rows):
        im, re = divmod(k, 13)
        assert r[:3] == [f"{0.5:.17g}", f"{grid[re]:.17g}", f"{grid[im]:.17g}"]
        z = complex(float(r[1]), float(r[2]))
        v = ml_eval(p, z)
        assert r[3:5] == [f"{v.real:.17g}", f"{v.imag:.17g}"]
        assert r[5] == sectors(0.5, np.array([z]))[0]
    assert ["inf", "0"] in [r[3:5] for r in rows]


def test_every_name_the_tracer_wraps_resolves(tmp_path):
    # perfbench/tracing.py wraps package names where their callers look them
    # up, reading each from its owner's __dict__: a name dropped or renamed
    # raises KeyError on entry, and mleval's grid reaches the wrapped
    # evaluation point for point
    spec = importlib.util.spec_from_file_location(
        "tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.installed(tracing.Tracer()) as tracer:
        assert main(["mleval", "--alpha", "0.5", "--grid", "-3 3 -3 3 5",
                     "--out", str(tmp_path / "ml.csv")]) == 0
    assert tracer.counts["mittag.points"] == 25


def test_mleval_huge_grid_is_warning_free(tmp_path):
    # tier-1 turns RuntimeWarning into an error; E_1/2 overflows at +1e300
    out = tmp_path / "ml.csv"
    assert main(["mleval", "--alpha", "0.5", "--grid", "-1e300 1e300 -1 1 3",
                 "--out", str(out)]) == 0
    assert [f"{1e300:.17g}", "0", "inf", "0", "exponential_growth"] in [
        ln.split(",")[1:] for ln in out.read_text().splitlines()]


@pytest.mark.parametrize("argv", [
    ["mesh", "--config", "{tmp}/absent.cfg"],
    ["mleval", "--alpha", "0.5", "--grid", "-1 1 -1 1 many", "--out", "{tmp}/ml.csv"],
    ["dtn", "--config", "{cfg}", "--basis", "fourier", "--modes", "1000"],
    ["mleval", "--alpha", "0.5", "--grid", "-1 1 -1 1 -3", "--out", "{tmp}/ml.csv"],
    ["mleval", "--alpha", "0.5", "--grid", "inf 1 0 1 3", "--out", "{tmp}/ml.csv"],
    ["mleval", "--alpha", "0.5", "--grid", "0 1 nan 1 3", "--out", "{tmp}/ml.csv"],
    ["dtn", "--config", "{cfg}", "--basis", "fourier", "--modes", "0"],
    ["mleval", "--alpha", "0.5", "--grid", "1e308 -1e308 0 1 3", "--out", "{tmp}/ml.csv"],
])
def test_bad_input_exits_2(tmp_path, capsys, argv):
    cfg = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "out"))
    assert main([a.format(tmp=tmp_path, cfg=cfg) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_numerical_error_exits_3_and_programming_error_propagates(tmp_path, monkeypatch):
    import enclosure2d.cli as cli
    from enclosure2d.fem import SolverError
    cfg = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "out"))

    def fail_with(exc):
        def cmd(*args, **kwargs):
            raise exc
        return cmd

    monkeypatch.setattr(cli, "cmd_mesh", fail_with(SolverError("singular")))
    assert main(["mesh", "--config", cfg]) == 3
    monkeypatch.setattr(cli, "cmd_mesh", fail_with(TypeError("a bug")))
    with pytest.raises(TypeError):
        main(["mesh", "--config", cfg])

TWO_LAYER_CONFIG = """\
[domain]
radius = 1.0
mesh_h = 0.04

[inclusion]
kind = disk
center = 0.0 0.0
radius = 0.5

[coefficients]
a = 1.0
b = 0.0
omega = 0.0

[probes]
family = cgo
directions = 12
t = 0.0
tau_min = 1.0
tau_max = 12.0
tau_points = 12

[output]
directory = {out}
"""


def _assert_two_layer_hull(out, printed):
    assert "contains true inclusion: True" in printed
    rows = [ln for ln in (out / "hull.csv").read_text().splitlines()
            if "," in ln and not ln.startswith(("#", "x"))]
    poly = np.array([[float(v) for v in r.split(",")] for r in rows])
    x, y = poly[:, 0], poly[:, 1]
    area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    true_area = math.pi * 0.25
    assert true_area <= area <= 1.4 * true_area


def test_reconstruct_two_layer_hull_quality(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, TWO_LAYER_CONFIG.format(out=out))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["dtn", "--config", cfg]) == 0
        assert main(["reconstruct", "--config", cfg, "--validate"]) == 0
    _assert_two_layer_hull(out, capsys.readouterr().out)


@pytest.mark.parametrize("b, omega", [(0.0, 0.0), (0.5, 1.0)])
def test_reconstruct_two_layer_hull_fourier_basis(tmp_path, capsys, b, omega):
    # a real coefficient takes the real factor, a complex one the complex
    # factor; both measure with the 33 current patterns |n| <= 16
    out = tmp_path / "out"
    text = TWO_LAYER_CONFIG.format(out=out).replace(
        "b = 0.0\nomega = 0.0", f"b = {b}\nomega = {omega}")
    cfg = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["dtn", "--config", cfg, "--basis", "fourier", "--modes", "16"]) == 0
        assert main(["reconstruct", "--config", cfg, "--validate"]) == 0
    pert, _ = read_dtn(out / "dtn.npz")
    assert (pert.modes, pert.omega) == (16, omega)
    _assert_two_layer_hull(out, capsys.readouterr().out)


def test_mittag_leffler_template_search_is_warning_free(tmp_path):
    # the example-config template with cone probes: at every probe some tau's
    # largest coefficient squares past double range, and its infinite noise
    # floor discards the sample without a warning; the pinned estimates are
    # those of the unguarded square, since ignoring the overflow changes no value
    cfg = load_config(_write(tmp_path, example_config().replace(
        "family = cgo", "family = mittag_leffler")))
    mesh = build_disk_mesh(cfg.domain_radius, cfg.mesh_h, cfg.inclusion)
    field = AdmittivityField.from_scalars(mesh, cfg.a_value, cfg.b_value, cfg.omega)
    background = AdmittivityField.from_scalars(mesh, 0.0, 0.0, cfg.omega)
    gap = gap_matrix((assemble_dtn_matrix(mesh, field), assemble_dtn_matrix(mesh, background)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ests = [transition_search_ml(gap, probe, cfg.t_search)
                for probe in cfg.probes(gap.mesh_h)]
    assert [e.h_est for e in ests] == 2 * [-3.115625, -2.5156250000000004, -2.590625,
                                           -3.0031250000000003, -2.553125,
                                           -3.0406250000000004, -3.0781250000000004,
                                           -2.590625]


def test_zero_gap_search_is_warning_free(tmp_path):
    # no inclusion: the operator gap is exactly zero, and the noise floor
    # still scales with the operators, so a tau whose largest coefficient
    # squares past double range floors to inf, not to inf * 0 = nan
    text = example_config().replace("family = cgo", "family = mittag_leffler")
    text = text.replace("kind = disk", "kind = none").replace("directory = out",
                                                            f"directory = {tmp_path / 'out'}")
    text = text.replace("center = 0.0 0.0\nradius = 0.5\n", "")     # no inclusion reads them
    cfg = _write(tmp_path, text)
    assert main(["dtn", "--config", cfg]) == 0
    proc = subprocess.run([sys.executable, "-m", "enclosure2d.cli", "reconstruct",
                           "--config", cfg], cwd=tmp_path, env=_package_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stderr == ""
    statuses = [ln.rpartition("[")[2] for ln in proc.stdout.splitlines()
                if ln.startswith("vertex")]
    assert statuses == 16 * ["no_transition]"]


ML_CONFIG = """\
[domain]
radius = 1.0
mesh_h = 0.05

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
ml_alpha = 0.5
vertex_count = 2
vertex_ring_radius = 3.0
direction_offset_deg = 70.0
tau_min = 0.4
tau_max = 2.2
tau_points = 8
t = -0.7
t_search = -5.0 -0.2

[output]
directory = {out}
"""


@pytest.mark.parametrize("template", [BASE_CONFIG, ML_CONFIG], ids=["cgo", "mittag_leffler"])
def test_indicate_validate_fills_j_with_the_oracle(tmp_path, template):
    # without --validate the J column is empty; with it, each row's J is the
    # probe energy on the labelled inclusion of the config's mesh
    out = tmp_path / "out"
    cfg = _write(tmp_path, template.format(out=out))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["dtn", "--config", cfg]) == 0
        assert main(["indicate", "--config", cfg]) == 0
        plain = read_indicator_csv(out / "indicators.csv")
        assert main(["indicate", "--config", cfg, "--validate"]) == 0
    rows = read_indicator_csv(out / "indicators.csv")
    assert all(r["J"] is None for r in plain)
    assert [{**r, "J": None} for r in rows] == plain
    conf = load_config(cfg)
    mesh = build_disk_mesh(conf.domain_radius, conf.mesh_h, conf.inclusion)
    for r in rows:
        th = np.array([r["theta_x"], r["theta_y"]])
        spec = ProbeSpec(kind=r["family"], theta=tuple(th), theta_perp=tuple(rot90(th)),
                         t=r["t"], tau=[r["tau"]], alpha=r["alpha"],
                         y=None if r["y_x"] is None else (r["y_x"], r["y_y"]))
        assert r["J"] == j_oracle(mesh, spec)[0] > 0


def test_ml_reconstruct_pipeline(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, ML_CONFIG.format(out=out))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["dtn", "--config", cfg]) == 0
        assert main(["indicate", "--config", cfg]) == 0
        assert main(["reconstruct", "--config", cfg, "--validate"]) == 0
    rows = read_indicator_csv(out / "indicators.csv")
    assert len(rows) == 2 * 8
    assert all(r["family"] == "mittag_leffler" for r in rows)
    cones = [ln for ln in (out / "cones.csv").read_text().splitlines()
             if "," in ln and not ln.startswith(("#", "vertex"))]
    assert len(cones) >= 1
    assert "cones avoid true inclusion: True" in capsys.readouterr().out


@pytest.mark.parametrize("template", [BASE_CONFIG, ML_CONFIG], ids=["cgo", "mittag_leffler"])
def test_inverse_commands_take_the_domain_from_the_archive(tmp_path, template, capsys):
    # indicate and reconstruct, plain and under --validate, on a config whose
    # [domain] differs from the archive's: every output and every line they
    # print are those of the matching config, except the config hash.  Formerly
    # the tau ladder, the hull's clip, the carving raster, the J column's mesh
    # and the mesh_h provenance came from [domain], and a mesh_h that the
    # mesher refuses was refused on load
    text = template.format(out=tmp_path / "match")
    h = load_config(_write(tmp_path, text)).mesh_h
    stale = text.replace(f"radius = 1.0\nmesh_h = {h}", "radius = 1.2\nmesh_h = 0.06")
    coarse = text.replace(f"mesh_h = {h}", "mesh_h = 0.6")
    assert "radius = 1.2" in stale and "mesh_h = 0.6\n" in coarse
    configs = [_write(tmp_path, text), _write(tmp_path, stale, "stale.cfg"),
               _write(tmp_path, coarse, "coarse.cfg")]
    assert main(["mesh", "--config", configs[2], "--out", str(tmp_path / "mesh")]) == 2
    assert main(["dtn", "--config", configs[0]]) == 0
    capsys.readouterr()
    outs = ("match", "stale", "coarse")
    for out in outs[1:]:
        (tmp_path / out).mkdir()
        shutil.copy(tmp_path / "match" / "dtn.npz", tmp_path / out)
    runs = []
    for cfg, out in zip(configs, outs):
        files = {}
        for validate in ([], ["--validate"]):
            for command in ("indicate", "reconstruct"):
                assert main([command, "--config", cfg, "--out", str(tmp_path / out),
                             *validate]) == 0
                printed = capsys.readouterr()
                files[command, *validate, "stdout"] = printed.out.replace(out, "OUT")
                assert printed.err == ""
            for path in sorted((tmp_path / out).iterdir()):
                if path.suffix != ".npz":
                    files[path.name, *validate] = [ln for ln in path.read_text().splitlines()
                                                   if "config: " not in ln]
        runs.append(files)
    assert runs[0] == runs[1] == runs[2]
    indicators = runs[0]["indicators.csv", "--validate"]
    assert f"# mesh_h: {h:.17g}" in indicators
    assert all(row.rsplit(",", 1)[1] for row in indicators[4:])      # J filled in


def _package_env():
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(enclosure2d.__file__).parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _imported_packages(argv, cwd):
    """The top-level packages that one successful CLI run in a fresh
    interpreter imports, its forked workers included: they inherit -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "enclosure2d.cli", *argv],
                          cwd=cwd, env=_package_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {ln.rpartition("|")[2].strip().partition(".")[0]
            for ln in proc.stderr.splitlines() if ln.startswith("import time:")}


def test_no_command_loads_scipy(tmp_path):
    # the package runs on numpy alone: no process of any command, the
    # workers that dtn and reconstruct fork included, imports scipy.  Only
    # those two start workers, and the pool modules cost the other commands'
    # interpreter start 10-36 ms
    cfg = _write(tmp_path, ML_CONFIG.format(out=tmp_path / "out"))
    pool = {"multiprocessing", "concurrent"}
    for command in ("dtn", "reconstruct"):
        loaded = _imported_packages([command, "--config", cfg], tmp_path)
        assert "scipy" not in loaded and pool <= loaded, command
    for argv in (["--version"], ["mesh", "--config", cfg], ["indicate", "--config", cfg],
                 ["indicate", "--config", cfg, "--validate"],
                 ["mleval", "--alpha", "0.5", "--grid", "-3 3 -3 3 5",
                  "--out", str(tmp_path / "ml.csv")]):
        assert not _imported_packages(argv, tmp_path) & ({"scipy"} | pool), argv


def test_dtn_workers_give_the_in_process_operators(tmp_path):
    # bit for bit and in their own arithmetic, for a complex and a real system
    path = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "out"))
    assert main(["dtn", "--config", path]) == 0
    cfg = load_config(path)
    mesh = cli._build_mesh(cfg)
    field = cli._build_field(cfg, mesh)
    background = AdmittivityField.from_scalars(mesh, 0.0, 0.0, field.omega)
    written = read_dtn(tmp_path / "out" / "dtn.npz")
    for name, b, fld in zip(MATRICES, written, (field, background), strict=True):
        ref = assemble_dtn_matrix(mesh, fld).matrix
        assert b.matrix.dtype == ref.dtype and b.matrix.tobytes() == ref.tobytes(), name
    assert [b.matrix.dtype for b in written] == [complex, float]


def _with_coefficients(text, keys):
    """text with the [coefficients] lines keys added after its omega."""
    assert text.count("\nomega = 1.0\n") == 1
    return text.replace("\nomega = 1.0\n", f"\nomega = 1.0\n{keys}")


def test_unit_background_written_out_keeps_the_operators(tmp_path):
    # sigma0 = 1 and epsilon0 = 0 are the defaults: written out, they give the
    # operator matrices of the config that leaves them out
    runs = []
    for k, keys in enumerate(["", "sigma0 = 1.0\nepsilon0 = 0.0\n"]):
        out = tmp_path / f"out{k}"
        text = _with_coefficients(BASE_CONFIG.format(out=out), keys)
        assert main(["dtn", "--config", _write(tmp_path, text, f"{k}.cfg")]) == 0
        runs.append(entries(out / "dtn.npz"))
    for name in MATRICES:
        assert runs[0][name].dtype == runs[1][name].dtype, name
        assert runs[0][name].tobytes() == runs[1][name].tobytes(), name


def test_negative_background_constants_are_refused(tmp_path, capsys):
    for key in ("sigma0", "epsilon0"):
        text = _with_coefficients(BASE_CONFIG.format(out=tmp_path / "out"), f"{key} = -0.5\n")
        assert main(["mesh", "--config", _write(tmp_path, text, f"{key}.cfg")]) == 2
        assert capsys.readouterr().err == f"error: [coefficients] {key} must be nonnegative\n"
    assert not (tmp_path / "out").exists()


def test_general_background_gives_the_reduced_operators(tmp_path):
    # [coefficients] over the background (sigma0, epsilon0) = (1.3, 0.8): the
    # perturbed operator is that of reduce_background's field for the same
    # jump tensors, and the background operator the unit background's
    text = _with_coefficients(BASE_CONFIG.format(out=tmp_path / "out"),
                              "sigma0 = 1.3\nepsilon0 = 0.8\n")
    path = _write(tmp_path, text)
    assert main(["dtn", "--config", path]) == 0
    mesh = cli._build_mesh(load_config(path))
    inc = (mesh.labels == INCLUSION).astype(float)[:, None, None]
    reduced = reduce_background(mesh, inc * 1.0 * np.eye(2), inc * 0.5 * np.eye(2), 1.0,
                                sigma0=1.3, epsilon0=0.8)
    unit = AdmittivityField.from_scalars(mesh, 0.0, 0.0, 1.0)
    written = read_dtn(tmp_path / "out" / "dtn.npz")
    for name, b, fld in zip(MATRICES, written, (reduced, unit), strict=True):
        ref = assemble_dtn_matrix(mesh, fld).matrix
        assert b.matrix.dtype == ref.dtype and b.matrix.tobytes() == ref.tobytes(), name


def test_dtn_operators_reach_the_command_through_shared_memory(tmp_path, monkeypatch):
    # each worker writes its operator into its half of a map shared with the
    # command's process: only its dtype and scale cross the pipe
    sizes = []
    in_workers = cli._in_workers

    def measured(task, n):
        results = in_workers(task, n)
        sizes.extend(len(pickle.dumps(r)) for r in results)
        return results

    monkeypatch.setattr(cli, "_in_workers", measured)
    path = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "out"))
    assert main(["dtn", "--config", path]) == 0
    assert len(sizes) == 2 and max(sizes) < 4096
    nodes = len(read_dtn(tmp_path / "out" / "dtn.npz")[0].basis.thetas)
    assert nodes ** 2 * 8 > 4096


def test_dtn_builds_no_field_in_its_own_process(tmp_path, monkeypatch):
    # the workers fork holding the mesh and its dissection, and each builds
    # its own field: the perturbed one is built once, in a worker
    pids = tmp_path / "pids"
    build = cli._build_field

    def recording_build(cfg, mesh):
        with open(pids, "a") as f:
            f.write(f"{os.getpid()}\n")
        return build(cfg, mesh)

    monkeypatch.setattr(cli, "_build_field", recording_build)
    path = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "out"))
    assert main(["dtn", "--config", path]) == 0
    recorded = pids.read_text().split()
    assert len(recorded) == 1 and recorded != [str(os.getpid())]


@pytest.mark.parametrize("old, new, message", [
    ("\na = 1.0\n", "\na = -1.0\n", "sigma = I + a must be uniformly positive definite"),
    ("\nomega = 1.0\n", "\nomega = 1.0\nsigma0 = 0\n",
     "sigma0^2 + omega^2 epsilon0^2 must be nonzero")])
def test_an_invalid_field_fails_dtn_once(tmp_path, old, new, message):
    # the field is built in a worker; its error is reported once, as a
    # numerical failure, and no operator file is written
    out = tmp_path / "out"
    text = BASE_CONFIG.format(out=out)
    assert old in text
    text = text.replace(old, new)
    cfg = _write(tmp_path, text)
    proc = subprocess.run([sys.executable, "-m", "enclosure2d.cli", "dtn", "--config", cfg],
                          cwd=tmp_path, env=_package_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == f"numerical failure: {message}\n"
    assert not list(out.glob("*.npz"))


def test_reconstruct_workers_give_the_serial_searches(tmp_path, capsys, monkeypatch):
    # five searches on two workers: stdout, cones.csv and overlay.svg keep the
    # bytes of the same searches run one after another in this process
    out = tmp_path / "out"
    cfg = _write(tmp_path, ML_CONFIG.format(out=out).replace("vertex_count = 2",
                                                             "vertex_count = 5"))
    assert main(["dtn", "--config", cfg]) == 0
    runs = []
    for _ in range(2):
        capsys.readouterr()
        assert main(["reconstruct", "--config", cfg, "--validate"]) == 0
        runs.append((capsys.readouterr().out, (out / "cones.csv").read_bytes(),
                     (out / "overlay.svg").read_bytes()))
        monkeypatch.setattr(cli, "_in_workers", lambda task, n: [task(i) for i in range(n)])
    assert runs[0] == runs[1]
    assert runs[0][0].count("offset estimate") == 5


def test_worker_warnings_reach_the_parent_in_input_order(tmp_path, monkeypatch):
    # each search warns once in its worker; the parent re-emits every warning,
    # in probe order and from the line that raised it
    cfg = _write(tmp_path, ML_CONFIG.format(out=tmp_path / "out").replace("vertex_count = 2",
                                                                          "vertex_count = 4"))
    assert main(["dtn", "--config", cfg]) == 0
    search = cli.transition_search_ml

    def warning_search(gap, probe, t_interval):
        warnings.warn(f"search from {probe.y}", MLAccuracyWarning)
        return search(gap, probe, t_interval)

    monkeypatch.setattr(cli, "transition_search_ml", warning_search)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["reconstruct", "--config", cfg]) == 0
    probes = load_config(cfg).probes(0.05)
    assert [(w.category, str(w.message)) for w in caught] == \
        [(MLAccuracyWarning, f"search from {p.y}") for p in probes]
    assert {(w.filename, w.lineno) for w in caught} == \
        {(__file__, warning_search.__code__.co_firstlineno + 1)}


_FAULTY_DTN = """\
import os, signal, sys
import enclosure2d.cli as cli
from enclosure2d.fem import SolverError

assemble = cli.assemble_dtn_matrix

def faulty(mesh, field, modes, **kwargs):
    # the perturbed operator is built; the background one fails in its worker
    if field.a.any():
        return assemble(mesh, field, modes, **kwargs)
    if sys.argv[1] == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise SolverError("injected singular system")

cli.assemble_dtn_matrix = faulty
try:
    sys.exit(cli.main(sys.argv[2:]))
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        print("a child process remains")
    except ChildProcessError:
        print("no child process remains")
"""


@pytest.mark.parametrize("fault", ["raise", "kill"])
def test_a_failed_dtn_worker_ends_the_command(tmp_path, fault):
    # a SolverError in a worker exits 3 naming the operator, a killed
    # worker exits nonzero; neither hangs, writes an operator file or leaves
    # a child behind
    out = tmp_path / "out"
    cfg = _write(tmp_path, BASE_CONFIG.format(out=out))
    proc = subprocess.run([sys.executable, "-c", _FAULTY_DTN, fault, "dtn", "--config", cfg],
                          cwd=tmp_path, env=_package_env(), capture_output=True, text=True,
                          timeout=120)
    if fault == "raise":
        assert proc.returncode == 3
        assert proc.stderr == ("numerical failure: background operator: "
                               "injected singular system\n")
    else:
        assert proc.returncode != 0 and "BrokenProcessPool" in proc.stderr
    assert proc.stdout.splitlines() == ["no child process remains"]
    assert not list(out.glob("*.npz"))


def test_dtn_bytes_do_not_follow_the_blas_threads(tmp_path):
    # the CLI pins one BLAS thread before numpy loads, so fresh interpreters
    # asked for one thread or two write the same archives; unpinned, this
    # mesh's operators differ at roundoff between the two
    cfg = _write(tmp_path, ML_CONFIG.format(out=tmp_path / "out"))
    runs = []
    for threads in ("1", "2"):
        env = dict(_package_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        out = tmp_path / f"t{threads}"
        proc = subprocess.run([sys.executable, "-m", "enclosure2d.cli", "dtn", "--config", cfg,
                               "--out", str(out)], cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append((out / "dtn.npz").read_bytes())
    assert runs[0] == runs[1]


@pytest.mark.parametrize("family", ["cgo", "mittag_leffler"])
def test_probes_reproduce_the_configured_geometry(family):
    # equally spaced directions, or ring vertices each probing at the offset
    # angle from the outward radial on alternating sides, bit for bit; every
    # probe carries the whole tau ladder for the given mesh size at the
    # configured depth, and every cone avoids the unit domain
    cfg = ExperimentConfig(probe_family=family, n_directions=6, vertex_count=5, t_value=-0.4)
    if family == "cgo":
        ang = 2 * math.pi * np.arange(6) / 6
        expected = [(None, th) for th in np.stack([np.cos(ang), np.sin(ang)], axis=1)]
    else:
        expected = []
        for k in range(5):
            phi = 2 * math.pi * k / 5
            ang = phi + (1.0 if k % 2 == 0 else -1.0) * math.radians(70.0)
            expected.append((3.0 * np.array([math.cos(phi), math.sin(phi)]),
                             np.array([math.cos(ang), math.sin(ang)])))
    probes = cfg.probes(0.04)
    assert len(probes) == len(expected)
    domain = ShapeSpec.disk((0.0, 0.0), 1.0)
    for probe, (y, th) in zip(probes, expected):
        assert probe.kind == family and probe.t == -0.4
        assert probe.theta == tuple(th) and probe.theta_perp == tuple(rot90(th))
        np.testing.assert_array_equal(probe.tau, cfg.tau_ladder(0.04))
        if y is None:
            assert probe.y is None
        else:
            assert probe.y == tuple(y) and probe.alpha == cfg.ml_alpha
            assert cone_avoids_shape(probe.base_cone(), domain)
            probe.check_domain(1.0)


def test_probes_reject_cones_that_meet_the_domain():
    # at radius 2.8 the default ring's cones (3 sin 65 deg = 2.72 from the
    # centre) reach into the domain; at radius 3 the ring's vertices lie on it
    probe = ExperimentConfig(probe_family="mittag_leffler").probes(0.05)[0]
    with pytest.raises(ProbeError, match="vertex cone"):
        probe.check_domain(2.8)
    with pytest.raises(ProbeError, match="vertex must lie outside"):
        probe.check_domain(3.0)


def test_cone_vertices_inside_the_archive_domain_exit_2(tmp_path, capsys):
    # the ring is judged against the archive's radius where the probes meet
    # the operators, with the exit 2 that the config check gave before; a
    # cgo config reads no ring and is not refused for one
    text = EMPTY_CONFIG.format(out=tmp_path / "out").replace(
        "t = 0.2", "t = 0.2\nvertex_ring_radius = 0.9")
    assert main(["dtn", "--config", _write(tmp_path, text)]) == 0
    ml = _write(tmp_path, text.replace("family = cgo", "family = mittag_leffler"), "ml.cfg")
    capsys.readouterr()
    for command in ("indicate", "reconstruct"):
        assert main([command, "--config", ml]) == 2
        assert capsys.readouterr().err == "error: ML probe vertex must lie outside the domain\n"
