import math
import warnings

import numpy as np
import pytest

from enclosure2d.cli import ConfigError, ExperimentConfig, example_config, load_config, main
from enclosure2d.fem import BoundaryBasis, DtNMatrix, read_dtn, write_dtn
from enclosure2d.indicator import read_indicator_csv

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


def test_config_validation_errors(tmp_path):
    bad = BASE_CONFIG.format(out=tmp_path) + "\n"
    bad = bad.replace("mesh_h = 0.08", "mesh_h = 0.6")
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, bad))
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


def test_cli_exit_code_on_config_error(tmp_path):
    bad = _write(tmp_path, "[domain]\nmesh_h = not_a_number\n")
    assert main(["mesh", "--config", bad]) == 2
    # formerly an uncaught geomspace ValueError (exit 1)
    bad = _write(tmp_path, "[probes]\ntau_min = 0\n", "tau.cfg")
    assert main(["mesh", "--config", bad]) == 2


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
    pert = read_dtn(out / "dtn_perturbed.txt")
    back = read_dtn(out / "dtn_background.txt")
    assert pert.basis.kind == "nodal"
    assert pert.matrix.shape == back.matrix.shape
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


def test_indicate_missing_upstream_fails(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "nowhere"))
    assert main(["indicate", "--config", cfg]) == 2


def test_indicate_truncated_operator_file_fails(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, EMPTY_CONFIG.format(out=out))
    assert main(["dtn", "--config", cfg]) == 0
    pert = out / "dtn_perturbed.txt"
    pert.write_text("".join(pert.read_text().splitlines(keepends=True)[:-1]))
    assert main(["indicate", "--config", cfg]) == 2
    assert "dtn_perturbed.txt" in capsys.readouterr().err


def test_indicate_non_numeric_operator_entry_fails(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, EMPTY_CONFIG.format(out=out))
    assert main(["dtn", "--config", cfg]) == 0
    back = out / "dtn_background.txt"
    lines = back.read_text().splitlines(keepends=True)
    lines[-1] = "x " + lines[-1].split(" ", 1)[1]        # same field count
    back.write_text("".join(lines))
    assert main(["indicate", "--config", cfg]) == 2
    assert "dtn_background.txt" in capsys.readouterr().err


def test_indicate_operator_file_above_alias_limit_fails(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, EMPTY_CONFIG.format(out=out))
    assert main(["dtn", "--config", cfg, "--basis", "fourier", "--modes", "4"]) == 0
    pert = out / "dtn_perturbed.txt"
    thetas = read_dtn(pert).basis.thetas
    n = len(thetas) // 8 + 1                              # a consistent file, one mode too many
    basis = BoundaryBasis(kind="fourier", thetas=thetas, n_modes=n)
    write_dtn(DtNMatrix(basis=basis, omega=0.0, matrix=np.zeros((2 * n + 1, 2 * n + 1),
                                                                  dtype=complex), mesh_h=0.1),
              pert)
    assert main(["indicate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "dtn_perturbed.txt" in err and "aliasing limit" in err


@pytest.mark.parametrize("command", ["indicate", "reconstruct"])
def test_non_finite_operator_entry_fails(tmp_path, capsys, command):
    out = tmp_path / "out"
    cfg = _write(tmp_path, EMPTY_CONFIG.format(out=out))
    assert main(["dtn", "--config", cfg]) == 0
    pert = out / "dtn_perturbed.txt"
    lines = pert.read_text().splitlines(keepends=True)
    lines[-1] = "nan " + lines[-1].split(" ", 1)[1]        # same field count
    pert.write_text("".join(lines))
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "dtn_perturbed.txt" in err and "non-finite" in err


@pytest.mark.parametrize("argv", [["indicate", "--threads", "2"], ["mesh", "--seed", "1"]])
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



@pytest.mark.parametrize("argv", [
    ["mesh", "--config", "{tmp}/absent.cfg"],
    ["mleval", "--alpha", "0.5", "--grid", "-1 1 -1 1 many", "--out", "{tmp}/ml.csv"],
    ["dtn", "--config", "{cfg}", "--basis", "fourier", "--modes", "1000"],
    ["mleval", "--alpha", "0.5", "--grid", "-1 1 -1 1 -3", "--out", "{tmp}/ml.csv"],
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
    # a real coefficient takes the real factor and its n >= 0 mode solves, a
    # complex one the complex factor; both expand every probe in 33 modes
    out = tmp_path / "out"
    text = TWO_LAYER_CONFIG.format(out=out).replace(
        "b = 0.0\nomega = 0.0", f"b = {b}\nomega = {omega}")
    cfg = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["dtn", "--config", cfg, "--basis", "fourier", "--modes", "16"]) == 0
        assert main(["reconstruct", "--config", cfg, "--validate"]) == 0
    pert = read_dtn(out / "dtn_perturbed.txt")
    assert (pert.basis.size, pert.omega) == (33, omega)
    _assert_two_layer_hull(out, capsys.readouterr().out)


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


def test_validate_command_passes(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG.format(out=tmp_path / "out"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["validate", "--config", cfg, "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    assert "FAIL" not in captured.out


def test_ml_probe_geometry_respects_cone_condition(tmp_path):
    cfg = ExperimentConfig()
    from enclosure2d.probes import ConeSpec, cone_avoids_shape
    from enclosure2d.mesh import ShapeSpec
    omega_disk = ShapeSpec.disk((0.0, 0.0), cfg.domain_radius)
    for y, th in cfg.ml_probe_geometry():
        cone = ConeSpec(vertex=tuple(y), axis=tuple(th),
                        half_aperture=math.pi * cfg.ml_alpha / 2)
        assert cone_avoids_shape(cone, omega_disk)
