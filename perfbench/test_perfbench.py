"""Tests of the benchmark's own metric code (run with PYTHONPATH=src, like the
package's tests)."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
from enclosure2d.mesh import ShapeSpec
from enclosure2d.mittag import MLParams, ml_eval


def test_wofz_oracle_matches_certified_series():
    # |z| <= 3 lies inside the series band (r_small = 5), which certifies the
    # target accuracy of MLParams
    pts = [0.5, -1.0, 2.0 + 1.0j, -1.5 - 2.0j, 2.5j, -0.3 + 0.1j]
    params = MLParams(alpha=0.5)
    ref = checks.ml_half_oracle(np.array(pts))
    for z, e in zip(pts, ref):
        assert abs(ml_eval(params, z) - e) <= checks.ML_TARGET * abs(e)


def test_ml_check_counts_nan_and_finiteness_mismatch():
    z = np.array([1.0, 2.0j, -1.0, 0.5])
    vals = checks.ml_half_oracle(z)
    vals[1] = np.nan
    vals[2] = complex(np.inf, 0.0)
    vals[3] *= 1 + 1e-6
    res = checks.check_ml(z, vals, 4)
    assert (res.attempted, res.failed) == (4, 2)
    assert res.metrics["ml_miss_count"] == 1
    assert res.metrics["ml_err_max"] == pytest.approx(1e-6)


def test_polygon_support_and_area_on_square():
    square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    assert checks.polygon_area(square) == pytest.approx(4.0)
    assert checks.polygon_area(square[::-1]) == pytest.approx(4.0)
    assert checks.polygon_support(square, np.array([1.0, 0.0])) == pytest.approx(1.0)
    diag = np.array([1.0, 1.0]) / math.sqrt(2)
    assert checks.polygon_support(square, diag) == pytest.approx(math.sqrt(2))
    # the square contains the unit disk: sound in every direction, support error
    # largest on the diagonals
    res = checks.check_hull(square, ShapeSpec.disk((0.0, 0.0), 1.0), 8)
    assert (res.attempted, res.failed) == (8, 0)
    assert res.metrics["support_err_max"] == pytest.approx(math.sqrt(2) - 1)
    assert res.metrics["hull_area_ratio"] == pytest.approx(4.0 / math.pi)
    small = checks.check_hull(0.5 * square, ShapeSpec.disk((0.0, 0.0), 1.0), 8)
    assert small.failed == 8


def test_failed_share_counts_cone_overlapping_truth(tmp_path):
    shape = ShapeSpec.disk((0.3, 0.0), 0.3)
    # radial probes opening away from the disk; tangency at t = -2.4 and t = -3
    geometry = (((3.0, 0.0), (1.0, 0.0)), ((-3.0, 0.0), (-1.0, 0.0)))
    half = math.pi / 4
    # the first cone stops short of the disk (sound); the second reaches into it
    (tmp_path / "cones.csv").write_text(
        "# config: test\nvertex_x,vertex_y,axis_x,axis_y,half_aperture\n"
        f"1.2,0,1,0,{half!r}\n"
        f"0.1,0,-1,0,{half!r}\n")
    stdout = ("vertex (+3.000,+0.000) offset estimate: -1.8000 [ok]\n"
              "vertex (-3.000,+0.000) offset estimate: -3.1000 [ok]\n"
              "cones: 2 carved, kept area 0.5\n")
    res = checks.check_cones(checks.read_cones(tmp_path / "cones.csv"), stdout, geometry,
                             0.5, shape, (-6.0, -0.2))
    assert (res.attempted, res.failed) == (2, 1)
    assert res.metrics["cone_offset_err_max"] == pytest.approx(0.6, abs=1e-8)
    assert res.metrics["cone_kept_area_ratio"] == pytest.approx(0.5 / shape.area())

    pipe = run.Pipeline(attempted=4, failed=0)          # four commands, all exited 0
    pipe.attempted += res.attempted
    pipe.failed += res.failed
    pipe.quality = res.metrics
    totals = run.collect([pipe], extra_failed=0, extra_attempted=0)
    assert totals["failed"] == 1
    assert totals["quality"]["failed_share"] == pytest.approx(1 / 6)


def test_tracer_self_time_and_ml_point_bands():
    import enclosure2d.mittag as mittag

    original = mittag.ml_eval_many
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert mittag.ml_eval_many is not original
        ml_eval(MLParams(alpha=0.5), 1.0 + 1.0j)     # looks up the wrapped name
        mittag.ml_eval_many(MLParams(alpha=0.5), np.array([0.0, 7.0, 40.0j]))
    assert mittag.ml_eval_many is original
    m = tracing.layer_metrics(tracing.merge([tracer.to_dict()]))
    assert (m["mittag.calls"], m["mittag.points"]) == (2, 4)
    assert m["mittag.points.series"] == 2
    assert m["mittag.points.kernel"] == 1
    assert m["mittag.points.asymptotic"] == 1
    assert m["fem.systems"] == 0
    outer = tracer.wrap("outer", lambda: tracer.wrap("inner", lambda: sum(range(10000)))())
    outer()
    calls, self_s, total_s = tracer.spans["outer"]
    assert calls == 1 and 0 <= self_s < total_s


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == run.END_TO_END
    per_layer = run.layer_report(tracing.merge([]), run.Pipeline(), 0.0, {})
    assert [m["name"] for m in bench["per_layer"]] == list(per_layer)
    assert all(m["unit"] == run._unit_of(m["name"]) for m in bench["per_layer"])
