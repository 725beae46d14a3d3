"""Benchmark of the enclosure2d pipeline on one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload hull|cone|mlgrid --seed N --seconds S --trace 0|1

The untraced run (--trace 0) works the way a user does: every CLI subcommand
is its own child process, one at a time.  It times each child, takes its peak
RSS from ``os.wait4``, runs as many whole pipelines as fit in S seconds of
measured time (at least one) and reports medians.  The traced run (--trace 1) runs the pipeline
once with every subcommand executed through ``enclosure2d.cli.main`` under the
layer wrappers of ``tracing``, and reports per-layer self times and counts.
After every pipeline, and outside the timed region, the outputs are checked
against ground truth (``checks``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` says that every output
was produced, could be checked, and was identical between repetitions, and
that the hull or cones are sound; ``failed`` counts the operations the checks
reject (see ``checks``), the grid points of ``mlgrid`` among them.  The
full record, environment included, is written to
``perfbench/work/<workload>-s<seed>-t<trace>/result.json``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
REFERENCE = BENCH_DIR / "reference.json"

# --version launches per run, half before the pipelines and half after, so
# that the median samples the machine at both ends of the run
SETUP_LAUNCHES = 4
CHILD_TIMEOUT_S = 170.0
# One BLAS thread per child: the workloads are single-process and closed-loop,
# and a second thread on a 2-core machine only adds run-to-run noise.
BLAS_THREADS = 1

# end-to-end metrics (untraced run): name -> unit
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
# reported alongside, per workload where they apply
STAGES = ("mesh", "dtn", "indicate", "reconstruct", "mleval")
QUALITY_UNITS = {"support_err_max": "length", "hull_area_ratio": "ratio",
                 "cone_offset_err_max": "length", "cone_offset_err_median": "length",
                 "cone_kept_area_ratio": "ratio", "ml_err_max": "ratio",
                 "ml_miss_count": "count", "failed_share": "ratio"}


@dataclass
class Child:
    argv: list
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str


@dataclass
class Pipeline:
    children: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    quality: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)    # notes on failed operations
    broken: list = field(default_factory=list)      # outputs missing or unreadable
    hashes: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return float(sum(c.wall_s for c in self.children))

    def stage_s(self, stage: str) -> float:
        return float(sum(c.wall_s for c in self.children if c.argv[0] == stage))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv: list, cwd: Path, tag: str) -> Child:
    """Run one child process to completion; wall time, CPU time and peak RSS."""
    out_path = cwd / f"{tag}.stdout"
    err_path = cwd / f"{tag}.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(argv=argv, wall_s=wall, cpu_s=ru.ru_utime + ru.ru_stime,
                 peak_rss_mb=ru.ru_maxrss / 1024.0, returncode=proc.returncode,
                 stdout=out_path.read_text())


def cli_argv(args) -> list:
    return [sys.executable, "-m", "enclosure2d.cli", *args]


def measure_setup(run_dir: Path, launches: int, times: list) -> int:
    """Interpreter start plus ``import enclosure2d.cli``, via ``--version``;
    appends the wall times and returns the number of failed launches."""
    run_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for _ in range(launches):
        c = run_child(cli_argv(["--version"]), run_dir, f"setup{len(times)}")
        times.append(c.wall_s)
        failed += c.returncode != 0
    return failed


def prepare(run_dir: Path, wl) -> None:
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    if wl.config is not None:
        (run_dir / workloads.CONFIG_FILE).write_text(wl.config)


def run_pipeline(wl, run_dir: Path, traced: bool, counters: list) -> Pipeline:
    """All of the workload's subcommands, one child each, then the output checks."""
    prepare(run_dir, wl)
    pipe = Pipeline()
    for i, args in enumerate(wl.commands):
        if traced:
            dump = run_dir / f"counters{i}.json"
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(dump), *args]
        else:
            argv = cli_argv(args)
        c = run_child(argv, run_dir, f"cmd{i}")
        c.argv = list(args)         # the CLI arguments, subcommand first
        pipe.children.append(c)
        pipe.attempted += 1
        if c.returncode != 0:
            pipe.failed += 1
            err = (run_dir / f"cmd{i}.stderr").read_text().strip().splitlines()
            pipe.broken.append(f"{args[0]} exited {c.returncode}: {err[-1:] or ''}")
        elif traced:
            counters.append(json.loads(dump.read_text()))
    check_outputs(wl, run_dir, pipe)
    return pipe


def check_outputs(wl, run_dir: Path, pipe: Pipeline) -> None:
    import checks
    from enclosure2d.mesh import ShapeSpec

    pipe.hashes = checks.sha256_files(run_dir, wl.outputs)
    shape = ShapeSpec.disk(*wl.inclusion) if wl.inclusion else None
    expected = {"hull": wl.directions, "cone": len(wl.cone_geometry),
                "mlgrid": wl.ml_points}[wl.name]
    try:
        if wl.name == "hull":
            res = checks.check_hull(checks.read_hull(run_dir / workloads.OUT_DIR / "hull.csv"), shape,
                                    wl.directions)
        elif wl.name == "cone":
            res = checks.check_cones(checks.read_cones(run_dir / workloads.OUT_DIR / "cones.csv"),
                                     pipe.children[-1].stdout, wl.cone_geometry,
                                     wl.ml_alpha, shape, wl.t_search)
        else:
            z, vals = checks.read_ml(run_dir / wl.outputs[0])
            res = checks.check_ml(z, vals, expected)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        pipe.attempted += expected
        pipe.failed += expected
        pipe.broken.append(f"outputs could not be checked: {exc!r}")
        return
    pipe.attempted += res.attempted
    pipe.failed += res.failed
    pipe.quality = res.metrics
    pipe.problems.extend(res.problems)
    if res.failed and wl.name != "mlgrid":
        # an unsound hull or cone breaks the guarantee the reconstruction makes
        pipe.broken.append(f"{res.failed} of {res.attempted} reconstruction checks failed")


def fingerprint() -> str:
    """Hash of the program and benchmark sources, which keys the untraced cache."""
    h = hashlib.sha256()
    for p in sorted(list(SRC.rglob("*.py")) + list(BENCH_DIR.glob("*.py"))):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def environment(load_before) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS, "platform": platform.platform(),
            "loadavg_before": list(load_before), "loadavg_after": list(os.getloadavg())}


def median(xs) -> float:
    return float(statistics.median(xs))


def untraced(wl, run_dir: Path, seconds: float) -> tuple[dict, dict]:
    setup_times = []
    setup_failed = measure_setup(run_dir / "setup", SETUP_LAUNCHES // 2, setup_times)
    # whole pipelines, at least one, while their summed wall time stays within
    # the time given
    pipes = [run_pipeline(wl, run_dir / "pipeline", traced=False, counters=[])]
    while sum(p.wall_s for p in pipes) + pipes[-1].wall_s <= seconds:
        pipes.append(run_pipeline(wl, run_dir / "pipeline", traced=False, counters=[]))
    setup_failed += measure_setup(run_dir / "setup", SETUP_LAUNCHES - SETUP_LAUNCHES // 2,
                                  setup_times)
    metrics = {
        "setup_s": median(setup_times),
        "pipeline_s": median([p.wall_s for p in pipes]),
        "peak_rss_mb": median([max(c.peak_rss_mb for c in p.children) for p in pipes]),
    }
    extra = {f"{s}_s": median([p.stage_s(s) for p in pipes])
             for s in STAGES if any(c.argv[0] == s for c in pipes[0].children)}
    extra["pipeline_cpu_s"] = median([sum(c.cpu_s for c in p.children) for p in pipes])
    record = {"setup_times_s": setup_times, "setup_failed": setup_failed,
              "pipelines": [summary(p) for p in pipes], "stage_medians": extra}
    return metrics, record | collect(pipes, setup_failed, SETUP_LAUNCHES)


def traced(wl, run_dir: Path, untraced_pipeline_s) -> tuple[dict, dict]:
    import tracing

    if untraced_pipeline_s is None:
        base = run_pipeline(wl, run_dir / "untraced", traced=False, counters=[])
        untraced_pipeline_s = base.wall_s
    counters = []
    pipe = run_pipeline(wl, run_dir / "pipeline", traced=True, counters=counters)
    merged = tracing.merge(counters)
    info = collect([pipe], 0, 0)
    metrics = layer_report(merged, pipe, untraced_pipeline_s, info["quality"])
    return metrics, {"pipelines": [summary(pipe)], "untraced_pipeline_s": untraced_pipeline_s,
                     "spans": merged} | info


def layer_report(merged: dict, pipe: Pipeline, untraced_pipeline_s: float,
                 quality: dict) -> dict:
    """Every per-layer metric of a traced pipeline; zero where a layer did no work."""
    import tracing

    metrics = tracing.layer_metrics(merged)
    for s in STAGES:
        metrics[f"cli.{s}_s"] = pipe.stage_s(s)
    metrics["cli.pipeline_s"] = pipe.wall_s
    metrics["trace.overhead_s"] = pipe.wall_s - untraced_pipeline_s
    for name, unit in QUALITY_UNITS.items():
        metrics[name] = quality.get(name, 0 if unit == "count" else 0.0)
    return metrics


def summary(p: Pipeline) -> dict:
    return {"children": [{"argv": c.argv, "wall_s": c.wall_s, "cpu_s": c.cpu_s,
                          "peak_rss_mb": c.peak_rss_mb, "returncode": c.returncode}
                         for c in p.children],
            "wall_s": p.wall_s, "quality": p.quality, "hashes": p.hashes}


def collect(pipes: list, extra_failed: int, extra_attempted: int) -> dict:
    """Operation totals, the quality metrics, and whether the outputs were all
    produced, readable and identical between repetitions of the pipeline."""
    attempted = extra_attempted + sum(p.attempted for p in pipes)
    failed = extra_failed + sum(p.failed for p in pipes)
    broken = [msg for p in pipes for msg in p.broken]
    if extra_failed:
        broken.append(f"{extra_failed} setup launches exited non-zero")
    if any(p.quality != pipes[0].quality or p.hashes != pipes[0].hashes for p in pipes):
        broken.append("outputs differ between repetitions of the pipeline")
    quality = dict(pipes[0].quality)
    quality["failed_share"] = failed / max(attempted, 1)
    return {"attempted": attempted, "failed": failed, "quality": quality,
            "correct": not broken,
            "problems": broken + [msg for p in pipes for msg in p.problems],
            "hashes": pipes[0].hashes}


def reference_match(workload: str, hashes: dict):
    """True/False against the recorded hashes of the program's outputs, None if
    no reference is recorded for this workload."""
    if not REFERENCE.exists():
        return None
    ref = json.loads(REFERENCE.read_text()).get(workload)
    return None if ref is None else ref == hashes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "enclosure2d" / "cli.py").is_file():
        print(f"error: no enclosure2d sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        wl = workloads.workload(args.workload, args.seed)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{wl.name}-s{args.seed}-t{args.trace}"
    cache = WORK / f"untraced-{wl.name}.json"
    fp = fingerprint()
    # untraced pipeline_s of every run of this workload with these sources,
    # for the traced run's overhead
    cached = json.loads(cache.read_text()) if cache.exists() else {}
    history = cached.get("pipeline_s", []) if cached.get("fingerprint") == fp else []
    if args.trace == 0:
        metrics, record = untraced(wl, run_dir, args.seconds)
        history.append(metrics["pipeline_s"])
        cache.write_text(json.dumps({"fingerprint": fp, "pipeline_s": history}))
        shown = metrics | record["stage_medians"] | record["quality"]
    else:
        metrics, record = traced(wl, run_dir, median(history) if history else None)
        shown = metrics

    match = reference_match(wl.name, record["hashes"])
    record.update(workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  metrics=metrics, reference_match=match, environment=environment(load_before))
    (run_dir / "result.json").write_text(json.dumps(record, indent=1, default=str))

    env = record["environment"]
    print(f"# {wl.name} seed {args.seed} trace {args.trace}: nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']} x{env['blas_threads']}, load {env['loadavg_before'][0]:.2f} -> "
          f"{env['loadavg_after'][0]:.2f}")
    for name, value in shown.items():
        print(f"{name} = {value:.6g} {_unit_of(name)}")
    print(f"outputs match reference: {match}")
    for msg in record["problems"][:20]:
        print(f"problem: {msg}")

    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": {k: {"value": v, "unit": _unit_of(k)} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def _unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in QUALITY_UNITS:
        return QUALITY_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
