"""Run one CLI subcommand in-process through ``enclosure2d.cli.main`` with the
layer wrappers of ``tracing`` installed, then write the span totals.

Usage: python3 traced_cli.py COUNTERS_JSON SUBCOMMAND [ARGS...]

The exit code is the subcommand's.  Warnings are recorded with the filter set
to ``always`` and counted by category.
"""

import json
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import enclosure2d.cli  # noqa: E402
import tracing  # noqa: E402


def run(counters_path: str, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    with warnings.catch_warnings(record=True) as caught, tracing.installed(tracer):
        warnings.simplefilter("always")
        rc = enclosure2d.cli.main(argv)
    data = tracer.to_dict()
    data["warnings"] = {}
    for w in caught:
        name = w.category.__name__
        data["warnings"][name] = data["warnings"].get(name, 0) + 1
    Path(counters_path).write_text(json.dumps(data))
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
