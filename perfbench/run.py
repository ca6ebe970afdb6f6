"""perfbench: end-to-end and per-layer benchmark of the repro package.

    python3 perfbench/run.py --workload dataset-io --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``
(untraced); ``--trace 1`` prints its per-layer metrics from a traced run.
A per-layer metric the workload does not exercise reads 0.  The last line
of standard output is the JSON result; the lines before it are the human
report, every metric with its unit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from common import MODULES, peak_rss_mb

    if args.workload not in MODULES:
        print(f"unknown workload {args.workload!r}; known: {sorted(MODULES)}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    module = importlib.import_module(MODULES[args.workload])
    result = module.run(args.seed, args.seconds, bool(args.trace))
    if not args.trace:
        result.put("peak_rss_mb", peak_rss_mb(), "MB")
    for metric in wanted:
        if metric["name"] not in result.metrics:
            result.put(metric["name"], 0.0, metric["unit"])
    extra = set(result.metrics) - {m["name"] for m in wanted}
    if extra:
        print(f"undeclared metrics {sorted(extra)}", file=sys.stderr)
        return 3
    result.metrics = {m["name"]: result.metrics[m["name"]] for m in wanted}
    result.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
