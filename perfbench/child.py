"""Fresh-interpreter helper: set-up probes and single sweep ops.

    python perfbench/child.py setup <workload> <seed>
    python perfbench/child.py sweep-op <seed> <op index> <cache dir> <trace 0|1>

Prints one JSON object as its last line.  Set-up time counts from the first
statement of this script, so it includes importing ``repro``.
"""

import time

T_START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list[str]) -> int:
    from common import MODULES

    if argv[0] == "setup":
        from common import host_seconds

        importlib.import_module(MODULES[argv[1]]).setup(int(argv[2]))
        setup_s = time.perf_counter() - T_START
        print(json.dumps({"setup_s": setup_s, "host_s": host_seconds()}))
        return 0
    if argv[0] == "sweep-op":
        import wl_sweep

        seed, index, cache, trace = argv[1:5]
        doc = wl_sweep.child_op(int(seed), int(index), Path(cache), trace == "1")
        print(json.dumps(doc))
        return 0
    print(f"unknown mode {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
