#!/usr/bin/env python3
"""Entry point of the bemopt pipeline benchmark.

    python3 perfbench/run.py --workload label --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports bemopt from the
checkout's own ``src/`` and nothing else. Without those sources it exits with
code 2 and prints no result. See ``bench.py`` for the workloads and metrics.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "bemopt" / "__init__.py").is_file():
        print(f"perfbench: no bemopt sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    return bench.main(argv, ROOT)


if __name__ == "__main__":
    sys.exit(main())
