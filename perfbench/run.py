"""pairwell benchmark: seeded closed-loop request batches, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Every request's output is checked outside its timed interval.  With
``--trace 0`` the run executes the seed's batch of requests in rounds until
``--seconds`` of measured request time are used up and reports the end-to-end
metrics.  With ``--trace 1`` it runs the batch twice, untraced and then
traced, and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
See README.md for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    if not (SRC / "pairwell" / "__init__.py").is_file():
        print(f"perfbench: no pairwell package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return harness.run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
