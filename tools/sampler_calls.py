"""Sampler calls of one in-process round of the benchmark's zero_scan ops,
by the number of points per call.

    python3 tools/sampler_calls.py CHECKOUT --seeds 7 11

CHECKOUT is a checkout of the repository; its src/ and e2ebench/ are
imported.  Every ``polya.CriticalLineFn.values`` call is counted by its
length: the 31-point scan grids, the one-point refinement steps and the
4-point residual stencils of ``polya.annihilator_residual``.  The
counting wraps the class method, so it reads every call whatever the
tracer of e2ebench/ wraps.  Prints one JSON object per seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path


def count_round(checkout: Path, seed: int) -> dict:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "e2ebench")]
    from adelic_zeta import polya
    import workloads

    work = workloads.build("zero_scan", seed)
    sizes: Counter = Counter()
    values = polya.CriticalLineFn.values

    def counted(self, ts):
        sizes[len(ts)] += 1
        return values(self, ts)

    polya.CriticalLineFn.values = counted
    try:
        for op in work.ops:
            op.fn()
    finally:
        polya.CriticalLineFn.values = values
    return {"seed": seed, "ops": len(work.ops),
            "calls_by_points": {str(k): sizes[k] for k in sorted(sizes)}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    args = parser.parse_args()
    for seed in args.seeds:
        print(json.dumps(count_round(args.checkout.resolve(), seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
