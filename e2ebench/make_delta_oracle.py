"""Regenerate delta_oracle.json: reference data for the weight-12 cusp
form that the benchmark cannot get from mpmath in one call.

    python3 e2ebench/make_delta_oracle.py

The file holds the ordinates of the zeros of the completed L-function on
its central line Re s = 6 up to t = 31, and the completed value
(2 pi)^(-s) Gamma(s) L(Delta, s) at a fixed grid of points on both sides
of the critical strip.  Everything is computed with mpmath at 40 digits
from the incomplete-gamma series in oracles.completed_delta, with tau(n)
from oracles.tau_expansion; the program under test is never imported.
The zeros are cross-checked against published LMFDB ordinates.  Takes
about four minutes; the benchmark only reads the result.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402

DPS = 40
TERMS = 40
ZEROS_T_MAX = 31.0
# LMFDB, L-function 1-1-1.1-r0-0-0 (Delta), first eight ordinates
LMFDB_ZEROS = (
    9.2223793999, 13.9075498614, 17.4427769782, 19.6565131420,
    22.3361036372, 25.2746365481, 26.8043911584, 28.8316826242,
)
# point grid: Re s across [-1, 13] (both sides of the strip 5.5..6.5),
# Im s across [0, 50] (the program's documented window)
SIGMA_RANGE = (-1.0, 13.0)
T_RANGE = (0.0, 50.0)
GRID = 16


def central(t, tau):
    return mp.re(oracles.completed_delta(mp.mpc(6, t), tau, TERMS))


def find_zeros(tau):
    zeros = []
    step = mp.mpf("0.05")
    t = mp.mpf("0.5")
    prev = central(t, tau)
    while t < ZEROS_T_MAX:
        nxt = t + step
        cur = central(nxt, tau)
        if prev * cur < 0:
            root = mp.findroot(lambda x: central(x, tau), (t, nxt), solver="anderson")
            zeros.append(float(root))
        t, prev = nxt, cur
    return zeros


def main() -> int:
    mp.mp.dps = DPS
    tau = oracles.tau_expansion(TERMS)
    zeros = find_zeros(tau)
    if len(zeros) < len(LMFDB_ZEROS) or any(
        abs(z - ref) > 1e-9 for z, ref in zip(zeros, LMFDB_ZEROS)
    ):
        sys.stderr.write("zeros disagree with LMFDB: %r\n" % (zeros,))
        return 1
    rng = random.Random(0)
    points = []
    for i in range(GRID):
        for j in range(GRID):
            sig = SIGMA_RANGE[0] + (i + rng.random()) * (SIGMA_RANGE[1] - SIGMA_RANGE[0]) / GRID
            t = T_RANGE[0] + (j + rng.random()) * (T_RANGE[1] - T_RANGE[0]) / GRID
            v = oracles.completed_delta(mp.mpc(sig, t), tau, TERMS)
            points.append(
                {"re_s": sig, "im_s": t, "re": float(mp.re(v)), "im": float(mp.im(v))}
            )
    doc = {
        "about": "completed L-function of the weight-12 cusp form; see make_delta_oracle.py",
        "dps": DPS,
        "terms": TERMS,
        "zeros_t_max": ZEROS_T_MAX,
        "zeros": zeros,
        "points": points,
    }
    oracles.DELTA_ORACLE.write_text(json.dumps(doc, indent=1) + "\n")
    print("wrote %d zeros and %d points to %s" % (len(zeros), len(points), oracles.DELTA_ORACLE.name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
