"""Self-test of the benchmark's checks.

    python3 e2ebench/selftest.py [--seed N]

1. Runs every op and CLI call of the three workloads once and checks
   them; the failed ops must be exactly the known faults listed in
   workloads.KNOWN_FAULTS, no more and no fewer.
2. Perturbs real outputs the way a wrong program would and requires the
   checks to reject each one: a zero moved by 1e-5, a zero dropped,
   tau(p) off by one, one Satake coefficient changed, a Mellin value off
   by 1e-9, a completed-zeta value off by 1e-9.

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def perturbations(results):
    """(label, check kind, params, perturbed output) for each case."""
    wl, rec = results["zero_scan"]
    op = wl.ops[0]
    (zeros, spectrum, residuals), other = rec.first[op.name]
    moved = zeros[0] + 1e-5
    yield ("zero moved by 1e-5", op.kind, op.params,
           (((moved,) + zeros[1:], ((moved,) + spectrum[0][1:],) + spectrum[1:], residuals),
            other))
    yield ("zero dropped", op.kind, op.params,
           ((zeros[1:], spectrum[1:], residuals[1:]), other))

    wl, rec = results["exact_tables"]
    op = wl.ops[0]
    tau, ez, ea, eu, local = rec.first[op.name]
    p = 13
    bad_tau = tau[:p - 1] + (tau[p - 1] + 1,) + tau[p:]
    yield ("tau(13) off by one", op.kind, op.params, (bad_tau, ez, ea, eu, local))
    reps, sf, sg, sfg, radial, trace = local[1]
    key = next(iter(sfg))
    bad_sfg = dict(sfg)
    bad_sfg[key] = sfg[key] + 1
    bad_local = (local[0], (reps, sf, sg, bad_sfg, radial, trace)) + local[2:]
    yield ("Satake coefficient of S(f*g) changed", op.kind, op.params,
           (tau, ez, ea, eu, bad_local))

    wl, rec = results["point_eval"]
    op = wl.ops[0]
    out = rec.first[op.name]
    yield ("Mellin value off by 1e-9", op.kind, op.params, (out[0] + 1e-9,) + out[1:])
    lz = (out[4][0] + 1e-9,) + out[4][1:]
    yield ("completed zeta off by 1e-9", op.kind, op.params, out[:4] + (lz,) + out[5:])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = True
    results = {}
    expected = set()
    failed = set()
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, args.seed)
        rec = run.Recorder()
        run.run_round(wl, rec)
        results[name] = (wl, rec)
        expected |= wl.known_faults
        failed |= set(run.check_all(wl, rec))
    if failed == expected:
        print("ok   failed ops on this program are exactly the known faults:")
    else:
        ok = False
        print("FAIL failed ops %s, expected %s" % (sorted(failed), sorted(expected)))
    for name in sorted(expected):
        print("       %s" % name)
    for label, kind, params, out in perturbations(results):
        problems = checks.check_op(kind, params, out)
        if problems:
            print("ok   rejects %s: %s" % (label, problems[0]))
        else:
            ok = False
            print("FAIL accepts %s" % label)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
