"""End-to-end benchmark of adelic-zeta, one workload per fresh process.

    python3 e2ebench/run.py --workload zero_scan --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads: zero_scan, point_eval, exact_tables (see README.md); "all"
runs each in its own fresh process, one after the other.

A run times several fresh set-ups, then repeats whole rounds until
--seconds have passed.  A round runs every in-process op of the workload
once and then every CLI call of the workload once, each CLI call in a
fresh `python -m adelic_zeta.cli` process, one at a time.  Every repeat
must return exactly what the first one did; after the timed phase the
first outputs are checked against the oracles (mpmath, the stored delta
data, exact identities), so no oracle work is timed.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed number of
rounds untraced and then traced, and prints the per-layer metrics and the
tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Raw per-op times and the
spans go to e2ebench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
WORKLOAD_NAMES = ("zero_scan", "point_eval", "exact_tables")

SETUP_STARTS = 5
TRACE_ROUNDS = 4
CLI_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ADELIC_ZETA_THREADS", None)  # the default, one thread
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def time_setups(workload: str, seed: int) -> list[float]:
    """Wall time from spawning a fresh interpreter until it has imported
    the library, generated the inputs and warmed the caches."""
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), "setup", workload, str(seed)],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("set-up child exited %s" % proc.returncode)
        times.append(elapsed)
    return times


class Recorder:
    """Times, first outputs and repeat mismatches of every op and CLI call."""

    def __init__(self):
        self.op_times: list[float] = []
        self.cli_times: dict[str, list[float]] = {}
        self.cli_bytes = 0
        self.first: dict[str, object] = {}
        self.errors: dict[str, str] = {}
        self.executions: dict[str, int] = {}

    def note(self, name: str, out, error: str | None) -> None:
        self.executions[name] = self.executions.get(name, 0) + 1
        if error is not None:
            self.errors.setdefault(name, error)
        elif name not in self.first:
            self.first[name] = out
        elif out != self.first[name]:
            self.errors.setdefault(name, "output changed between repeats")


def run_round(wl, rec: Recorder, tracer=None, spans_dir: Path | None = None) -> float:
    """One round; returns the in-process op time it took."""
    total = 0.0
    for op in wl.ops:
        error = out = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.fn()
            else:
                with tracer.span("op"):
                    out = op.fn()
        except Exception as exc:  # an op that raises is a failed op
            error = "%s: %s" % (type(exc).__name__, exc)
        dt = time.perf_counter() - t0
        total += dt
        rec.op_times.append(dt)
        rec.note(op.name, out, error)
    for i, call in enumerate(wl.cli):
        if tracer is None:
            cmd = [sys.executable, "-m", "adelic_zeta.cli", *call.argv]
        else:
            spans = spans_dir / ("cli%d-%d.json" % (i, rec.executions.get(call.name, 0)))
            cmd = [sys.executable, str(CHILD), "cli", str(spans), *call.argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT,
                              timeout=CLI_TIMEOUT_S)
        dt = time.perf_counter() - t0
        rec.cli_times.setdefault(call.name, []).append(dt)
        rec.cli_bytes += len(proc.stdout)
        rec.note(call.name, (proc.returncode, proc.stdout, proc.stderr), None)
    return total


def check_all(wl, rec: Recorder) -> dict[str, list[str]]:
    """Problems per failed op name; oracles are imported only now."""
    import checks

    problems = {}
    for op in wl.ops:
        if op.name in rec.errors:
            problems[op.name] = [rec.errors[op.name]]
            continue
        found = checks.check_op(op.kind, op.params, rec.first[op.name])
        if found:
            problems[op.name] = found
    for call in wl.cli:
        if call.name in rec.errors:
            problems[call.name] = [rec.errors[call.name]]
            continue
        rc, stdout, stderr = rec.first[call.name]
        found = checks.check_cli(call.kind, call.params, rc, stdout)
        if found and stderr:
            found.append("stderr: %s" % stderr.decode(errors="replace").strip()[-200:])
        if found:
            problems[call.name] = found
    return problems


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import adelic_zeta
    import workloads

    setups = [] if trace else time_setups(name, seed)
    wl = workloads.build(name, seed)
    rec = Recorder()
    rounds = 0
    layer = None
    if not trace:
        # whole rounds only; stop once another round would overshoot the
        # deadline by more than stopping now falls short of it
        start = time.perf_counter()
        while True:
            run_round(wl, rec)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / rounds >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import tracer as tracing

        spans_dir = OUT / ("spans-%s-%d" % (name, seed))
        spans_dir.mkdir(parents=True, exist_ok=True)
        for stale in spans_dir.glob("*.json"):
            stale.unlink()
        rec_traced = Recorder()
        rec_traced.first = rec.first
        tr = tracing.Tracer()
        plain = traced = 0.0
        # alternate untraced and traced rounds, so that the overhead is not
        # confounded with slow stretches of the host
        for _ in range(TRACE_ROUNDS):
            plain += run_round(wl, rec)
            tr.install()
            try:
                traced += run_round(wl, rec_traced, tr, spans_dir)
            finally:
                tr.uninstall()
        rounds = 2 * TRACE_ROUNDS
        for key, err in rec_traced.errors.items():
            rec.errors.setdefault(key, err)
        for key, n in rec_traced.executions.items():
            rec.executions[key] += n
        agg = tracing.summarize(tr.spans)
        import_times = []
        for path in sorted(spans_dir.glob("cli*.json")):
            doc = json.loads(path.read_text())
            import_times.append(doc["import_s"])
            tracing.summarize(doc["spans"], agg)
        tr.dump(spans_dir / "inprocess.json")
        overhead = traced / plain - 1.0
        layer = tracing.layer_metrics(agg, TRACE_ROUNDS, import_times,
                                      rec_traced.cli_bytes, overhead)

    problems = check_all(wl, rec)
    per_round = len(wl.ops) + len(wl.cli)
    attempted = rounds * per_round
    failed = sum(rec.executions[n] for n in problems)
    unexpected = sorted(set(problems) - wl.known_faults)
    correct = not unexpected

    print("workload %s  seed %d  backend %s  rounds %d  ops per round %d (%d in-process, %d CLI)"
          % (name, seed, adelic_zeta.BACKEND, rounds, per_round, len(wl.ops), len(wl.cli)))
    if layer is None:
        cli_p50 = {k: statistics.median(v) for k, v in rec.cli_times.items()}
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(rec.op_times) / sum(rec.op_times), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(rec.op_times), "unit": "s"},
            "cli_p50_s": {"value": statistics.fmean(cli_p50.values()), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print("  in-process ops: %d, p50 %.4f s, p90 %.4f s"
              % (len(rec.op_times), statistics.median(rec.op_times),
                 percentile(rec.op_times, 0.9)))
        for k, v in cli_p50.items():
            print("  %-60s median %.4f s over %d calls" % (k, v, len(rec.cli_times[k])))
    else:
        metrics = layer
    for key, m in metrics.items():
        print("  %-44s %14.6g %s" % (key, m["value"], m["unit"]))
    print("  attempted %d, failed %d (%d of %d ops per round fail)"
          % (attempted, failed, len(problems), per_round))
    for op_name in sorted(problems):
        tag = "known fault" if op_name in wl.known_faults else "UNEXPECTED"
        print("  FAILED (%s) %s: %s" % (tag, op_name, "; ".join(problems[op_name][:3])))

    OUT.mkdir(exist_ok=True)
    raw = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
           "rounds": rounds, "setup_s": setups, "op_times_s": rec.op_times,
           "cli_times_s": rec.cli_times, "problems": problems, "metrics": metrics}
    (OUT / ("%s-seed%d-trace%d.json" % (name, seed, int(trace)))).write_text(json.dumps(raw))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "adelic_zeta" / "__init__.py").is_file():
        sys.stderr.write("error: no program at %s\n" % (SRC / "adelic_zeta"))
        return 2
    if args.workload == "all":
        status = 0
        for name in WORKLOAD_NAMES:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
            status |= subprocess.run(argv, cwd=ROOT).returncode
        return status
    os.environ.pop("ADELIC_ZETA_THREADS", None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
