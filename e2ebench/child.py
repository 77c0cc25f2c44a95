"""Fresh-process helpers of run.py.

    python3 e2ebench/child.py setup <workload> <seed>
        import the library, generate the workload's inputs and warm its
        caches, then print "ready"; run.py times this from the spawn.
    python3 e2ebench/child.py cli <spans.json> <cli arguments...>
        run one `adelic_zeta.cli` command with every layer traced; the
        report goes to stdout as usual, the spans and the import time to
        <spans.json>, and the exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))


def setup(workload: str, seed: int) -> int:
    import workloads

    workloads.build(workload, seed)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def traced_cli(spans_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    from adelic_zeta import cli

    import_s = time.perf_counter() - t0
    import tracer

    rec = tracer.Tracer()
    rec.install()
    try:
        with rec.span("cli.main"):
            rc = cli.main(argv)
    finally:
        rec.uninstall()
        sys.stdout.flush()
        Path(spans_path).write_text(json.dumps({"import_s": import_s, "spans": rec.spans}))
    return rc


def main() -> int:
    mode = sys.argv[1]
    if mode == "setup":
        return setup(sys.argv[2], int(sys.argv[3]))
    if mode == "cli":
        return traced_cli(sys.argv[2], sys.argv[3:])
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main())
