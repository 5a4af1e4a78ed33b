"""Run skillblend CLI commands in a fresh process and time each one.

Usage: python3 child.py JOB.json

The job is {"commands": [[arg, ...], ...], "spans": PATH or null}. Every
command goes through ``skillblend.cli.main`` exactly as a user's would.
The process prints one JSON line: for each command its exit code, wall
time, captured stdout and stderr, and the process's peak resident memory
once the command returned. Commands run in a fresh process so that peak
memory belongs to the commands alone. With "spans" set, the tracer is
installed around the commands and its spans are written to that path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from skillblend import cli  # noqa: E402


def run(commands: list[list[str]], spans_path: str | None) -> list[dict]:
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    try:
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.span("cli." + argv[0], cli.main, argv)
                wall = time.perf_counter() - start
            results.append(
                {
                    "command": argv[0],
                    "rc": rc,
                    "wall_s": wall,
                    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    "stdout": out.getvalue(),
                    "stderr": err.getvalue(),
                }
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spans_path)
    return results


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    print(json.dumps(run(job["commands"], job.get("spans"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
