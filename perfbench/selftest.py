"""Self-test of the benchmark.

Usage (from the repository root): python3 perfbench/selftest.py

Checks, each printed as it passes:

* exact per-route backend call counts for a small fixed seed on
  ``scripted`` and ``remote`` (and, on ``remote``, that the mock server's
  request log equals the client's calls);
* span accounting: in a traced run every child span lies inside its
  parent, and the children's durations plus the gaps between them add up
  to the parent's duration, the gaps being the parent's self time (under
  the batch span, whose children overlap, the gaps are its duration minus
  the union of their intervals);
* every metric name a run prints matches ``BENCHMARK.json`` and uses only
  ``[A-Za-z0-9_.-]``.

Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import metrics
import run as bench

SEED = 7
EPISODES = 4
# Backend calls for SEED's corpus and EPISODES episodes at default config.
PINNED_CALLS = {
    "scripted": {"agents.generate": 104, "agents.rank": 32, "classifiers.nli": 888, "classifiers.classify": 232},
    "remote": {"/classify": 232, "/generate": 144, "/nli": 992, "/rank": 32},
}
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def fail(message: str) -> None:
    print(f"selftest: FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


def traced_generate(workload: str, parallelism: int) -> tuple[list[tuple], dict | None]:
    """Spans of one small traced ``index`` + ``generate``, and on remote the
    server's request log for the generate."""
    with bench.scratch_dir(f"selftest-{workload}") as work:
        job = bench.Run(workload, SEED, 0, False, work)
        try:
            job.setup()
            out = os.path.join(work, "corpus.jsonl")
            argv = job.generate_argv(out, parallelism)
            argv[argv.index("--episodes") + 1] = str(EPISODES)
            before = job.server.counts() if job.server else None
            index = ["index", "--data", *job.data, "--out", job.index]
            results, spans = job.child([index, argv], traced=True)
            server = bench.count_delta(job.server.counts(), before) if job.server else None
        finally:
            job.stop_server()
        for result in results:
            if result["rc"] != 0:
                fail(f"{workload} {result['command']} exited {result['rc']}: {result['stderr']}")
        return metrics.load_spans(spans), server


def check_request_counts() -> list[tuple]:
    spans, _ = traced_generate("scripted", 1)
    calls = metrics.backend_calls(spans)
    if calls != PINNED_CALLS["scripted"]:
        fail(f"scripted backend calls {calls} != pinned {PINNED_CALLS['scripted']}")
    print(f"ok scripted backend calls {calls}")
    remote_spans, server = traced_generate("remote", 2)
    routes = metrics.post_json_routes(remote_spans)
    if routes != PINNED_CALLS["remote"]:
        fail(f"remote client calls {routes} != pinned {PINNED_CALLS['remote']}")
    if server != routes:
        fail(f"remote server log {server} != client calls {routes}")
    print(f"ok remote calls per route {routes}, server log equal")
    return spans


def check_span_accounting(spans: list[tuple]) -> None:
    """Children's durations plus the gaps between them make up each parent
    span, and the gaps are the parent's self time. The batch span is the one
    parent whose children overlap: episodes run on a worker thread while the
    calling thread writes finished ones, so there the gaps are the parent's
    duration minus the union of its children's intervals."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple]] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)
    selfs = metrics.self_times(spans)
    for parent_id, kids in children.items():
        _, _, name, start, end, _, _ = by_id[parent_id]
        kids.sort(key=lambda s: s[3])
        overlapping = name == "orchestrator.run_batch"
        cursor, gaps = start, 0
        for kid in kids:
            if kid[3] < start or kid[4] > end:
                fail(f"{kid[2]} span lies outside its parent {name}")
            if kid[3] < cursor and not overlapping:
                fail(f"{kid[2]} span overlaps a sibling under {name}")
            gaps += max(0, kid[3] - cursor)
            cursor = max(cursor, kid[4])
        gaps += end - cursor
        if not overlapping and sum(k[4] - k[3] for k in kids) + gaps != end - start:
            fail(f"children plus gaps of {name} do not add up to its duration")
        if selfs[parent_id] != gaps:
            fail(f"self time of {name} is {selfs[parent_id]} ns, gaps are {gaps} ns")
    print(f"ok span accounting over {len(spans)} spans under {len(children)} parents")


def check_metric_names() -> None:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {
        "0": [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]],
        "1": [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
    }
    if declared["0"] != list(metrics.END_TO_END):
        fail("end_to_end in BENCHMARK.json differs from metrics.END_TO_END")
    if declared["1"] != [entry[:3] for entry in metrics.PER_LAYER]:
        fail("per_layer in BENCHMARK.json differs from metrics.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(bench.WORKLOADS):
        fail("workloads in BENCHMARK.json differ from run.WORKLOADS")
    for trace, names in declared.items():
        proc = subprocess.run(
            [sys.executable, os.path.join(bench.BENCH, "run.py"), "--workload", "scripted",
             "--seed", str(SEED), "--seconds", "1", "--trace", trace],
            capture_output=True, text=True, cwd=bench.ROOT, timeout=180,
        )
        if proc.returncode != 0:
            fail(f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr[-1000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        printed = list(result["metrics"])
        if printed != [n[0] for n in names]:
            fail(f"--trace {trace} printed {printed}, BENCHMARK.json declares {[n[0] for n in names]}")
        for name in printed:
            if not NAME_RE.fullmatch(name):
                fail(f"metric name {name!r} has characters outside [A-Za-z0-9_.-]")
            if result["metrics"][name]["unit"] != dict((n[0], n[1]) for n in names)[name]:
                fail(f"metric {name} printed with another unit than BENCHMARK.json declares")
        print(f"ok --trace {trace} prints the {len(printed)} metrics BENCHMARK.json declares")


def main() -> int:
    spans = check_request_counts()
    check_span_accounting(spans)
    check_metric_names()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
