"""skillblend corpus-generation benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload scripted|remote|retrieval \
        --seed N --seconds S --trace 0|1

Each run generates its inputs from the seed, runs the workload through the
public ``skillblend`` CLI (``index``, ``generate``, ``validate``, ``stats``)
in child processes, checks the outputs, and prints every metric by name
and unit. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured with no wrappers installed; with
``--trace 1`` they are the per-layer ones, from a traced child run
alternated with untraced ones, plus the tracing overhead.

Correctness: every repetition must write the same corpus bytes, and so
must a run at the other parallelism (1 vs 2); the sha256 must equal the
value pinned in ``pins.json`` for seeds listed there; ``validate`` must
report 0 violations; on ``remote`` the mock server's per-route request log
must match the client's calls. Any mismatch exits with code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import metrics  # noqa: E402
from metrics import load_spans  # noqa: E402


@dataclass(frozen=True)
class Workload:
    parallelism: int
    episodes: int  # per generate command, fixed so peak memory compares like with like
    generates: int  # generate commands per child process
    index_reps: int  # index commands before each generate

    @property
    def other_parallelism(self) -> int:
        return 2 if self.parallelism == 1 else 1


WORKLOADS = {
    "scripted": Workload(1, 400, 3, 10),
    "remote": Workload(2, 6, 1, 10),
    "retrieval": Workload(1, 150, 2, 1),
}
MIN_BATCHES = 3
SERVER_STARTS = 5  # mock server starts on remote; the median is kept
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a correctness failure)."""


def _child_env() -> dict:
    env = dict(os.environ)
    # The workload seed alone decides the inputs; no outside overrides.
    env.pop("SKILLBLEND_RNG_SEED", None)
    env.pop("SKILLBLEND_ENDPOINT", None)
    return env


@contextlib.contextmanager
def scratch_dir(label: str):
    """A fresh directory under ``.perfbench_work`` in the checkout, removed
    afterwards."""
    path = os.path.join(ROOT, ".perfbench_work", f"{label}-{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(path))


class MockServerProcess:
    """The mock model server in its own process (see mock_launcher.py)."""

    def __init__(self, tables: str):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "mock_launcher.py"), tables],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_child_env(),
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "listening":
            self.close()
            raise BenchError("mock server did not start")
        self.url = line[1]
        try:
            self._wait_until_answering()
        except BenchError:
            self.close()
            raise
        self.startup_s = time.perf_counter() - start

    def _wait_until_answering(self) -> None:
        host, port = self.url.removeprefix("http://").split(":")
        deadline = time.monotonic() + 10
        while True:
            conn = http.client.HTTPConnection(host, int(port), timeout=5)
            try:
                # GET is not a protocol route: the server answers it (501)
                # without logging a request.
                conn.request("GET", "/")
                conn.getresponse().read()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise BenchError("mock server does not answer")
                time.sleep(0.01)
            finally:
                conn.close()

    def counts(self) -> dict[str, int]:
        self.proc.stdin.write("counts\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> dict[str, int] | None:
        """Shut down; returns the final per-route request log."""
        final = None
        try:
            out, _ = self.proc.communicate("quit\n", timeout=10)
            lines = out.strip().splitlines()
            final = json.loads(lines[-1]) if lines else None
        except (subprocess.TimeoutExpired, ValueError, OSError):
            self.proc.kill()
            self.proc.wait()
        return final


def count_delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {route: n - before.get(route, 0) for route, n in after.items() if n - before.get(route, 0)}


def _written(stdout: str) -> int:
    match = re.search(r"wrote (\d+) episodes", stdout)
    return int(match.group(1)) if match else 0


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _split_by_root(spans: list[tuple]) -> list[tuple[str, list[tuple]]]:
    """Spans grouped under the root span (a ``cli.<command>`` call) they
    descend from, in the order the roots started."""
    parent = {s[0]: s[1] for s in spans}
    root_of: dict[int, int] = {}

    def root(span_id: int) -> int:
        path = []
        while parent[span_id] is not None and span_id not in root_of:
            path.append(span_id)
            span_id = parent[span_id]
        top = root_of.get(span_id, span_id)
        for sid in path:
            root_of[sid] = top
        return top

    groups: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        groups[root(span[0])].append(span)
    roots = sorted((s for s in spans if s[1] is None), key=lambda s: s[3])
    return [(s[2], groups[s[0]]) for s in roots]


class Run:
    """One benchmark run: its inputs and scratch files in ``work``, its child
    processes and, on remote, the mock server."""

    def __init__(self, name: str, seed: int, seconds: int, trace: bool, work: str):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.jobs = 0
        self.errors: list[str] = []
        self.server: MockServerProcess | None = None

    def child(self, commands: list[list[str]], traced: bool = False) -> tuple[list[dict], str | None]:
        """Run CLI commands in one fresh process; returns per-command results
        and the span file path when traced."""
        self.jobs += 1
        job = os.path.join(self.work, f"job{self.jobs}.json")
        spans = os.path.join(self.work, f"spans{self.jobs}.json") if traced else None
        with open(job, "w", encoding="utf-8") as fh:
            json.dump({"commands": commands, "spans": spans}, fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), job],
            capture_output=True, text=True, env=_child_env(), timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"child process failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), spans

    def stop_server(self) -> dict[str, int] | None:
        """Shut the mock server down, if any; returns its request log."""
        server, self.server = self.server, None
        return server.close() if server is not None else None

    # --- commands ---------------------------------------------------------

    def generate_argv(self, out: str, parallelism: int) -> list[str]:
        argv = [
            "generate", "--data", *self.data, "--index", self.index, "--out", out,
            "--episodes", str(self.wl.episodes), "--parallelism", str(parallelism),
        ]
        if self.server is not None:
            argv += ["--backend", "remote", "--endpoint", self.server.url]
        return argv

    def _readback(self, out: str) -> list[list[str]]:
        return [["validate", "--in", out], ["stats", "--in", out, "--out", out + ".report"]]

    # --- phases -------------------------------------------------------------

    def setup(self) -> float:
        """Write the inputs; on remote start the mock server (several times)
        and return its median start-up time until it answers, else 0."""
        self.data, tables = inputs.write_inputs(self.name, self.seed, self.work)
        self.index = os.path.join(self.work, "ctx.idx")
        if tables is None:
            return 0.0
        starts = []
        for i in range(SERVER_STARTS):
            server = MockServerProcess(tables)
            starts.append(server.startup_s)
            if i < SERVER_STARTS - 1:
                server.close()
            else:
                self.server = server
        return statistics.median(starts)

    def batch(self, number: int, traced: bool) -> dict:
        """One child process running ``generates`` units in turn. A unit is
        ``index_reps`` ``index`` commands, one fixed-size ``generate``, and
        ``validate`` + ``stats`` over its corpus; an untraced batch of a
        traced run only generates.

        Interleaving the short ``index`` commands with the long ones spreads
        their samples over the whole run: on a shared machine a command's
        speed jumps between a fast and a slow mode, and samples taken in one
        block would follow whichever mode the block fell in."""
        full = traced or not self.trace
        index = [["index", "--data", *self.data, "--out", self.index]] * (self.wl.index_reps if full else 0)
        outs = [os.path.join(self.work, f"corpus{number}-{g}.jsonl") for g in range(self.wl.generates)]
        commands = []
        for out in outs:
            commands += index + [self.generate_argv(out, self.wl.parallelism)]
            commands += self._readback(out) if full else []
        before = self.server.counts() if self.server else None
        results, spans = self.child(commands, traced=traced)
        server = count_delta(self.server.counts(), before) if self.server else None
        by_command: dict[str, list[dict]] = defaultdict(list)
        for result in results:
            by_command[result["command"]].append(result)
        for r in by_command["index"]:
            self._check(r["rc"] == 0, f"index exited {r['rc']}: {r['stderr'].strip()}")
        gens = []
        for out, gen in zip(outs, by_command["generate"]):
            if gen["rc"] != 0:
                # Counted as failed episodes, not as a broken run.
                print(f"perfbench: generate exited {gen['rc']}: {gen['stderr'].strip()}", file=sys.stderr)
                gens.append({"rc": gen["rc"], "written": 0})
                continue
            gens.append(
                {
                    "rc": 0,
                    "written": _written(gen["stdout"]),
                    "wall_s": gen["wall_s"],
                    "sha": _sha256(out),
                    "bytes": os.path.getsize(out),
                }
            )
        for gen, validate, stats in zip(gens, by_command["validate"], by_command["stats"]):
            if gen["rc"] != 0:
                continue
            self._check(
                validate["rc"] == 0 and ", 0 violations" in validate["stdout"],
                f"validate reported violations: {validate['stdout'].strip()} {validate['stderr'].strip()[:500]}",
            )
            self._check(stats["rc"] == 0, f"stats exited {stats['rc']}: {stats['stderr'].strip()}")
        for path in os.listdir(self.work):
            if path.startswith(f"corpus{number}-"):
                os.remove(os.path.join(self.work, path))
        return {
            "traced": traced,
            "spans": spans,
            "server": server,
            "gens": gens,
            # Peak memory once the first generate returned: that command's peak.
            "rss_mb": by_command["generate"][0]["maxrss_kb"] / 1024.0,
            "index_s": [r["wall_s"] for r in by_command["index"]],
        }

    def measure(self) -> list[dict]:
        """Batches until ``seconds`` have passed (at least MIN_BATCHES). A
        traced run alternates untraced and traced batches."""
        batches: list[dict] = []
        start = time.perf_counter()
        while len(batches) < MIN_BATCHES or time.perf_counter() - start < self.seconds:
            if self.trace:
                first = len(batches) % 4 == 0  # alternate which side runs first
                batches.append(self.batch(len(batches), traced=first))
                batches.append(self.batch(len(batches), traced=not first))
            else:
                batches.append(self.batch(len(batches), traced=False))
        return batches

    def cross_check(self) -> dict:
        """The same corpus at the other parallelism, traced to count the
        client's backend calls (counts do not depend on parallelism)."""
        out = os.path.join(self.work, "cross.jsonl")
        before = self.server.counts() if self.server else None
        results, spans_path = self.child([self.generate_argv(out, self.wl.other_parallelism)], traced=True)
        server = count_delta(self.server.counts(), before) if self.server else None
        self._check(results[0]["rc"] == 0, f"generate at parallelism {self.wl.other_parallelism} failed")
        spans = load_spans(spans_path)
        return {
            "sha": _sha256(out) if results[0]["rc"] == 0 else None,
            "written": _written(results[0]["stdout"]),
            "calls": metrics.backend_calls(spans),
            "routes": metrics.post_json_routes(spans),
            "server": server,
        }

    # --- checks -------------------------------------------------------------

    def _check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def verify(self, batches: list[dict], cross: dict) -> str | None:
        shas = {g["sha"] for b in batches for g in b["gens"] if g["rc"] == 0}
        self._check(len(shas) == 1, f"corpus sha256 differs across repetitions: {sorted(shas)}")
        sha = next(iter(shas)) if shas else None
        self._check(
            cross["sha"] == sha,
            f"corpus sha256 at parallelism {self.wl.other_parallelism} is {cross['sha']}, expected {sha}",
        )
        with open(os.path.join(BENCH, "pins.json"), encoding="utf-8") as fh:
            pinned = json.load(fh)["sha256"].get(self.name, {}).get(str(self.seed))
        self._check(pinned is None or pinned == sha, f"corpus sha256 {sha} does not match pinned {pinned}")
        if self.server is not None:
            expected = cross["routes"]
            self._check(cross["server"] == expected, f"server log {cross['server']} != client calls {expected}")
            for b in batches:
                ran = sum(1 for g in b["gens"] if g["rc"] == 0)
                if ran == len(b["gens"]):
                    want = {route: n * ran for route, n in expected.items()}
                    self._check(b["server"] == want, f"server log {b['server']} != client calls {want}")
        return sha

    # --- metrics ------------------------------------------------------------

    def end_to_end(self, server_start_s: float, batches: list[dict], cross: dict) -> dict[str, float]:
        gens = [g for b in batches for g in b["gens"]]
        rates = [g["written"] / g["wall_s"] for g in gens if g["rc"] == 0]
        return {
            "episodes_per_s": statistics.median(rates),
            "setup_s": statistics.median(s for b in batches for s in b["index_s"]) + server_start_s,
            "requests_per_episode": sum(cross["calls"].values()) / cross["written"],
            "peak_rss_mb": statistics.median(b["rss_mb"] for b in batches),
            "completed_share": sum(g["written"] for g in gens) / (len(gens) * self.wl.episodes),
        }

    def per_layer(self, batches: list[dict]) -> dict[str, float]:
        samples: dict[str, list[float]] = defaultdict(list)
        rates: dict[bool, list[float]] = {True: [], False: []}
        for b in batches:
            rates[b["traced"]] += [g["written"] / g["wall_s"] for g in b["gens"] if g["rc"] == 0]
            if not b["traced"]:
                continue
            commands = _split_by_root(load_spans(b["spans"]))
            readback = [s for name, spans in commands if name in ("cli.validate", "cli.stats") for s in spans]
            for key, value in metrics.index_metrics(
                [s for name, spans in commands if name == "cli.index" for s in spans]
            ).items():
                samples[key].append(value)
            generates = [spans for name, spans in commands if name == "cli.generate"]
            server_total = sum(b["server"].values()) if b["server"] is not None else 0
            client_total = 0
            for g, spans in zip(b["gens"], generates):
                if g["rc"] != 0:
                    continue
                layer = metrics.generate_metrics(spans, g["written"], self.wl.parallelism)
                layer["dataio.bytes_per_episode"] = g["bytes"] / g["written"]
                layer["agents.server_requests_per_episode"] = server_total / len(generates) / g["written"]
                client_total += sum(metrics.post_json_routes(spans).values())
                for key, value in layer.items():
                    samples[key].append(value)
            samples["agents.retries"].append(server_total - client_total if b["server"] is not None else 0)
            for key, value in metrics.readback_metrics(readback).items():
                samples[key].append(value)
        out = {key: statistics.median(values) for key, values in samples.items()}
        out["trace.overhead_share"] = 1.0 - statistics.median(rates[True]) / statistics.median(rates[False])
        return out


def _print_metrics(values: dict[str, float], catalogue) -> dict:
    result = {}
    for entry in catalogue:
        name, unit = entry[0], entry[1]
        value = values[name]
        result[name] = {"value": value, "unit": unit}
        print(f"{name:42s} {value:.6g} {unit}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "skillblend", "cli.py")):
        print(f"perfbench: no skillblend sources under {ROOT}/src", file=sys.stderr)
        return 2

    with scratch_dir(f"{args.workload}-{args.seed}") as work:
        return _run(Run(args.workload, args.seed, args.seconds, bool(args.trace), work))


def _run(run: Run) -> int:
    try:
        server_start_s = run.setup()
        batches = run.measure()
        cross = run.cross_check()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        final_log = run.stop_server()
    gens = [g for b in batches for g in b["gens"]]
    if not any(g["rc"] == 0 and g["written"] for g in gens) or not cross["written"]:
        print("perfbench: no generate command wrote any episode", file=sys.stderr)
        return 1
    sha = run.verify(batches, cross)

    attempted = len(gens) * run.wl.episodes
    failed = attempted - sum(g["written"] for g in gens)
    print(f"workload {run.name} seed {run.seed}: {len(gens)} generate commands of "
          f"{run.wl.episodes} episodes at parallelism {run.wl.parallelism} in {len(batches)} processes")
    print(f"corpus sha256 {sha}")
    print(f"backend calls per corpus {json.dumps(cross['calls'])}")
    if final_log is not None:
        print(f"mock server request log {json.dumps(final_log)}")
    if run.trace:
        values = _print_metrics(run.per_layer(batches), metrics.PER_LAYER)
    else:
        values = _print_metrics(run.end_to_end(server_start_s, batches, cross), metrics.END_TO_END)
    for error in run.errors:
        print(f"perfbench: FAILED: {error}", file=sys.stderr)
    print(json.dumps({"correct": not run.errors, "attempted": attempted, "failed": failed, "metrics": values}))
    return 1 if run.errors else 0


if __name__ == "__main__":
    sys.exit(main())
