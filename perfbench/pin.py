"""Record the corpus sha256 of workload seeds in pins.json.

Usage (from the repository root):

    python3 perfbench/pin.py WORKLOAD SEED [SEED ...]

Seeds already pinned are left alone, so a pin can only be added, never
silently changed. ``run.py`` fails any run whose corpus differs from the
pinned value for its workload and seed.
"""

from __future__ import annotations

import json
import os
import sys

import run as bench

PINS = os.path.join(bench.BENCH, "pins.json")


def corpus_sha(workload: str, seed: int) -> str:
    with bench.scratch_dir(f"pin-{workload}-{seed}") as work:
        job = bench.Run(workload, seed, 0, False, work)
        try:
            job.setup()
            gens = job.batch(0, traced=False)["gens"]
        finally:
            job.stop_server()
    if job.errors or gens[0]["rc"] != 0:
        raise SystemExit(f"pin: {workload} seed {seed} failed: {job.errors}")
    return gens[0]["sha"]


def main(argv: list[str]) -> int:
    workload, seeds = argv[0], argv[1:]
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    table = pins["sha256"].setdefault(workload, {})
    for seed in seeds:
        if seed not in table:
            table[seed] = corpus_sha(workload, int(seed))
            print(f"{workload} {seed} {table[seed]}")
    pins["sha256"][workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    pins["sha256"] = dict(sorted(pins["sha256"].items()))
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
