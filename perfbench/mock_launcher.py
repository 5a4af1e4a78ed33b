"""Run skillblend's table-driven mock model server in its own process.

Usage: python3 mock_launcher.py TABLES.json

Starts ``skillblend.agents.serve_mock`` on an ephemeral localhost port and
prints ``listening <base_url>``. It then reads commands on stdin, one per
line: ``counts`` prints the per-route request counts so far as one JSON
line. End of input or ``quit`` shuts the server down, prints the final
per-route request log as one JSON line and exits. Running the server in a
process of its own keeps its Python work off the client's interpreter lock.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from skillblend.agents import serve_mock  # noqa: E402


def _counts(server) -> str:
    return json.dumps(dict(sorted(Counter(route for route, _ in server.requests).items())))


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        tables = json.load(fh)
    server = serve_mock(tables)
    try:
        print(f"listening {server.base_url}", flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "quit":
                break
            if command == "counts":
                print(_counts(server), flush=True)
    finally:
        server.close()
    print(_counts(server), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
