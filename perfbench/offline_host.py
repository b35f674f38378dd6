"""Offline ``run_sweep`` documents of plan requests, for the serve checks.

Usage: ``python offline_host.py BODIES.json OUT.json``

Reads a JSON list of ``POST /plan`` bodies and writes the JSON list of
the ``run_sweep(...).to_json()`` documents of the same requests, in
order, as a library caller of the program would get them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> int:
    bodies_path, out_path = sys.argv[1:3]
    from repro.serve.schemas import parse_plan_request
    from repro.sweep import run_sweep

    documents = []
    for body in json.loads(Path(bodies_path).read_text(encoding="utf-8")):
        request = parse_plan_request(body)
        documents.append(run_sweep(request.grid(), max_requests=request.max_requests).to_json())
    Path(out_path).write_text(json.dumps(documents), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
