"""Record the payload digest of every census and search query.

  PYTHONPATH=src python3 perfbench/record_digests.py

The CLI promises byte-stable payloads for a fixed input, so the benchmark
counts any query whose payload digest differs from the recorded one as
failed. Re-record only when a payload is meant to change.
"""

import json
from pathlib import Path

import workloads

OUT = Path(__file__).resolve().parents[1] / ".bench_out" / "digests"

if __name__ == "__main__":
    OUT.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name in ("census", "search"):
        workload = workloads.CliWorkload(name, 0, OUT)
        for query in workload.queries:
            digests[query.label] = workload.digest(workload.execute(query))
            print(digests[query.label], query.label)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
