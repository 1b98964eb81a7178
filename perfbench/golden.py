"""Record golden.json: argv and exact-field digest of a fixed set of requests.

    python3 perfbench/golden.py

The set is drawn once from seed 0 of each workload (cheap requests only) and
stored with its argv, so it does not move when a generator changes.  The
digests were recorded on the seed commit; ``run.py`` replays the argvs once
per run, outside the timed loop, and counts any digest mismatch as a failed
request.  Re-recording is only right when an output change is intended.
"""

from __future__ import annotations

import json
import os
import sys

from oracles import check, exact_digest
from workloads import GENERATORS, parse_poly

HERE = os.path.dirname(os.path.abspath(__file__))
PER_WORKLOAD = {"highdeg-disc": 12, "ratfun-partfrac": 30, "forms-small": 80}
MAX_DEGREE = 12


def _cheap(request):
    polys = [a for a in request["argv"][2:] if "," in a and request["cmd"] in ("disc", "repeated", "partfrac", "integrate")]
    return all(len(parse_poly(p)) - 1 <= MAX_DEGREE for p in polys)


def main():
    sys.path.insert(0, "src")
    from klasika import cli

    golden = {}
    for workload, count in PER_WORKLOAD.items():
        rows = []
        for request in GENERATORS[workload](0):
            if len(rows) == count:
                break
            if _cheap(request):
                text = cli.run(request["argv"]).to_json()
                reason = check(request, text)
                if reason is not None:
                    raise SystemExit(f"golden request fails its own check: {request['argv']}: {reason}")
                rows.append([request["argv"], exact_digest(text)])
        golden[workload] = rows
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
