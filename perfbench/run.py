"""Benchmark for histmix: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree of histmix: the program is imported from
`src/` there, never from an installed copy. With --trace 0 the last line of
standard output is a JSON object holding every end-to-end metric; with
--trace 1 it holds the per-layer metrics of a traced run instead. Exit codes:
0 checks passed, 1 a check failed, 2 usage error or no program to run,
3 the program failed to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import BENCH, SRC, BenchError
from workloads import WORKLOADS

RESULTS = BENCH / "results"
WORK = BENCH / "_work"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "histmix" / "__init__.py").is_file():
        print(f"no histmix sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        res = workload.run(args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = {name: msgs for name, msgs in res.checks.items() if msgs}
    metrics = res.layers if args.trace else res.e2e
    result = {
        "correct": not failures,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, checks={name: msgs[:20] for name, msgs in res.checks.items()})
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if res.spans is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(res.spans))
    for name, msgs in res.checks.items():
        print(f"check {name}: {'FAIL' if msgs else 'ok'}")
        for msg in msgs[:5]:
            print(f"  {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
