"""Run-to-run spread of the end-to-end metrics, and a comparison of two sets.

    python3 perfbench/stability.py --workload NAME [--workload NAME ...]
        [--seeds 1-10] [--save perfbench/results/set-a.json]
        [--against perfbench/results/set-a.json]

Runs `run.py` once per seed and workload (untraced, for the `run_seconds` of
BENCHMARK.json) and prints, per metric, the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread (third minus
first quartile over the median) next to the metric's bound from
BENCHMARK.json; a spread past the bound is flagged. With --against, it also prints how far
each median moved from the saved set, as a share of that set's median, in
the metric's worse direction; a shift past the bound is flagged. The share of
failed operations must be exactly equal in both sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(workloads, seeds, seconds) -> dict:
    out = {}
    for name in workloads:
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
        out[name] = runs
    return out


def summarize(sets: dict, spec: dict, against: dict | None) -> bool:
    ok = True
    for name, runs in sets.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{name}: failed share {sorted(shares)}"
              + (" (differs between runs)" if len(shares) > 1 else ""))
        ok &= len(shares) == 1 and all(r["correct"] for r in runs)
        if against is not None:
            old = {r["failed"] / r["attempted"] for r in against[name]}
            if old != shares:
                print(f"  failed share differs from the saved set: {sorted(old)}")
                ok = False
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = [r["metrics"][key]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            line = (f"  {key:<12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                    f"spread {spread:6.3f} bound {metric['bound']}")
            if spread > metric["bound"]:
                line += "  SPREAD ABOVE BOUND"
                ok = False
            if against is not None:
                old = statistics.median(r["metrics"][key]["value"] for r in against[name])
                shift = (med - old) / old * (1 if metric["better"] == "lower" else -1)
                line += f"  worse by {shift:+.3f} vs saved"
                if shift > metric["bound"]:
                    line += "  SHIFT ABOVE BOUND"
                    ok = False
            print(line)
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = run_set(args.workload, _seeds(args.seeds), spec["run_seconds"])
    if args.save:
        Path(args.save).write_text(json.dumps(sets))
    against = json.loads(Path(args.against).read_text()) if args.against else None
    return 0 if summarize(sets, spec, against) else 1


if __name__ == "__main__":
    sys.exit(main())
