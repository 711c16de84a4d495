"""Program-side half of the benchmark: runs in its own process.

    child.py online --config CFG --stream OBS --out RESULT.json
                    [--seconds S] [--rounds K] [--check --checkpoints N,N,...]
                    [--trace-dir DIR]
    child.py cli --out RESULT.json [--trace-dir DIR] -- <histmix arguments>

`online` prints READY once set-up is done (config validation, estimator
construction, first fill of the identity's cell-average cache), then times
whole rounds of online steps over the stream, each from a fresh estimator,
until K rounds are done and S seconds have passed (with K = 0 it exits after
READY, which times one cold set-up). It keeps, for each sixteenth of the
stream, the step times of the round in which that stretch had the lowest
99th percentile, so its memory does not grow with the number of rounds.
Every round also forecasts, untimed, the indicators of the first
INDICATOR_CELLS finest cells at INDICATOR_SAMPLES evenly spaced steps (the
first before any data). `--check` also collects, outside the timed steps of
the first round, the outputs the checks compare.

`cli` runs `histmix.cli.main` in this process. With --trace-dir it runs under
the tracer and writes the tracer's counters; without, it only times each of
`histmix.evaluation`'s pool maps (`_fan_out`, from pool creation to
shutdown) and writes their spans.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

INDICATOR_SAMPLES = 8
INDICATOR_CELLS = 8
CHUNKS = 16


def _install(trace_dir):
    import histmix

    if not Path(histmix.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"histmix imported from {histmix.__file__}, not from {ROOT / 'src'}")
    if trace_dir is None:
        return None
    import tracer

    return tracer.install(Path(trace_dir))


def indicator_steps(n: int) -> list:
    """Steps (observations consumed so far) at which the indicators are forecast."""
    return [i * n // INDICATOR_SAMPLES for i in range(INDICATOR_SAMPLES)]


def _finest_log_densities(est) -> list:
    """Predictive log density at each finest cell's midpoint; it is constant on the cell."""
    return [est.log_density_at(0.5 * (c.lower + c.upper)) for c in est.family.levels[-1]]


def online(args) -> int:
    tr = _install(args.trace_dir)
    import numpy as np
    from histmix import build_estimator, cell_indicator, identity, load_config

    config = load_config(Path(args.config).read_text())
    xs = [float(line) for line in Path(args.stream).read_text().split()]
    r = identity(1.0)
    est = build_estimator(config)
    est.predict_functional(r, 1.0)
    print("READY", flush=True)
    if args.rounds == 0 and args.seconds <= 0:
        return 0
    indicators = [cell_indicator(est.family, j) for j in range(INDICATOR_CELLS)]

    rounds: list = []
    best: list = [None] * CHUNKS  # per stretch: (99th percentile, step times)
    forecasts: list = []
    joints: dict = {}
    checked: list = []
    checkpoints = {int(c) for c in args.checkpoints.split(",") if c}
    sample_at = set(indicator_steps(len(xs)))
    started = perf_counter()
    while len(rounds) < args.rounds or perf_counter() - started < args.seconds:
        if rounds:
            est = build_estimator(config)
            est.predict_functional(r, 1.0)
        first = not rounds and args.check
        total = 0.0
        low, high = math.inf, -math.inf
        latencies = []
        sampled = []
        for step, x in enumerate(xs):
            if step in sample_at:
                sampled.append([est.predict_functional(f, 1.0) for f in indicators])
                if first:
                    checked.append({"step": step, "log_density": _finest_log_densities(est)})
            t0 = perf_counter()
            f = est.predict_functional(r, 1.0)
            est.observe(x)
            latencies.append(perf_counter() - t0)
            total += f
            low, high = min(low, f), max(high, f)
            if first:
                forecasts.append(f)
                if step + 1 in checkpoints:
                    joints[step + 1] = est.joint_log_density
        for j, chunk in enumerate(np.split(np.array(latencies), CHUNKS)):
            tail = float(np.percentile(chunk, 99))
            if best[j] is None or tail < best[j][0]:
                best[j] = (tail, chunk)
        rounds.append({"sum": total, "min": low, "max": high, "loop_s": sum(latencies),
                       "indicators": sampled})

    result = {
        "rounds": rounds,
        "steps_s": np.concatenate([chunk for _, chunk in best]).tolist(),
        "forecasts": forecasts,
        "joints": joints,
        "finest_cells": checked,
    }
    if tr is not None:
        result["trace"] = tr.merge()
    Path(args.out).write_text(json.dumps(result))
    return 0


def _time_pool_maps(spans: list) -> None:
    import histmix.evaluation as evaluation

    fan_out = evaluation._fan_out

    def timed(*a, **kw):
        t0 = perf_counter()
        try:
            return fan_out(*a, **kw)
        finally:
            spans.append((t0, perf_counter()))

    evaluation._fan_out = timed


def cli(args) -> int:
    tr = _install(args.trace_dir)
    spans: list = []
    if tr is None:
        _time_pool_maps(spans)
    from histmix.cli import main

    code = main(args.argv)
    Path(args.out).write_text(json.dumps(tr.merge() if tr is not None else {"pool_maps": spans}))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("online")
    p.add_argument("--config", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--check", action="store_true")
    p.add_argument("--checkpoints", default="", help="steps after which to report the joint")
    p.add_argument("--trace-dir")
    p = sub.add_parser("cli")
    p.add_argument("--out", required=True)
    p.add_argument("--trace-dir")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return cli(args)
    return online(args)


if __name__ == "__main__":
    sys.exit(main())
