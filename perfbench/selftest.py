"""Shows that no check passes by construction.

    python3 perfbench/selftest.py

Runs each workload once at a small size, confirms that every check passes on
the program's real outputs, then corrupts one output at a time and confirms
that the check meant to catch it fails (for the online indicator forecasts,
which are counted as operations, that the failed count rises). Exits 1 if any
corruption goes unnoticed or a real output fails.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

from common import BENCH
from workloads import EvaluateCountable, OnlineForecast, ReplayHighres

SMALL = {
    ReplayHighres: {"n": 1024, "levels": 6, "checkpoints": (128, 512, 1024), "prefix": 512},
    OnlineForecast: {"n": 2048, "prefix": 1024, "checkpoints": (256, 1024, 2048)},
    EvaluateCountable: {"seeds": 2, "levels": 4, "checkpoints": (64, 256), "prefix": 64},
}


def _set_field(text: str, match: dict, key: str, value) -> str:
    """Rewrite one field of the first record whose fields include `match`."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        fields = dict(item.split("=", 1) for item in line.split())
        if all(fields.get(k) == str(v) for k, v in match.items()):
            fields[key] = value(float(fields[key])) if callable(value) else value
            lines[i] = " ".join(f"{k}={v}" for k, v in fields.items())
            return "\n".join(lines) + "\n"
    raise KeyError(match)


def _drop_record(text: str, match: dict) -> str:
    return _set_field(text, match, "record", "dropped")


def _bump(rel: float):
    return lambda v: repr(v * (1.0 + rel))


def replay_cases(inp, outputs):
    out = outputs[0]
    yield "recomputation", (inp, [_set_field(out, {"n": 128}, "kl_bits", _bump(1e-7))])
    yield "recomputation", (inp, [_set_field(out, {"n": 512}, "logloss_bits", _bump(1e-7))])
    yield "redundancy_bound", (inp, [_set_field(out, {"n": 1024}, "kl_bits", "5.0")])
    yield "program_output", (inp, [_drop_record(out, {"n": 512})])
    yield "rounds_identical", (inp, [out, _set_field(out, {"n": 1024}, "kl_bits", _bump(1e-3))])


def online_cases(inp, res):
    def changed(edit):
        r = copy.deepcopy(res)
        edit(r)
        return inp, r

    def push_forecast(r):
        r["forecasts"][700] = 1.0

    def nudge_forecast(r):
        r["forecasts"][10] *= 1.0 + 1e-7

    def nudge_joint(r):
        r["joints"]["1024"] *= 1.0 + 1e-7

    def lower_joint(r):
        r["joints"]["2048"] -= 1e4

    def unbalance_cells(r):
        r["finest_cells"][1]["log_density"][3] += 1e-4

    def nudge_indicator(r):
        r["rounds"][0]["indicators"][3][1] *= 1.0 + 1e-7

    def drop_indicator(r):
        r["rounds"][0]["indicators"][2].pop()

    def vary_round(r):
        r["rounds"].append(dict(r["rounds"][0], sum=r["rounds"][0]["sum"] + 1e-9))

    def widen_round(r):
        r["rounds"][0]["max"] = 1.0

    def lose_forecast(r):
        r["forecasts"].pop()

    yield "forecast_range", changed(push_forecast)
    yield "forecast_range", changed(widen_round)
    yield "recomputation", changed(nudge_forecast)
    yield "recomputation", changed(nudge_joint)
    yield "redundancy_bound", changed(lower_joint)
    yield "finest_cell_mass", changed(unbalance_cells)
    yield "rounds_identical", changed(vary_round)
    yield "program_output", changed(lose_forecast)
    yield "program_output", changed(drop_indicator)
    yield "operations", changed(nudge_indicator)


def evaluate_cases(inp, outputs, reduced):
    out = outputs[0]
    seed = inp["seeds"][0]
    yield "recomputation", (inp, [_set_field(out, {"record": "kl", "seed": seed, "n": 64},
                                             "kl_bits", _bump(1e-7))], reduced)
    yield "redundancy_bound", (inp, [_set_field(out, {"record": "kl", "seed": seed, "n": 256},
                                                "kl_bits", "5.0")], reduced)
    yield "recomputation", (inp, [_set_field(out, {"record": "pred", "seed": seed, "n": 64},
                                             "sq_error", _bump(1e-7))], reduced)
    yield "recomputation", (inp, [_set_field(out, {"record": "pred", "seed": seed, "n": 64},
                                             "abs_error", _bump(1e-7))], reduced)
    yield "program_output", (inp, [_drop_record(out, {"record": "kl", "seed": seed, "n": 256})],
                             reduced)
    yield "program_output", (inp, [_drop_record(out, {"record": "pred", "seed": seed,
                                                      "n": 256})], reduced)
    yield "rounds_identical", (inp, [out, out.replace("record=kl ", "record=kl  ", 1)], reduced)
    yield "jobs_identical", (inp, outputs, [reduced[0], reduced[1].replace("=", "= ", 1)])


CASES = {ReplayHighres: replay_cases, OnlineForecast: online_cases,
         EvaluateCountable: evaluate_cases}


def main() -> int:
    ok = True
    work = BENCH / "_work" / f"selftest-{os.getpid()}"
    try:
        for cls, size in SMALL.items():
            sub = work / cls.name
            sub.mkdir(parents=True)
            wl = cls(7, sub, size)
            res = wl.run(0.0, False)
            failing = [name for name, msgs in res.checks.items() if msgs]
            print(f"{cls.name}: real outputs {'pass' if not failing else 'FAIL ' + str(failing)}"
                  f", {res.failed} of {res.attempted} operations failed")
            ok &= not failing
            caught = set()
            for target, args in CASES[cls](*res.check_args):
                if target == "operations":
                    failed = wl.operations(args[0], args[1]["rounds"])[1]
                    msgs = [f"{failed} failed, {res.failed} before"] if failed > res.failed else []
                else:
                    msgs = wl.check(*args)[target]
                print(f"  corrupted for {target}: {'caught' if msgs else 'NOT CAUGHT'}"
                      + (f" ({msgs[0][:100]})" if msgs else ""))
                ok &= bool(msgs)
                caught.add(target)
            untested = set(res.checks) - caught
            if untested:
                print(f"  checks with no corruption case: {sorted(untested)}")
                ok = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
