"""The three workloads: inputs from a seed, timed runs of the program, checks.

Each workload's `run` returns a Result. Checks map a check name to the list
of its failures; each workload's `check` takes only generated inputs and
program outputs, so the self-test can feed it corrupted outputs.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

import recompute as rc
from child import INDICATOR_CELLS, indicator_steps
from common import (
    CHILD,
    BenchError,
    child_cli_cmd,
    feed_fifo,
    finish,
    histmix_cmd,
    layer_metrics,
    median,
    merge_raw,
    p99,
    peak_rss_mb,
    rel_close,
    run_timed,
    start,
    wait_readable,
)

LN2 = math.log(2.0)


class Result(NamedTuple):
    e2e: dict | None  # end-to-end metrics of an untraced run
    layers: dict | None  # per-layer metrics of a traced run
    attempted: int
    failed: int
    checks: dict
    spans: list | None
    check_args: tuple  # what `check` was given, for the self-test


def _records(text: str, kind: str) -> list[dict]:
    out = []
    for line in text.splitlines():
        fields = dict(item.split("=", 1) for item in line.split())
        if fields.get("record") == kind:
            out.append(fields)
    return out


def _bound_failures(label, kl_bits: dict, bound_bits: dict) -> list[str]:
    """kl_bits and bound_bits map n to per-symbol and total bits respectively."""
    out = []
    for n, kl in sorted(kl_bits.items()):
        limit = bound_bits[n] / n
        if not kl <= limit + 1e-12:
            out.append(f"{label} n={n}: kl_bits {kl!r} exceeds the bound {limit!r}")
    return out


class Workload:
    """One workload for one seed; `size` overrides entries of SIZE (the self-test
    runs every workload small)."""

    name = ""
    SIZE: dict = {}

    def __init__(self, seed: int, work: Path, size: dict | None = None):
        self.seed = seed
        self.work = work
        self.size = dict(self.SIZE, **(size or {}))


# ---------------------------------------------------------------- replay-highres


class ReplayHighres(Workload):
    """`histmix estimate` over a file drawn from a piecewise-constant density."""

    name = "replay-highres"
    SIZE = {"n": 20000, "levels": 12, "pieces": 8, "checkpoints": (512, 2048, 8192, 20000),
            "prefix": 2048}
    MAX_ORDER = 2

    def generate(self) -> dict:
        s = self.size
        rng = np.random.default_rng([self.seed, 1])
        k = s["pieces"]
        g = 0.25 + rng.random(k)
        densities = [float(v) for v in g / g.mean()]
        breaks = [j / k for j in range(k + 1)]
        cdf = np.concatenate(([0.0], np.cumsum(np.asarray(densities) / k)))
        u = rng.random(s["n"])
        j = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, k - 1)
        x = np.asarray(breaks)[j] + (u - cdf[j]) / np.asarray(densities)[j]
        xs = [float(v) for v in np.clip(x, 0.0, np.nextafter(1.0, 0.0))]
        config = "\n".join([
            "source = piecewise-density-iid",
            "breaks = " + ",".join(repr(b) for b in breaks),
            "densities = " + ",".join(repr(d) for d in densities),
            f"levels = {s['levels']}",
            f"max_order = {self.MAX_ORDER}",
            "checkpoints = " + ",".join(map(str, s["checkpoints"])),
        ]) + "\n"
        text = f"# replay-highres seed={self.seed}\n" + "".join(f"{v!r}\n" for v in xs)
        return {"xs": xs, "breaks": breaks, "densities": densities, "config": config,
                "data": text.encode()}

    def run(self, seconds: float, trace: bool):
        inp = self.generate()
        cfg = self.work / "replay.cfg"
        cfg.write_text(inp["config"])
        fifo = self.work / "replay.fifo"
        os.mkfifo(fifo)
        n = len(inp["xs"])
        setups, consumed, outputs, walls, parts = [], [], [], [], []

        def one_round(traced: bool):
            out = self.work / f"estimate-{len(outputs)}.out"
            args = ("estimate", "--config", cfg, "--input", fifo, "--output", out, "--quiet")
            if traced:
                trace_dir = self.work / f"trace-{len(outputs)}"
                trace_dir.mkdir()
                trace_out = trace_dir / "trace.json"
                cmd = child_cli_cmd(trace_out, trace_dir, *args)
            else:
                cmd = histmix_cmd(*args)
            setup, consume = feed_fifo(fifo, inp["data"], cmd, "histmix estimate")
            outputs.append(out.read_text())
            if traced:
                parts.append(json.loads(trace_out.read_text()))
            return setup, consume

        started = perf_counter()
        if trace:
            base = sum(one_round(False))
            while not parts or perf_counter() - started < seconds:
                walls.append(sum(one_round(True)))
        else:
            while not setups or perf_counter() - started < seconds:
                setup, consume = one_round(False)
                setups.append(setup)
                consumed.append(consume)
        checks = self.check(inp, outputs)
        attempted = n * len(outputs)
        if trace:
            raw = merge_raw(parts)
            overhead = 100.0 * (median(walls) / base - 1.0)
            layers = layer_metrics(raw, len(parts), overhead)
            return Result(None, layers, attempted, 0, checks, raw["spans"], (inp, outputs))
        best = min(consumed)
        metrics = {
            "setup_s": (min(setups), "s"),
            "obs_per_s": (n / best, "observations/s"),
            "step_p50_us": (1e6 * best / n, "us"),
            "step_p99_us": (1e6 * best / n, "us"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        return Result(metrics, None, attempted, 0, checks, None, (inp, outputs))

    def check(self, inp: dict, outputs: list[str]) -> dict:
        s = self.size
        checks = {"program_output": [], "recomputation": [], "redundancy_bound": [],
                  "rounds_identical": []}
        if any(o != outputs[0] for o in outputs):
            checks["rounds_identical"].append("estimate output differs between rounds")
        recs = {int(r["n"]): r for r in _records(outputs[0], "estimate")}
        if sorted(recs) != sorted(set(s["checkpoints"]) | {len(inp["xs"])}):
            checks["program_output"].append(f"records at n={sorted(recs)}")
            return checks
        breaks, dens = inp["breaks"], inp["densities"]

        def true_log(x):
            return math.log(dens[bisect.bisect_right(breaks, x) - 1])

        xs = inp["xs"]
        prefix_checks = [c for c in s["checkpoints"] if c <= s["prefix"]]
        model = rc.Recomputation(rc.DyadicCells(s["levels"]), self.MAX_ORDER)
        true_sum = 0.0
        for t, x in enumerate(xs[: s["prefix"]], 1):
            model.observe(x)
            true_sum += true_log(x)
            if t in prefix_checks:
                joint = model.joint_log_density()
                want = {"logloss_bits": -joint / (t * LN2),
                        "kl_bits": (true_sum - joint) / (t * LN2)}
                for key, value in want.items():
                    got = float(recs[t][key])
                    if not rel_close(got, value):
                        checks["recomputation"].append(
                            f"n={t} {key}: program {got!r}, recomputed {value!r}")
        # the density is constant on the level-k0 cells, so the source is an
        # i.i.d. (order-0, hence also order-d) chain over them
        k0 = int(math.log2(s["pieces"])) - 1
        cells = rc.DyadicCells(s["levels"])
        symbols = [cells.index(k0, x) for x in xs]
        ns = sorted(recs)
        best = {n: math.inf for n in ns}
        for d in range(self.MAX_ORDER + 1):
            mlkt = rc.ml_minus_kt_bits(symbols, cells.size(k0), d, ns)
            for n in ns:
                best[n] = min(best[n], rc.redundancy_bound_bits(
                    s["levels"], self.MAX_ORDER, k0, mlkt[n]))
        kl = {n: float(recs[n]["kl_bits"]) for n in ns}
        checks["redundancy_bound"] += _bound_failures("estimate", kl, best)
        return checks


# ---------------------------------------------------------------- online-forecast


class OnlineForecast(Workload):
    """Library loop: predict_functional(identity) then observe, each step timed."""

    name = "online-forecast"
    SIZE = {"n": 8192, "levels": 8, "stay": 0.9, "prefix": 2048,
            "checkpoints": (256, 1024, 4096, 8192)}
    MAX_ORDER = 2

    def __init__(self, seed: int, work: Path, size: dict | None = None):
        super().__init__(seed, work, size)
        self._replayed: dict = {}

    def generate(self) -> dict:
        s = self.size
        rng = np.random.default_rng([self.seed, 2])
        u, v = rng.random(s["n"]), rng.random(s["n"])
        flips = u >= s["stay"]
        flips[0] = u[0] >= 0.5
        states = np.cumsum(flips) & 1
        xs = [float(x) for x in (states + v) / 2.0]
        config = (f"source = binary-markov\nstay = {s['stay']!r}\nlevels = {s['levels']}\n"
                  f"max_order = {self.MAX_ORDER}\n")
        return {"xs": xs, "config": config}

    def _child(self, inp, out: Path, check: bool, seconds: float, rounds: int, trace_dir=None):
        """Run the online child; with rounds = 0 and seconds = 0 it only sets up."""
        cfg = self.work / "online.cfg"
        stream = self.work / "online.obs"
        cfg.write_text(inp["config"])
        stream.write_text("".join(f"{x!r}\n" for x in inp["xs"]))
        cmd = [sys.executable, str(CHILD), "online", "--config", str(cfg),
               "--stream", str(stream), "--out", str(out), "--seconds", str(seconds),
               "--rounds", str(rounds),
               "--checkpoints", ",".join(map(str, self.size["checkpoints"]))]
        if check:
            cmd.append("--check")
        if trace_dir is not None:
            trace_dir.mkdir()
            cmd += ["--trace-dir", str(trace_dir)]
        t0 = perf_counter()
        proc = start(cmd, stdout=subprocess.PIPE)
        line = proc.stdout.readline() if wait_readable(proc.stdout) else ""
        setup = perf_counter() - t0
        finish(proc, "online child")
        if line.strip() != "READY":
            raise BenchError(f"online child: expected READY, got {line!r}")
        return setup, json.loads(out.read_text()) if rounds or seconds else None

    def run(self, seconds: float, trace: bool):
        inp = self.generate()
        if trace:
            _, base = self._child(inp, self.work / "base.json", True, 0.0, 2)
            _, traced = self._child(inp, self.work / "traced.json", False, 0.0, 2,
                                    self.work / "trace")
            loop = lambda res: sum(r["loop_s"] for r in res["rounds"])
            overhead = 100.0 * (loop(traced) / loop(base) - 1.0)
            raw = traced["trace"]
            layers = layer_metrics(raw, len(traced["rounds"]), overhead)
            attempted, failed = self.operations(inp, base["rounds"] + traced["rounds"])
            return Result(None, layers, attempted, failed, self.check(inp, base), raw["spans"],
                          (inp, base))
        # cold set-ups also in children that only set up, two before and two
        # after the measuring child, so that the samples span the run; the
        # least disturbed one is reported
        def setup_only():
            return self._child(inp, self.work / "setup.json", False, 0.0, 0)[0]

        setups = [setup_only(), setup_only()]
        setup, res = self._child(inp, self.work / "online.json", True, seconds, 1)
        setups += [setup, setup_only(), setup_only()]
        steps = res["steps_s"]
        metrics = {
            "setup_s": (min(setups), "s"),
            "obs_per_s": (len(steps) / sum(steps), "observations/s"),
            "step_p50_us": (1e6 * median(steps), "us"),
            "step_p99_us": (1e6 * p99(steps), "us"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        attempted, failed = self.operations(inp, res["rounds"])
        return Result(metrics, None, attempted, failed, self.check(inp, res), None, (inp, res))

    def _replay(self, inp: dict) -> dict:
        """The recomputation's outputs on this input: identity forecasts and joint
        log densities on the prefix, indicator forecasts at the sampled steps."""
        key = id(inp)
        if key not in self._replayed:
            s = self.size
            xs = inp["xs"]
            cells = rc.DyadicCells(s["levels"])
            averages = [cells.finest_indicator(j) for j in range(INDICATOR_CELLS)]
            sample_at = indicator_steps(len(xs))
            model = rc.Recomputation(cells, self.MAX_ORDER, forecast=True)
            out = {"forecasts": [], "joints": {}, "indicators": []}
            for t, x in enumerate(xs[: max(s["prefix"], sample_at[-1] + 1)]):
                if t in sample_at:
                    out["indicators"].append([model.cell_forecast(a) for a in averages])
                if t < s["prefix"]:
                    out["forecasts"].append(model.identity_forecast())
                model.observe(x)
                if t + 1 in s["checkpoints"] and t < s["prefix"]:
                    out["joints"][t + 1] = model.joint_log_density()
            self._replayed[key] = out
        return self._replayed[key]

    def operations(self, inp: dict, rounds: list) -> tuple[int, int]:
        """Each round is its steps plus its indicator forecasts; a forecast of a
        finest cell's indicator that differs from the recomputation fails.

        The program misses, on every input, the indicators of finest cells
        j = 0 (mod 4) at levels >= 8: its quadrature averages them as 0 over
        the level-0 cells (see the README). Those forecasts are the failed
        operations, 16 of every round's 8256 operations.
        """
        want = [v for row in self._replay(inp)["indicators"] for v in row]
        failed = 0
        for r in rounds:
            got = [v for row in r["indicators"] for v in row]
            failed += sum(not rel_close(a, b) for a, b in zip(got, want))
            failed += abs(len(want) - len(got))
        return len(rounds) * (len(inp["xs"]) + len(want)), failed

    def check(self, inp: dict, res: dict) -> dict:
        s = self.size
        xs = inp["xs"]
        checks = {"program_output": [], "recomputation": [], "forecast_range": [],
                  "finest_cell_mass": [], "redundancy_bound": [], "rounds_identical": []}
        forecasts = res["forecasts"]
        joints = {int(k): v for k, v in res["joints"].items()}
        shape = [INDICATOR_CELLS] * len(indicator_steps(len(xs)))
        if (len(forecasts) != len(xs) or sorted(joints) != list(s["checkpoints"])
                or any([len(row) for row in r["indicators"]] != shape for r in res["rounds"])):
            checks["program_output"].append(
                f"{len(forecasts)} forecasts, joints at {sorted(joints)}, indicator forecasts "
                f"{[[len(row) for row in r['indicators']] for r in res['rounds']]}")
            return checks
        first = res["rounds"][0]
        keys = ("sum", "min", "max", "indicators")
        for i, r in enumerate(res["rounds"]):
            if any(r[k] != first[k] for k in keys):
                checks["rounds_identical"].append(f"round {i} forecasts differ from round 0")
            if not 0.0 <= r["min"] <= r["max"] < 1.0:
                checks["forecast_range"].append(
                    f"round {i}: forecasts span [{r['min']!r}, {r['max']!r}]")
        for i, f in enumerate(forecasts):
            if not 0.0 <= f < 1.0:
                checks["forecast_range"].append(f"step {i}: forecast {f!r} outside [0, 1)")
        # recomputation of forecasts and joint log densities on a prefix (the
        # indicator forecasts are compared in `operations`)
        replay = self._replay(inp)
        for t, want in enumerate(replay["forecasts"]):
            if not rel_close(forecasts[t], want):
                checks["recomputation"].append(
                    f"step {t}: forecast {forecasts[t]!r}, recomputed {want!r}")
        for n, want in replay["joints"].items():
            if not rel_close(joints[n], want):
                checks["recomputation"].append(
                    f"n={n} joint log density: program {joints[n]!r}, recomputed {want!r}")
        # the predictive probabilities of the finest cells, from the predictive
        # density at their midpoints, sum to one
        width = 2.0 ** -s["levels"]
        for item in res["finest_cells"]:
            total = math.fsum(math.exp(v) * width for v in item["log_density"])
            if abs(total - 1.0) > 1e-9:
                checks["finest_cell_mass"].append(
                    f"step {item['step']}: finest cells sum to {total!r}")
        if len(res["finest_cells"]) < 2:
            checks["finest_cell_mass"].append("fewer than two sampled steps")
        # realized log ratio against the bound; the source is an order-1
        # chain over the level-0 cells (the halves of [0, 1))
        true_sum = {}
        total, last = 0.0, None
        for t, x in enumerate(xs, 1):
            state = int(x >= 0.5)
            if last is not None:
                total += LN2 + math.log(s["stay"] if state == last else 1.0 - s["stay"])
            last = state
            if t in joints:
                true_sum[t] = total
        kl = {n: (true_sum[n] - joints[n]) / (n * LN2) for n in joints}
        symbols = [int(x >= 0.5) for x in xs]
        best = {n: math.inf for n in joints}
        for d in range(1, self.MAX_ORDER + 1):
            mlkt = rc.ml_minus_kt_bits(symbols, 2, d, joints)
            for n in joints:
                best[n] = min(best[n], rc.redundancy_bound_bits(
                    s["levels"], self.MAX_ORDER, 0, mlkt[n]))
        checks["redundancy_bound"] += _bound_failures("online", kl, best)
        return checks


# ---------------------------------------------------------------- evaluate-countable


class EvaluateCountable(Workload):
    """`histmix evaluate --jobs 2 --r cell:0` on a countable geometric source."""

    name = "evaluate-countable"
    # six seeds, so that a pool map's tasks outnumber its workers and the
    # workers balance them: with one task per worker, a map waits for the
    # slower core, and the host slowed one core by up to half for minutes
    SIZE = {"seeds": 6, "levels": 8, "ratio": 0.8, "checkpoints": (256, 1024, 2048),
            "prefix": 1024, "jobs": 2}
    MAX_ORDER = 2
    REDUCED = {"levels": 3, "checkpoints": (64, 256)}

    def _config(self, seeds, checkpoints, levels) -> str:
        return (f"source = countable-geometric\nratio = {self.size['ratio']!r}\n"
                f"levels = {levels}\nmax_order = {self.MAX_ORDER}\n"
                f"seeds = {','.join(map(str, seeds))}\n"
                f"checkpoints = {','.join(map(str, checkpoints))}\n")

    def generate(self) -> dict:
        s = self.size
        rng = np.random.default_rng([self.seed, 3])
        seeds = [int(v) for v in rng.choice(1 << 30, size=s["seeds"], replace=False)]
        return {
            "seeds": seeds,
            "config": self._config(seeds, s["checkpoints"], s["levels"]),
            "reduced": self._config(seeds[:2], self.REDUCED["checkpoints"], self.REDUCED["levels"]),
        }

    def _evaluate(self, name: str, text: str, jobs: int, mode: str = "plain"):
        """One `histmix evaluate`: wall time, output and, unless mode is "plain",
        what the child reports. "traced": the tracer's counters. "pool_maps":
        `setup_s`, from the process's start to the start of its first pool
        map, and `maps_s`, the duration of each pool map."""
        cfg = self.work / f"{name}.cfg"
        cfg.write_text(text)
        out = self.work / f"{name}.out"
        args = ("evaluate", "--config", cfg, "--jobs", jobs, "--r", "cell:0", "--quiet",
                "--output", out)
        if mode == "plain":
            return run_timed(histmix_cmd(*args), "histmix evaluate"), out.read_text(), None
        report = self.work / f"{name}.json"
        if mode == "traced":
            trace_dir = self.work / f"trace-{name}"
            trace_dir.mkdir()
        else:
            trace_dir = None
        started = perf_counter()
        wall = run_timed(child_cli_cmd(report, trace_dir, *args), f"histmix evaluate ({mode})")
        raw = json.loads(report.read_text())
        if mode == "traced":
            return wall, out.read_text(), raw
        # perf_counter reads CLOCK_MONOTONIC, one clock for every process, so
        # the child's span times compare with `started`
        spans = raw["pool_maps"]
        times = {"setup_s": spans[0][0] - started, "maps_s": [t1 - t0 for t0, t1 in spans]}
        return wall, out.read_text(), times

    def run(self, seconds: float, trace: bool):
        s = self.size
        inp = self.generate()
        obs = 2 * s["seeds"] * s["checkpoints"][-1]
        walls, outputs, parts = [], [], []
        started = perf_counter()
        if trace:
            base, out, _ = self._evaluate("round-0", inp["config"], s["jobs"])
            outputs.append(out)
            while not parts or perf_counter() - started < seconds:
                wall, out, raw = self._evaluate(
                    f"round-{len(outputs)}", inp["config"], s["jobs"], "traced")
                walls.append(wall)
                outputs.append(out)
                parts.append(raw)
        else:
            setups, maps = [], []
            while not maps or perf_counter() - started < seconds:
                _, out, times = self._evaluate(
                    f"round-{len(outputs)}", inp["config"], s["jobs"], "pool_maps")
                setups.append(times["setup_s"])
                maps.append(times["maps_s"])
                outputs.append(out)
        reduced = [self._evaluate(f"reduced-{j}", inp["reduced"], j)[1] for j in (1, 2)]
        checks = self.check(inp, outputs, reduced)
        attempted = obs * len(outputs)
        if trace:
            raw = merge_raw(parts)
            overhead = 100.0 * (median(walls) / base - 1.0)
            layers = layer_metrics(raw, len(parts), overhead)
            return Result(None, layers, attempted, 0, checks, raw["spans"],
                          (inp, outputs, reduced))
        # every round runs the same two pool maps (KL, then prediction); the
        # least disturbed run of each, over the rounds
        best = sum(min(spans) for spans in zip(*maps))
        metrics = {
            "setup_s": (min(setups), "s"),
            "obs_per_s": (obs / best, "observations/s"),
            "step_p50_us": (1e6 * best / obs, "us"),
            "step_p99_us": (1e6 * best / obs, "us"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        return Result(metrics, None, attempted, 0, checks, None, (inp, outputs, reduced))

    def check(self, inp: dict, outputs: list[str], reduced: list[str]) -> dict:
        s = self.size
        checks = {"program_output": [], "recomputation": [], "redundancy_bound": [],
                  "rounds_identical": [], "jobs_identical": []}
        if any(o != outputs[0] for o in outputs):
            checks["rounds_identical"].append("evaluate output differs between rounds")
        if reduced[0] != reduced[1]:
            checks["jobs_identical"].append(
                "reduced evaluate differs between --jobs 1 and --jobs 2")
        kl = {}
        for r in _records(outputs[0], "kl"):
            kl[(int(r["seed"]), int(r["n"]))] = float(r["kl_bits"])
        pred = {(int(r["seed"]), int(r["n"])): r for r in _records(outputs[0], "pred")}
        expected = {(sd, n) for sd in inp["seeds"] for n in s["checkpoints"]}
        if set(kl) != expected or set(pred) != expected:
            checks["program_output"].append(
                f"kl records for {sorted(kl)}, pred records for {sorted(pred)}")
            return checks
        ratio, levels, n_max = s["ratio"], s["levels"], s["checkpoints"][-1]
        log_r, log_1r = math.log(ratio), math.log1p(-ratio)
        cells = rc.CountableCells(levels)
        # `--r cell:0` is the indicator of the atom 1, whose conditional mean
        # under the i.i.d. source is its probability
        cell0 = cells.finest_indicator(0)
        truth = 1.0 - ratio
        for sd in inp["seeds"]:
            xs = [int(v) for v in np.random.default_rng(sd).geometric(1.0 - ratio, size=n_max)]
            # the source's own log density w.r.t. the reference, term by term
            true_terms = [log_1r + (x - 1) * log_r + math.log(x) + math.log(x + 1) for x in xs]
            model = rc.Recomputation(cells, self.MAX_ORDER)
            true_sum = sq = ab = 0.0
            for t, x in enumerate(xs[: s["prefix"]], 1):
                diff = truth - model.cell_forecast(cell0)
                sq += diff * diff
                ab += abs(diff)
                model.observe(x)
                true_sum += true_terms[t - 1]
                if t in s["checkpoints"]:
                    rec = pred[(sd, t)]
                    joint = model.joint_log_density()
                    pairs = {
                        "kl_bits": (kl[(sd, t)], (true_sum - joint) / (t * LN2)),
                        "sq_error": (float(rec["sq_error"]), sq / t),
                        "abs_error": (float(rec["abs_error"]), ab / t),
                    }
                    for key, (got, want) in pairs.items():
                        if not rel_close(got, want):
                            checks["recomputation"].append(
                                f"seed {sd} n={t}: {key} {got!r}, recomputed {want!r}")
            # i.i.d., so every level is an order-0 chain over its cells; inside
            # the tail cell the source and reference laws differ, which the
            # within-cell term adds
            best = {n: math.inf for n in s["checkpoints"]}
            for k in range(levels):
                tail = k + 2
                symbols = [cells.index(k, x) for x in xs]
                mlkt = rc.ml_minus_kt_bits(symbols, cells.size(k), 0, s["checkpoints"])
                within, acc = {}, 0.0
                for t, x in enumerate(xs, 1):
                    if x >= tail:
                        acc += (log_1r + (x - tail) * log_r
                                - math.log(tail) + math.log(x) + math.log(x + 1))
                    if t in mlkt:
                        within[t] = acc / LN2
                for n in s["checkpoints"]:
                    best[n] = min(best[n], rc.redundancy_bound_bits(
                        levels, self.MAX_ORDER, k, mlkt[n], within[n]))
            kl_seed = {n: kl[(sd, n)] for n in s["checkpoints"]}
            checks["redundancy_bound"] += _bound_failures(f"seed {sd}", kl_seed, best)
        return checks


WORKLOADS = {w.name: w for w in (ReplayHighres, OnlineForecast, EvaluateCountable)}
