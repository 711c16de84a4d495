"""Process handling, statistics and per-layer aggregation shared by the workloads."""

from __future__ import annotations

import errno
import os
import resource
import select
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The program failed to run; no result can be reported."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def histmix_cmd(*args) -> list:
    return [sys.executable, "-m", "histmix.cli", *map(str, args)]


def child_cli_cmd(out: Path, trace_dir: Path | None, *args) -> list:
    """The CLI run inside child.py: traced into trace_dir, or only its pool maps timed."""
    trace = ["--trace-dir", str(trace_dir)] if trace_dir is not None else []
    return [sys.executable, str(CHILD), "cli", "--out", str(out), *trace, "--", *map(str, args)]


def start(cmd, stdout=subprocess.DEVNULL) -> subprocess.Popen:
    return subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=stdout,
                            stderr=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen, what: str) -> None:
    """Wait for a child; raise with its stderr if it failed or hung."""
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what}: no exit after {CHILD_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{what}: exit code {proc.returncode}\n{err[-2000:]}")


def wait_readable(stream) -> bool:
    ready, _, _ = select.select([stream], [], [], CHILD_TIMEOUT_S)
    return bool(ready)


def run_timed(cmd, what: str) -> float:
    """Wall time of one child process, from its start to its exit."""
    t0 = perf_counter()
    finish(start(cmd), what)
    return perf_counter() - t0


def feed_fifo(fifo: Path, data: bytes, cmd, what: str) -> tuple[float, float]:
    """Start cmd, which reads its observations from fifo; return (set-up, consumption).

    Set-up ends when the program opens the fifo, which the CLI does once
    config validation and estimator construction are done. Consumption runs
    from then to the program's exit.
    """
    t0 = perf_counter()
    proc = start(cmd)
    try:
        while True:
            try:
                fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                break
            except OSError as exc:
                if exc.errno != errno.ENXIO:
                    raise
            if proc.poll() is not None:
                finish(proc, what)
                raise BenchError(f"{what}: exited without opening its input")
            if perf_counter() - t0 > CHILD_TIMEOUT_S:
                raise BenchError(f"{what}: input not opened after {CHILD_TIMEOUT_S:.0f} s")
            time.sleep(0.0005)
        t_ready = perf_counter()
        os.set_blocking(fd, True)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        except BrokenPipeError:
            pass  # the program stopped reading; finish() reports why
        finally:
            os.close(fd)
        finish(proc, what)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return t_ready - t0, perf_counter() - t_ready


def peak_rss_mb() -> float:
    """Largest resident set of any program process this one has waited for.

    Pool workers count too: a process's figure covers its own waited children.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def median(values) -> float:
    return float(np.median(values))


def p99(values) -> float:
    return float(np.percentile(values, 99))


def rel_close(a: float, b: float, rtol: float = 1e-9, floor: float = 1e-6) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), floor)


def layer_metrics(raw: dict, rounds: int, overhead_pct: float) -> dict:
    """Per-layer figures from merged tracer counters.

    `_us` figures are per observation consumed (per forecast for the
    forecasting layers); `_s` figures and counts are per round.
    """
    calls, total, self_t = raw["calls"], raw["total"], raw["self"]
    obs = calls.get("estimator.observe", 0)
    preds = calls.get("estimator.predict", 0)

    def per(table, name, count):
        return 1e6 * table.get(name, 0.0) / count if count else 0.0

    def per_round(table, name):
        return table.get(name, 0) / rounds

    durations = sorted(end - start for start, end in raw["tasks"])
    pool_start = idle = 0.0
    for jobs, p_start, p_end in raw["pools"]:
        mine = [(s, e) for s, e in raw["tasks"] if p_start <= s <= p_end]
        if mine:
            pool_start += min(s for s, _ in mine) - p_start
            idle += jobs * (p_end - p_start) - sum(e - s for s, e in mine)
    return {
        "partition.build_s": (per_round(total, "partition.build"), "s"),
        "partition.builds": (per_round(calls, "partition.build"), "count"),
        "partition.project_us": (per(total, "partition.project", obs), "us"),
        "coder.conditional_us": (per(total, "coder.conditional", obs), "us"),
        "coder.update_us": (per(total, "coder.update", obs), "us"),
        "coder.predictive_us": (per(total, "coder.predictive", preds), "us"),
        "coder.contexts": (raw["contexts"] / rounds, "count"),
        "estimator.construct_s": (per_round(total, "estimator.construct"), "s"),
        "estimator.observe_self_us": (per(self_t, "estimator.observe", obs), "us"),
        "estimator.predict_self_us": (per(self_t, "estimator.predict", preds), "us"),
        "reference.cell_average_s": (per_round(total, "reference.cell_average"), "s"),
        "reference.cell_averages": (per_round(calls, "reference.cell_average"), "count"),
        "reference.validate_s": (per_round(total, "reference.validate"), "s"),
        "ingest.validate_s": (per_round(total, "ingest.validate"), "s"),
        "ingest.parse_us": (per(total, "ingest.parse", obs), "us"),
        "sources.sample_s": (per_round(total, "sources.sample"), "s"),
        "sources.oracle_us": (per(total, "sources.oracle", obs), "us"),
        "evaluation.seed_run_p50_s": (median(durations) if durations else 0.0, "s"),
        "evaluation.seed_run_max_s": (durations[-1] if durations else 0.0, "s"),
        "evaluation.pool_start_s": (pool_start / rounds, "s"),
        "evaluation.worker_idle_s": (idle / rounds, "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def merge_raw(parts: list) -> dict:
    """Sum tracer snapshots; span parents index into their own snapshot's list."""
    out = {"calls": {}, "total": {}, "self": {}, "contexts": 0, "tasks": [], "pools": [],
           "spans": []}
    for part in parts:
        for key in ("calls", "total", "self"):
            for name, v in part[key].items():
                out[key][name] = out[key].get(name, 0) + v
        out["contexts"] += part["contexts"]
        out["tasks"] += part["tasks"]
        out["pools"] += part["pools"]
        base = len(out["spans"])
        for name, t0, t1, parent, pid in part["spans"]:
            out["spans"].append([name, t0, t1, None if parent is None else parent + base, pid])
    return out
