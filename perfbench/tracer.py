"""Per-layer tracing of histmix from the benchmark's side.

install() wraps the public callables of each histmix module in the current
process. Every call adds to a per-name call count, total time and self time
(total minus the time of traced calls made inside it); one step in
SAMPLE_EVERY (a top-level observe or forecast) also records full spans:
name, start, end, parent span. The program itself is not modified, and
nothing is traced unless install() is called.

Pool workers forked by `histmix evaluate` inherit the wrappers. Each seed
task run in a worker writes its own counters to a file in `task_dir`, and
merge() folds those files into the parent's numbers.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

from common import merge_raw

# odd, so that loops alternating forecast and observe get spans of both
SAMPLE_EVERY = 511
MAX_SAMPLED_STEPS = 64


class Tracer:
    def __init__(self, task_dir: Path):
        self.owner = os.getpid()
        self.task_dir = Path(task_dir)
        self.reset()

    def reset(self) -> None:
        self.calls: dict = defaultdict(int)
        self.total: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.spans: list = []
        self.tasks: list = []
        self.pools: list = []
        self.coders: list = []
        self._stack: list = []
        self._span_ids: list = []
        self._steps = 0
        self._sampled_steps = 0
        self._sampling = False

    def _enter(self, name: str, step: bool):
        top = not self._stack
        if step and top:
            self._steps += 1
            self._sampling = (
                self._steps % SAMPLE_EVERY == 0 and self._sampled_steps < MAX_SAMPLED_STEPS
            )
            self._sampled_steps += self._sampling
        span_id = None
        if self._sampling:
            span_id = len(self.spans)
            parent = self._span_ids[-1] if self._span_ids else None
            self.spans.append([name, 0.0, 0.0, parent, os.getpid()])
            self._span_ids.append(span_id)
        self._stack.append(0.0)
        return top, span_id

    def _exit(self, name: str, t0: float, top: bool, span_id) -> None:
        dt = perf_counter() - t0
        child = self._stack.pop()
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += dt - child
        if self._stack:
            self._stack[-1] += dt
        if span_id is not None:
            rec = self.spans[span_id]
            rec[1], rec[2] = t0, t0 + dt
            self._span_ids.pop()
            if top:
                self._sampling = False

    def timed(self, name: str, fn, step: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top, span_id = self._enter(name, step)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, t0, top, span_id)

        return wrapper

    def timed_generator(self, name: str, fn):
        """Times each item a generator function yields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                top, span_id = self._enter(name, False)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(name, t0, top, span_id)
                yield item

        return wrapper

    def seed_task(self, fn):
        """Wraps one per-seed evaluation task; in a worker, writes its counters out."""

        @functools.wraps(fn)
        def wrapper(args):
            in_worker = os.getpid() != self.owner
            if in_worker:
                self.reset()
            start = perf_counter()
            result = fn(args)
            end = perf_counter()
            self.tasks.append((start, end))
            if in_worker:
                path = self.task_dir / f"task-{os.getpid()}-{start:.9f}.json"
                path.write_text(json.dumps(self.snapshot()))
                self.coders.clear()
            return result

        return wrapper

    def contexts(self) -> int:
        # context entries held by every coder created so far
        return sum(len(t) for c in self.coders for t in getattr(c, "_tables", ()))

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "contexts": self.contexts(),
            "tasks": list(self.tasks),
            "pools": list(self.pools),
            "spans": list(self.spans),
        }

    def merge(self) -> dict:
        """This process's counters plus those written by worker tasks."""
        parts = [json.loads(p.read_text()) for p in sorted(self.task_dir.glob("task-*.json"))]
        return merge_raw([self.snapshot()] + parts)


def _replace_everywhere(orig, new) -> None:
    """Rebind every histmix module global that refers to orig."""
    for modname, mod in list(sys.modules.items()):
        if modname == "histmix" or modname.startswith("histmix."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


def install(task_dir: Path) -> Tracer:
    """Wrap histmix's public callables in this process and return the tracer."""
    import histmix.evaluation as evaluation
    from histmix import ingest
    from histmix.coder import LevelCoder
    from histmix.estimator import MixtureEstimator
    from histmix.partition import PartitionFamily
    from histmix.reference import ReferenceMeasure
    from histmix.sources import SOURCE_KINDS

    tr = Tracer(task_dir)

    def method(cls, attr, name, step=False):
        setattr(cls, attr, tr.timed(name, getattr(cls, attr), step))

    method(PartitionFamily, "__init__", "partition.build")
    method(PartitionFamily, "project_all", "partition.project")
    method(LevelCoder, "conditional", "coder.conditional")
    method(LevelCoder, "update", "coder.update")
    method(LevelCoder, "predictive", "coder.predictive")
    method(MixtureEstimator, "__init__", "estimator.construct")
    method(MixtureEstimator, "observe", "estimator.observe", step=True)
    method(MixtureEstimator, "predict_functional", "estimator.predict", step=True)
    method(ReferenceMeasure, "average_over_cell", "reference.cell_average")
    method(ReferenceMeasure, "validate_family", "reference.validate")
    for cls in SOURCE_KINDS.values():
        method(cls, "sample", "sources.sample")
        method(cls, "true_log_density", "sources.oracle")
        method(cls, "conditional_mean", "sources.oracle")

    coder_init = LevelCoder.__init__

    def recording_init(self, *args, **kwargs):
        coder_init(self, *args, **kwargs)
        tr.coders.append(self)

    LevelCoder.__init__ = recording_init

    _replace_everywhere(ingest.validate_config, tr.timed("ingest.validate", ingest.validate_config))
    _replace_everywhere(
        ingest.parse_observations, tr.timed_generator("ingest.parse", ingest.parse_observations)
    )
    for task in ("_kl_one_seed", "_pred_one_seed"):
        setattr(evaluation, task, tr.seed_task(getattr(evaluation, task)))

    class TimedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            self._bench_start = perf_counter()
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            tr.pools.append((self._max_workers, self._bench_start, perf_counter()))

    evaluation.ProcessPoolExecutor = TimedPool
    return tr
