"""Convergence and prediction measurements against synthetic ground truth.

Both trajectories make one pass per seed: a fresh estimator streams the
seed's checkpoints[-1] source samples (the config's n sizes only `synth`)
and records the realized per-symbol log ratio (1/n) log(dmu^n / dnu^n), in
bits, with the posterior level weights at each checkpoint.
kl_trajectory does only that; prediction_error_trajectory, in the same
pass, also races the estimator's one-step functional predictions against
the source's exact conditional means, Cesaro-averaged, so its KL records
equal kl_trajectory's. pinsker_check verifies the total-variation / KL
inequality used to carry density convergence over to set-wise convergence.

Seeds are embarrassingly parallel; jobs > 1 fans them out to a process pool
with an order-preserving map, so output order never depends on scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .ingest import RunConfig, build_estimator, build_reference

__all__ = [
    "CheckpointRecord",
    "RunMetrics",
    "PinskerResult",
    "kl_trajectory",
    "prediction_error_trajectory",
    "pinsker_check",
    "median_at",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class CheckpointRecord:
    """Snapshot of running metrics after n observations."""

    n: int
    kl_bits: float
    posterior_weights: tuple
    cum_pred_sq_error: Optional[float] = None
    cum_pred_abs_error: Optional[float] = None


@dataclass(frozen=True)
class RunMetrics:
    """One seed's checkpoint trail plus the config digest that produced it."""

    seed: int
    digest: str
    checkpoints: tuple


class PinskerResult(NamedTuple):
    tv: float
    kl_bits: float
    bound: float
    holds: bool


def _check_match(source, config: RunConfig):
    if build_reference(config) != source.reference():
        raise ConfigError("estimator reference measure does not match the source's")


def _run_seed(source, config, seed, checkpoints, r=None, bound=None):
    """Stream one seed's sample through a fresh estimator; forecasts r before
    each observation only when r is given."""
    est = build_estimator(config)
    xs = source.sample(checkpoints[-1], seed)
    true_sum = 0.0
    sq = 0.0
    ab = 0.0
    last = None
    records = []
    targets = iter(checkpoints)
    target = next(targets)
    for j, x in enumerate(xs, 1):
        if r is not None:
            # forecast strictly before consuming: one-step-ahead semantics
            pred = est.predict_functional(r, bound)
            diff = source.conditional_mean(r, last, bound) - pred
            sq += diff * diff
            ab += abs(diff)
        true_sum += source.true_log_density(x, last)
        est.observe(x)
        last = x
        if j == target:
            kl = (true_sum - est.joint_log_density) / (j * _LN2)
            errors = () if r is None else (sq / j, ab / j)
            records.append(CheckpointRecord(j, kl, tuple(est.posterior_weights), *errors))
            target = next(targets, None)
    return RunMetrics(seed, config.digest, tuple(records))


def _kl_one_seed(args) -> RunMetrics:
    source, config, seed, checkpoints = args
    return _run_seed(source, config, seed, checkpoints)


def _pred_one_seed(args) -> RunMetrics:
    source, config, r, bound, seed, checkpoints = args
    return _run_seed(source, config, seed, checkpoints, r, bound)


def _fan_out(worker, arglists, jobs: int):
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, arglists))
    return [worker(a) for a in arglists]


def kl_trajectory(
    source,
    config: RunConfig,
    seeds: Optional[Sequence[int]] = None,
    checkpoints: Optional[Sequence[int]] = None,
    jobs: int = 1,
) -> list[RunMetrics]:
    """Realized per-symbol KL against the source oracle, per seed and checkpoint."""
    _check_match(source, config)
    seeds = tuple(seeds if seeds is not None else config.seeds)
    checkpoints = tuple(checkpoints if checkpoints is not None else config.checkpoints)
    args = [(source, config, s, checkpoints) for s in seeds]
    return _fan_out(_kl_one_seed, args, jobs)


def prediction_error_trajectory(
    source,
    config: RunConfig,
    r,
    bound: Optional[float] = None,
    seeds: Optional[Sequence[int]] = None,
    checkpoints: Optional[Sequence[int]] = None,
    jobs: int = 1,
) -> list[RunMetrics]:
    """Cesaro-averaged squared and absolute one-step prediction errors, in
    records that also carry the KL and posterior that kl_trajectory reports."""
    _check_match(source, config)
    seeds = tuple(seeds if seeds is not None else config.seeds)
    checkpoints = tuple(checkpoints if checkpoints is not None else config.checkpoints)
    args = [(source, config, r, bound, s, checkpoints) for s in seeds]
    return _fan_out(_pred_one_seed, args, jobs)


def pinsker_check(p, q) -> PinskerResult:
    """Total variation vs sqrt(2 ln2 KL_bits) for finite (sub-)distributions.

    tv is the exact maximum over subsets of |p(A) - q(A)|; for proper
    distributions this equals half the L1 distance. A support violation
    (p puts mass where q has none) reports infinite KL and holds vacuously.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("need two equal-length probability vectors")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("probabilities must be nonnegative")
    d = p - q
    tv = max(float(d[d > 0].sum()) if np.any(d > 0) else 0.0,
             float(-d[d < 0].sum()) if np.any(d < 0) else 0.0)
    mask = p > 0
    if np.any(q[mask] == 0):
        kl = math.inf
    else:
        kl = float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))
    bound = math.sqrt(2.0 * _LN2 * kl) if math.isfinite(kl) else math.inf
    return PinskerResult(tv, kl, bound, tv <= bound + 1e-12)


def median_at(metrics: Sequence[RunMetrics], n: int, attr: str = "kl_bits") -> float:
    """Median across seeds of one checkpoint metric."""
    vals = []
    for m in metrics:
        for rec in m.checkpoints:
            if rec.n == n:
                vals.append(getattr(rec, attr))
    if not vals:
        raise ValueError(f"no checkpoint at n={n}")
    return float(np.median(vals))
