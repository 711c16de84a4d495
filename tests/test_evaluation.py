"""Trajectory evaluation, Pinsker audit, aggregation helpers."""

import math

import numpy as np
import pytest

from histmix import (
    BinaryMarkovEmbedded,
    PiecewiseDensityIID,
    RunConfig,
    UniformIID,
    build_estimator,
    constant,
    identity,
    kl_trajectory,
    median_at,
    pinsker_check,
    prediction_error_trajectory,
    validate_config,
)


def small_config(**kw):
    base = dict(
        source="uniform-iid",
        levels=3,
        seeds=(0, 1, 2),
        checkpoints=(64, 128, 256),
        n=256,
    )
    base.update(kw)
    return validate_config(RunConfig(**base))


def test_kl_trajectory_shape():
    cfg = small_config()
    metrics = kl_trajectory(UniformIID(), cfg)
    assert len(metrics) == 3
    for m, seed in zip(metrics, (0, 1, 2)):
        assert m.seed == seed
        assert m.digest == cfg.digest
        ns = [c.n for c in m.checkpoints]
        assert ns == [64, 128, 256]
        for c in m.checkpoints:
            assert math.isfinite(c.kl_bits)
            assert c.kl_bits >= 0.0 or c.kl_bits > -1e-9
            assert abs(sum(c.posterior_weights) - 1.0) < 1e-10


def test_kl_two_pass_recomputation():
    # recompute one checkpoint from scratch: same sample, fresh estimator
    cfg = small_config(checkpoints=(1024,), n=1024)
    src = UniformIID()
    (m,) = kl_trajectory(src, cfg, seeds=(5,))
    got = m.checkpoints[0].kl_bits
    xs = src.sample(1024, seed=5)
    est = build_estimator(cfg)
    est.observe_all(xs)
    true_total = 0.0
    last = None
    for x in xs:
        true_total += src.true_log_density(x, last)
        last = x
    want = (true_total - est.joint_log_density) / (1024 * math.log(2))
    assert abs(got - want) < 1e-9


def test_kl_parallel_matches_serial():
    cfg = small_config()
    src = PiecewiseDensityIID()
    serial = kl_trajectory(src, cfg, jobs=1)
    parallel = kl_trajectory(src, cfg, jobs=3)
    for a, b in zip(serial, parallel):
        assert a.seed == b.seed
        for ca, cb in zip(a.checkpoints, b.checkpoints):
            assert ca.kl_bits == cb.kl_bits
            assert ca.posterior_weights == cb.posterior_weights


def test_prediction_trajectory_fields():
    cfg = small_config(source="binary-markov-embedded")
    metrics = prediction_error_trajectory(
        BinaryMarkovEmbedded(), cfg, identity(bound=1.0), bound=1.0
    )
    for m in metrics:
        for c in m.checkpoints:
            # time-averaged errors, bounded by (2b)^2 and 2b for |r| <= b
            assert 0.0 <= c.cum_pred_sq_error <= 4.0
            assert 0.0 <= c.cum_pred_abs_error <= 2.0


def test_prediction_average_decreases_iid():
    # i.i.d. stream, constant true conditional mean: the averaged squared
    # gap shrinks as the estimate settles
    cfg = small_config(seeds=(0, 1, 2, 3, 4))
    metrics = prediction_error_trajectory(UniformIID(), cfg, identity(bound=1.0), bound=1.0)
    first = median_at(metrics, 64, attr="cum_pred_sq_error")
    last = median_at(metrics, 256, attr="cum_pred_sq_error")
    assert last < first


def test_constant_functional_zero_error():
    src = UniformIID()
    cfg = small_config(seeds=(0, 1))
    metrics = prediction_error_trajectory(src, cfg, constant(3.25), bound=4.0)
    for m in metrics:
        for c in m.checkpoints:
            assert c.cum_pred_sq_error == 0.0


def test_pinsker_worked_pair():
    res = pinsker_check((1.0, 0.0), (0.5, 0.5))
    assert res.tv == 0.5
    assert math.isclose(res.kl_bits, 1.0, rel_tol=1e-12)
    assert math.isclose(res.bound, math.sqrt(2.0 * math.log(2.0)), rel_tol=1e-12)  # ~1.177
    assert res.holds


def test_pinsker_second_pair():
    res = pinsker_check((0.5, 0.5), (0.125, 0.875))
    assert math.isclose(res.tv, 0.375, rel_tol=1e-12)
    assert math.isclose(
        res.kl_bits, 0.5 * math.log2(0.5 / 0.125) + 0.5 * math.log2(0.5 / 0.875), rel_tol=1e-12
    )
    assert res.holds


def test_pinsker_equal_distributions():
    res = pinsker_check((0.25, 0.25, 0.5), (0.25, 0.25, 0.5))
    assert res.tv == 0.0
    assert res.kl_bits == 0.0
    assert res.bound == 0.0
    assert res.holds


def test_pinsker_randomized():
    rng = np.random.default_rng(83)
    for _ in range(500):
        k = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        res = pinsker_check(p, q)
        assert res.holds
        assert res.tv <= 1.0
        assert math.isclose(res.tv, 0.5 * np.abs(p - q).sum(), rel_tol=1e-9)
        assert math.isclose(res.bound, math.sqrt(2.0 * math.log(2.0) * res.kl_bits), rel_tol=1e-12)


def test_pinsker_infinite_kl_is_vacuous():
    res = pinsker_check((0.5, 0.5), (1.0, 0.0))
    assert res.kl_bits == math.inf
    assert res.holds


def test_median_at():
    cfg = small_config(seeds=(0, 1, 2, 3, 4))
    metrics = kl_trajectory(UniformIID(), cfg)
    med = median_at(metrics, 128)
    vals = sorted(
        c.kl_bits for m in metrics for c in m.checkpoints if c.n == 128
    )
    assert med == vals[2]
    with pytest.raises(Exception):
        median_at(metrics, 999)


def test_config_defaults_drive_evaluation():
    cfg = validate_config(RunConfig(source="uniform-iid", n=512, checkpoints=(256, 512), seeds=(0,)))
    (m,) = kl_trajectory(UniformIID(), cfg)
    assert [c.n for c in m.checkpoints] == [256, 512]
