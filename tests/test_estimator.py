"""Mixture over refinement levels: weights, exact chain rule, dominance, prediction."""

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from histmix import (
    ConfigError,
    MixtureEstimator,
    ReferenceMeasure,
    cell_indicator,
    constant,
    countable_tail_family,
    default_weights,
    dyadic_family,
    example3_rule,
    identity,
)


def uniform_ref(lower=0.0, upper=1.0):
    return ReferenceMeasure(pieces=((lower, upper, 1.0),))


def make(levels=3, lower=0.0, upper=1.0, weights=None, max_order=2):
    fam = dyadic_family(lower, upper, levels)
    ref = uniform_ref(lower, upper)
    return MixtureEstimator(fam, ref, weights=weights, max_order=max_order)


def test_default_weights_small():
    w = default_weights(3)
    exact = [Fraction(4, 7), Fraction(2, 7), Fraction(1, 7)]
    for got, want in zip(w, exact):
        assert got == float(want)
    assert default_weights(1) == (1.0,)


def test_default_weights_generic():
    for L in range(1, 12):
        w = np.asarray(default_weights(L))
        assert w.shape == (L,)
        assert (w > 0).all()
        assert abs(w.sum() - 1.0) < 1e-12
        # halving profile before normalization
        for i in range(L - 1):
            assert math.isclose(w[i] / w[i + 1], 2.0, rel_tol=1e-12)


def test_weight_validation():
    with pytest.raises(ConfigError):
        make(weights=[0.5, 0.5])  # wrong length for 3 levels
    with pytest.raises(ConfigError):
        make(weights=[0.5, 0.5, 0.0])
    with pytest.raises(ConfigError):
        make(weights=[0.6, 0.3, 0.2])  # sums to 1.1


def test_posterior_at_start_is_prior():
    w = (0.2, 0.3, 0.5)
    est = make(weights=w)
    assert tuple(est.posterior_weights) == w
    assert est.n == 0


def test_first_observation_uniform_reference():
    # matched uniform reference: every level sees density one on its first symbol
    est = make()
    assert est.observe(0.3) == 0.0
    assert est.joint_log_density == 0.0


def test_log_density_at_is_pure_and_matches_observe():
    rng = np.random.default_rng(31)
    est = make(levels=4)
    for x in rng.random(300):
        peek = est.log_density_at(x)
        again = est.log_density_at(x)
        assert peek == again
        assert est.observe(x) == peek  # bit-identical commit


def test_chain_rule_fsum():
    rng = np.random.default_rng(37)
    est = make(levels=5)
    increments = [est.observe(x) for x in rng.random(2000)]
    assert abs(math.fsum(increments) - est.joint_log_density) < 1e-10


def test_dominance_over_every_level():
    rng = np.random.default_rng(41)
    est = make(levels=4)
    for x in rng.beta(2.0, 5.0, size=500):
        est.observe(x)
        joint = est.joint_log_density
        for term in est.weighted_level_log_densities:
            assert joint >= term - 1e-12


def test_posterior_sums_to_one():
    rng = np.random.default_rng(43)
    est = make(levels=5)
    for x in rng.random(400):
        est.observe(x)
        post = est.posterior_weights
        assert abs(post.sum() - 1.0) < 1e-10
        assert (post >= 0).all()


def test_level_log_density_identity():
    # level term = coder's cumulative log prob minus log reference mass of visited cells
    fam = dyadic_family(0.0, 1.0, 3)
    ref = uniform_ref()
    est = MixtureEstimator(fam, ref, max_order=2)
    rng = np.random.default_rng(47)
    xs = rng.random(200)
    expected = [0.0] * fam.num_levels
    for x in xs:
        est.observe(x)
    for i in range(fam.num_levels):
        acc = 0.0
        for x in xs:
            j = fam.project(i, x)
            acc += math.log(ref.cell_mass(fam.levels[i][j]))
        want = est._coders[i].cum_log_prob - acc
        assert abs(est.level_log_densities[i] - want) < 1e-10


def test_single_level_reduces_to_coder():
    rng = np.random.default_rng(53)
    est = make(levels=1)
    fam = dyadic_family(0.0, 1.0, 1)
    from histmix import LevelCoder

    coder = LevelCoder(fam.alphabet_size(0), 2)
    logmass = math.log(0.5)
    for x in rng.random(300):
        got = est.observe(x)
        sym = fam.project(0, x)
        want = math.log(coder.update(sym)) - logmass
        assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12)
    assert est.posterior_weights[0] == 1.0


def test_predict_constant_functional():
    est = make(levels=3)
    assert est.predict_functional(constant(1.0)) == 1.0
    rng = np.random.default_rng(59)
    for x in rng.random(50):
        est.observe(x)
    assert est.predict_functional(constant(2.5)) == 2.5


def test_predict_identity_before_data():
    # single level, no data: predictive is uniform on [0,1], mean 1/2
    est = make(levels=1)
    got = est.predict_functional(identity(bound=1.0))
    assert math.isclose(got, 0.5, rel_tol=1e-9)


def test_finest_cell_indicator_forecasts_are_exact():
    # the forecast of a family cell's indicator is that cell's predictive
    # probability, however narrow the cell (midpoint quadrature over a coarse
    # cell misses every finest cell j = 0 mod 4 at this depth)
    est = make(levels=8)
    rng = np.random.default_rng(83)
    for n_new in (0, 300):
        est.observe_all(rng.beta(2.0, 5.0, size=n_new))
        for j, cell in enumerate(est.family.levels[-1]):
            got = est.predict_functional(cell_indicator(est.family, j), 1.0)
            mid = cell.lower + (cell.upper - cell.lower) / 2
            want = math.exp(est.log_density_at(mid)) * est.reference.cell_mass(cell)
            assert abs(got - want) < 1e-12, (est.n, j, got, want)


def test_fresh_copies_are_independent():
    proto = make(levels=4)
    a, b = proto.fresh(), proto.fresh()
    xs = np.random.default_rng(8).beta(2.0, 5.0, size=400)
    steps = [a.observe(x) for x in xs]
    assert b.n == 0 and proto.n == 0
    assert b.joint_log_density == 0.0
    assert np.array_equal(b.posterior_weights, proto.weights)
    # bit-identical to a newly constructed estimator on the same data
    new = make(levels=4)
    assert steps == [new.observe(x) for x in xs]
    assert [b.observe(x) for x in xs] == steps
    assert a.joint_log_density == new.joint_log_density
    assert np.array_equal(a.posterior_weights, new.posterior_weights)
    assert a.family is proto.family
    assert a.fresh().n == 0


def test_cell_indicator_compares_by_value():
    fam = dyadic_family(0.0, 1.0, 3)
    r = cell_indicator(fam, 2)
    assert r == cell_indicator(fam, 2)
    assert pickle.loads(pickle.dumps(r)) == r
    assert r != cell_indicator(fam, 3)


def test_predict_tracks_skewed_data():
    rng = np.random.default_rng(61)
    est = make(levels=4)
    xs = rng.beta(8.0, 2.0, size=4096)
    est.observe_all(xs)
    got = est.predict_functional(identity(bound=1.0))
    assert abs(got - 0.8) < 0.02


def test_posterior_concentration_uniform():
    rng = np.random.default_rng(67)
    est = make(levels=4)
    est.observe_all(rng.random(4096))
    assert est.posterior_weights.max() > 0.1


def test_observe_all_matches_loop():
    rng = np.random.default_rng(71)
    xs = rng.random(100)
    a = make(levels=3)
    b = make(levels=3)
    increments = a.observe_all(xs)
    singles = [b.observe(x) for x in xs]
    assert a.joint_log_density == b.joint_log_density
    assert list(increments) == singles


def test_joint_mass_normalizes_tiny_case():
    # L=1 over a 2-cell split: total mass over quantized outcomes must be 1.
    # Integrating the mixture density over each cell equals cell mass times
    # the coder probability, so summing products over symbol strings suffices.
    import itertools

    fam = dyadic_family(0.0, 1.0, 1)
    ref = uniform_ref()
    reps = [0.25, 0.75]
    total = 0.0
    for seq in itertools.product(range(2), repeat=6):
        est = MixtureEstimator(fam, ref, max_order=2)
        for sym in seq:
            est.observe(reps[sym])
        total += math.exp(est.joint_log_density) * 0.5 ** len(seq)
    assert abs(total - 1.0) < 1e-9


def test_countable_family_runs():
    fam = countable_tail_family(4)
    est = MixtureEstimator(fam, ReferenceMeasure(countable=example3_rule()))
    rng = np.random.default_rng(73)
    for k in rng.geometric(0.5, size=500):
        est.observe(float(k))
    assert math.isfinite(est.joint_log_density)
    assert abs(est.posterior_weights.sum() - 1.0) < 1e-10


@pytest.mark.slow
def test_stability_long_run_many_levels():
    # a million observations at twelve levels stays finite and well-scaled
    fam = countable_tail_family(12)
    est = MixtureEstimator(fam, ReferenceMeasure(countable=example3_rule()))
    rng = np.random.default_rng(79)
    data = rng.geometric(0.5, size=10**6).astype(float)
    checkpoints = {10**4, 10**5, 5 * 10**5, 10**6}
    for j, x in enumerate(data, 1):
        est.observe(x)
        if j in checkpoints:
            assert math.isfinite(est.joint_log_density)
            assert abs(est.posterior_weights.sum() - 1.0) < 1e-10
    assert est.n == 10**6
