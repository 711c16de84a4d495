"""Synthetic stream generators and their closed-form oracles."""

import math

import numpy as np
import pytest
from scipy import stats

from histmix import (
    BinaryMarkovEmbedded,
    CountableGeometric,
    MixedAtomIID,
    PiecewiseDensityIID,
    SOURCE_KINDS,
    UniformIID,
    UnsupportedSourceError,
    constant,
    example3_rule,
    identity,
)


def test_kind_registry():
    for kind, cls in SOURCE_KINDS.items():
        src = cls()
        assert src.kind == kind


def test_sampling_is_reproducible():
    for cls in SOURCE_KINDS.values():
        src = cls()
        a = src.sample(200, seed=4)
        b = src.sample(200, seed=4)
        c = src.sample(200, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_uniform_log_density_is_zero():
    src = UniformIID()
    xs = src.sample(500, seed=0)
    assert all(src.true_log_density(x) == 0.0 for x in xs)


def test_uniform_entropy_rate():
    src = UniformIID()
    for level in range(5):
        assert src.quantized_entropy_rate(level) == level + 1


def test_uniform_empirical_spread():
    xs = UniformIID().sample(100_000, seed=1)
    assert (xs >= 0.0).all() and (xs < 1.0).all()
    counts, _ = np.histogram(xs, bins=8, range=(0.0, 1.0))
    p = stats.chisquare(counts).pvalue
    assert p > 0.001


def test_piecewise_validation():
    with pytest.raises(Exception):
        PiecewiseDensityIID(breaks=(0.0, 0.5), densities=(1.0, 1.0))
    with pytest.raises(Exception):
        PiecewiseDensityIID(breaks=(0.0, 0.5, 1.0), densities=(1.0, 0.5))  # mass 0.75
    with pytest.raises(Exception):
        PiecewiseDensityIID(breaks=(0.0, 0.5, 1.0), densities=(-1.0, 3.0))


def test_piecewise_log_density_values():
    src = PiecewiseDensityIID()
    assert math.isclose(src.true_log_density(0.1), math.log(0.5), rel_tol=1e-12)
    assert math.isclose(src.true_log_density(0.3), math.log(1.5), rel_tol=1e-12)
    assert math.isclose(src.true_log_density(0.6), math.log(1.25), rel_tol=1e-12)
    assert math.isclose(src.true_log_density(0.9), math.log(0.75), rel_tol=1e-12)


def test_piecewise_cell_probabilities_sum():
    src = PiecewiseDensityIID()
    for level in range(4):
        p = src.cell_probabilities(level)
        assert abs(p.sum() - 1.0) < 1e-12


def test_piecewise_empirical_matches_oracle():
    src = PiecewiseDensityIID()
    xs = src.sample(100_000, seed=2)
    expect = src.cell_probabilities(1)  # 4 cells aligned with the density breaks
    counts, _ = np.histogram(xs, bins=4, range=(0.0, 1.0))
    p = stats.chisquare(counts, f_exp=expect * len(xs)).pvalue
    assert p > 0.001


def test_piecewise_entropy_rate_level1():
    src = PiecewiseDensityIID()
    p = src.cell_probabilities(1)
    want = -(p * np.log2(p)).sum()
    assert math.isclose(src.quantized_entropy_rate(1), want, rel_tol=1e-12)


def test_mixed_atom_fraction():
    src = MixedAtomIID()
    xs = src.sample(100_000, seed=3)
    frac = (xs == -1.0).mean()
    sigma = math.sqrt(0.25 / len(xs))
    assert abs(frac - 0.5) < 3 * sigma
    cont = xs[xs != -1.0]
    assert (cont >= 0.0).all() and (cont < 1.0).all()


def test_mixed_atom_log_density():
    # density w.r.t. a reference that puts the same mass on the atom: ratio one
    src = MixedAtomIID()
    assert src.true_log_density(-1.0) == 0.0
    assert src.true_log_density(0.4) == 0.0
    skew = MixedAtomIID(atom_mass=0.8, eta_atom_mass=0.5)
    assert math.isclose(skew.true_log_density(-1.0), math.log(0.8 / 0.5), rel_tol=1e-12)
    assert math.isclose(skew.true_log_density(0.4), math.log(0.2 / 0.5), rel_tol=1e-12)


def test_mixed_atom_entropy_rate():
    src = MixedAtomIID()
    # level 0: atom plus two half-interval cells with mass 1/2, 1/4, 1/4
    assert math.isclose(src.quantized_entropy_rate(0), 1.5, rel_tol=1e-12)
    assert math.isclose(src.quantized_entropy_rate(2), 1.0 + 0.5 * 3, rel_tol=1e-12)


def test_mixed_atom_exponential_variant():
    src = MixedAtomIID(continuous="exponential")
    xs = src.sample(50_000, seed=6)
    cont = xs[xs != -1.0]
    assert (cont >= 0.0).all() and (cont < 1.0).all()
    # y/(1+y) of Exp(1) leans low: mean = 1 - e*E1(1), about 0.4037
    assert abs(cont.mean() - 0.4037) < 0.01
    # quantile check against the closed-form CDF x -> 1 - e^{-x/(1-x)}
    med = np.median(cont)
    want = math.log(2.0) / (1.0 + math.log(2.0))
    assert abs(med - want) < 0.01


def test_mixed_atom_exponential_log_density():
    src = MixedAtomIID(continuous="exponential")
    # integrate exp(log density of the continuous part) back to one
    from histmix import adaptive_midpoint

    base = math.log((1.0 - src.atom_mass) / (1.0 - src.eta_atom_mass))
    mass = adaptive_midpoint(
        lambda x: math.exp(src.true_log_density(x) - base), 0.0, 1.0
    )
    assert abs(mass - 1.0) < 1e-7
    assert src.true_log_density(0.0) == base  # density 1 at the origin


def test_mixed_atom_exponential_entropy_and_mean():
    src = MixedAtomIID(continuous="exponential")
    # entropy strictly below the uniform variant at the same level
    uni = MixedAtomIID()
    for level in range(3):
        assert src.quantized_entropy_rate(level) < uni.quantized_entropy_rate(level)
    got = src.conditional_mean(identity())
    want = 0.5 * (-1.0) + 0.5 * (1.0 - math.e * 0.21938393439552027)
    assert abs(got - want) < 1e-6


def test_countable_geometric_masses():
    src = CountableGeometric()
    xs = src.sample(100_000, seed=7)
    assert np.array_equal(xs, np.floor(xs))
    assert xs.min() >= 1
    counts = np.bincount(xs.astype(int), minlength=7)[1:7]
    expect = np.array([0.5**k for k in range(1, 7)]) * len(xs)
    tail = len(xs) - counts.sum()
    p = stats.chisquare(
        np.append(counts, tail), f_exp=np.append(expect, len(xs) - expect.sum())
    ).pvalue
    assert p > 0.001


def test_countable_geometric_log_density():
    src = CountableGeometric()
    rule = example3_rule()
    # geometric(1/2) against the reciprocal-gap reference
    assert math.isclose(src.true_log_density(1.0), math.log(0.5 / rule.mass(1)), rel_tol=1e-12)
    assert math.isclose(src.true_log_density(3.0), math.log(0.125 / rule.mass(3)), rel_tol=1e-12)
    assert src.true_log_density(1.0) == 0.0  # 1/2 matches the first gap exactly


def test_countable_geometric_entropy_rate():
    # cells {1}..{level+1} plus the tail; enumerate the masses directly
    src = CountableGeometric()
    for level in range(4):
        ps = [0.5**k for k in range(1, level + 2)]
        ps.append(1.0 - sum(ps))
        want = -sum(p * math.log2(p) for p in ps)
        assert math.isclose(src.quantized_entropy_rate(level), want, rel_tol=1e-12)


def test_countable_conditional_mean():
    src = CountableGeometric()
    got = src.conditional_mean(identity())
    assert math.isclose(got, 2.0, rel_tol=1e-9)  # mean of geometric(1/2)
    assert src.conditional_mean(constant(7.0)) == 7.0


def test_markov_stay_rate():
    src = BinaryMarkovEmbedded(stay=0.9)
    xs = src.sample(100_000, seed=8)
    states = (xs >= 0.5).astype(int)
    stays = (states[1:] == states[:-1]).mean()
    sigma = math.sqrt(0.09 / len(xs))
    assert abs(stays - 0.9) < 4 * sigma


def test_markov_embedding_uniform_within_half():
    xs = BinaryMarkovEmbedded().sample(100_000, seed=9)
    low = xs[xs < 0.5]
    counts, _ = np.histogram(low * 2.0, bins=8, range=(0.0, 1.0))
    assert stats.chisquare(counts).pvalue > 0.001


def test_markov_log_density_sequence():
    src = BinaryMarkovEmbedded(stay=0.9)
    # first draw: density one against uniform; then 2*stay or 2*(1-stay)
    assert src.true_log_density(0.3) == 0.0
    assert math.isclose(src.true_log_density(0.4, last=0.2), math.log(1.8), rel_tol=1e-12)
    assert math.isclose(src.true_log_density(0.9, last=0.2), math.log(0.2), rel_tol=1e-12)


def test_markov_entropy_rate():
    src = BinaryMarkovEmbedded(stay=0.9)
    hb = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    for level in range(4):
        assert math.isclose(src.quantized_entropy_rate(level), hb + level, rel_tol=1e-12)


def test_markov_conditional_mean_of_identity():
    src = BinaryMarkovEmbedded(stay=0.9)
    # from the low state: mean = stay*E[U/2] + (1-stay)*E[(1+U)/2]
    want_low = 0.9 * 0.25 + 0.1 * 0.75
    want_high = 0.1 * 0.25 + 0.9 * 0.75
    assert math.isclose(src.conditional_mean(identity(), last=0.2), want_low, rel_tol=1e-9)
    assert math.isclose(src.conditional_mean(identity(), last=0.8), want_high, rel_tol=1e-9)


def test_markov_conditional_mean_without_history():
    # uniform initial state: the stationary mean
    src = BinaryMarkovEmbedded(stay=0.9)
    assert math.isclose(src.conditional_mean(identity()), 0.5, rel_tol=1e-9)


def test_entropy_rate_default_is_unsupported():
    from histmix.sources import _Source

    class Opaque(_Source):
        kind = "opaque"

    with pytest.raises(UnsupportedSourceError):
        Opaque().quantized_entropy_rate(0)


def test_log_density_seq_chains():
    src = BinaryMarkovEmbedded(stay=0.9)
    xs = src.sample(50, seed=10)
    total = src.log_density_seq(xs)
    manual = src.true_log_density(xs[0])
    for prev, x in zip(xs, xs[1:]):
        manual += src.true_log_density(x, last=prev)
    assert math.isclose(total, manual, rel_tol=0, abs_tol=1e-12)


def test_parameter_validation():
    with pytest.raises(Exception):
        CountableGeometric(ratio=1.0)
    with pytest.raises(Exception):
        BinaryMarkovEmbedded(stay=0.0)
    with pytest.raises(Exception):
        MixedAtomIID(atom_mass=1.5)
