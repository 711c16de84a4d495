"""Synthetic stream generators and their closed-form oracles."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from scipy import stats

from histmix import (
    BinaryMarkovEmbedded,
    BoundViolationError,
    Cell,
    CountableGeometric,
    Functional,
    MixedAtomIID,
    OutOfSupportError,
    PiecewiseDensityIID,
    SOURCE_KINDS,
    UniformIID,
    UnsupportedSourceError,
    build_source,
    cell_indicator,
    constant,
    countable_tail_family,
    dyadic_family,
    example3_rule,
    identity,
    load_config,
    mixed_family,
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


def test_piecewise_empirical_matches_oracle():
    src = PiecewiseDensityIID()
    xs = src.sample(100_000, seed=2)
    # 4 cells aligned with the density breaks
    expect = np.array([src.law().cell_mass(Cell.interval(j / 4, (j + 1) / 4)) for j in range(4)])
    counts, _ = np.histogram(xs, bins=4, range=(0.0, 1.0))
    p = stats.chisquare(counts, f_exp=expect * len(xs)).pvalue
    assert p > 0.001


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


def test_parameter_validation():
    with pytest.raises(Exception):
        CountableGeometric(ratio=1.0)
    with pytest.raises(Exception):
        BinaryMarkovEmbedded(stay=0.0)
    with pytest.raises(Exception):
        MixedAtomIID(atom_mass=1.5)


@pytest.mark.parametrize(
    "src",
    [
        UniformIID(),
        PiecewiseDensityIID(),
        MixedAtomIID(),
        pytest.param(MixedAtomIID(continuous="exponential"), id="mixed-atom-exponential"),
        CountableGeometric(),
        BinaryMarkovEmbedded(),
    ],
    ids=lambda src: src.kind,
)
def test_conditional_mean_checks_the_bound(src):
    too_big = Functional(lambda x: 5.0, bound=1.0)
    with pytest.raises(BoundViolationError):
        src.conditional_mean(too_big, bound=1.0)


def _exp_cdf(x):
    return 1.0 if x >= 1.0 else -math.expm1(-x / (1.0 - x))


def _oracle_cases():
    dyadic = dyadic_family(0, 1, 8)
    mixed = mixed_family((-1.0,), 0, 1, 8)
    countable = countable_tail_family(8)
    piecewise = PiecewiseDensityIID()
    cells = dyadic.levels[-1]
    yield "uniform", UniformIID(), dyadic, None, [c.upper - c.lower for c in cells]
    # level-7 cells nest in the density pieces
    density = [piecewise.densities[bisect_right(piecewise.breaks, c.lower) - 1] for c in cells]
    yield "piecewise", piecewise, dyadic, None, [d / 256 for d in density]
    for last, p_high in ((None, 0.5), (0.2, 0.1), (0.8, 0.9)):
        probs = [
            (p_high if c.lower >= 0.5 else 1.0 - p_high) * (c.upper - c.lower) * 2.0
            for c in cells
        ]
        yield f"markov-last-{last}", BinaryMarkovEmbedded(stay=0.9), dyadic, last, probs
    intervals = mixed.levels[-1][1:]
    yield "mixed-uniform", MixedAtomIID(), mixed, None, [0.5] + [
        0.5 * (c.upper - c.lower) for c in intervals
    ]
    yield "mixed-exponential", MixedAtomIID(continuous="exponential"), mixed, None, [0.5] + [
        0.5 * (_exp_cdf(c.upper) - _exp_cdf(c.lower)) for c in intervals
    ]
    ratio = 0.8
    yield "countable", CountableGeometric(ratio=ratio), countable, None, [
        (1.0 - ratio) * ratio ** (k - 1) for k in range(1, 9)
    ] + [ratio**8]


@pytest.mark.parametrize(
    "src,family,last,probs", [pytest.param(*case[1:], id=case[0]) for case in _oracle_cases()]
)
def test_cell_indicator_oracles_are_exact(src, family, last, probs):
    # every finest cell, however narrow, gets its exact probability
    cells = family.levels[-1]
    assert len(probs) == len(cells)
    for j, want in enumerate(probs):
        got = src.conditional_mean(cell_indicator(family, j), last, bound=1.0)
        assert abs(got - want) < 1e-12, (j, got, want)


def test_piecewise_source_just_inside_mass_tolerance():
    # densities integrating to 1 + 5e-10 pass the source's 1e-9 check; its
    # law must not fail the reference measure's tighter one
    config = load_config(
        "source = piecewise-density-iid\nbreaks = 0,0.5,1\ndensities = 1,1.000000001\n"
    )
    src = build_source(config)
    assert math.isclose(src.conditional_mean(identity(1.0), bound=1.0), 0.5, rel_tol=1e-8)
    family = dyadic_family(0, 1, 3)
    total = sum(src.conditional_mean(cell_indicator(family, j)) for j in range(8))
    assert abs(total - 1.0) < 1e-12


def test_exponential_mixed_atom_has_no_law():
    # its continuous part is not piecewise uniform, so no ReferenceMeasure is its law
    with pytest.raises(UnsupportedSourceError):
        MixedAtomIID(continuous="exponential").law()


def test_deterministic_mixed_atom_law_has_no_piece():
    src = MixedAtomIID(atom_mass=1.0, continuous="exponential")
    assert src.law().pieces == ()
    assert src.conditional_mean(identity(1.0), bound=1.0) == -1.0
    family = mixed_family((-1.0,), 0, 1, 2)
    assert src.conditional_mean(cell_indicator(family, 0)) == 1.0
    assert src.conditional_mean(cell_indicator(family, 3)) == 0.0


def _highres_pieces(k=8):
    # random pieces as the replay-highres benchmark workload draws them
    g = 0.25 + np.random.default_rng([0, 1]).random(k)
    return tuple(j / k for j in range(k + 1)), tuple(float(v) for v in g / g.mean())


def _density_cases():
    dyadic = dyadic_family(0, 1, 8).levels[-1]
    yield "uniform", UniformIID(), dyadic, None
    yield "piecewise", PiecewiseDensityIID(), dyadic, None
    yield "piecewise-8", PiecewiseDensityIID(*_highres_pieces()), dyadic, None
    mixed = MixedAtomIID(atom_mass=0.3, eta_atom_mass=0.6)
    yield "mixed-atom", mixed, mixed_family((mixed.atom_point,), 0, 1, 8).levels[-1], None
    for last in (None, 0.2, 0.8):
        yield f"markov-last-{last}", BinaryMarkovEmbedded(), dyadic, last
    for ratio in (0.5, 0.8):
        points = [Cell.atom(k) for k in range(1, 401)]
        yield f"countable-{ratio}", CountableGeometric(ratio=ratio), points, None


@pytest.mark.parametrize(
    "src,cells,last", [pytest.param(*case[1:], id=case[0]) for case in _density_cases()]
)
def test_density_is_the_law_density(src, cells, last):
    # density times reference mass is the law's mass, cell by cell, and the
    # masses add up to one
    ref = src.reference()
    total = 0.0
    for cell in cells:
        rep = cell.point if cell.kind == "atom" else (cell.lower + cell.upper) / 2
        mass = math.exp(src.true_log_density(rep, last)) * ref.cell_mass(cell)
        assert math.isclose(mass, src.law(last).cell_mass(cell), rel_tol=1e-12), cell
        total += mass
    assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize(
    "src,values",
    [
        pytest.param(UniformIID(), (1.0, -0.5), id="uniform"),
        pytest.param(PiecewiseDensityIID(), (1.0, -0.5), id="piecewise"),
        pytest.param(MixedAtomIID(), (1.0, -0.5), id="mixed-atom"),
        pytest.param(MixedAtomIID(continuous="exponential"), (1.0, -0.5), id="mixed-exponential"),
        pytest.param(MixedAtomIID(atom_mass=1.0), (1.0, -0.5), id="mixed-deterministic"),
        pytest.param(CountableGeometric(), (-0.5, 2.5, 0.0), id="countable"),
        pytest.param(BinaryMarkovEmbedded(), (1.0, -0.5), id="markov"),
    ],
)
def test_density_outside_support_raises(src, values):
    for x in values:
        for last in (None, src.sample(1, seed=0)[0]):
            with pytest.raises(OutOfSupportError):
                src.true_log_density(x, last)


def test_deterministic_mixed_atom_density():
    # no mass off the atom: log density -inf there, not an error
    src = MixedAtomIID(atom_mass=1.0)
    assert src.true_log_density(-1.0) == math.log(1.0 / 0.5)
    assert src.true_log_density(0.4) == -math.inf
