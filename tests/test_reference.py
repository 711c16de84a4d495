"""Reference-measure arithmetic: masses, quadrature, cell averages."""

import math
from dataclasses import dataclass
from fractions import Fraction

import pytest

from histmix import (
    BoundViolationError,
    Cell,
    ConfigError,
    ReferenceMeasure,
    adaptive_midpoint,
    dyadic_family,
    example3_rule,
    mixed_family,
    countable_tail_family,
)
from histmix.reference import CountableRule


def test_harmonic_gap_masses_match_fraction_oracle():
    rule = example3_rule()
    for k in range(1, 50):
        assert rule.mass(k) == float(Fraction(1, k) - Fraction(1, k + 1))
    for m in range(1, 50):
        assert rule.tail_mass(m) == float(Fraction(1, m))


def test_harmonic_gap_telescoping():
    # the defining identity: sum of gaps up to m-1 plus the tail is all the mass
    assert sum(
        (Fraction(1, k) - Fraction(1, k + 1)) for k in range(1, 40)
    ) + Fraction(1, 40) == 1
    rule = example3_rule()
    fp = math.fsum(rule.mass(k) for k in range(1, 40)) + rule.tail_mass(40)
    assert abs(fp - 1.0) < 1e-12


def test_total_mass():
    m = ReferenceMeasure(atoms=((-1.0, 0.5),), pieces=((0.0, 1.0, 0.5),))
    assert m.total_mass() == 1.0
    assert ReferenceMeasure(countable=example3_rule()).total_mass() == 1.0


def test_mass_validation():
    with pytest.raises(ConfigError):
        ReferenceMeasure(atoms=((-1.0, 0.6),), pieces=((0.0, 1.0, 0.5),))
    with pytest.raises(ConfigError):
        ReferenceMeasure(atoms=((0.0, 0.0),))
    with pytest.raises(ConfigError):
        ReferenceMeasure(pieces=((0.0, 1.0, -0.1),))
    with pytest.raises(ConfigError):
        ReferenceMeasure(pieces=((0.5, 0.5, 0.1),))


def test_cell_mass_piece_overlap():
    m = ReferenceMeasure(pieces=((0.0, 0.5, 0.6), (0.5, 1.0, 0.4)))
    assert math.isclose(m.cell_mass(Cell.interval(0.25, 0.75)), 0.5, rel_tol=1e-15)
    assert math.isclose(m.cell_mass(Cell.interval(0.0, 0.25)), 0.3, rel_tol=1e-15)
    assert m.cell_mass(Cell.interval(2.0, 3.0)) == 0.0


def test_cell_mass_atoms_and_countable():
    m = ReferenceMeasure(atoms=((-1.0, 0.5),), pieces=((0.0, 1.0, 0.5),))
    assert m.cell_mass(Cell.atom(-1.0)) == 0.5
    assert m.cell_mass(Cell.atom(7.0)) == 0.0
    c = ReferenceMeasure(countable=example3_rule())
    assert math.isclose(c.cell_mass(Cell.atom(3)), float(Fraction(1, 12)), rel_tol=1e-15)
    assert c.cell_mass(Cell.tail(4)) == 0.25
    assert ReferenceMeasure(pieces=((0.0, 1.0, 1.0),)).cell_mass(Cell.tail(1)) == 0.0


def test_adaptive_midpoint_affine_is_exact():
    # midpoint rule integrates affine functions exactly: first doubling agrees
    val = adaptive_midpoint(lambda x: 2.0 * x + 1.0, 0.25, 0.75)
    assert math.isclose(val, 1.0, rel_tol=1e-14)
    assert adaptive_midpoint(lambda x: 5.0, 0.0, 1.0) == 5.0


def test_adaptive_midpoint_smooth():
    assert math.isclose(adaptive_midpoint(lambda x: x * x, 0.0, 1.0), 1 / 3, rel_tol=1e-8)
    assert math.isclose(adaptive_midpoint(math.sin, 0.0, math.pi), 2.0, rel_tol=1e-8)


def test_adaptive_midpoint_dyadic_indicator_exact():
    r = lambda x: 1.0 if 0.25 <= x < 0.5 else 0.0
    assert abs(adaptive_midpoint(r, 0.0, 1.0) - 0.25) < 1e-12


def test_average_over_cell_atom_and_interval():
    m = ReferenceMeasure(atoms=((-1.0, 0.5),), pieces=((0.0, 1.0, 0.5),))
    assert m.average_over_cell(Cell.atom(-1.0), lambda x: 3.0 * x) == -3.0
    avg = m.average_over_cell(Cell.interval(0.0, 0.5), lambda x: x)
    assert math.isclose(avg, 0.25, rel_tol=1e-12)


def test_average_over_cell_atom_is_exact():
    # a mass that is not a power of two: m * r / m would be off by an ulp
    m = ReferenceMeasure(atoms=((-0.3, 0.1),), pieces=((0.0, 1.0, 0.9),))
    assert m.average_over_cell(Cell.atom(-0.3), lambda x: 3.0) == 3.0


def test_average_over_cell_tail():
    m = ReferenceMeasure(countable=example3_rule())
    # indicator of {5} inside the tail from 4: (1/5-1/6) / (1/4) = 2/15
    avg = m.average_over_cell(Cell.tail(4), lambda k: 1.0 if k == 5 else 0.0)
    assert math.isclose(avg, float(Fraction(2, 15)), rel_tol=1e-12)
    # eventually-constant extension is picked up by the probe term
    assert math.isclose(m.average_over_cell(Cell.tail(3), lambda k: 3.0), 3.0, rel_tol=1e-9)


def test_average_over_cell_zero_mass_rejected():
    m = ReferenceMeasure(pieces=((0.0, 0.5, 1.0),))
    with pytest.raises(ConfigError):
        m.average_over_cell(Cell.interval(0.5, 1.0), lambda x: 1.0)


def test_bound_violation_reported():
    m = ReferenceMeasure(pieces=((0.0, 1.0, 1.0),))
    with pytest.raises(BoundViolationError):
        m.average_over_cell(Cell.interval(0.0, 1.0), lambda x: 2.0 * x, bound=1.0)


def test_validate_family_accepts_matched():
    uniform = ReferenceMeasure(pieces=((0.0, 1.0, 1.0),))
    uniform.validate_family(dyadic_family(0.0, 1.0, 6))
    ReferenceMeasure(countable=example3_rule()).validate_family(countable_tail_family(6))


def test_validate_family_rejects_chargeless_atom():
    # an atom-bearing family over a purely continuous measure has a dead cell
    lebesgue_only = ReferenceMeasure(pieces=((0.0, 1.0, 1.0),))
    with pytest.raises(ConfigError):
        lebesgue_only.validate_family(mixed_family((-1.0,), 0.0, 1.0, 3))


def test_validate_family_rejects_uncovered_interval():
    half = ReferenceMeasure(pieces=((0.0, 0.5, 1.0),))
    with pytest.raises(ConfigError):
        half.validate_family(dyadic_family(0.0, 1.0, 3))


def test_validate_family_rejects_stray_reference_atom():
    m = ReferenceMeasure(atoms=((2.0, 0.1),), pieces=((0.0, 1.0, 0.9),))
    with pytest.raises(ConfigError):
        m.validate_family(dyadic_family(0.0, 1.0, 3))


@dataclass(frozen=True)
class _HalfHarmonicRule(CountableRule):
    """Half the harmonic-gap masses, leaving room for an atom."""

    def mass(self, k):
        return 0.5 / (k * (k + 1))

    def tail_mass(self, start):
        return 0.5 / start


def test_validate_family_rejects_reference_atom_in_non_atom_cell():
    # no finest cell would hold the atom's mass: cell_mass charges an
    # interval with the pieces only and a tail with the countable part only
    in_interval = ReferenceMeasure(atoms=((0.5, 0.1),), pieces=((0.0, 1.0, 0.9),))
    with pytest.raises(ConfigError):
        in_interval.validate_family(dyadic_family(0.0, 1.0, 3))
    in_tail = ReferenceMeasure(atoms=((9.0, 0.5),), countable=_HalfHarmonicRule(name="half"))
    with pytest.raises(ConfigError):
        in_tail.validate_family(countable_tail_family(3))
    # once the finest level isolates 9, its atom cell carries the atom
    in_tail.validate_family(countable_tail_family(9))


def test_validate_family_accepts_reference_atom_with_atom_cell():
    m = ReferenceMeasure(atoms=((-1.0, 0.3),), pieces=((0.0, 1.0, 0.7),))
    m.validate_family(mixed_family((-1.0,), 0.0, 1.0, 3))
