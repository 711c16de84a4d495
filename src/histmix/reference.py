"""Dominating reference measure: atoms, piecewise-uniform mass, countable masses.

One measure per coordinate; the estimator treats the stream as its n-fold
product. Total mass over the support must not exceed 1, and every cell of a
partition family used with the measure must carry strictly positive mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BoundViolationError, ConfigError
from .partition import Cell, PartitionFamily

__all__ = [
    "CountableRule",
    "example3_rule",
    "ReferenceMeasure",
    "adaptive_midpoint",
]

_MASS_TOL = 1e-12
# quadrature caps: doubling midpoint refinement, relative target 1e-9
_QUAD_RTOL = 1e-9
_MAX_SUBINTERVALS = 1 << 20
_TAIL_TERMS = 1 << 16


@dataclass(frozen=True)
class CountableRule:
    """Mass rule k -> mass on {1, 2, ...} with a closed-form tail sum."""

    name: str

    def mass(self, k: int) -> float:
        raise NotImplementedError

    def tail_mass(self, start: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class _HarmonicGapRule(CountableRule):
    """mass(k) = 1/k - 1/(k+1); tails telescope to 1/start."""

    def mass(self, k: int) -> float:
        # same value as the difference of reciprocals, correctly rounded
        return 1.0 / (k * (k + 1))

    def tail_mass(self, start: int) -> float:
        return 1.0 / start


def example3_rule() -> CountableRule:
    """The built-in countable rule with mass(k) = 1/k - 1/(k+1)."""
    return _HarmonicGapRule(name="example3")


def _checked(r, x, bound):
    v = float(r(x))
    if bound is not None and abs(v) > bound + 1e-12:
        raise BoundViolationError(f"r({x!r}) = {v} exceeds declared bound {bound}")
    return v


def adaptive_midpoint(r, lower: float, upper: float, bound=None, rtol: float = _QUAD_RTOL) -> float:
    """Integral of r over [lower, upper) by doubling midpoint refinement.

    The midpoint rule is exact for affine integrands, so those converge once
    the depth floor is reached; otherwise refinement stops at relative
    tolerance rtol or at the subinterval cap. The floor of 64 subintervals
    guards against integrands that vanish at every coarse probe point, such
    as indicators of narrow sets.
    """
    width = upper - lower
    prev = width * _checked(r, lower + width / 2, bound)
    m = 2
    while m <= _MAX_SUBINTERVALS:
        h = width / m
        total = 0.0
        for j in range(m):
            total += _checked(r, lower + (j + 0.5) * h, bound)
        cur = h * total
        if m >= 64 and abs(cur - prev) <= max(rtol * abs(cur), 1e-15):
            return cur
        prev = cur
        m *= 2
    return prev


@dataclass(frozen=True)
class ReferenceMeasure:
    """Atoms (point, mass) + uniform pieces (lower, upper, mass) + optional countable rule."""

    atoms: tuple[tuple[float, float], ...] = ()
    pieces: tuple[tuple[float, float, float], ...] = ()
    countable: CountableRule | None = None
    _atom_mass: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        for p, m in self.atoms:
            if m <= 0:
                raise ConfigError(f"atom at {p} has non-positive mass {m}")
        for lo, hi, m in self.pieces:
            if not lo < hi:
                raise ConfigError(f"piece [{lo}, {hi}) is empty")
            if m <= 0:
                raise ConfigError(f"piece [{lo}, {hi}) has non-positive mass {m}")
        if self.total_mass() > 1.0 + _MASS_TOL:
            raise ConfigError(f"total mass {self.total_mass()} exceeds 1")
        object.__setattr__(self, "_atom_mass", dict(self.atoms))

    def total_mass(self) -> float:
        total = sum(m for _, m in self.atoms) + sum(m for _, _, m in self.pieces)
        if self.countable is not None:
            total += self.countable.tail_mass(1)
        return total

    def cell_mass(self, cell: Cell) -> float:
        """Exact mass of the measure restricted to one cell."""
        if cell.kind == "atom":
            m = self._atom_mass.get(cell.point)
            if m is None and self.countable is not None and float(cell.point) == int(cell.point):
                m = self.countable.mass(int(cell.point))
            return 0.0 if m is None else m
        if cell.kind == "tail":
            if self.countable is None:
                return 0.0
            return self.countable.tail_mass(cell.tail_start)
        total = 0.0
        for lo, hi, m in self.pieces:
            olo, ohi = max(lo, cell.lower), min(hi, cell.upper)
            if olo < ohi:
                total += m * (ohi - olo) / (hi - lo)
        return total

    def average_over_cell(self, cell: Cell, r, bound=None, rtol: float = _QUAD_RTOL) -> float:
        """Mass-weighted mean of r over one cell: cell_mass^-1 * integral of r.

        Exact for atoms; midpoint quadrature per overlapping piece for
        intervals. Countable tails sum the first 2^16 terms and extend r by
        its value at the probe point beyond, which is exact whenever r has
        settled to a constant by then (constants and cell indicators do).
        """
        mass = self.cell_mass(cell)
        if mass <= 0:
            raise ConfigError(f"cell {cell} has zero reference mass")
        if cell.kind == "atom":
            return _checked(r, cell.point, bound)
        if cell.kind == "tail":
            total = 0.0
            for k in range(cell.tail_start, cell.tail_start + _TAIL_TERMS):
                total += self.countable.mass(k) * _checked(r, k, bound)
            remaining = self.countable.tail_mass(cell.tail_start + _TAIL_TERMS)
            total += remaining * _checked(r, cell.tail_start + _TAIL_TERMS, bound)
            return total / mass
        total = 0.0
        for lo, hi, m in self.pieces:
            olo, ohi = max(lo, cell.lower), min(hi, cell.upper)
            if olo < ohi:
                total += m / (hi - lo) * adaptive_midpoint(r, olo, ohi, bound=bound, rtol=rtol)
        return total / mass

    def validate_family(self, family: PartitionFamily) -> None:
        """Reject configurations where any family cell carries zero mass."""
        for i, cells in enumerate(family.levels):
            for cell in cells:
                if self.cell_mass(cell) <= 0:
                    raise ConfigError(
                        f"cell {cell} at level {i} has zero reference mass; "
                        "every cell must be chargeable"
                    )
        for p, _ in self.atoms:
            if not family.support.contains(p):
                raise ConfigError(f"reference atom at {p} lies outside the family support")
