"""Dominating reference measure: atoms, piecewise-uniform mass, countable masses.

One measure per coordinate; the estimator treats the stream as its n-fold
product. Total mass over the support must not exceed 1, and every cell of a
partition family used with the measure must carry strictly positive mass.
The sources' conditional laws are ReferenceMeasures too, so integral is the
one place a functional is integrated, for the estimator's cell averages and
for the sources' conditional means alike, and density the one place a
source's density is read off its law.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BoundViolationError, ConfigError
from .functionals import indicated_cell
from .partition import Cell, PartitionFamily, _is_natural

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


def checked(r, x, bound) -> float:
    """r(x) as a float; BoundViolationError when it exceeds bound."""
    v = float(r(x))
    if bound is not None and abs(v) > bound + 1e-12:
        raise BoundViolationError(f"r({x!r}) = {v} exceeds declared bound {bound}")
    return v


def _overlap(a: Cell, b: Cell):
    """The cell where a and b meet, or None when they are disjoint.

    An interval and a tail share no mass: cell_mass charges an interval
    with the pieces only and a tail with the countable part only.
    """
    if b.kind == "atom":
        a, b = b, a
    if a.kind == "atom":
        return a if b.contains(a.point) else None
    if a.kind != b.kind:
        return None
    if a.kind == "tail":
        return max(a, b, key=lambda c: c.tail_start)
    lo, hi = max(a.lower, b.lower), min(a.upper, b.upper)
    return Cell.interval(lo, hi) if lo < hi else None


def adaptive_midpoint(r, lower: float, upper: float, bound=None, rtol: float = _QUAD_RTOL) -> float:
    """Integral of r over [lower, upper) by doubling midpoint refinement.

    The midpoint rule is exact for affine integrands, so those converge once
    the depth floor is reached; otherwise refinement stops at relative
    tolerance rtol or at the subinterval cap. The floor of 64 subintervals
    guards against integrands that vanish at every coarse probe point, such
    as indicators of narrow sets.
    """
    width = upper - lower
    prev = width * checked(r, lower + width / 2, bound)
    m = 2
    while m <= _MAX_SUBINTERVALS:
        h = width / m
        total = 0.0
        for j in range(m):
            total += checked(r, lower + (j + 0.5) * h, bound)
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
    _piece_density: tuple = field(init=False, repr=False, compare=False, default=None)

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
        densities = tuple((lo, hi, m / (hi - lo)) for lo, hi, m in self.pieces)
        object.__setattr__(self, "_piece_density", densities)

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

    def density(self, x) -> float:
        """Density at x: against counting measure on the atoms and the
        naturals the countable rule charges, against length elsewhere.

        That is the mass at an atom or a charged natural, otherwise the
        summed mass / width of the pieces holding x, and 0 off the support.
        """
        m = self._atom_mass.get(x)
        if m is not None:
            return m
        if self.countable is not None and _is_natural(x):
            return self.countable.mass(int(x))
        total = 0.0
        for lo, hi, d in self._piece_density:
            if lo <= x < hi:
                total += d
        return total

    def integral(self, r, bound=None, cell=None) -> float:
        """Integral of r against the measure, or against its restriction to cell.

        The one integration path: average_over_cell and the sources'
        conditional means both come here. A cell indicator integrates
        exactly, to the cell_mass of its cell's overlap with the domain.
        Otherwise atoms are exact, each uniform piece goes through
        adaptive_midpoint (exact for affine r), and the countable part sums
        2^16 terms and extends r by its value at the probe point beyond,
        which is exact whenever r has settled to a constant by then. Every
        value of r taken is checked against bound.
        """
        inside = indicated_cell(r)
        if inside is not None:
            inside = inside if cell is None else _overlap(inside, cell)
            return 0.0 if inside is None else self.cell_mass(inside)
        if cell is not None and cell.kind == "atom":
            return self.cell_mass(cell) * checked(r, cell.point, bound)
        total = 0.0
        for p, m in self.atoms if cell is None else ():
            total += m * checked(r, p, bound)
        for lo, hi, m in self.pieces if cell is None or cell.kind == "interval" else ():
            olo, ohi = (lo, hi) if cell is None else (max(lo, cell.lower), min(hi, cell.upper))
            if olo < ohi:
                total += m / (hi - lo) * adaptive_midpoint(r, olo, ohi, bound=bound)
        # an interval cell has no tail_start, so no countable part
        start = 1 if cell is None else cell.tail_start
        if start is not None and self.countable is not None:
            end = start + _TAIL_TERMS
            for k in range(start, end):
                total += self.countable.mass(k) * checked(r, k, bound)
            total += self.countable.tail_mass(end) * checked(r, end, bound)
        return total

    def average_over_cell(self, cell: Cell, r, bound=None) -> float:
        """Mass-weighted mean of r over one cell: cell_mass^-1 * integral of r.

        An atom cell's mean is r at its point, taken as is rather than as
        mass * r / mass, which can be off by an ulp. Otherwise the integral
        is integral(r, bound, cell): exact for cell indicators (1 on the
        cell itself, 0 on a disjoint one), quadrature per overlapping piece
        for intervals, the truncated tail sum for countable tails.
        """
        mass = self.cell_mass(cell)
        if mass <= 0:
            raise ConfigError(f"cell {cell} has zero reference mass")
        if cell.kind == "atom":
            return checked(r, cell.point, bound)
        return self.integral(r, bound, cell) / mass

    def validate_family(self, family: PartitionFamily) -> None:
        """Reject configurations where any family cell carries zero mass, or
        a reference atom is not a finest cell of its own.

        cell_mass charges an interval with the pieces only and a tail with
        the countable part only, so an atom inside either would be mass that
        no finest cell holds.
        """
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
            finest = family.levels[-1][family.project(family.num_levels - 1, p)]
            if finest.kind != "atom":
                raise ConfigError(
                    f"reference atom at {p} lies inside the family cell {finest}; "
                    "it needs an atom cell of its own"
                )
