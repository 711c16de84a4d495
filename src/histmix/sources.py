"""Synthetic ground-truth sources: samplers plus exact density oracles.

Each source fixes a matched reference measure and exposes, w.r.t. it, the
exact one-step conditional log density of its own law. That makes realized
KL and prediction-error measurements a matter of bookkeeping rather than
estimation. All sampling is driven by numpy Generators, so a seed pins the
sequence bit for bit.

law(last) is the conditional law of the next value given the previous one
(i.i.d. kinds ignore `last`) as a ReferenceMeasure, built once per source
(per state for the Markov chain); a kind defines little more than its
sampler, its law and, where not uniform, its reference. Both oracles come
from the law. true_log_density(x, last), the log Radon-Nikodym derivative
against the reference, is the log ratio of the law's and the reference's
ReferenceMeasure.density at x. conditional_mean(r, last) integrates a
functional against the law with ReferenceMeasure.integral, the estimator's
integration path: exactly for declared constants and cell indicators, by
the shared quadrature and tail sum otherwise. The exponential part of
MixedAtomIID is the one law that is not piecewise uniform: there law()
raises UnsupportedSourceError, and true_log_density and conditional_mean
take that part from its closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import OutOfSupportError, UnsupportedSourceError
from .functionals import indicated_cell
from .reference import CountableRule, ReferenceMeasure, adaptive_midpoint, checked, example3_rule

__all__ = [
    "UniformIID",
    "PiecewiseDensityIID",
    "MixedAtomIID",
    "CountableGeometric",
    "BinaryMarkovEmbedded",
    "SOURCE_KINDS",
]


@lru_cache(maxsize=None)
def _expectation(law: ReferenceMeasure, r, bound) -> float:
    # by value: an oracle asks the same question at every step
    return law.integral(r, bound)


class _Source:
    """Shared plumbing; concrete kinds define the law."""

    kind = ""

    def reference(self) -> ReferenceMeasure:
        """The matched reference measure: uniform on [0, 1) unless a kind says otherwise."""
        return ReferenceMeasure(pieces=((0.0, 1.0, 1.0),))

    @cached_property
    def _reference(self) -> ReferenceMeasure:
        return self.reference()

    def sample(self, n: int, seed: int):
        raise NotImplementedError

    def law(self, last=None) -> ReferenceMeasure:
        """Conditional law of the next value given the previous one."""
        return self._law

    def true_log_density(self, x, last=None) -> float:
        """log d law(last) / d reference at x, from the two measures' densities."""
        return self._log_ratio(self.law(last).density(x), x)

    def _log_ratio(self, density, x) -> float:
        # -inf where only the law lacks density: a deterministic mixed atom
        ref = self._reference.density(x)
        if ref == 0.0:
            raise OutOfSupportError(f"value {x!r} outside the {self.kind} support")
        return math.log(density / ref) if density > 0.0 else -math.inf

    def conditional_mean(self, r, last=None, bound=None) -> float:
        """E[r(next) | last], every value of r taken checked against bound."""
        # declared constants integrate to themselves against any law
        const = getattr(r, "constant", None)
        if const is not None:
            return const
        return _expectation(self.law(last), r, bound)


@dataclass(frozen=True)
class UniformIID(_Source):
    """Uniform[0,1) draws; the calibration case where source equals reference."""

    kind = "uniform-iid"

    def sample(self, n: int, seed: int) -> np.ndarray:
        return np.random.default_rng(seed).random(n)

    @cached_property
    def _law(self) -> ReferenceMeasure:
        return self._reference


@dataclass(frozen=True)
class PiecewiseDensityIID(_Source):
    """I.i.d. draws with a piecewise-constant density on [0,1), uniform reference."""

    kind = "piecewise-density-iid"
    breaks: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    densities: tuple = (0.5, 1.5, 1.25, 0.75)

    def __post_init__(self):
        b, d = self.breaks, self.densities
        if len(b) != len(d) + 1:
            raise ValueError("need one more breakpoint than density pieces")
        if any(b[i] >= b[i + 1] for i in range(len(d))):
            raise ValueError("breakpoints must be strictly increasing")
        if b[0] != 0.0 or b[-1] != 1.0:
            raise ValueError("density must cover exactly [0, 1)")
        if any(x <= 0 for x in d):
            # zero-density stretch would break absolute continuity w.r.t. uniform
            raise ValueError("piece densities must be strictly positive")
        mass = sum(d[i] * (b[i + 1] - b[i]) for i in range(len(d)))
        if abs(mass - 1.0) > 1e-9:
            raise ValueError(f"piece densities integrate to {mass}, expected 1")

    def _cdf(self) -> np.ndarray:
        b = np.asarray(self.breaks)
        d = np.asarray(self.densities)
        return np.concatenate(([0.0], np.cumsum(d * np.diff(b))))

    def sample(self, n: int, seed: int) -> np.ndarray:
        u = np.random.default_rng(seed).random(n)
        cdf = self._cdf()
        j = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(self.densities) - 1)
        b = np.asarray(self.breaks)
        d = np.asarray(self.densities)
        x = b[j] + (u - cdf[j]) / d[j]
        # division rounding can land exactly on the open right edge
        return np.minimum(x, np.nextafter(1.0, 0.0))

    @cached_property
    def _law(self) -> ReferenceMeasure:
        # normalized: the densities may integrate to 1 within 1e-9, and
        # ReferenceMeasure's total-mass check allows 1e-12
        masses = np.asarray(self.densities) * np.diff(self.breaks)
        pieces = zip(self.breaks, self.breaks[1:], (masses / masses.sum()).tolist())
        return ReferenceMeasure(pieces=tuple(pieces))


@dataclass(frozen=True)
class MixedAtomIID(_Source):
    """Mixture of a point mass and a continuous part on [0,1).

    Reference splits its mass between the same atom and the interval, so the
    source law always has a density. atom_mass=1 degenerates to a
    deterministic source. The exponential variant draws Exp(1) values and
    maps them through y -> y/(1+y), giving a skewed continuous law on [0,1)
    with density e^{-x/(1-x)} / (1-x)^2 and a closed-form CDF.
    """

    kind = "mixed-atom"
    atom_point: float = -1.0
    atom_mass: float = 0.5
    eta_atom_mass: float = 0.5
    continuous: str = "uniform"

    def __post_init__(self):
        if not 0.0 < self.atom_mass <= 1.0:
            raise ValueError("atom_mass must be in (0, 1]")
        if not 0.0 < self.eta_atom_mass < 1.0:
            raise ValueError("eta_atom_mass must be in (0, 1)")
        if 0.0 <= self.atom_point < 1.0:
            raise ValueError("atom_point must lie outside [0, 1)")
        if self.continuous not in ("uniform", "exponential"):
            raise ValueError(f"unknown continuous part {self.continuous!r}")

    def reference(self) -> ReferenceMeasure:
        return ReferenceMeasure(
            atoms=((self.atom_point, self.eta_atom_mass),),
            pieces=((0.0, 1.0, 1.0 - self.eta_atom_mass),),
        )

    def sample(self, n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        hit = rng.random(n) < self.atom_mass
        if self.continuous == "uniform":
            vals = rng.random(n)
        else:
            y = rng.exponential(size=n)
            # clamp because huge draws round onto the open right edge
            vals = np.minimum(y / (1.0 + y), np.nextafter(1.0, 0.0))
        return np.where(hit, self.atom_point, vals)

    def _cont_log_density(self, x: float) -> float:
        # the exponential part's
        return -x / (1.0 - x) - 2.0 * math.log1p(-x)

    def _cont_cdf(self, x: float) -> float:
        # the exponential part's; 1 from the open right edge on
        return 1.0 if x >= 1.0 else -math.expm1(-x / (1.0 - x))

    @property
    def _exponential(self) -> bool:
        # the one law here that is not piecewise uniform
        return self.continuous == "exponential" and self.atom_mass < 1.0

    @cached_property
    def _law(self) -> ReferenceMeasure:
        # with an exponential part this holds the atom alone, so it stays
        # private: law() refuses, and true_log_density and conditional_mean
        # add the part
        atom = ((self.atom_point, self.atom_mass),)
        if self.atom_mass == 1.0 or self.continuous != "uniform":
            return ReferenceMeasure(atoms=atom)
        return ReferenceMeasure(atoms=atom, pieces=((0.0, 1.0, 1.0 - self.atom_mass),))

    def law(self, last=None) -> ReferenceMeasure:
        if self._exponential:
            raise UnsupportedSourceError(f"{self.kind}: exponential part is not piecewise uniform")
        return self._law

    def true_log_density(self, x, last=None) -> float:
        # the one density not read off a law: the exponential part's closed form
        if not self._exponential or x == self.atom_point:
            return self._log_ratio(self._law.density(x), x)
        return self._log_ratio(1.0 - self.atom_mass, x) + self._cont_log_density(x)

    def conditional_mean(self, r, last=None, bound=None) -> float:
        if not self._exponential or getattr(r, "constant", None) is not None:
            return super().conditional_mean(r, last, bound)
        atom_part = _expectation(self._law, r, bound)
        return atom_part + (1.0 - self.atom_mass) * self._exponential_mean(r, bound)

    @lru_cache(maxsize=None)
    def _exponential_mean(self, r, bound) -> float:
        # mean of r under the exponential part: a cell indicator through the
        # CDF, anything else by quadrature of r times the density, which
        # peaks at 4/e, so the bound is checked on r's values themselves
        cell = indicated_cell(r)
        if cell is None:
            weighted = lambda x: checked(r, x, bound) * math.exp(self._cont_log_density(x))
            return adaptive_midpoint(weighted, 0.0, 1.0)
        if cell.kind != "interval":
            return 0.0
        lo, hi = max(cell.lower, 0.0), min(cell.upper, 1.0)
        return self._cont_cdf(hi) - self._cont_cdf(lo) if lo < hi else 0.0


@dataclass(frozen=True)
class _GeometricRule(CountableRule):
    """mass(k) = (1 - ratio) ratio^(k-1); tails sum to ratio^(start-1)."""

    ratio: float = 0.5

    def mass(self, k: int) -> float:
        return (1.0 - self.ratio) * self.ratio ** (k - 1)

    def tail_mass(self, start: int) -> float:
        return self.ratio ** (start - 1)


@dataclass(frozen=True)
class CountableGeometric(_Source):
    """Geometric draws on {1, 2, ...} against the harmonic-gap reference."""

    kind = "countable-geometric"
    ratio: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must be in (0, 1)")

    def reference(self) -> ReferenceMeasure:
        return ReferenceMeasure(countable=example3_rule())

    def sample(self, n: int, seed: int) -> np.ndarray:
        return np.random.default_rng(seed).geometric(1.0 - self.ratio, size=n)

    @cached_property
    def _law(self) -> ReferenceMeasure:
        return ReferenceMeasure(countable=_GeometricRule(name="geometric", ratio=self.ratio))


@dataclass(frozen=True)
class BinaryMarkovEmbedded(_Source):
    """Two-state Markov chain embedded in [0,1): state s emits uniformly on
    [s/2, (s+1)/2). Stationary start; symmetric stay probability."""

    kind = "binary-markov-embedded"
    stay: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.stay < 1.0:
            raise ValueError("stay probability must be in (0, 1)")

    def sample(self, n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        v = rng.random(n)
        flips = u >= self.stay
        flips[0] = u[0] >= 0.5  # stationary initial state, not a transition
        states = np.cumsum(flips) & 1
        return (states + v) / 2.0

    @staticmethod
    def _state(x) -> int:
        if not 0.0 <= x < 1.0:
            raise OutOfSupportError(f"value {x!r} outside [0, 1)")
        return 1 if x >= 0.5 else 0

    @cached_property
    def _laws(self) -> tuple:
        # p1 is the chance of the upper half: after state 0, after state 1,
        # then stationary for no history
        return tuple(
            ReferenceMeasure(pieces=((0.0, 0.5, 1.0 - p1), (0.5, 1.0, p1)))
            for p1 in (1.0 - self.stay, self.stay, 0.5)
        )

    def law(self, last=None) -> ReferenceMeasure:
        return self._laws[-1 if last is None else self._state(last)]


SOURCE_KINDS = {
    cls.kind: cls
    for cls in (
        UniformIID,
        PiecewiseDensityIID,
        MixedAtomIID,
        CountableGeometric,
        BinaryMarkovEmbedded,
    )
}
