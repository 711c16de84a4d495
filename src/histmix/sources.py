"""Synthetic ground-truth sources: samplers plus exact density oracles.

Each source fixes a matched reference measure and exposes, w.r.t. it, the
exact one-step conditional log density of its own law. That makes realized
KL and prediction-error measurements a matter of bookkeeping rather than
estimation. All sampling is driven by numpy Generators, so a seed pins the
sequence bit for bit.

true_log_density(x, last) is the log Radon-Nikodym derivative of the
conditional law of the next value given the previous one (i.i.d. kinds
ignore `last`). conditional_mean(r, last) integrates a functional against
that same conditional law, in closed form where possible and by the shared
quadrature otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OutOfSupportError, UnsupportedSourceError
from .reference import ReferenceMeasure, adaptive_midpoint, example3_rule

__all__ = [
    "UniformIID",
    "PiecewiseDensityIID",
    "MixedAtomIID",
    "CountableGeometric",
    "BinaryMarkovEmbedded",
    "SOURCE_KINDS",
]

_LN2 = math.log(2.0)
_GEOM_TERMS = 1 << 16


def _entropy_bits(probs) -> float:
    h = 0.0
    for p in probs:
        if p > 0:
            h -= p * math.log(p)
    return h / _LN2


def _mean_or_const(r, bound, integrate):
    # declared constants integrate to themselves against any conditional law
    const = getattr(r, "constant", None)
    if const is not None:
        return const
    return integrate(r, bound)


class _Source:
    """Shared plumbing; concrete kinds define the law."""

    kind = ""

    def reference(self) -> ReferenceMeasure:
        raise NotImplementedError

    def sample(self, n: int, seed: int):
        raise NotImplementedError

    def true_log_density(self, x, last=None) -> float:
        raise NotImplementedError

    def conditional_mean(self, r, last=None, bound=None) -> float:
        raise NotImplementedError

    def quantized_entropy_rate(self, level: int) -> float:
        raise UnsupportedSourceError(f"{self.kind}: no closed-form quantized entropy")

    def log_density_seq(self, xs) -> float:
        """Total log density of a sequence w.r.t. the reference, via the chain rule."""
        total = 0.0
        last = None
        for x in xs:
            total += self.true_log_density(x, last)
            last = x
        return total


@dataclass(frozen=True)
class UniformIID(_Source):
    """Uniform[0,1) draws; the calibration case where source equals reference."""

    kind = "uniform-iid"

    def reference(self) -> ReferenceMeasure:
        return ReferenceMeasure(pieces=((0.0, 1.0, 1.0),))

    def sample(self, n: int, seed: int) -> np.ndarray:
        return np.random.default_rng(seed).random(n)

    def true_log_density(self, x, last=None) -> float:
        if not 0.0 <= x < 1.0:
            raise OutOfSupportError(f"value {x!r} outside [0, 1)")
        return 0.0

    def conditional_mean(self, r, last=None, bound=None) -> float:
        return _mean_or_const(r, bound, self._integral)

    @lru_cache(maxsize=None)
    def _integral(self, r, bound) -> float:
        return adaptive_midpoint(r, 0.0, 1.0, bound=bound)

    def quantized_entropy_rate(self, level: int) -> float:
        return float(level + 1)


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

    def reference(self) -> ReferenceMeasure:
        return ReferenceMeasure(pieces=((0.0, 1.0, 1.0),))

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

    def true_log_density(self, x, last=None) -> float:
        if not 0.0 <= x < 1.0:
            raise OutOfSupportError(f"value {x!r} outside [0, 1)")
        j = 0
        while x >= self.breaks[j + 1]:
            j += 1
        return math.log(self.densities[j])

    def conditional_mean(self, r, last=None, bound=None) -> float:
        return _mean_or_const(r, bound, self._integral)

    @lru_cache(maxsize=None)
    def _integral(self, r, bound) -> float:
        total = 0.0
        for j, rho in enumerate(self.densities):
            total += rho * adaptive_midpoint(r, self.breaks[j], self.breaks[j + 1], bound=bound)
        return total

    def cell_probabilities(self, level: int) -> np.ndarray:
        """Exact source mass of each dyadic cell at the given level."""
        edges = np.linspace(0.0, 1.0, 2 ** (level + 1) + 1)
        out = np.zeros(len(edges) - 1)
        for j, rho in enumerate(self.densities):
            lo, hi = self.breaks[j], self.breaks[j + 1]
            olo = np.clip(edges[:-1], lo, hi)
            ohi = np.clip(edges[1:], lo, hi)
            out += rho * np.maximum(ohi - olo, 0.0)
        return out

    def quantized_entropy_rate(self, level: int) -> float:
        return _entropy_bits(self.cell_probabilities(level))


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

    def _in_support(self, x) -> bool:
        return x == self.atom_point or 0.0 <= x < 1.0

    def _cont_log_density(self, x: float) -> float:
        if self.continuous == "uniform":
            return 0.0
        return -x / (1.0 - x) - 2.0 * math.log1p(-x)

    def _cont_cdf(self, x: float) -> float:
        if self.continuous == "uniform":
            return x
        return -math.expm1(-x / (1.0 - x))

    def true_log_density(self, x, last=None) -> float:
        if x == self.atom_point:
            return math.log(self.atom_mass / self.eta_atom_mass)
        if not 0.0 <= x < 1.0:
            raise OutOfSupportError(f"value {x!r} outside the mixed support")
        if self.atom_mass == 1.0:
            return -math.inf
        return (
            math.log((1.0 - self.atom_mass) / (1.0 - self.eta_atom_mass))
            + self._cont_log_density(x)
        )

    def conditional_mean(self, r, last=None, bound=None) -> float:
        return _mean_or_const(r, bound, self._integral)

    @lru_cache(maxsize=None)
    def _integral(self, r, bound) -> float:
        total = self.atom_mass * float(r(self.atom_point))
        if self.atom_mass == 1.0:
            return total
        if self.continuous == "uniform":
            mean = adaptive_midpoint(r, 0.0, 1.0, bound=bound)
        else:
            weighted = lambda x: float(r(x)) * math.exp(self._cont_log_density(x))
            mean = adaptive_midpoint(weighted, 0.0, 1.0)
        return total + (1.0 - self.atom_mass) * mean

    def quantized_entropy_rate(self, level: int) -> float:
        m = self.atom_mass
        h = _entropy_bits((m, 1.0 - m))
        if m == 1.0:
            return h
        if self.continuous == "uniform":
            return h + (1.0 - m) * (level + 1)
        k = 2 ** (level + 1)
        edges = [j / k for j in range(k + 1)]
        cdf = [self._cont_cdf(e) for e in edges[:-1]] + [1.0]
        probs = [hi - lo for lo, hi in zip(cdf, cdf[1:])]
        return h + (1.0 - m) * _entropy_bits(tuple(probs))


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

    def mass(self, k: int) -> float:
        return (1.0 - self.ratio) * self.ratio ** (k - 1)

    def true_log_density(self, x, last=None) -> float:
        k = int(x)
        if k != x or k < 1:
            raise OutOfSupportError(f"value {x!r} is not a positive integer")
        return (
            math.log(1.0 - self.ratio)
            + (k - 1) * math.log(self.ratio)
            - math.log(example3_rule().mass(k))
        )

    def conditional_mean(self, r, last=None, bound=None) -> float:
        return _mean_or_const(r, bound, self._series)

    @lru_cache(maxsize=None)
    def _series(self, r, bound) -> float:
        # explicit terms until the tail is negligible, then one probe value
        # stands in for the remainder (exact for eventually constant r)
        total = 0.0
        k = 0
        while k < _GEOM_TERMS:
            k += 1
            total += self.mass(k) * float(r(k))
            if self.ratio**k < 1e-18:
                break
        total += self.ratio**k * float(r(k + 1))
        return total

    def quantized_entropy_rate(self, level: int) -> float:
        probs = [self.mass(k) for k in range(1, level + 2)]
        probs.append(self.ratio ** (level + 1))
        return _entropy_bits(probs)


@dataclass(frozen=True)
class BinaryMarkovEmbedded(_Source):
    """Two-state Markov chain embedded in [0,1): state s emits uniformly on
    [s/2, (s+1)/2). Stationary start; symmetric stay probability."""

    kind = "binary-markov-embedded"
    stay: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.stay < 1.0:
            raise ValueError("stay probability must be in (0, 1)")

    def reference(self) -> ReferenceMeasure:
        return ReferenceMeasure(pieces=((0.0, 1.0, 1.0),))

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

    def true_log_density(self, x, last=None) -> float:
        s = self._state(x)
        if last is None:
            return 0.0  # stationary: density 2 * (1/2) = 1
        p = self.stay if s == self._state(last) else 1.0 - self.stay
        return _LN2 + math.log(p)

    def conditional_mean(self, r, last=None, bound=None) -> float:
        const = getattr(r, "constant", None)
        if const is not None:
            return const
        if last is None:
            p1 = 0.5
        else:
            s = self._state(last)
            p1 = self.stay if s == 1 else 1.0 - self.stay
        return (1.0 - p1) * self._half_mean(r, 0, bound) + p1 * self._half_mean(r, 1, bound)

    @lru_cache(maxsize=None)
    def _half_mean(self, r, side: int, bound) -> float:
        return 2.0 * adaptive_midpoint(r, side / 2.0, (side + 1) / 2.0, bound=bound)

    def quantized_entropy_rate(self, level: int) -> float:
        return _entropy_bits((self.stay, 1.0 - self.stay)) + level


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
