"""Histogram mixture density estimator over a refining partition family.

Each level of the family carries its own sequential coder; the estimator
keeps, per level, the running log of (level weight x level density w.r.t.
the reference measure). The mixture predictive density falls out of
log-sum-exp over those accumulators, and the log-sum-exp form makes the
dominance bound (mixture >= weight * any level) hold exactly in floats.

Probability within a cell is spread proportionally to the reference
measure, so the pointwise density w.r.t. the reference is constant on each
cell: log density = log Q(cell) - log eta(cell), no residual term.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .coder import LevelCoder
from .errors import ConfigError
from .partition import PartitionFamily
from .reference import ReferenceMeasure

__all__ = ["MixtureEstimator", "default_weights"]

_WEIGHT_SUM_TOL = 1e-9


def default_weights(num_levels: int) -> np.ndarray:
    """Geometric level weights 2^-(i+1), renormalized to sum to one."""
    if num_levels < 1:
        raise ValueError("need at least one level")
    w = 2.0 ** -(np.arange(num_levels) + 1.0)
    return w / w.sum()


def _logsumexp(values) -> float:
    # small fixed-size inputs; plain python beats numpy dispatch here
    m = max(values)
    s = 0.0
    for v in values:
        s += math.exp(v - m)
    return m + math.log(s)


class MixtureEstimator:
    """Online density estimator: weighted mixture of per-level histogram coders.

    observe() consumes one value and returns its log predictive density
    (natural log, w.r.t. the reference measure); log_density_at() reports the
    same quantity without consuming. State grows with the data; use fresh()
    per stream: the family, reference, weights and cell masses, fixed at
    construction, and the cell-average cache are shared by every copy.
    """

    def __init__(
        self,
        family: PartitionFamily,
        reference: ReferenceMeasure,
        weights=None,
        max_order: int = 2,
    ):
        reference.validate_family(family)
        L = family.num_levels
        if weights is None:
            weights = default_weights(L)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (L,):
            raise ConfigError(f"expected {L} level weights, got shape {weights.shape}")
        if not np.all(weights > 0):
            raise ConfigError("level weights must be strictly positive")
        if abs(float(weights.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise ConfigError(f"level weights must sum to 1, got {weights.sum()!r}")
        self.family = family
        self.reference = reference
        self.max_order = max_order
        self._weights = weights.copy()
        self._log_w = [math.log(w) for w in weights]
        self._t = list(self._log_w)
        self._t0 = _logsumexp(self._t)
        self._coders = [LevelCoder(family.alphabet_size(i), max_order) for i in range(L)]
        self._mass = [
            np.array([reference.cell_mass(c) for c in level]) for level in family.levels
        ]
        self._log_mass = [[math.log(m) for m in mass] for mass in self._mass]
        self._avg_cache: dict = {}
        self._n = 0

    def fresh(self) -> "MixtureEstimator":
        """A copy that has seen no data: new coders and accumulators, the rest shared."""
        new = copy.copy(self)
        new._coders = [LevelCoder(c.alphabet_size, self.max_order) for c in self._coders]
        new._t = list(self._log_w)
        new._n = 0
        return new

    @property
    def n(self) -> int:
        return self._n

    @property
    def num_levels(self) -> int:
        return self.family.num_levels

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    @property
    def log_weights(self) -> np.ndarray:
        return np.array(self._log_w)

    @property
    def joint_log_density(self) -> float:
        """log of the mixture probability density of everything observed so far."""
        return _logsumexp(self._t) - self._t0

    @property
    def level_log_densities(self) -> np.ndarray:
        """Per-level cumulative log densities, weight factored out."""
        return np.array(self._t) - np.array(self._log_w)

    @property
    def weighted_level_log_densities(self) -> np.ndarray:
        """log(weight x level density) per level; joint_log_density is their log-sum-exp."""
        return np.array(self._t) - self._t0

    @property
    def posterior_weights(self) -> np.ndarray:
        """Current share of each level in the mixture, normalized; the prior
        weights exactly before any observation."""
        if self._n == 0:
            return self._weights.copy()
        t = np.array(self._t)
        w = np.exp(t - t.max())
        return w / w.sum()

    def log_density_at(self, x) -> float:
        """log predictive density of x given the data so far; does not consume x."""
        idxs = self.family.project_all(x)
        t = self._t
        moved = [
            a + (math.log(coder.conditional(j)) - log_mass[j])
            for a, coder, log_mass, j in zip(t, self._coders, self._log_mass, idxs)
        ]
        return _logsumexp(moved) - _logsumexp(t)

    def observe(self, x) -> float:
        """Consume x; returns its log predictive density, matching what
        log_density_at(x) reported just before the call."""
        idxs = self.family.project_all(x)
        t = self._t
        # update() charges the probability conditional() would report, so
        # this is log_density_at's sum with one coder pass per level
        new_t = [
            a + (math.log(coder.update(j)) - log_mass[j])
            for a, coder, log_mass, j in zip(t, self._coders, self._log_mass, idxs)
        ]
        self._t = new_t
        self._n += 1
        return _logsumexp(new_t) - _logsumexp(t)

    def observe_all(self, xs) -> np.ndarray:
        """Consume a sequence; returns the per-step log predictive densities."""
        return np.array([self.observe(x) for x in xs])

    def predict_functional(self, r, bound=None) -> float:
        """Posterior expectation of r at the next observation.

        Weights the mass-weighted mean of r over each cell by the per-level
        predictive cell probabilities and the posterior level weights. The
        means are cached per r and computed by quadrature on the finest level
        only: a coarser cell's mean is its children's, weighted by their
        reference mass, which is exact because the measure is additive and
        the children partition the parent. So the mean over any family cell
        of that cell's indicator is exact, however narrow the cell. A
        functional declaring itself constant (a `constant` attribute holding
        its value) is answered in closed form: the conditional law is a
        probability, so the expectation is the constant itself.
        """
        const = getattr(r, "constant", None)
        if const is not None:
            return const
        key = (r, bound)
        cache = self._avg_cache.get(key)
        if cache is None:
            family = self.family
            avg = np.array(
                [self.reference.average_over_cell(c, r, bound=bound) for c in family.levels[-1]]
            )
            cache = [avg]
            for i in range(family.num_levels - 1, 0, -1):
                parents = [family.parent(i, j) for j in range(len(avg))]
                coarse = self._mass[i - 1]
                avg = np.bincount(parents, self._mass[i] * avg, len(coarse)) / coarse
                cache.append(avg)
            cache.reverse()
            self._avg_cache[key] = cache
        w = self.posterior_weights
        out = 0.0
        for i, coder in enumerate(self._coders):
            out += w[i] * float(coder.predictive() @ cache[i])
        return out
