"""A second, independent implementation of the histogram-mixture method.

Nothing here imports histmix. Each level runs add-1/2 (Krichevsky-Trofimov)
estimators for Markov orders 0..D over its cells, kept as joint log
probabilities and mixed with a uniform prior over orders; levels are combined
with weights 2^-(k+1) (renormalised) and cell masses taken straight from the
cell edges. Where the program uses sequential order posteriors, quadrature
and vectors of predictive probabilities, this file uses log-domain joint
probabilities, exact cell midpoints and running per-context sums.

It also computes the pointwise redundancy bound of the method:

    log2 (dmu^n / dnu^n)(x^n) <= -log2 w_k + log2(D+1)
                                 + log2 P_ML,d(c^n) - log2 P_KT,d(c^n)
                                 + within-cell log ratio of source to reference

for any level k and order d at which the source's cell process is an order-d
Markov chain (P_ML,d maximises over all such chains, so it dominates the
source's own probability of the cell sequence c^n).
"""

from __future__ import annotations

import math

LN2 = math.log(2.0)


def level_weights(num_levels: int) -> list[float]:
    """Prior level weights 2^-(k+1), renormalised to sum to one."""
    total = 1.0 - 2.0 ** -num_levels
    return [2.0 ** -(k + 1) / total for k in range(num_levels)]


def logsumexp(values) -> float:
    top = max(values)
    if top == -math.inf:
        return top
    return top + math.log(sum(math.exp(v - top) for v in values))


class DyadicCells:
    """Level k splits [0, 1) into 2^(k+1) equal cells."""

    def __init__(self, num_levels: int):
        self.num_levels = num_levels

    def size(self, k: int) -> int:
        return 2 ** (k + 1)

    def index(self, k: int, x: float) -> int:
        return int(x * 2 ** (k + 1))

    def edges(self, k: int, j: int) -> tuple[float, float]:
        m = 2 ** (k + 1)
        return j / m, (j + 1) / m

    def log_mass(self, k: int, j: int) -> float:
        lo, hi = self.edges(k, j)
        return math.log(hi - lo)

    def midpoint(self, k: int, j: int) -> float:
        lo, hi = self.edges(k, j)
        return 0.5 * (lo + hi)

    def finest_indicator(self, j: int) -> list[dict]:
        """Per level, the cell holding finest cell j and the indicator's average on it."""
        top = self.num_levels - 1
        return [{j >> (top - k): 2.0 ** (k - top)} for k in range(self.num_levels)]


class CountableCells:
    """Level k isolates 1..k+1 and pools {k+2, k+3, ...} in a tail cell;
    the reference gives k the mass 1/k - 1/(k+1), so a tail from s has 1/s."""

    def __init__(self, num_levels: int):
        self.num_levels = num_levels

    def size(self, k: int) -> int:
        return k + 2

    def index(self, k: int, x: int) -> int:
        return x - 1 if x <= k + 1 else k + 1

    def log_mass(self, k: int, j: int) -> float:
        if j <= k:
            point = j + 1
            return math.log(1.0 / point - 1.0 / (point + 1))
        return -math.log(k + 2)

    def finest_indicator(self, j: int) -> list[dict]:
        """As DyadicCells.finest_indicator, for the atom j + 1 (j < num_levels)."""
        point = j + 1
        mass = 1.0 / point - 1.0 / (point + 1)
        return [{j: 1.0} if j <= k else {k + 1: mass * (k + 2)} for k in range(self.num_levels)]


class _LevelState:
    __slots__ = ("m", "tables", "log_p", "log_density", "mid", "half_mid_sum")

    def __init__(self, m: int, orders: int, mid):
        self.m = m
        # per order: context -> [symbol -> count, visits, sum of midpoints seen]
        self.tables = [dict() for _ in range(orders)]
        self.mid = mid
        self.half_mid_sum = 0.5 * sum(mid) if mid else 0.0
        self.log_p = [0.0] * orders
        self.log_density = 0.0


class Recomputation:
    """Sequential replay of the method; optionally forecasts the identity."""

    def __init__(self, cells, max_order: int, forecast: bool = False):
        self.cells = cells
        self.max_order = max_order
        self.log_w = [math.log(w) for w in level_weights(cells.num_levels)]
        self.log_w_total = math.log(sum(level_weights(cells.num_levels)))
        self.levels = []
        for k in range(cells.num_levels):
            mid = None
            if forecast:
                mid = [cells.midpoint(k, j) for j in range(cells.size(k))]
            self.levels.append(_LevelState(cells.size(k), max_order + 1, mid))
        self.history: list[list[int]] = [[] for _ in range(cells.num_levels)]
        self.n = 0

    def _context(self, k: int, d: int) -> tuple:
        hist = self.history[k]
        return tuple(hist[max(0, len(hist) - d):]) if d else ()

    def _level_log_prob(self, lv: _LevelState) -> float:
        return logsumexp(lv.log_p) - math.log(self.max_order + 1)

    def joint_log_density(self) -> float:
        """Log of the mixture density of everything observed, w.r.t. the reference."""
        terms = [
            lw + self._level_log_prob(lv) + lv.log_density
            for lw, lv in zip(self.log_w, self.levels)
        ]
        return logsumexp(terms) - self.log_w_total

    def _posterior_mean(self, weighted_counts) -> float:
        """Mixture forecast of a functional; weighted_counts(k, lv, counts, mid_sum)
        gives the sum over level-k cells of (count + 1/2) times its cell average."""
        level_terms = []
        level_means = []
        for k, lv in enumerate(self.levels):
            level_lp = self._level_log_prob(lv)
            level_terms.append(self.log_w[k] + level_lp + lv.log_density)
            top = max(lv.log_p)
            order_w = [math.exp(v - top) for v in lv.log_p]
            mean = 0.0
            for d, w in enumerate(order_w):
                counts, visits, mid_sum = lv.tables[d].get(self._context(k, d), ({}, 0, 0.0))
                mean += w * weighted_counts(k, lv, counts, mid_sum) / (visits + 0.5 * lv.m)
            level_means.append(mean / sum(order_w))
        top = max(level_terms)
        post = [math.exp(t - top) for t in level_terms]
        return sum(p * m for p, m in zip(post, level_means)) / sum(post)

    def identity_forecast(self) -> float:
        """Posterior mean of the next value, cells replaced by their exact midpoints."""
        return self._posterior_mean(lambda k, lv, counts, mid_sum: mid_sum + lv.half_mid_sum)

    def cell_forecast(self, averages: list[dict]) -> float:
        """Posterior mean of a functional given, per level, its nonzero cell averages."""
        return self._posterior_mean(lambda k, lv, counts, mid_sum: sum(
            (counts.get(j, 0) + 0.5) * v for j, v in averages[k].items()))

    def observe(self, x) -> None:
        for k, lv in enumerate(self.levels):
            j = self.cells.index(k, x)
            half_m = 0.5 * lv.m
            for d in range(self.max_order + 1):
                entry = lv.tables[d].setdefault(self._context(k, d), [{}, 0, 0.0])
                counts = entry[0]
                c = counts.get(j, 0)
                lv.log_p[d] += math.log((c + 0.5) / (entry[1] + half_m))
                counts[j] = c + 1
                entry[1] += 1
                if lv.mid is not None:
                    entry[2] += lv.mid[j]
            lv.log_density -= self.cells.log_mass(k, j)
            self.history[k].append(j)
            if len(self.history[k]) > self.max_order:
                del self.history[k][0]
        self.n += 1


def ml_minus_kt_bits(symbols, m: int, order: int, checkpoints) -> dict[int, float]:
    """log2 P_ML,d(c^n) - log2 P_KT,d(c^n) at each checkpoint n.

    Contexts shorter than the order at the stream start are contexts of their
    own, as in the coder, so P_ML ranges over chains with a free start.
    """
    wanted = set(checkpoints)
    tables: dict = {}
    log_kt = 0.0
    hist: list = []
    out = {}
    for n, s in enumerate(symbols, 1):
        ctx = tuple(hist[max(0, len(hist) - order):]) if order else ()
        counts = tables.setdefault(ctx, {})
        total = sum(counts.values())
        c = counts.get(s, 0)
        log_kt += math.log((c + 0.5) / (total + 0.5 * m))
        counts[s] = c + 1
        hist.append(s)
        if len(hist) > order:
            del hist[0]
        if n in wanted:
            log_ml = 0.0
            for cnt in tables.values():
                tot = sum(cnt.values())
                log_ml += sum(v * math.log(v / tot) for v in cnt.values())
            out[n] = (log_ml - log_kt) / LN2
    return out


def redundancy_bound_bits(num_levels: int, max_order: int, level: int, ml_kt_bits: float,
                          within_cell_bits: float = 0.0) -> float:
    """Total (not per-symbol) bound on log2 (dmu^n / dnu^n) at one level and order."""
    w = level_weights(num_levels)
    return (
        -math.log2(w[level])
        + math.log2(sum(w))
        + math.log2(max_order + 1)
        + ml_kt_bits
        + within_cell_bits
    )
