"""Bounded test functionals for prediction: callables with declared bounds.

A Functional wraps a plain callable with an optional bound and, when the
function is a declared constant, its exact value. Consumers (the estimator's
predict_functional, source conditional means) answer declared constants in
closed form, so constant predictions carry no quadrature noise. A cell
indicator carries its cell (indicated_cell), and ReferenceMeasure.integral
integrates it exactly, to a cell mass, on both sides. Instances are
picklable for worker-pool evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .partition import Cell, PartitionFamily

__all__ = ["Functional", "constant", "identity", "cell_indicator", "indicated_cell"]


@dataclass(frozen=True)
class Functional:
    """A bounded measurable function handle; constant is None unless declared."""

    fn: Callable
    bound: Optional[float] = None
    constant: Optional[float] = None
    name: str = ""

    def __call__(self, x) -> float:
        return self.fn(x)


def _value_of(x) -> float:
    return float(x)


def _const_at(c: float, x) -> float:
    return c


@dataclass(frozen=True)
class _Inside:
    # a value, unlike a partial: equal indicators, pickled ones included,
    # share cache entries keyed by the functional
    cell: Cell

    def __call__(self, x) -> float:
        return 1.0 if self.cell.contains(x) else 0.0


def constant(c: float) -> Functional:
    c = float(c)
    return Functional(partial(_const_at, c), bound=abs(c), constant=c, name=f"const:{c:g}")


def identity(bound: Optional[float] = None) -> Functional:
    return Functional(_value_of, bound=bound, name="identity")


def cell_indicator(family: PartitionFamily, index: int, level: int = -1) -> Functional:
    """Indicator of one cell, finest level by default."""
    cell = family.levels[level][index]
    return Functional(_Inside(cell), bound=1.0, name=f"cell:{index}")


def indicated_cell(r) -> Optional[Cell]:
    """The cell r is the indicator of, or None when r is no cell indicator."""
    fn = getattr(r, "fn", r)
    return fn.cell if isinstance(fn, _Inside) else None
