"""Refining partition families over interval, countable, and mixed supports.

A family is a finite sequence of partitions of one support; level i+1 refines
level i. Cells are half-open intervals, single points, or countable tails, and
every level lists its cells in a fixed order so that the children of a coarse
cell occupy a contiguous index range at the next level.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .errors import OutOfSupportError

__all__ = [
    "Cell",
    "Support",
    "PartitionFamily",
    "dyadic_family",
    "countable_tail_family",
    "mixed_family",
]


@dataclass(frozen=True)
class Cell:
    """One partition cell: an atom point, a half-open interval, or a countable tail."""

    kind: str  # "atom" | "interval" | "tail"
    point: float | None = None
    lower: float | None = None
    upper: float | None = None
    tail_start: int | None = None

    def __post_init__(self):
        if self.kind == "interval":
            if not self.lower < self.upper:
                raise ValueError(f"interval cell needs lower < upper, got [{self.lower}, {self.upper})")
        elif self.kind == "tail":
            if self.tail_start is None or self.tail_start < 1:
                raise ValueError("tail cell needs tail_start >= 1")
        elif self.kind != "atom":
            raise ValueError(f"unknown cell kind {self.kind!r}")

    @staticmethod
    def atom(point) -> "Cell":
        return Cell("atom", point=float(point))

    @staticmethod
    def interval(lower, upper) -> "Cell":
        return Cell("interval", lower=float(lower), upper=float(upper))

    @staticmethod
    def tail(start: int) -> "Cell":
        return Cell("tail", tail_start=int(start))

    def contains(self, x) -> bool:
        if self.kind == "atom":
            return x == self.point
        if self.kind == "interval":
            return self.lower <= x < self.upper
        return _is_natural(x) and int(x) >= self.tail_start

    def __str__(self):
        if self.kind == "atom":
            return f"{{{self.point:g}}}"
        if self.kind == "interval":
            return f"[{self.lower:g},{self.upper:g})"
        return f"{{k>={self.tail_start}}}"


def _is_natural(x) -> bool:
    try:
        return float(x) == int(x) and int(x) >= 1
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class Support:
    """Support descriptor: explicit atoms, an optional interval, an optional countable part."""

    atoms: tuple[float, ...] = ()
    interval: tuple[float, float] | None = None
    countable: bool = False

    def contains(self, x) -> bool:
        if x in self.atoms:
            return True
        if self.interval is not None and self.interval[0] <= x < self.interval[1]:
            return True
        return self.countable and _is_natural(x)


class PartitionFamily:
    """A finite refining sequence of partitions with projection and parent lookup.

    Construction rejects a family unless the cells of each level partition
    every cell of the level above, the support counting as the level above
    level 0 (one cell per atom, the interval, a tail from 1 for a countable
    part): each cell nests in exactly one parent, and a parent's children
    cover it without overlap. Immutable after construction; concurrent reads
    are safe.
    """

    def __init__(self, support: Support, levels: list[tuple[Cell, ...]]):
        if not levels:
            raise ValueError("family needs at least one level")
        self.support = support
        self.levels = tuple(tuple(lv) for lv in levels)
        self._parents = self._build_parent_maps()
        self._finest_owner = _owner_finder(self.levels[-1])

    def _build_parent_maps(self):
        support = self.support
        coarse = [Cell.atom(a) for a in support.atoms]
        if support.interval is not None:
            coarse.append(Cell.interval(*support.interval))
        if support.countable:
            coarse.append(Cell.tail(1))
        parents = []
        for i, fine in enumerate(self.levels):
            owners = _owner_finder(coarse)
            mapping = []
            children = [[] for _ in coarse]
            for cell in fine:
                count, owner = owners(_representative(cell))
                if count != 1:
                    raise ValueError(f"level {i} cell {cell} has {count} parents")
                if not _is_subset(cell, coarse[owner]):
                    raise ValueError(f"level {i} cell {cell} is not nested in {coarse[owner]}")
                mapping.append(owner)
                children[owner].append(cell)
            for parent, kids in zip(coarse, children):
                if not _tiles(parent, kids):
                    raise ValueError(f"level {i} cells do not partition {parent}")
            parents.append(tuple(mapping))
            coarse = fine
        # level 0's map points into the support, which is no level
        parents[0] = None
        return tuple(parents)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def alphabet_size(self, level: int) -> int:
        return len(self.levels[level])

    def project(self, level: int, x) -> int:
        """Index of the unique level cell containing x."""
        return self.project_all(x)[level]

    def project_all(self, x) -> list[int]:
        """Cell index of x at every level, coarse to fine.

        One bisection finds the finest cell; the parent maps give the rest,
        since every level partitions the one above and level 0 the support.
        """
        count, idx = self._finest_owner(x)
        if count != 1:
            raise OutOfSupportError(f"value {x!r} outside the declared support")
        out = [idx]
        for parents in self._parents[:0:-1]:
            idx = parents[idx]
            out.append(idx)
        out.reverse()
        return out

    def parent(self, level: int, index: int) -> int:
        """Index at level-1 of the coarse cell containing the given fine cell."""
        if level == 0:
            raise ValueError("level 0 cells have no parent")
        return self._parents[level][index]


def _representative(cell: Cell):
    if cell.kind == "atom":
        return cell.point
    if cell.kind == "interval":
        return cell.lower + (cell.upper - cell.lower) / 2
    return cell.tail_start


def _is_subset(fine: Cell, coarse: Cell) -> bool:
    if coarse.kind == "interval":
        return (
            fine.kind == "interval"
            and coarse.lower <= fine.lower
            and fine.upper <= coarse.upper
        )
    if coarse.kind == "atom":
        return fine.kind == "atom" and fine.point == coarse.point
    if fine.kind == "tail":
        return fine.tail_start >= coarse.tail_start
    return fine.kind == "atom" and fine.point >= coarse.tail_start


def _owner_finder(cells):
    """Returns owners(x) -> (number of cells containing x, index of one of them).

    Counts by bisection on sorted edges, so a level of n cells answers in
    O(log n): x lies in #(lower <= x) - #(upper <= x) intervals and in
    #(start <= x) tails. The index is exact only when the count is 1.
    """
    atoms: dict = {}
    intervals, tails = [], []
    for j, c in enumerate(cells):
        if c.kind == "atom":
            atoms.setdefault(c.point, []).append(j)
        elif c.kind == "interval":
            intervals.append((c.lower, j))
        else:
            tails.append((c.tail_start, j))
    intervals.sort()
    tails.sort()
    lowers = [lo for lo, _ in intervals]
    uppers = sorted(c.upper for c in cells if c.kind == "interval")
    starts = [s for s, _ in tails]

    def owners(x):
        hits = atoms.get(x, ())
        below = bisect_right(lowers, x)
        in_intervals = below - bisect_right(uppers, x)
        in_tails = bisect_right(starts, x) if starts and _is_natural(x) else 0
        count = len(hits) + in_intervals + in_tails
        if hits:
            return count, hits[0]
        if in_intervals:
            # the last interval opening at or before x; should an earlier
            # one reach past it instead, the nesting check rejects the cell
            return count, intervals[below - 1][1]
        return count, tails[0][1] if tails else None

    return owners


def _tiles(parent: Cell, kids) -> bool:
    """Whether kids, each nested in parent, cover it without overlap."""
    if parent.kind == "atom":
        return len(kids) == 1
    if parent.kind == "interval":
        kids = sorted(kids, key=lambda c: c.lower)
        edges = [parent.lower] + [c.upper for c in kids]
        return edges[-1] == parent.upper and all(c.lower == e for c, e in zip(kids, edges))
    tails = [c.tail_start for c in kids if c.kind == "tail"]
    points = sorted(c.point for c in kids if c.kind == "atom")
    return len(tails) == 1 and points == list(range(parent.tail_start, tails[0]))


def _dyadic_levels(lower: float, upper: float, levels: int, shift: int = 0):
    out = []
    for i in range(levels):
        n = 2 ** (i + 1)
        edges = [lower + j * (upper - lower) / n for j in range(n)] + [upper]
        out.append(tuple(Cell.interval(edges[j], edges[j + 1]) for j in range(n)))
    return out


def dyadic_family(lower, upper, levels: int) -> PartitionFamily:
    """Equal half-open bins of [lower, upper): 2^(i+1) bins at level i."""
    lower, upper = float(lower), float(upper)
    if not lower < upper:
        raise ValueError(f"need lower < upper, got [{lower}, {upper})")
    if levels < 1:
        raise ValueError("need at least one level")
    return PartitionFamily(Support(interval=(lower, upper)), _dyadic_levels(lower, upper, levels))


def countable_tail_family(levels: int) -> PartitionFamily:
    """Partitions of {1, 2, ...}: level i isolates 1..i+1 and pools the rest in a tail."""
    if levels < 1:
        raise ValueError("need at least one level")
    lvls = []
    for i in range(levels):
        cells = [Cell.atom(k) for k in range(1, i + 2)]
        cells.append(Cell.tail(i + 2))
        lvls.append(tuple(cells))
    return PartitionFamily(Support(countable=True), lvls)


def mixed_family(atoms, lower, upper, levels: int) -> PartitionFamily:
    """Explicit atom cells plus a dyadic split of [lower, upper) at every level."""
    lower, upper = float(lower), float(upper)
    if not lower < upper:
        raise ValueError(f"need lower < upper, got [{lower}, {upper})")
    if levels < 1:
        raise ValueError("need at least one level")
    pts = tuple(sorted(float(a) for a in atoms))
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate atom points")
    for a in pts:
        if lower <= a < upper:
            raise ValueError(f"atom {a} lies inside [{lower}, {upper})")
    if not pts:
        return dyadic_family(lower, upper, levels)
    bins = _dyadic_levels(lower, upper, levels)
    lvls = [tuple(Cell.atom(a) for a in pts) + level_bins for level_bins in bins]
    return PartitionFamily(Support(atoms=pts, interval=(lower, upper)), lvls)
