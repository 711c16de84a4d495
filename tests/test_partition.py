"""Partition-family geometry: refinement, projection, and edge exactness."""

import math
from fractions import Fraction

import numpy as np
import pytest

from histmix import (
    Cell,
    OutOfSupportError,
    PartitionFamily,
    Support,
    countable_tail_family,
    dyadic_family,
    mixed_family,
)


def test_cell_constructors_and_contains():
    a = Cell.atom(-1.0)
    assert a.contains(-1.0) and not a.contains(0.0)
    iv = Cell.interval(0.25, 0.5)
    assert iv.contains(0.25)
    assert not iv.contains(0.5)  # half-open on the right
    assert not iv.contains(0.2499999)
    t = Cell.tail(4)
    assert t.contains(4) and t.contains(100)
    assert not t.contains(3)


def test_cell_validation():
    with pytest.raises(ValueError):
        Cell.interval(0.5, 0.5)
    with pytest.raises(ValueError):
        Cell.interval(0.7, 0.2)
    with pytest.raises(ValueError):
        Cell.tail(0)


def test_dyadic_shape():
    fam = dyadic_family(0.0, 1.0, 5)
    assert fam.num_levels == 5
    for i in range(5):
        assert fam.alphabet_size(i) == 2 ** (i + 1)


def test_dyadic_edges_match_fraction_oracle():
    # bin edges must be the correctly rounded dyadic rationals
    fam = dyadic_family(0.0, 1.0, 6)
    for i, level in enumerate(fam.levels):
        n = 2 ** (i + 1)
        for j, cell in enumerate(level):
            assert cell.lower == float(Fraction(j, n))
            assert cell.upper == float(Fraction(j + 1, n))


def test_dyadic_shared_edges_bitwise_identical_across_levels():
    # refining must not shift an existing boundary, even for awkward bounds
    for lo, hi in [(0.0, 1.0), (-0.3, 1.7), (0.1, 0.9), (-2.5, -1.0)]:
        fam = dyadic_family(lo, hi, 7)
        for i in range(fam.num_levels - 1):
            coarse, fine = fam.levels[i], fam.levels[i + 1]
            for j, cell in enumerate(coarse):
                assert fine[2 * j].lower == cell.lower
                assert fine[2 * j + 1].upper == cell.upper
                assert fine[2 * j].upper == fine[2 * j + 1].lower


def test_projection_refines_consistently():
    rng = np.random.default_rng(11)
    fam = dyadic_family(-0.3, 1.7, 6)
    for x in rng.uniform(-0.3, 1.7, size=300):
        idxs = fam.project_all(x)
        for i, idx in enumerate(idxs):
            assert fam.levels[i][idx].contains(x)
        for i in range(1, len(idxs)):
            assert fam.parent(i, idxs[i]) == idxs[i - 1]


def test_projection_at_bin_edges():
    fam = dyadic_family(0.0, 1.0, 8)
    edges = [j / 2**8 for j in range(2**8)]
    for x in edges:
        for nudged in (x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)):
            if not 0.0 <= nudged < 1.0:
                continue
            idx = fam.project(7, nudged)
            assert fam.levels[7][idx].contains(nudged)


def test_out_of_support():
    fam = dyadic_family(0.0, 1.0, 3)
    for bad in (-0.1, 1.0, 1.5, math.inf):
        with pytest.raises(OutOfSupportError):
            fam.project(0, bad)


def test_countable_family_shape():
    fam = countable_tail_family(4)
    assert fam.num_levels == 4
    for i, level in enumerate(fam.levels):
        assert len(level) == i + 2
        singles, tail = level[:-1], level[-1]
        assert [c.point for c in singles] == list(range(1, i + 2))
        assert tail.kind == "tail" and tail.tail_start == i + 2


def test_countable_projection():
    fam = countable_tail_family(3)
    assert fam.project(2, 1) == 0
    assert fam.project(2, 3) == 2
    assert fam.project(2, 4) == 3  # tail starts at 4 on level 2
    assert fam.project(2, 1000) == 3
    assert fam.project_all(7) == [1, 2, 3]
    with pytest.raises(OutOfSupportError):
        fam.project(0, 0)
    with pytest.raises(OutOfSupportError):
        fam.project(0, 2.5)


def test_countable_parent_map():
    fam = countable_tail_family(5)
    for i in range(1, 5):
        for j in range(fam.alphabet_size(i)):
            parent = fam.parent(i, j)
            # singletons keep their index; the two finest cells share the coarse tail
            if j < fam.alphabet_size(i) - 2:
                assert parent == j
            else:
                assert parent == fam.alphabet_size(i - 1) - 1


def test_mixed_family_shape_and_projection():
    fam = mixed_family((-1.0,), 0.0, 1.0, 3)
    assert [len(lv) for lv in fam.levels] == [3, 5, 9]
    assert fam.levels[0][0] == Cell.atom(-1.0)
    assert fam.project(2, -1.0) == 0
    assert fam.project_all(-1.0) == [0, 0, 0]
    idx = fam.project(1, 0.6)
    assert fam.levels[1][idx].contains(0.6)
    with pytest.raises(OutOfSupportError):
        fam.project(0, -0.5)


def test_mixed_family_validation():
    with pytest.raises(ValueError):
        mixed_family((0.5,), 0.0, 1.0, 2)  # atom inside the interval
    with pytest.raises(ValueError):
        mixed_family((-1.0, -1.0), 0.0, 1.0, 2)


def test_mixed_without_atoms_degenerates_to_dyadic():
    a = mixed_family((), 0.0, 1.0, 3)
    b = dyadic_family(0.0, 1.0, 3)
    assert a.levels == b.levels


def test_level_zero_has_no_parent():
    fam = dyadic_family(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        fam.parent(0, 0)


def test_non_refining_family_rejected():
    support = Support(atoms=(), interval=(0.0, 1.0), countable=False)
    coarse = (Cell.interval(0.0, 0.5), Cell.interval(0.5, 1.0))
    fine = (Cell.interval(0.0, 0.7), Cell.interval(0.7, 1.0))  # 0.7 cell straddles
    with pytest.raises(ValueError):
        PartitionFamily(support, [coarse, fine])


def test_gapped_family_rejected():
    # [0.25, 0.5) has no level-1 cell; projecting 0.3 there would never end
    support = Support(interval=(0.0, 1.0))
    coarse = (Cell.interval(0.0, 0.5), Cell.interval(0.5, 1.0))
    fine = (Cell.interval(0.0, 0.25), Cell.interval(0.5, 1.0))
    with pytest.raises(ValueError):
        PartitionFamily(support, [coarse, fine])


def test_overlapping_family_rejected():
    support = Support(interval=(0.0, 1.0))
    coarse = (Cell.interval(0.0, 0.5), Cell.interval(0.5, 1.0))
    fine = (Cell.interval(0.0, 0.3), Cell.interval(0.2, 0.5), Cell.interval(0.5, 1.0))
    with pytest.raises(ValueError):
        PartitionFamily(support, [coarse, fine])
    # overlapping coarse cells: 0.75 lies in both
    coarse = (Cell.interval(0.0, 1.0), Cell.interval(0.5, 1.0))
    with pytest.raises(ValueError):
        PartitionFamily(support, [coarse, (Cell.interval(0.0, 0.5), Cell.interval(0.5, 1.0))])
    # a countable tail split into two tails that both hold 3, 4, ...
    with pytest.raises(ValueError):
        PartitionFamily(
            Support(countable=True),
            [(Cell.atom(1), Cell.tail(2)), (Cell.atom(1), Cell.tail(2), Cell.tail(3))],
        )


def test_countable_tail_children_must_cover():
    # the tail {2, 3, ...} refined to {2} and {4, 5, ...} loses 3
    with pytest.raises(ValueError):
        PartitionFamily(
            Support(countable=True),
            [(Cell.atom(1), Cell.tail(2)), (Cell.atom(1), Cell.atom(2), Cell.tail(4))],
        )


def test_level_zero_must_tile_the_support():
    # 0.45 lies in the support but in no level-0 cell
    with pytest.raises(ValueError):
        PartitionFamily(
            Support(interval=(0.0, 1.0)), [(Cell.interval(0.0, 0.4), Cell.interval(0.5, 1.0))]
        )
    # level 0 of a countable support must start at 1
    with pytest.raises(ValueError):
        PartitionFamily(Support(countable=True), [(Cell.atom(2), Cell.tail(3))])
    # a support atom left out of level 0
    with pytest.raises(ValueError):
        PartitionFamily(Support(atoms=(-1.0,), interval=(0.0, 1.0)), [(Cell.interval(0.0, 1.0),)])


def test_mixed_family_parent_map():
    fam = mixed_family((-2.0, -1.0), 0.0, 1.0, 4)
    for i in range(1, fam.num_levels):
        assert [fam.parent(i, j) for j in range(fam.alphabet_size(i))] == [0, 1] + [
            2 + j // 2 for j in range(fam.alphabet_size(i) - 2)
        ]


def test_support_contains():
    s = Support(atoms=(-1.0,), interval=(0.0, 1.0), countable=False)
    assert s.contains(-1.0) and s.contains(0.0) and s.contains(0.999)
    assert not s.contains(1.0) and not s.contains(-0.5)
    c = Support(atoms=(), interval=None, countable=True)
    assert c.contains(1) and c.contains(10**9)
    assert not c.contains(0) and not c.contains(1.5)
