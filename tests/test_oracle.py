import random
import tracemalloc
import operator
from itertools import chain, combinations, product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from fslattice import cone, dyadic, gaps, oracle
from fslattice.core import (
    Box,
    GeneratorSet,
    Point,
    ResourceLimitError,
    ValidationError,
    validate_representation,
    validate_sum,
)
from fslattice.oracle import (
    DEFAULT_CELL_CAP,
    ReachableSet,
    _repeat_mask,
    _search_membership,
    fs_enumerate,
    fs_membership,
    trm,
    trm_table,
)


def coord_sum(points, dim: int) -> tuple[int, ...]:
    """Componentwise sum of the points' coordinate tuples; all zeros for none."""
    return tuple(sum(col) for col in zip((0,) * dim, *(p.coords for p in points)))


def brute_member(X: GeneratorSet, target: Point) -> bool:
    """Literal 2^|X| subset enumeration, the ground truth for the ground truth."""
    elems = list(X)
    for r in range(len(elems) + 1):
        for combo in combinations(elems, r):
            if coord_sum(combo, target.dim) == target.coords:
                return True
    return False


def search(X: GeneratorSet, target: Point, node_cap: int = DEFAULT_CELL_CAP):
    """The exclude-first search alone, without the DP that fs_membership runs within the cap."""
    return _search_membership([g for g in X if g.fits_within(target)], target, node_cap)


class TestFsMembership:
    def test_unique_subset(self):
        X = GeneratorSet.of([Point((1, 1)), Point((2, 2))])
        rep = fs_membership(X, Point((3, 3)))
        assert rep is not None
        assert set(rep.members) == {Point((1, 1)), Point((2, 2))}
        assert validate_representation(rep)

    def test_power_column_miss(self):
        # (3,1) needs two first coordinates, but then the second sums to 2
        X = GeneratorSet.of([Point((1 << i, 1)) for i in range(6)])
        assert fs_membership(X, Point((3, 1))) is None
        assert not brute_member(X, Point((3, 1)))

    def test_deterministic_witness(self):
        X = GeneratorSet.of([Point((4, 2)), Point((1, 1)), Point((2, 2))])
        rep = fs_membership(X, Point((5, 3)))
        assert rep is not None
        assert rep.members == (Point((1, 1)), Point((4, 2)))

    def test_zero_target_is_empty_sum(self):
        X = GeneratorSet.of([Point((1, 1))])
        rep = fs_membership(X, Point((0, 0)))
        assert rep is not None and rep.members == ()

    def test_dimension_mismatch(self):
        X = GeneratorSet.of([Point((1, 1))])
        with pytest.raises(ValidationError):
            fs_membership(X, Point((1, 1, 1)))

    @settings(deadline=None)
    @given(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
            ).filter(lambda t: t != (0, 0)),
            min_size=1,
            max_size=9,
        ),
        st.tuples(
            st.integers(min_value=0, max_value=10),
            st.integers(min_value=0, max_value=10),
        ),
    )
    def test_agrees_with_literal_enumeration(self, coords, target):
        X = GeneratorSet.of(Point(t) for t in coords)
        t = Point(target)
        rep = fs_membership(X, t)
        assert (rep is not None) == brute_member(X, t)
        if rep is not None:
            assert validate_representation(rep)
            assert all(m in X for m in rep.members)


class TestFsEnumerate:
    def test_unit_axes(self):
        X = GeneratorSet.of([Point((1, 0)), Point((0, 1))])
        reach = fs_enumerate(X, Box(Point((0, 0)), Point((2, 2))))
        assert reach.points == frozenset(
            {Point((0, 0)), Point((1, 0)), Point((0, 1)), Point((1, 1))}
        )

    def test_dyadic_grid_window(self):
        X = GeneratorSet.of(
            Point((1 << i, 1 << j)) for i in range(4) for j in range(4)
        )
        reach = fs_enumerate(X, Box(Point((0, 0)), Point((15, 15))))
        assert Point((5, 3)) in reach.points
        assert Point((13, 2)) not in reach.points

    def test_empty_generator_set(self):
        reach = fs_enumerate(GeneratorSet(()), Box(Point((0, 0)), Point((3, 3))))
        assert reach.points == frozenset({Point((0, 0))})

    def test_witnesses_validate(self):
        X = GeneratorSet.of([Point((1, 2)), Point((2, 1)), Point((3, 3))])
        reach = fs_enumerate(X, Box(Point((0, 0)), Point((6, 6))))
        for p in reach:
            rep = reach.witness(p)
            assert rep.target == p
            assert validate_representation(rep)
            assert all(m in X for m in rep.members)
        walked = list(reach.witnesses())
        assert [c for c, _ in walked] == [p.coords for p in reach]
        for c, members in walked:
            assert validate_sum(members, c)
            assert all(Point(m) in X for m in members)

    def test_witness_in_three_dimensions(self):
        X = GeneratorSet.of([Point((1, 1, 0)), Point((0, 1, 1)), Point((1, 0, 1))])
        reach = fs_enumerate(X, Box(Point((0, 0, 0)), Point((2, 2, 2))))
        assert Point((2, 2, 2)) in reach.points
        for p in reach.points:
            assert validate_representation(reach.witness(p))

    def test_cell_cap_enforced(self):
        X = GeneratorSet.of([Point((1, 1))])
        with pytest.raises(ResourceLimitError, match="100"):
            fs_enumerate(X, Box(Point((0, 0)), Point((99, 99))), cell_cap=100)

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
            ).filter(lambda t: t != (0, 0)),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
        ).filter(lambda t: t != (0, 0)),
    )
    def test_monotone_in_generators(self, coords, extra):
        box = Box(Point((0, 0)), Point((12, 12)))
        small = fs_enumerate(GeneratorSet.of(Point(t) for t in coords), box)
        big = fs_enumerate(
            GeneratorSet.of([Point(t) for t in coords] + [Point(extra)]), box
        )
        assert small.points <= big.points


def _coords(dim: int, bound: int):
    return st.tuples(*[st.integers(min_value=0, max_value=bound)] * dim)


@st.composite
def sets_and_boxes(draw, max_dim: int = 4):
    """Generator sets in 1 to max_dim (at most 4) dimensions with a box of at most 81 cells."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    bound = {1: 12, 2: 6, 3: 3, 4: 2}[dim]
    coords = draw(st.lists(_coords(dim, bound).filter(any), max_size=7, unique=True))
    hi = draw(_coords(dim, bound))
    lo = tuple(draw(st.integers(min_value=0, max_value=h)) for h in hi)
    return GeneratorSet.of(Point(t) for t in coords), Box(Point(lo), Point(hi))


@st.composite
def padded_cases(draw):
    """A box in 1 to 4 dimensions and nonzero generators in a drawn order:
    some with a coordinate at hi (the widest pad), at most one past hi."""
    dim = draw(st.integers(min_value=1, max_value=4))
    bound = {1: 12, 2: 6, 3: 3, 4: 2}[dim]
    hi = draw(_coords(dim, bound))
    lo = tuple(draw(st.integers(min_value=0, max_value=h)) for h in hi)

    def with_axis(coords, axis, value):
        return coords[:axis] + (value,) + coords[axis + 1 :]

    axis = st.integers(min_value=0, max_value=dim - 1)
    inside = st.tuples(*(st.integers(min_value=0, max_value=h) for h in hi))
    at_hi = st.builds(lambda c, a: with_axis(c, a, hi[a]), inside, axis)
    gens = draw(st.lists((inside | at_hi).filter(any), max_size=7, unique=True))
    if draw(st.booleans()):
        step = st.integers(min_value=1, max_value=3)
        past = st.builds(lambda c, a, d: with_axis(c, a, hi[a] + d), _coords(dim, bound), axis, step)
        gens.insert(draw(st.integers(min_value=0, max_value=len(gens))), draw(past))
    return Box(Point(lo), Point(hi)), [Point(g) for g in gens]


def first_reach(hi: tuple[int, ...], gens: list) -> dict:
    """Cell -> the stage that first reached it, for the cells of [0, hi] that
    adding gens in order, each included or not, reaches; 0 for the origin."""
    first = {(0,) * len(hi): 0}
    for k, g in enumerate(gens, 1):
        for q in list(first):  # the cells of stage k - 1
            s = tuple(map(operator.add, q, g.coords))
            if s not in first and all(map(operator.le, s, hi)):
                first[s] = k
    return first


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 31, 32, 33, 255, 256, 257])
def test_first_reach_decodes_the_gray_planes(n):
    # g(n) = n ^ (n >> 1) has its high bits set at n = 8 and 32 (binary 1100, 110000);
    # from n = 256 on, the bulk decode needs two bytes per index
    rng = random.Random(n)
    if n < 64:
        gens = [Point((rng.randint(0, 3), rng.randint(0, 3))) for _ in range(n)]
        hi = (2 * n, 2 * n)
    else:  # one row, whose right end every stage moves: stage n reaches a cell
        gens = [Point((rng.randint(1, 3), 0)) for _ in range(n)]
        hi = (3 * n, 0)
    reach = ReachableSet(Box(Point((0, 0)), Point(hi)), gens)
    first = first_reach(hi, sorted(gens, reverse=True))  # the DP's order
    assert n < 64 or max(first.values()) == n
    assert len(reach._planes) == n.bit_length()
    assert {p.coords: reach._first_reach(reach._index(p)) for p in reach} == first
    decoded = chain.from_iterable(map(reach._first_reaches, reach._chunks()))
    assert dict(zip((p.coords for p in reach), decoded)) == first


def count_steps(monkeypatch) -> list:
    """The generators of every DP step that ReachableSet runs from now on, in order."""
    include = ReachableSet._include
    steps = []

    def counted(self, reach, g):
        steps.append(g)
        return include(self, reach, g)

    monkeypatch.setattr(ReachableSet, "_include", counted)
    return steps


def narrow_first(gens) -> list:
    """The reach-only pass's order: ascending last coordinate, then the larger
    shift first, that is descending in the other coordinates, read from the
    last axis down (a padded axis's place value exceeds every shift below it)."""
    return sorted(gens, key=lambda g: (g.coords[-1], [-c for c in reversed(g.coords[:-1])]))


class TestMembershipSearch:
    @settings(deadline=None, max_examples=80)
    @given(sets_and_boxes())
    def test_witness_is_first_include_vector(self, case):
        X, box = case
        target = box.hi
        # include vectors in lexicographic order, generator 0 most significant:
        # the order in which the exclude-first search meets them
        first = next(
            (
                bits
                for bits in product((0, 1), repeat=len(X))
                if coord_sum([g for g, b in zip(X, bits) if b], target.dim) == target.coords
            ),
            None,
        )
        rep = fs_membership(X, target)
        expected = None if first is None else tuple(g for g, b in zip(X, first) if b)
        assert (None if rep is None else rep.members) == expected
        reach = fs_enumerate(X, Box(Point.zero(target.dim), target))
        assert (rep is not None) == (target in reach)

    def test_wide_fields(self):
        big = 1 << 70
        X = GeneratorSet.of(
            [Point((1, 1)), Point((3, 0)), Point((big - 1, 2)), Point((big, 1)), Point((2, big))]
        )
        rep = fs_membership(X, Point((big + 3, 3)))
        assert rep is not None
        assert rep.members == (Point((1, 1)), Point((3, 0)), Point((big - 1, 2)))
        for t in [(big + 2, 3), (big + 1, 2), (3, big + 1), (6, big), (5, big + 1), (big, big)]:
            rep = fs_membership(X, Point(t))
            assert (rep is not None) == brute_member(X, Point(t))
            assert rep is None or validate_representation(rep)

    @settings(deadline=None, max_examples=150)
    @given(sets_and_boxes(max_dim=3))
    def test_dp_agrees_with_search_and_literal_enumeration(self, case):
        X, box = case
        for target in (box.hi, box.lo):
            rep = fs_membership(X, target)
            ref = search(X, target)
            assert (rep is not None) == (ref is not None) == brute_member(X, target)
            if rep is not None:
                assert rep.members == ref.members
                assert rep.target == target and validate_representation(rep)

    def test_dyadic_corner_gets_a_valid_witness(self):
        # 121 generators and 4.2M cells: the search alone ran over a minute on a 2-vCPU host
        hi = Point((2047, 2047))
        rep = fs_membership(dyadic.dyadic_generators(hi), hi)
        assert rep is not None and rep.target == hi
        assert validate_representation(rep)
        assert all(m in dyadic.dyadic_generators(hi) for m in rep.members)

    def test_search_beyond_the_cap_is_node_bounded(self):
        X = GeneratorSet.of(Point((i, 1)) for i in range(1, 41))
        target = Point((300, 4))  # 1,505 cells; 4 of the generators sum to at most 154
        assert fs_membership(X, target) is None
        assert search(X, target) is None
        with pytest.raises(ResourceLimitError, match="1000 nodes"):
            fs_membership(X, target, cell_cap=1000)
        # beyond the cap, but within the node budget: the search answers
        rep = fs_membership(X, Point((79, 2)), cell_cap=100)
        assert rep is not None and rep.members == (Point((39, 1)), Point((40, 1)))

    def test_shortfall_builds_no_dp(self, monkeypatch):
        def no_dp(*args, **kwargs):
            raise AssertionError("the DP ran")

        monkeypatch.setattr(oracle, "ReachableSet", no_dp)
        rng = random.Random(0)
        X = GeneratorSet.of(Point((rng.randint(1, 150), rng.randint(1, 150))) for _ in range(60))
        assert sum(g.coords[1] for g in X) < 6000  # the y-axis falls short
        assert fs_membership(X, Point((4000, 6000))) is None
        assert fs_membership(GeneratorSet(()), Point((0, 1))) is None
        with pytest.raises(AssertionError, match="the DP ran"):
            fs_membership(X, Point((4000, 4000)))

    @settings(deadline=None, max_examples=100)
    @given(sets_and_boxes(max_dim=3), st.integers(min_value=0, max_value=2), st.integers(0, 30))
    def test_shortfall_verdict_agrees_with_search(self, case, axis, extra):
        X, box = case
        # raise one axis of the target to or past the generators' total there
        coords = list(box.hi.coords)
        axis %= len(coords)
        coords[axis] = sum(g.coords[axis] for g in X) + extra
        target = Point(tuple(coords))
        rep = fs_membership(X, target)
        ref = search(X, target)
        assert (None if rep is None else rep.members) == (None if ref is None else ref.members)

    def test_deep_search_has_no_recursion_limit(self):
        X = GeneratorSet.of(Point((i, 1)) for i in range(1, 1501))
        rep = fs_membership(X, Point((2999, 2)))
        assert rep is not None
        assert rep.members == (Point((1499, 1)), Point((1500, 1)))

    def test_deep_search_alone_has_no_recursion_limit(self):
        # the target box is within the cap, so fs_membership runs the DP; ask the search too
        X = GeneratorSet.of(Point((i, 1)) for i in range(1, 1501))
        rep = search(X, Point((2999, 2)))
        assert rep is not None
        assert rep.members == (Point((1499, 1)), Point((1500, 1)))


class TestReachableSet:
    @settings(deadline=None, max_examples=60)
    @given(sets_and_boxes())
    def test_agrees_with_membership_search(self, case):
        X, box = case
        reach = fs_enumerate(X, box)
        # one step past the box on every axis, so outside cells are asked too
        for p in map(Point, product(*(range(h + 2) for h in box.hi.coords))):
            expected = box.contains(p) and search(X, p) is not None
            assert (p in reach) == expected
        assert len(reach) == sum(1 for _ in reach)
        for p in reach:
            rep = reach.witness(p)
            assert rep.target == p
            assert validate_representation(rep)
            assert all(m in X for m in rep.members)

    @settings(deadline=None, max_examples=60)
    @given(sets_and_boxes(max_dim=3))
    def test_witness_is_the_stage_walk(self, case):
        X, box = case
        reach = fs_enumerate(X, box)
        # stage k: the sums of the last k canonical generators inside [0, hi]
        full = Box(Point.zero(box.dim), box.hi)
        n = len(X)
        stages = [fs_enumerate(GeneratorSet(X.elements[n - k :]), full) for k in range(n)]
        for p in reach:
            # walk from the first canonical generator, the last one added, taking
            # one exactly when the remainder is missing from the stage before it
            members, rest = [], p.coords
            for k in range(n - 1, -1, -1):
                g = X.elements[n - 1 - k]
                if Point(rest) not in stages[k]:
                    members.append(g)
                    rest = tuple(a - b for a, b in zip(rest, g.coords))
            assert not any(rest)
            assert reach.witness(p).members == tuple(members)

    def test_points_behave_as_a_read_only_set(self):
        X = GeneratorSet.of([Point((1, 0)), Point((0, 1)), Point((2, 2))])
        reach = fs_enumerate(X, Box(Point((1, 0)), Point((3, 3))))
        expected = frozenset(Point(t) for t in [(1, 0), (1, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
        assert reach.points is reach
        assert reach.points == expected and expected == reach.points
        assert len(reach.points) == 6
        assert sorted(reach.points) == sorted(expected)
        assert set(reach.points) == set(expected)
        assert reach.points <= expected and not reach.points < expected
        assert reach.points & {Point((1, 0)), Point((0, 1))} == frozenset({Point((1, 0))})
        assert Point((0, 1)) not in reach  # reachable, but left of the box
        assert Point((4, 4)) not in reach  # beyond the box
        assert Point((1, 0, 0)) not in reach  # wrong dimension
        assert (1, 0) not in reach and "x" not in reach  # not a Point
        with pytest.raises(ValidationError):
            reach.witness(Point((0, 1)))

    def test_empty_box_is_falsy(self):
        X = GeneratorSet.of([Point((2, 2)), Point((4, 4))])
        reach = fs_enumerate(X, Box(Point((1, 1)), Point((1, 3))))
        assert not reach.points
        assert len(reach) == 0 and list(reach) == []

    @pytest.mark.parametrize(
        "generators, hi, pinned",
        [
            (
                [(1, 2), (2, 1), (3, 3), (1, 1), (2, 2)],
                (6, 6),
                {
                    (3, 3): [(3, 3)],
                    (4, 4): [(1, 1), (3, 3)],
                    (5, 5): [(2, 2), (3, 3)],
                    (6, 6): [(1, 2), (2, 1), (3, 3)],
                    (3, 4): [(1, 2), (2, 2)],
                    (5, 4): [(2, 1), (3, 3)],
                },
            ),
            (
                [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (2, 1, 1)],
                (4, 4, 4),
                {
                    (2, 2, 2): [(0, 1, 1), (2, 1, 1)],
                    (3, 3, 3): [(0, 1, 1), (1, 1, 1), (2, 1, 1)],
                    (4, 3, 3): [(0, 1, 1), (1, 0, 1), (1, 1, 0), (2, 1, 1)],
                    (3, 2, 2): [(1, 1, 1), (2, 1, 1)],
                    (2, 1, 1): [(2, 1, 1)],
                },
            ),
        ],
    )
    def test_pinned_witnesses(self, generators, hi, pinned):
        # each pin is the first include vector in lexicographic order, by brute force
        X = GeneratorSet.of(Point(t) for t in generators)
        reach = fs_enumerate(X, Box(Point.zero(len(hi)), Point(hi)))
        for target, members in pinned.items():
            assert [m.coords for m in reach.witness(Point(target)).members] == members

    def test_membership_only_memory_is_bounded(self):
        # 4.2M cells, far below the cell cap: membership only must keep no per-generator copies
        hi = Point((2047, 2047))
        gens = dyadic.dyadic_generators(hi)
        tracemalloc.start()
        try:
            reach = fs_enumerate(gens, Box(Point((1, 1)), hi))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000
        # 2047 needs all eleven powers 1..1024, so the height is at least 11
        assert Point((2047, 11)) in reach
        assert Point((2047, 10)) not in reach

    def test_witness_memory_is_bounded(self, monkeypatch):
        # the first witness adds O(cells * log n) bits by one more pass of the
        # DP; later witnesses rerun no DP step
        hi = Point((2047, 2047))
        gens = dyadic.dyadic_generators(hi)
        steps = count_steps(monkeypatch)
        tracemalloc.start()
        try:
            reach = fs_enumerate(gens, Box(Point((1, 1)), hi))
            enumerated = list(steps)
            rep = reach.witness(Point((2047, 11)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000
        reach_pass, planes_pass = narrow_first(reach.generators), list(reach.generators)
        assert enumerated == reach_pass and len(enumerated) == len(reach.generators)
        assert steps == reach_pass + planes_pass and len(steps) == 2 * len(reach.generators)
        reach.witness(next(iter(reach)))
        next(reach.witnesses())
        assert steps == reach_pass + planes_pass
        # 2047 = 1 + 2 + ... + 1024, each power once with second coordinate 1
        assert [m.coords for m in rep.members] == [(1 << i, 1) for i in range(11)]

    def test_witnesses_memory_follows_the_points(self):
        # 683 points in a 2048 x 2048 box: a decode of every padded cell's
        # first-reach index would take at least a byte per cell, 8 MB here
        gens = GeneratorSet.of(Point((1 << i, 3 << i)) for i in range(10))
        reach = fs_enumerate(gens, Box(Point((0, 0)), Point((2047, 2047))))
        reach._planes  # built before the measurement
        tracemalloc.start()
        try:
            walked = list(reach.witnesses())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(walked) == len(reach) == 683
        assert peak < 1_000_000

    def test_reachable_check_runs_one_dp_pass(self, monkeypatch):
        # the reach pass builds the planes its one witness walks: n steps, not 2n
        rng = random.Random(3)
        X = GeneratorSet.of(Point((rng.randint(1, 9), rng.randint(1, 9))) for _ in range(24))
        target = Point((40, 40))
        steps = count_steps(monkeypatch)
        rep = fs_membership(X, target)
        assert rep is not None and validate_representation(rep)
        assert rep.members == search(X, target).members
        fitting = [g for g in X if g.fits_within(target)]
        assert steps == fitting[::-1]
        del steps[:]
        assert fs_membership(X, Point((5, 10))) is None  # unreachable: one pass too
        assert steps == [g for g in X if g.fits_within(Point((5, 10)))][::-1]

    def test_set_without_witnesses_builds_no_planes(self, monkeypatch):
        lo, hi = Point((3, 2)), Point((40, 24))
        steps = count_steps(monkeypatch)
        reach = fs_enumerate(dyadic.dyadic_generators(hi), Box(lo, hi))
        assert Point((40, 24)) in reach and Point((7, 2)) not in reach
        assert len(reach) == len(list(reach)) == len(reach.points) > 0
        assert reach.row(5) and not reach.row(30)
        assert steps == narrow_first(reach.generators)
        assert "_planes" not in vars(reach)

    @settings(deadline=None, max_examples=100)
    @given(padded_cases().filter(lambda case: any(case[0].lo.coords)))
    def test_either_pass_gives_the_same_reach(self, case):
        # the reach-only pass adds the generators narrow first, the planes pass
        # in the witness order
        box, gens = case
        assert ReachableSet(box, gens)._bytes == ReachableSet(box, gens, planes=True)._bytes

    def test_one_row_sets_keep_the_planes_step_sequence(self, monkeypatch):
        # five_squares_check's (r^2, 1) and trm_table's (a, 1) share their last
        # coordinate, so the reach pass's larger-shift-first ties give the
        # planes pass's reverse canonical order, step for step
        steps = count_steps(monkeypatch)
        gaps.five_squares_check(1, 2000)
        squares = [Point((r * r, 1)) for r in range(1, 45)]
        assert steps == squares[::-1]
        del steps[:]
        ReachableSet(Box(Point((0, 0)), Point((2000, 5))), squares, planes=True)
        assert steps == squares[::-1]
        del steps[:]
        values = [1, 2, 3, 5, 8, 13, 21]
        assert trm_table(values, 20)[19] == 5  # 1 + 2 + 3 + 5 + 8
        lifted = [Point((a, 1)) for a in values if a <= 20]
        assert steps == lifted[::-1]
        del steps[:]
        ReachableSet(Box(Point((0, 0)), Point((20, 5))), lifted, planes=True)
        assert steps == lifted[::-1]

    def test_reach_pass_shifts_fewer_bits(self, monkeypatch):
        # the sum over the DP steps of the bits each one shifts, on the
        # benchmark's 1023^2 dyadic grid: narrow first against the witness order
        include = ReachableSet._include
        bits = []

        def counted(self, reach, g):
            bits.append(reach.bit_length())
            return include(self, reach, g)

        monkeypatch.setattr(ReachableSet, "_include", counted)
        hi = Point((1023, 1023))
        fs_enumerate(dyadic.dyadic_generators(hi), Box(Point((1, 1)), hi))
        assert len(bits) == 100 and sum(bits) == 68_157_113
        del bits[:]
        ReachableSet(Box(Point((1, 1)), hi), dyadic.dyadic_generators(hi), planes=True)
        assert len(bits) == 100 and sum(bits) == 145_069_679

    @settings(deadline=None, max_examples=60)
    @given(sets_and_boxes(), st.randoms(use_true_random=False))
    def test_witnesses_come_in_canonical_order(self, case, rng):
        X, box = case
        gens = list(X)
        rng.shuffle(gens)
        reach = ReachableSet(box, gens)
        for c, members in reach.witnesses():
            assert members == sorted(members)
            assert members == [m.coords for m in reach.witness(Point(c)).members]

    @settings(deadline=None, max_examples=60)
    @given(sets_and_boxes())
    def test_witnesses_are_the_single_walks(self, case):
        X, box = case
        reach = fs_enumerate(X, box)
        pairs = list(reach.witnesses())
        assert [Point(c) for c, _ in pairs] == list(reach)
        own = {id(g.coords) for g in reach.generators}
        for c, members in pairs:
            assert members == [m.coords for m in reach.witness(Point(c)).members]
            # the generators' own tuples, not copies
            assert all(id(m) in own for m in members)

    @settings(deadline=None, max_examples=100)
    @given(padded_cases().filter(lambda case: any(case[0].lo.coords)), st.randoms(use_true_random=False))
    def test_witnesses_are_witness_for_every_point(self, case, rng):
        # lo != 0: a walk may pass through reachable cells below lo, which the
        # set does not hold and the walk decodes one at a time
        box, gens = case
        rng.shuffle(gens)
        reach = ReachableSet(box, gens)
        walked = dict(reach.witnesses())
        assert list(walked) == [p.coords for p in reach]
        for p in reach:
            assert walked[p.coords] == [m.coords for m in reach.witness(p).members]

    @settings(deadline=None, max_examples=80)
    @given(padded_cases(), st.randoms(use_true_random=False))
    def test_set_is_the_same_for_any_generator_order(self, case, rng):
        box, gens = case
        shuffled = rng.sample(gens, len(gens))
        one, other = ReachableSet(box, gens), ReachableSet(box, shuffled)
        assert list(one) == list(other) and len(one) == len(other)
        if box.dim <= 2:
            hy = box.hi.coords[1] if box.dim == 2 else 0
            assert [one.row(y) for y in range(hy + 1)] == [other.row(y) for y in range(hy + 1)]
        assert list(one.witnesses()) == list(other.witnesses())

    @settings(deadline=None, max_examples=100)
    @given(sets_and_boxes().filter(lambda case: any(case[1].lo.coords)))
    def test_every_witness_is_the_search_witness(self, case):
        X, box = case
        for c, members in fs_enumerate(X, box).witnesses():
            target = Point(c)
            rep, ref = fs_membership(X, target), search(X, target)
            assert members == sorted(members)  # canonical order
            assert members == [m.coords for m in rep.members] == [m.coords for m in ref.members]

    def test_first_witness_decodes_one_chunk(self):
        # 4.2M points: a decode of all of them before the first yield peaked at 65 MB,
        # one chunk of 16 KiB of reach bytes at about 1.3 MB
        hi = Point((2047, 2047))
        reach = ReachableSet(Box(Point((1, 1)), hi), dyadic.dyadic_generators(hi), planes=True)
        tracemalloc.start()
        try:
            first = next(reach.witnesses())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == ((1, 1), [(1, 1)])
        assert peak < 8_000_000

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_chunks_split_long_runs_without_changing_the_walk(self, monkeypatch, chunk):
        # a dense 1D set has no padding, so its reach bytes are one run
        line = ReachableSet(Box(Point((5,)), Point((3000,))), [Point((v,)) for v in range(1, 80)])
        plane = ReachableSet(
            Box(Point((3, 2)), Point((90, 70))), [Point((x, y)) for x in range(1, 9) for y in range(5)]
        )
        whole = [list(reach.witnesses()) for reach in (line, plane)]
        assert len(line._bytes) > 64 and next(line._chunks()) == [slice(0, len(line._bytes))]
        monkeypatch.setattr(oracle, "_DECODE_BYTES", chunk)
        assert [list(reach.witnesses()) for reach in (line, plane)] == whole
        assert all(run.stop - run.start <= chunk for runs in line._chunks() for run in runs)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(any), max_size=8, unique=True),
        st.tuples(st.integers(0, 40), st.integers(0, 12)),
        st.tuples(st.integers(0, 40), st.integers(0, 12)),
    )
    def test_row_is_the_cells_of_one_y(self, coords, a, b):
        # widths up to 41 bits, so rows start and end inside bytes
        lo, hi = Point(tuple(map(min, a, b))), Point(tuple(map(max, a, b)))
        reach = fs_enumerate(GeneratorSet.of(Point(t) for t in coords), Box(lo, hi))
        hx, hy = hi.coords
        for y in range(hy + 1):
            expected = sum(1 << x for x in range(hx + 1) if Point((x, y)) in reach)
            assert reach.row(y) == expected
        assert reach.row(-1) == reach.row(hy + 1) == 0

    @settings(deadline=None, max_examples=150)
    @given(padded_cases())
    def test_padded_layout_is_the_brute_force_set(self, case):
        box, gens = case
        reach = ReachableSet(box, gens)
        order = sorted(gens, reverse=True)  # the DP's order
        first = first_reach(box.hi.coords, order)
        expected = sorted((q for q in first if box.contains(Point(q))), key=lambda q: q[::-1])
        assert [p.coords for p in reach] == expected  # axis 0 fastest
        assert len(reach) == len(expected)
        wanted = set(expected)
        for p in map(Point, product(*(range(l, h + 1) for l, h in zip(box.lo.coords, box.hi.coords)))):
            assert (p in reach) == (p.coords in wanted)
        for q in expected:
            members, cell = [], q
            while k := first[cell]:
                members.append(order[k - 1].coords)
                cell = tuple(map(operator.sub, cell, order[k - 1].coords))
            assert [m.coords for m in reach.witness(Point(q)).members] == members
        cells = prod(h + 1 for h in box.hi.coords)
        assert len(reach._bytes) * 8 <= 2 ** (box.dim - 1) * cells + 8
        if box.dim == 2:
            hx, hy = box.hi.coords
            for y in range(-1, hy + 2):
                assert reach.row(y) == sum(1 << x for x in range(hx + 1) if (x, y) in wanted)

    @settings(deadline=None, max_examples=60)
    @given(
        st.sets(st.integers(min_value=1, max_value=30), max_size=8),
        st.integers(min_value=0, max_value=70),
    )
    def test_row_of_a_1d_set_is_its_bits(self, values, hi):
        line = GeneratorSet.of(Point((a,)) for a in values)
        reach = fs_enumerate(line, Box(Point((0,)), Point((hi,))))
        assert reach.row(0) == sum(1 << p.coords[0] for p in reach)
        assert reach.row(1) == reach.row(-1) == 0

    def test_row_needs_two_dimensions(self):
        reach = fs_enumerate(GeneratorSet.of([Point((1, 1, 1))]), Box(Point.zero(3), Point((2, 2, 2))))
        with pytest.raises(ValidationError):
            reach.row(0)

    def test_bit_levels(self):
        assert oracle.bit_levels(0b1101, 6, 7, 9) == bytes([9, 7, 9, 9, 7, 7])
        assert oracle.bit_levels(0b111, 2, 0, 255) == bytes([255, 255])  # bits past width dropped

    @pytest.mark.parametrize(
        "period, cells", [(1, 1), (1, 9), (3, 12), (5, 5), (7, 7 * 64), (64, 8000)]
    )
    def test_repeat_mask_is_the_division_formula(self, period, cells):
        assert _repeat_mask(period, cells) == ((1 << cells) - 1) // ((1 << period) - 1)


class TestTrm:
    def test_two_beats_one(self):
        assert trm([1, 2, 3], 3) == 2

    def test_three_term_optimum(self):
        assert trm(list(range(1, 11)), 6) == 3

    def test_unrepresentable_is_zero(self):
        assert trm([5, 7], 3) == 0

    def test_triangular_bound(self):
        # t distinct positive integers sum to at least t(t+1)/2
        table = trm_table(list(range(1, 101)), 200)
        for x in range(1, 201):
            t = table[x]
            assert t * (t + 1) // 2 <= x
            assert t * t <= 4 * x  # the 2*sqrt(x) form, squared to stay exact

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            trm_table([2, 2], 5)
        with pytest.raises(ValidationError):
            trm([1, 2], 0)
        with pytest.raises(ValidationError):
            trm_table([1, 2], -1)

    @pytest.mark.parametrize("values, x_max", [([1, 2, 3], 5), (list(range(1, 101)), 200), ([7], 3)])
    def test_cap_counts_the_lifted_box(self, values, x_max):
        # J counts the smallest values whose sum stays within x_max
        J = sum(1 for r in range(1, len(values) + 1) if sum(values[:r]) <= x_max)
        cells = (x_max + 1) * (J + 1)
        assert trm_table(values, x_max, cell_cap=cells) == trm_table(values, x_max)
        with pytest.raises(ResourceLimitError):
            trm_table(values, x_max, cell_cap=cells - 1)

    @settings(deadline=None, max_examples=80)
    @given(
        st.sets(st.integers(min_value=1, max_value=60), max_size=20),
        st.integers(min_value=0, max_value=300),
    )
    def test_matches_the_per_value_dp(self, values, x_max):
        values = sorted(values)
        # reference: a per-value counting DP, best[s] the most terms summing to s (-1: none)
        best = [-1] * (x_max + 1)
        best[0] = 0
        for a in values:
            if a > x_max:
                break
            for s in range(x_max, a - 1, -1):
                if best[s - a] >= 0 and best[s - a] + 1 > best[s]:
                    best[s] = best[s - a] + 1
        assert trm_table(values, x_max) == [max(b, 0) for b in best]

    @settings(deadline=None, max_examples=50)
    @given(st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=8))
    def test_matches_subset_enumeration(self, values):
        values = sorted(values)
        table = trm_table(values, 40)
        for x in range(1, 41):
            best = 0
            for r in range(1, len(values) + 1):
                if any(sum(c) == x for c in combinations(values, r)):
                    best = r
            assert table[x] == best


class TestUncoveredPointSearch:
    """Points outside FS(X), found by asking the oracle directly."""

    def test_power_columns_leave_gaps(self):
        X = GeneratorSet.of([Point((1 << i, 1)) for i in range(7)])
        # 2 = 1 + 1 is the only way to split 2 into two powers, and they repeat
        assert fs_membership(X, Point((2, 2))) is None

    def test_diagonal_only(self):
        X = GeneratorSet.of([Point((1, 1)), Point((2, 2))])
        assert fs_membership(X, Point((2, 2))) is not None
        assert fs_membership(X, Point((2, 3))) is None

    def test_complete_cone_set_has_none(self):
        spec = cone.ConeSpec((Point((1, 2)), Point((2, 1))))
        X = cone.build_thin_generators(spec, cone.default_depth(spec, Point((12, 12))))
        box = Box(Point((8, 8)), Point((12, 12)))
        elements = X.all_elements()
        assert all(fs_membership(elements, Point(p)) is not None for p in product(range(8, 13), repeat=2))
