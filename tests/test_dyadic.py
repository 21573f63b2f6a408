import dataclasses
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from fslattice import dyadic, selftest
from fslattice.core import (
    DEFAULT_CELL_CAP,
    Box,
    DomainError,
    GeneratorSet,
    Point,
    ResourceLimitError,
    ValidationError,
    validate_representation,
    validate_sum,
)
from fslattice.oracle import fs_enumerate, fs_membership


class TestInExceptional:
    def test_boundary(self):
        assert dyadic.in_exceptional(8, 3)  # 2^3 = 8 <= 8

    def test_interior_complement(self):
        assert not dyadic.in_exceptional(5, 3)

    def test_symmetry(self):
        assert dyadic.in_exceptional(3, 8)

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            dyadic.in_exceptional(0, 3)

    def test_positional_inputs(self):
        # (2^1000, 10): 2^10 <= 2^1000
        assert dyadic.in_exceptional(1 << 1000, 10)

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_matches_direct_comparison(self, a, b):
        assert dyadic.in_exceptional(a, b) == (2**b <= a or 2**a <= b)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            dyadic.in_exceptional(5, -1)


def test_shortest_power_sum_is_the_dyadic_expansion():
    # unbounded coin DP over powers of two, compared with popcount
    limit = 1 << 16
    INF = limit + 1
    dp = [INF] * limit
    dp[0] = 0
    for e in range(16):
        coin = 1 << e
        for s in range(coin, limit):
            if dp[s - coin] + 1 < dp[s]:
                dp[s] = dp[s - coin] + 1
    for a in range(1, limit):
        assert dp[a] == bin(a).count("1")


class TestSplitToTerms:
    def test_expansion_itself(self):
        assert dyadic.split_to_terms(5, 2) == [4, 1]

    def test_one_split(self):
        assert dyadic.split_to_terms(5, 3) == [2, 2, 1]

    def test_maximal_split(self):
        assert dyadic.split_to_terms(5, 5) == [1, 1, 1, 1, 1]

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            dyadic.split_to_terms(5, 1)
        with pytest.raises(DomainError):
            dyadic.split_to_terms(5, 6)

    @given(st.integers(min_value=1, max_value=2000), st.integers(min_value=0, max_value=40))
    def test_always_j_powers_summing_to_a(self, a, extra):
        n = bin(a).count("1")
        j = min(a, n + extra)
        terms = dyadic.split_to_terms(a, j)
        assert len(terms) == j
        assert sum(terms) == a
        assert all(t & (t - 1) == 0 for t in terms)
        assert terms == sorted(terms, reverse=True)


class TestDyadicRepresent:
    def test_balanced_point(self):
        rep = dyadic.dyadic_represent(5, 3)
        assert set(rep.members) == {Point((4, 2)), Point((1, 1))}
        assert validate_representation(rep)

    def test_single_generator(self):
        rep = dyadic.dyadic_represent(2, 2)
        assert rep.members == (Point((2, 2)),)

    def test_swapped_coordinates(self):
        rep = dyadic.dyadic_represent(3, 7)
        assert set(rep.members) == {Point((1, 4)), Point((1, 2)), Point((1, 1))}
        assert rep.target == Point((3, 7))
        assert validate_representation(rep)

    def test_exceptional_point_rejected(self):
        with pytest.raises(DomainError):
            dyadic.dyadic_represent(8, 1)

    def test_small_sweep_validates_and_oracle_agrees(self):
        hi = Point((24, 24))
        reach = fs_enumerate(dyadic.dyadic_generators(hi), Box(Point((1, 1)), hi))
        for a in range(1, 25):
            for b in range(1, 25):
                if dyadic.in_exceptional(a, b):
                    continue
                rep = dyadic.dyadic_represent(a, b)
                assert validate_representation(rep)
                assert Point((a, b)) in reach.points

    @settings(max_examples=200)
    @given(st.integers(1, 70) | st.integers(1, 2**64), st.integers(1, 70) | st.integers(1, 2**64))
    def test_pairs_are_the_representation(self, a, b):
        # dyadic_pairs is dyadic_represent's core: the same members, as int pairs
        assume(not dyadic.in_exceptional(a, b))
        pairs = dyadic.dyadic_pairs(a, b)
        rep = dyadic.dyadic_represent(a, b)
        assert rep.target == Point((a, b))
        assert [m.coords for m in rep.members] == pairs
        assert validate_sum(pairs, (a, b)) and validate_representation(rep)


class TestEmptySquare:
    def test_smallest_square(self):
        cert = dyadic.empty_square(1)
        assert cert.square.x0 == 12
        assert cert.all_unreachable()
        X = dyadic.dyadic_generators(Point((13, 2)))
        assert fs_membership(X, Point((13, 2))) is None

    def test_oracle_sweep(self):
        for D in (2, 3):
            cert = dyadic.empty_square(D)
            x0 = cert.square.x0
            points = [Point((x0 + j, 1 + k)) for j in range(1, D + 1) for k in range(1, D + 1)]
            assert cert.all_unreachable()
            hi = max(points)
            reach = fs_enumerate(
                dyadic.dyadic_generators(hi), Box(min(points), hi)
            )
            assert not (set(points) & set(reach.points))

    @pytest.mark.parametrize("D", range(1, 7))
    def test_reach_box_spans_the_interior_points(self, D):
        # the box is taken from the certificate, not from the D^2 points it spans
        cert = dyadic.empty_square(D)
        x0 = cert.square.x0
        points = [Point((x0 + j, 1 + k)) for j in range(1, D + 1) for k in range(1, D + 1)]
        box = dyadic.empty_square_reach(cert, DEFAULT_CELL_CAP).box
        assert (box.lo, box.hi) == (min(points), max(points))

    def test_d2_corner(self):
        assert dyadic.empty_square(2).square.x0 == 56

    def test_d6_corner_positional(self):
        cert = dyadic.empty_square(6)
        assert dyadic.bit_positions(cert.square.x0) == list(range(7, 14))
        assert cert.square.x0 == 16256
        assert cert.all_unreachable()

    def test_invalid_side(self):
        with pytest.raises(ValidationError):
            dyadic.empty_square(0)

    def test_one_entry_per_column(self):
        # x0 has D+1 one-bits above bit D, and j <= D never carries into them
        for D in range(1, 80):
            cert = dyadic.empty_square(D)
            assert cert.min_terms == tuple(D + 1 + j.bit_count() for j in range(1, D + 1))

    def test_gap_of_one_column_decides(self):
        cert = dyadic.empty_square(5)
        short = dataclasses.replace(cert, min_terms=cert.min_terms[:2] + (6,) + cert.min_terms[3:])
        # column j = 3 needing 6 = D + 1 terms meets row k = D, which allows 1 + D
        assert cert.all_unreachable() and not short.all_unreachable()

    def test_certificate_memory_is_linear(self):
        tracemalloc.start()
        try:
            cert = dyadic.empty_square(400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # one tuple per point of the square took about 22 MB
        assert cert.all_unreachable() and len(cert.min_terms) == 400


class TestCellCap:
    def test_empty_square_charges_its_points(self):
        assert dyadic.empty_square(4, cell_cap=16) == dyadic.empty_square(4)
        with pytest.raises(ResourceLimitError, match="^empty square has 16 points, above the cap of 15$"):
            dyadic.empty_square(4, cell_cap=15)
        with pytest.raises(ValidationError):  # checked before the charge
            dyadic.empty_square(-5, cell_cap=1)

    def test_dense_square_charges_before_it_scans(self, monkeypatch):
        assert dyadic.dense_square_count(4, cell_cap=16) == dyadic.dense_square_count(4)

        def refuse(n):
            raise AssertionError("scanned r")

        monkeypatch.setattr(dyadic, "bit_positions", refuse)
        with pytest.raises(ResourceLimitError, match="^dense square has 2\\^4 points, above the cap of 15$"):
            dyadic.dense_square_count(4, cell_cap=15)
        # 2^R is never formed
        with pytest.raises(ResourceLimitError, match="2\\^1000000000000 points"):
            dyadic.dense_square_count(10**12, cell_cap=2**40)


class TestDenseSquare:
    def test_r3_census(self):
        rep = dyadic.dense_square_count(3)
        assert rep.exact_count == 21
        assert rep.enumeration_count == 21
        assert rep.per_k == ((1, 4), (2, 9), (3, 6), (4, 2))

    def test_r1_census(self):
        assert dyadic.dense_square_count(1).exact_count == 3

    def test_r6_clears_chain(self):
        rep = dyadic.dense_square_count(6)
        assert rep.chain_threshold == 192
        assert rep.exact_count >= 192

    def test_invalid_scale(self):
        with pytest.raises(ValidationError):
            dyadic.dense_square_count(0)

    # contributions for k = 1..R+1, from the positional BitInt census
    PINNED = {
        1: [2, 1],
        2: [3, 4, 1],
        3: [4, 9, 6, 2],
        4: [5, 16, 18, 12, 2],
        5: [6, 25, 40, 40, 15, 3],
        6: [7, 36, 75, 100, 60, 24, 4],
        7: [8, 49, 126, 210, 175, 105, 35, 5],
        8: [9, 64, 196, 392, 420, 336, 168, 48, 5],
        9: [10, 81, 288, 672, 882, 882, 588, 252, 54, 6],
        10: [11, 100, 405, 1080, 1680, 2016, 1680, 960, 315, 70, 7],
        11: [12, 121, 550, 1650, 2970, 4158, 4158, 2970, 1320, 440, 88, 8],
        12: [13, 144, 726, 2420, 4950, 7920, 9240, 7920, 4455, 1980, 594, 108, 9],
    }

    @pytest.mark.parametrize("R", range(1, 13))
    def test_pinned_census(self, R):
        rep = dyadic.dense_square_count(R)
        assert rep.exact_count == rep.enumeration_count == sum(self.PINNED[R])
        assert rep.per_k == tuple(enumerate(self.PINNED[R], start=1))

    def test_valid_point_passes(self):
        # R = 3: n = 2^16 + 0b101, three firsts, seconds 2^1 each
        dyadic._validate_point(3, 5, [0, 2], 1, 6)

    @pytest.mark.parametrize(
        "r, lows, f, m, message",
        [
            (5, [0, 1], 1, 6, "first coordinates"),  # low bits sum to 3, not 5
            (2, [0, 0], 0, 3, "first coordinates"),  # 1 + 1 = 2, but not distinct
            (1 << 16, [16], 0, 2, "first coordinates"),  # r reaches the corner bit
            (5, [0, 2], 1, 8, "second coordinates"),  # 3 copies of 2 are 6
            (0, [], 4, 16, "escapes the dense square"),  # above the cap 2^3, still in E
            (0, [], 5, 32, "outside E"),  # above corner_bit = 16
        ],
        ids=["wrong-low-bits", "repeated-low-bit", "r-reaches-corner", "wrong-m",
             "m-above-cap", "m-above-corner-bit"],
    )
    def test_each_check_can_fire(self, r, lows, f, m, message):
        # the census checks each r once, at its largest f
        with pytest.raises(AssertionError, match=message):
            dyadic._validate_point(3, r, lows, f, m)

    def test_each_r_is_validated_once_at_its_largest_f(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dyadic, "_validate_point", lambda R, r, lows, f, m: calls.append((r, f)))
        rep = dyadic.dense_square_count(6)
        assert [r for r, _ in calls] == list(range(1 << 6))
        assert all(f == dyadic._max_doubling(6, r.bit_count() + 1) for r, f in calls)
        assert sum(f + 1 for _, f in calls) == rep.exact_count

    def test_planted_extra_doubling_fails(self, monkeypatch):
        # one f too many for k = 2 puts m = 2 * 2^R above the square's cap
        max_doubling = dyadic._max_doubling
        monkeypatch.setattr(
            dyadic, "_max_doubling", lambda R, k: max_doubling(R, k) + (k == 2)
        )
        with pytest.raises(AssertionError, match="point escapes the dense square"):
            dyadic.dense_square_count(3)
        with pytest.raises(AssertionError, match="point escapes the dense square"):
            selftest.run_criterion(6)

    def test_max_doubling_is_the_largest_f(self):
        for R in range(1, 65):
            for k in range(1, R + 2):
                f = dyadic._max_doubling(R, k)
                assert k << f <= 1 << R < k << (f + 1)


def per_cell_map(lo: Point, hi: Point, reach) -> list[bytes]:
    """The map by its definition, one cell at a time: E = {2^b <= a or 2^a <= b}."""
    (lx, ly), (hx, hy) = lo.coords, hi.coords
    return [
        bytes(
            dyadic.LEVEL_OUTSIDE_E if not (2**y <= x or 2**x <= y)
            else dyadic.LEVEL_E_REACHABLE if Point((x, y)) in reach
            else dyadic.LEVEL_E_UNREACHABLE
            for x in range(lx, hx + 1)
        )
        for y in range(hy, ly - 1, -1)
    ]


@st.composite
def map_cases(draw):
    """A 2D box in [1, 70]^2 and either the dyadic grid under it or a small random set."""
    hx, hy = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    lo = Point((draw(st.integers(1, hx)), draw(st.integers(1, hy))))
    hi = Point((hx, hy))
    if draw(st.booleans()):
        gens = dyadic.dyadic_generators(hi)
    else:
        coords = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(any), max_size=8))
        gens = GeneratorSet.of(Point(t) for t in coords)
    return lo, hi, gens


class TestExceptionalMap:
    def test_levels(self):
        hi = Point((8, 8))
        reach = fs_enumerate(dyadic.dyadic_generators(hi), Box(Point((1, 1)), hi))
        rows = dyadic.exceptional_map(Point((1, 1)), hi, reach)
        assert len(rows) == 8 and len(rows[0]) == 8
        # top row is y=8: (1,8) is in E (2^1 <= 8) and reachable as (1,8) itself
        assert rows[0][0] == dyadic.LEVEL_E_REACHABLE
        # (5,3) lies outside E
        assert rows[5][4] == dyadic.LEVEL_OUTSIDE_E
        # (7,1): in E, 7 needs three powers but the height caps terms at 1
        assert rows[7][6] == dyadic.LEVEL_E_UNREACHABLE

    @settings(deadline=None, max_examples=80)
    @given(map_cases())
    def test_rows_are_the_per_cell_definition(self, case):
        # rows with y >= 7 have 2^y beyond every box edge hx <= 70
        lo, hi, gens = case
        reach = fs_enumerate(gens, Box(lo, hi))
        assert dyadic.exceptional_map(lo, hi, reach) == per_cell_map(lo, hi, reach)

    @pytest.mark.parametrize("lo", [(0, 1), (1, 0)])
    def test_zero_coordinate_rejected(self, lo):
        box = Box(Point(lo), Point((4, 4)))
        reach = fs_enumerate(dyadic.dyadic_generators(box.hi), box)
        with pytest.raises(ValidationError, match="coordinates must be >= 1"):
            dyadic.exceptional_map(box.lo, box.hi, reach)
