import math
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from fslattice import gaps, oracle
from fslattice.core import (
    Box,
    DensityError,
    DomainError,
    GeneratorSet,
    Point,
    ResourceLimitError,
    ValidationError,
    validate_representation,
)
from fslattice.oracle import fs_enumerate


def oracle_reaches(points, A, B):
    hi = Point((max(p.coords[0] for p in points), max(p.coords[1] for p in points)))
    gens = GeneratorSet.of(Point((a, b)) for a in A for b in B)
    reach = fs_enumerate(gens, Box(Point((0, 0)), hi))
    return all(p in reach.points for p in points)


class TestPopularSum:
    """The most popular pair sum, as build_gap's stages pick it with no bounds."""

    def test_interval(self):
        x, pairs = gaps._best_sum_below(list(range(1, 13)), 0, None)
        assert x == 13
        assert pairs == [(1, 12), (2, 11), (3, 10), (4, 9), (5, 8), (6, 7)]

    def test_sidon_set_ties_break_low(self):
        x, pairs = gaps._best_sum_below([1, 2, 4, 8], 0, None)
        assert x == 3
        assert pairs == [(1, 2)]

    def test_single_pair(self):
        assert gaps._best_sum_below([1, 2], 0, None) == (3, [(1, 2)])


class TestBuildGap:
    def test_one_dimensional(self):
        g = gaps.build_gap(list(range(1, 13)), [1, 2], [3])
        assert g.differences == (Point((13, 3)),)
        assert sorted(p.coords for p in g.points()) == [(13, 3), (26, 6), (39, 9)]
        assert g.proper
        assert all(validate_representation(rep) for _, rep in g.elements)
        assert oracle_reaches(g.points(), list(range(1, 13)), [1, 2])

    def test_two_dimensional(self):
        A = list(range(1, 61))
        g = gaps.build_gap(A, [1, 2], [3, 2])
        assert len(set(g.points())) == 6
        assert g.proper
        assert g.separated
        assert all(validate_representation(rep) for _, rep in g.elements)
        assert oracle_reaches(g.points(), A, [1, 2])

    def test_stage_pairs_come_from_disjoint_slices(self):
        A = list(range(1, 61))
        g = gaps.build_gap(A, [1, 2], [3, 2])
        slices = gaps.slice_interleaved(A, 2)
        for cert in g.certificates:
            pool = set(slices[cert.stage - 1])
            assert all(a in pool and b in pool for a, b in cert.pairs)

    def test_single_cell(self):
        g = gaps.build_gap([1, 2, 3], [1, 2], [1])
        assert len(g.points()) == 1
        assert g.proper

    def test_density_error_on_sparse_set(self):
        with pytest.raises(DensityError) as exc:
            gaps.build_gap([1, 2, 4, 8, 16, 32], [1, 2], [5])
        assert exc.value.required == 5
        assert exc.value.achieved < 5

    def test_popularity_exceeds_double(self):
        g = gaps.build_gap(list(range(1, 41)), [1, 2], [3, 2])
        for cert, L in zip(g.certificates, g.lengths):
            assert cert.multiplicity >= L
            assert cert.x > 2 * cert.multiplicity


class TestCellCap:
    """Each charge refuses one below its size, before the work it counts."""

    def test_gap_charges_pairs_then_elements(self, monkeypatch):
        def refuse(values):
            raise AssertionError("tabulated pair sums")

        monkeypatch.setattr(gaps, "_pair_sums", refuse)
        # two slices of 5 and 4: 10 + 6 pairs
        with pytest.raises(ResourceLimitError, match="^gap slices have 16 pairs, above the cap of 15$"):
            gaps.build_gap(list(range(1, 10)), [1, 2], [1, 2], cell_cap=15)
        # two slices of 2: 2 pairs, then 5 * 5 GAP elements
        with pytest.raises(ResourceLimitError, match="^gap has 25 points, above the cap of 24$"):
            gaps.build_gap([1, 2, 3, 4], [1, 2], [5, 5], cell_cap=24)
        with pytest.raises(ValidationError):  # the input is checked first: A is not ascending
            gaps.build_gap([3, 2, 1], [1, 2], [1], cell_cap=1)

    def test_gap_charges_member_points_before_building_them(self, monkeypatch):
        # two slices of 8: 28 + 28 pairs, then 2 * 4 elements holding 8 * (3 + 5) member points
        A, B, L = list(range(1, 17)), [1, 2], [2, 4]
        g = gaps.build_gap(A, B, L)
        assert sum(len(rep.members) for _, rep in g.elements) == 64
        assert gaps.build_gap(A, B, L, cell_cap=64) == g

        def refuse(*args):
            raise AssertionError("built an element")

        monkeypatch.setattr(gaps, "Representation", refuse)
        with pytest.raises(ResourceLimitError, match="^gap elements have 64 member points, above the cap of 63$"):
            gaps.build_gap(A, B, L, cell_cap=63)

    def test_rectangle_charges_its_generators_then_its_dp_before_the_columns(self, monkeypatch):
        # A = B = 1..600, T = 3, H = 30: the rectangle [31, 59] x [1, 30] fits 59 * 30 pairs of
        # A x B, and its DP has 60 * 31 cells; the trm tables before them need at most 660
        A = list(range(1, 601))
        report = gaps.dense_rectangle(A, A, 3, 30)
        assert (report.interval, report.height, report.measured) == ((31, 59), 30, 870)

        def refuse(*args):
            raise AssertionError("ran the uncharged work")

        with monkeypatch.context() as m:
            m.setattr(GeneratorSet, "of", refuse)
            with pytest.raises(ResourceLimitError, match="^rectangle has 1770 generators, above the cap of 1769$"):
                gaps.dense_rectangle(A, A, 3, 30, cell_cap=1769)
        monkeypatch.setattr(gaps, "_sumset_levels", refuse)
        with pytest.raises(ResourceLimitError, match="^enumeration domain has 1860 cells, above the cap of 1859$"):
            gaps.dense_rectangle(A, A, 3, 30, cell_cap=1859)

    def test_rectangle_charges_its_ledger_walk_before_the_first_level(self, monkeypatch):
        # A = B = 1..40, T = 40, H = 30: height 400 and the largest trm(x) is 10, so the walk
        # needs 10 * 401 * 40 additions, above the DP's 60 * 401 cells
        A = list(range(1, 41))
        assert gaps.dense_rectangle(A, A, 40, 30, cell_cap=160400) == gaps.dense_rectangle(A, A, 40, 30)

        def refuse(*args):
            raise AssertionError("walked a level")

        monkeypatch.setattr(gaps, "_sumset_levels", refuse)
        with pytest.raises(ResourceLimitError, match="^rectangle ledger needs 160400 additions, above the cap of 160399$"):
            gaps.dense_rectangle(A, A, 40, 30, cell_cap=160399)

    def test_rectangle_enumerates_only_the_pairs_that_fit(self, monkeypatch):
        A = list(range(1, 601))
        handed = []

        def recording(X, box, cell_cap):
            if box.dim == 2:
                handed.append((X, box))
            return fs_enumerate(X, box, cell_cap)

        monkeypatch.setattr(gaps, "fs_enumerate", recording)
        report = gaps.dense_rectangle(A, A, 3, 30)
        [(X, box)] = handed
        b, height = report.interval[1], report.height
        assert box.hi == Point((b, height))
        assert X.coord_set == {(x, y) for x in range(1, b + 1) for y in range(1, height + 1)}
        everything = GeneratorSet.of(Point((x, y)) for x in A for y in A)
        assert report.measured == len(fs_enumerate(everything, box).points)

    def test_gap_admits_its_size(self):
        A, B, L = list(range(1, 61)), [1, 2], [3, 2]
        assert gaps.build_gap(A, B, L, cell_cap=2 * 435) == gaps.build_gap(A, B, L)

    def test_five_squares_charges_its_dp(self, monkeypatch):
        assert gaps.five_squares_check(1, 16, cell_cap=102) == gaps.five_squares_check(1, 16)

        def refuse(*args):
            raise AssertionError("ran the DP")

        monkeypatch.setattr(oracle, "ReachableSet", refuse)
        # the DP over [0, 16] x [0, 5]
        with pytest.raises(ResourceLimitError, match="^enumeration domain has 102 cells, above the cap of 101"):
            gaps.five_squares_check(1, 16, cell_cap=101)

    def test_ap_fold_is_charged_as_it_runs(self):
        # FS([900]) has no full class: each of the 250 d's folds top = 875 bits, 28 words
        assert not gaps.find_ap_in_fs([900], 1000, cell_cap=250 * 28).found
        with pytest.raises(ResourceLimitError, match="^AP search needs over 6999 word operations, the cap$"):
            gaps.find_ap_in_fs([900], 1000, cell_cap=250 * 28 - 1)


class TestFindAp:
    def test_interval_gives_difference_one(self):
        result = gaps.find_ap_in_fs(list(range(1, 21)), 40)
        assert result.found and result.difference == 1

    def test_even_set_gives_difference_two(self):
        result = gaps.find_ap_in_fs(list(range(2, 42, 2)), 40)
        assert result.found and result.difference == 2
        assert all(x % 2 == 0 for x in result.elements)

    def test_powers_of_two_are_suffix_complete(self):
        result = gaps.find_ap_in_fs([1, 2, 4, 8, 16, 32], 40)
        assert result.found and result.difference == 1

    def test_failure_is_a_result(self):
        result = gaps.find_ap_in_fs([5], 16)
        assert not result.found
        assert result.reason

    def test_small_horizon_rejected(self):
        with pytest.raises(ValidationError):
            gaps.find_ap_in_fs([1, 2], 4)

    def test_window_above_cap_refused(self):
        # [0, 40] has 41 cells: a cap of 41 admits it, a cap of 40 refuses it
        assert gaps.find_ap_in_fs([1, 2, 4, 8, 16, 32], 40, cell_cap=41).found
        with pytest.raises(ResourceLimitError):
            gaps.find_ap_in_fs([1, 2, 4, 8, 16, 32], 40, cell_cap=40)

    @settings(deadline=None, max_examples=150)
    @given(
        st.sets(st.integers(min_value=1, max_value=120), min_size=1, max_size=12),
        st.integers(min_value=8, max_value=600),
    )
    def test_fold_is_the_residue_scan(self, values, H):
        A1 = sorted(values)
        sums = {0}
        for a in A1:
            sums |= {s + a for s in sums}
        # every class c mod d, smallest d first, then smallest c, member by member
        top = H - H // 8
        expected = None
        for d in range(1, H // 4 + 1):
            for c in range(1, d + 1):
                if all(x in sums for x in range(c, top + 1, d)):
                    expected = (d, c)
                    break
            if expected:
                break
        result = gaps.find_ap_in_fs(A1, H)
        assert result.found == (expected is not None)
        if expected is None:
            assert (result.difference, result.start, result.elements, result.density) == (0, 0, (), 0.0)
            return
        d, c = expected
        assert (result.difference, result.start) == (d, c)
        assert result.elements == tuple(x for x in range(c, H + 1, d) if x in sums)
        assert result.density == len(range(c, H + 1, d)) / H


class TestSumsetIterate:
    def test_progression_is_tight(self):
        out = gaps.sumset_iterate([1, 2], 3)
        assert out == [3, 4, 5, 6]
        assert len(out) == 3 * 2 - 2

    def test_general_set(self):
        assert gaps.sumset_iterate([1, 2, 4], 2) == [2, 3, 4, 5, 6, 8]

    def test_singleton(self):
        assert gaps.sumset_iterate([5], 4) == [20]

    @settings(deadline=None)
    @given(
        st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=5),
    )
    def test_matches_brute_force(self, values, Q):
        B_T = sorted(values)
        out = gaps.sumset_iterate(B_T, Q)
        brute = sorted({sum(c) for c in combinations_with_replacement(B_T, Q)})
        assert out == brute
        assert len(out) >= Q * len(B_T) - (Q - 1)

    def test_cost_follows_the_count_of_sums_not_their_range(self):
        assert gaps.sumset_iterate([1, 10**12], 3) == [3, 10**12 + 2, 2 * 10**12 + 1, 3 * 10**12]

    @settings(deadline=None)
    @given(
        st.sets(st.integers(min_value=1, max_value=40), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=300),
    )
    def test_levels_are_the_sums_up_to_top(self, values, top):
        B_T = sorted(values)
        levels = gaps._sumset_levels(B_T, top)
        for q in range(1, 7):
            assert next(levels) == {s for c in combinations_with_replacement(B_T, q) if (s := sum(c)) <= top}


class TestDenseRectangle:
    def test_ledger_walks_the_levels_once(self, monkeypatch):
        walks = []

        def counting(B_T, top):
            walks.append((list(B_T), top))
            return levels(B_T, top)

        def refuse(*args):
            raise AssertionError("called sumset_iterate")

        levels = gaps._sumset_levels
        monkeypatch.setattr(gaps, "_sumset_levels", counting)
        monkeypatch.setattr(gaps, "sumset_iterate", refuse)
        A = list(range(1, 41))
        report = gaps.dense_rectangle(A, A, 40, 30)
        assert walks == [(A, report.height)]
        for _, q_x, usable in report.column_terms:  # q_x picks from 1..40 sum to each of q_x..40 q_x
            assert usable == min(40 * q_x, report.height) - q_x + 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.integers(min_value=1, max_value=40), min_size=1, max_size=15),
        st.integers(min_value=8, max_value=60),
    )
    def test_found_class_starts_at_a_reachable_member(self, values, H):
        # so the rectangle's Q, the largest trm over the class in [1, H], is at least 1
        A1 = sorted(values)
        ap = gaps.find_ap_in_fs(A1, H)
        if ap.found:
            assert oracle.trm_table(A1, H)[ap.start] >= 1

    def test_measured_beats_ledger(self):
        report = gaps.dense_rectangle(list(range(1, 41)), [1, 2, 3], T=3, H=30)
        assert report.measured >= report.ledger_bound
        assert report.trm_floor_ok
        assert report.Q >= 1

    def test_degenerate_b(self):
        report = gaps.dense_rectangle(list(range(1, 41)), [1], T=1, H=30)
        assert report.measured >= 1
        assert all(usable <= 1 for _, _, usable in report.column_terms)

    def test_full_density_b(self):
        report = gaps.dense_rectangle(list(range(1, 41)), [1, 2, 3], T=3, H=30)
        assert report.b_density == 1.0
        assert report.density_ratio > 0

    def test_b_above_t_rejected(self):
        with pytest.raises(ValidationError):
            gaps.dense_rectangle(list(range(1, 41)), [5, 6], T=3, H=30)


class TestFiveSquares:
    def test_classic_staircase(self):
        assert gaps.five_squares_check(55, 55) == []

    def test_small_failure(self):
        assert gaps.five_squares_check(30, 30) == [30]

    def test_threshold_window(self):
        assert gaps.five_squares_check(1024, 1200) == []

    def test_invalid_range(self):
        with pytest.raises(ValidationError):
            gaps.five_squares_check(10, 5)

    def test_matches_combinations(self):
        squares = [r * r for r in range(1, 21)]  # every square <= 400
        sums = {sum(c) for c in combinations(squares, 5)}
        assert gaps.five_squares_check(1, 400) == [n for n in range(1, 401) if n not in sums]

    def test_failures_below_threshold(self):
        failures = gaps.five_squares_check(1, 1023)
        assert len(failures) == 124
        assert max(failures) == 245

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3000), st.integers(0, 300))
    def test_matches_recursive_search(self, lo, span):
        hi = min(lo + span, 3000)

        def min_sum(t):  # the t smallest positive squares
            return t * (t + 1) * (2 * t + 1) // 6

        def found(n, t, max_root):
            """t distinct roots below max_root whose squares sum to n, largest first."""
            if t == 0:
                return n == 0
            if n < min_sum(t):
                return False
            for r in range(min(max_root - 1, math.isqrt(n - min_sum(t - 1))), t - 1, -1):
                if n - r * r > (t - 1) * (r - 1) ** 2:
                    break
                if found(n - r * r, t - 1, r):
                    return True
            return False

        expected = [n for n in range(lo, hi + 1) if not found(n, 5, math.isqrt(n) + 1)]
        assert gaps.five_squares_check(lo, hi) == expected
