import pytest
from hypothesis import given, strategies as st

from fslattice.core import (
    Box,
    GeneratorSet,
    Point,
    Representation,
    ValidationError,
    parse_point,
    validate_representation,
)


class TestPoint:
    def test_scale(self):
        assert Point((1, 2)).scale(3) == Point((3, 6))

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValidationError):
            Point((1, -1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            Point((1,)).fits_within(Point((1, 2)))

    def test_subtraction_requires_fit(self):
        with pytest.raises(ValidationError):
            Point((1, 2)) - Point((2, 1))

    def test_parse(self):
        assert parse_point("9,18") == Point((9, 18))
        with pytest.raises(ValidationError):
            parse_point("9,x")


class TestGeneratorSet:
    def test_canonical_order_and_dedup(self):
        gs = GeneratorSet.of([Point((2, 1)), Point((1, 2)), Point((2, 1))])
        assert gs.elements == (Point((1, 2)), Point((2, 1)))

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            GeneratorSet.of([Point((0, 0))])

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValidationError):
            GeneratorSet.of([Point((1,)), Point((1, 2))])

    def test_json_round_trip(self):
        gs = GeneratorSet.of([Point((1, 2)), Point((2, 1))])
        assert GeneratorSet.from_json(gs.to_json()) == gs

    @pytest.mark.parametrize(
        "coords, message",
        [
            # the zero vector comes before the point of another dimension
            ([(0, 0), (1, 2, 3)], "generator set may not contain the zero vector"),
            ([(1, 2, 3), (0, 0)], "generator set mixes dimensions"),
            ([(1, 2), (0, 0), (0, 0)], "generator set may not contain the zero vector"),
            # a duplicate after an unordered pair: the duplicate is named, not the order
            ([(2, 1), (1, 2), (2, 1)], "duplicate generator (2,1)"),
            ([(1, 2), (1, 2), (0, 0)], "duplicate generator (1,2)"),
            ([(2, 1), (1, 2)], "generators must be in canonical (lexicographic) order"),
            ([(1,), (3,), (2,)], "generators must be in canonical (lexicographic) order"),
        ],
        ids=[
            "zero-first",
            "mixed-first",
            "zero-twice",
            "duplicate-after-unordered",
            "duplicate-then-zero",
            "unordered-pair",
            "unordered-1d",
        ],
    )
    def test_first_fault_names_the_error(self, coords, message):
        with pytest.raises(ValidationError) as exc:
            GeneratorSet(tuple(Point(c) for c in coords))
        assert str(exc.value) == message

    @given(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=2).map(tuple), max_size=6))
    def test_errors_are_the_per_element_checks(self, coords):
        # the element-by-element checks the set made before it compared tuples
        expected, seen = None, set()
        for c in coords:
            if len(c) != len(coords[0]):
                expected = "generator set mixes dimensions"
            elif not any(c):
                expected = "generator set may not contain the zero vector"
            elif c in seen:
                expected = f"duplicate generator {Point(c)}"
            if expected:
                break
            seen.add(c)
        else:
            if coords != sorted(coords):
                expected = "generators must be in canonical (lexicographic) order"
        try:
            gs = GeneratorSet(tuple(Point(c) for c in coords))
        except ValidationError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            assert all(Point(c) in gs for c in coords)

    def test_membership_is_of_points(self):
        gs = GeneratorSet.of([Point((1, 2))])
        assert Point((1, 2)) in gs
        assert Point((2, 1)) not in gs and (1, 2) not in gs
        assert len(GeneratorSet(())) == 0


class TestValidateRepresentation:
    def test_componentwise_sum(self):
        r = Representation((Point((1, 2)), Point((2, 1))), Point((3, 3)))
        assert validate_representation(r)
        # each coordinate is summed on its own
        assert not validate_representation(Representation(r.members, Point((3, 4))))
        assert not validate_representation(Representation(r.members, Point((4, 3))))

    def test_duplicate_members_rejected(self):
        r = Representation((Point((1, 2)), Point((1, 2))), Point((2, 4)))
        assert not validate_representation(r)

    def test_empty_sum_is_origin(self):
        assert validate_representation(Representation((), Point((0, 0))))
        assert not validate_representation(Representation((), Point((1, 0))))

    def test_dimension_mismatch_raises(self):
        r = Representation((Point((1,)),), Point((1, 0)))
        with pytest.raises(ValidationError):
            validate_representation(r)


class TestRegions:
    def test_box_contains(self):
        box = Box(Point((1, 1)), Point((3, 3)))
        assert box.contains(Point((1, 3)))
        assert not box.contains(Point((0, 2)))

    def test_box_lex_scan(self):
        box = Box(Point((0, 0)), Point((1, 1)))
        assert list(box.points_lex()) == [
            Point((0, 0)),
            Point((0, 1)),
            Point((1, 0)),
            Point((1, 1)),
        ]
