import pytest

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
