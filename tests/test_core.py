import pytest
from hypothesis import given, strategies as st

from fslattice.core import (
    Box,
    GeneratorSet,
    Point,
    Representation,
    ResourceLimitError,
    ValidationError,
    charge,
    int_array,
    parse_point,
    validate_representation,
    validate_sum,
)


def test_charge_refuses_only_above_the_cap():
    charge(16, "cone rays", 16)
    with pytest.raises(ResourceLimitError) as exc:
        charge(17, "cone rays", 16)
    assert str(exc.value) == "cone rays has 17 points, above the cap of 16"
    with pytest.raises(ResourceLimitError) as exc:
        charge(17, "gap slices", 16, "pairs", "have")
    assert str(exc.value) == "gap slices have 17 pairs, above the cap of 16"


class TestPoint:
    def test_scale(self):
        assert Point((1, 2)).scale(3) == Point((3, 6))

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValidationError):
            Point((1, -1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            Point((1,)).fits_within(Point((1, 2)))

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
    )
    def test_fits_within_is_the_componentwise_definition(self, a, b):
        p, q = Point(tuple(a)), Point(tuple(b))
        if len(a) != len(b):
            with pytest.raises(ValidationError) as got:
                p.fits_within(q)
            assert str(got.value) == f"dimension mismatch: {len(a)} vs {len(b)}"
        else:
            assert p.fits_within(q) is all(x <= y for x, y in zip(a, b))

    def test_parse(self):
        assert parse_point("9,18") == Point((9, 18))
        with pytest.raises(ValidationError):
            parse_point("9,x")

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1, True], "a point must be an array of integers, got [1, True]"),
            ([2, -1], "coordinates must be nonnegative integers, got -1"),
            ([1.0, 2], "a point must be an array of integers, got [1.0, 2]"),
            ([[1], 2], "a point must be an array of integers, got [[1], 2]"),
            ([], "point needs at least one coordinate"),
            ("12", "a point must be an array of integers, got '12'"),
            ({"x": 1}, "a point must be an array of integers, got {'x': 1}"),
            # the type fault is named before the sign fault, wherever it sits
            ([-1, 1.5], "a point must be an array of integers, got [-1, 1.5]"),
        ],
        ids=["bool", "negative", "float", "nested", "empty", "string", "object", "negative-then-float"],
    )
    def test_from_json_messages(self, data, message):
        with pytest.raises(ValidationError) as exc:
            Point.from_json(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "coords, message",
        [
            ((2, -1), "coordinates must be nonnegative integers, got -1"),
            ((1.0, 2), "coordinates must be nonnegative integers, got 1.0"),
            (([1], 2), "coordinates must be nonnegative integers, got [1]"),
            ((), "point needs at least one coordinate"),
        ],
        ids=["negative", "float", "nested", "empty"],
    )
    def test_constructor_messages(self, coords, message):
        with pytest.raises(ValidationError) as exc:
            Point(coords)
        assert str(exc.value) == message

    def test_constructor_takes_bools_and_from_json_does_not(self):
        assert Point((True, 0)).coords == (True, 0)
        with pytest.raises(ValidationError):
            Point.from_json([True, 0])

    @given(st.lists(st.integers(-2, 3) | st.booleans() | st.floats(0, 3), max_size=3) | st.tuples(st.integers(0, 3)))
    def test_from_json_is_the_checked_constructor(self, data):
        # the definition: int_array's exact-int check, then Point's own checks
        try:
            expected = Point(tuple(int_array(data, "a point")))
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                Point.from_json(data)
            assert str(got.value) == str(exc)
        else:
            got = Point.from_json(data)
            assert got == expected and type(got.coords) is tuple
            assert hash(got) == hash(expected) and str(got) == str(expected)


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

    @staticmethod
    def point_definition(r):
        """The check on Points, kept as the reference for the one on tuples."""
        for m in r.members:
            if m.dim != r.target.dim:
                raise ValidationError("member/target dimension mismatch")
        if len(set(r.members)) != len(r.members):
            return False
        total = tuple(sum(col) for col in zip(*(m.coords for m in r.members))) or (0,) * r.target.dim
        return total == r.target.coords

    @given(st.data())
    def test_matches_the_point_definition(self, data):
        dim = data.draw(st.integers(1, 4))
        coords = st.lists(st.integers(0, 3), min_size=dim, max_size=dim).map(tuple)
        members = data.draw(st.lists(coords, max_size=5))
        if members and data.draw(st.booleans()):
            members.append(members[0])  # a duplicate
        if data.draw(st.booleans()):
            other = data.draw(st.integers(1, 4).filter(lambda d: d != dim))
            members.insert(data.draw(st.integers(0, len(members))), (1,) * other)
        target = tuple(map(sum, zip(*members))) if members and data.draw(st.booleans()) else None
        if target is None or len(target) != dim:
            target = data.draw(coords)  # mostly a wrong sum
        r = Representation(tuple(map(Point, members)), Point(target))
        try:
            expected = self.point_definition(r)
        except ValidationError as exc:
            for check in (lambda: validate_representation(r), lambda: validate_sum(members, target)):
                with pytest.raises(ValidationError) as got:
                    check()
                assert str(got.value) == str(exc)
        else:
            assert validate_representation(r) is expected
            assert validate_sum(members, target) is expected


class TestRegions:
    def test_box_contains(self):
        box = Box(Point((1, 1)), Point((3, 3)))
        assert box.contains(Point((1, 3)))
        assert not box.contains(Point((0, 2)))
