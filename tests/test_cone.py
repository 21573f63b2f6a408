import operator
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from fslattice import cone
from fslattice.core import (
    DepthError,
    DomainError,
    GeneratorSet,
    Point,
    ResourceLimitError,
    ValidationError,
    validate_representation,
)
from fslattice.oracle import fs_membership

SPEC = cone.ConeSpec((Point((1, 2)), Point((2, 1))))


class TestConeSpec:
    def test_axis_parallel_rejected(self):
        with pytest.raises(ValidationError):
            cone.ConeSpec((Point((1, 0)), Point((2, 1))))

    def test_dependent_rejected(self):
        with pytest.raises(ValidationError):
            cone.ConeSpec((Point((1, 2)), Point((2, 4))))

    def test_json_round_trip(self):
        assert cone.ConeSpec.from_json(SPEC.to_json()) == SPEC


def _fraction_inverse(matrix):
    """(inverse, determinant) by Gauss-Jordan over Fractions; (None, 0) if singular."""
    k = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(k)] for r, row in enumerate(matrix)]
    det = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            return None, 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        p = a[col][col]
        det *= p
        a[col] = [x / p for x in a[col]]
        for r in range(k):
            if r != col:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[k:] for row in a], det


@st.composite
def square_matrices(draw):
    """k x k integer matrices, k <= 5; a quarter of them get a row that is a
    multiple of another, so singular ones are drawn often."""
    k = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-20, 20), min_size=k, max_size=k), min_size=k, max_size=k))
    if k > 1 and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.permutations(range(k)))[:2]
        rows[i] = [draw(st.integers(-3, 3)) * x for x in rows[j]]
    return rows


class TestAdjugateDet:
    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_matches_fraction_inverse(self, matrix):
        inv, det = _fraction_inverse(matrix)
        if det == 0:
            with pytest.raises(ValidationError, match="linearly dependent"):
                cone._adjugate_det(matrix)
            return
        adj, d = cone._adjugate_det(matrix)
        assert d == det
        assert adj == [[x * det for x in row] for row in inv]


class TestBarycentric:
    """coeff_numerators: p = sum (nums[l] / den) * v_l, exactly."""

    def test_generator_sum(self):
        assert SPEC.coeff_numerators(Point((3, 3))) == ((3, 3), 3)

    def test_interior_thirds(self):
        assert SPEC.coeff_numerators(Point((1, 1))) == ((1, 1), 3)

    def test_origin(self):
        nums, den = SPEC.coeff_numerators(Point((0, 0)))
        assert nums == (0, 0)
        assert den > 0

    def test_reconstruction_is_exact(self):
        for coords in [(4, 5), (7, 8), (9, 18), (16, 11)]:
            nums, den = SPEC.coeff_numerators(Point(coords))
            recon = tuple(
                sum(a * v.coords[i] for a, v in zip(nums, SPEC.v))
                for i in range(2)
            )
            assert recon == tuple(den * c for c in coords)


class TestFaceCoverIndex:
    """face_cover_index(nums, p, q): the face point nums / sum(nums), lam = p/q."""

    def test_tie_takes_smallest(self):
        assert cone.face_cover_index([1, 1], 1, 2) == 0

    def test_pigeonhole(self):
        assert cone.face_cover_index([1, 3], 1, 2) == 1

    def test_vertex(self):
        assert cone.face_cover_index([0, 0, 1], 1, 3) == 2

    def test_threshold_above_reciprocal_rejected(self):
        with pytest.raises(DomainError):
            cone.face_cover_index([1, 1], 2, 3)

    def test_zero_sum_rejected(self):
        with pytest.raises(ValidationError):
            cone.face_cover_index([0, 0], 1, 2)

    def test_negative_numerator_rejected(self):
        with pytest.raises(ValidationError):
            cone.face_cover_index([3, -1], 1, 2)


class TestSimplexCoverIndex:
    def test_shift_lands_in_unit_simplex(self):
        nums, den = [12, 11], 20  # 3/5 + 11/20 = 23/20, within (1, 3/2]
        l = cone.simplex_cover_index(nums, den, 1, 2)
        shifted = [2 * x for x in nums]  # over 2 * den
        shifted[l] -= den
        assert all(x >= 0 for x in shifted) and sum(shifted) <= 2 * den

    def test_inside_unit_simplex_rejected(self):
        with pytest.raises(DomainError):
            cone.simplex_cover_index([1, 1], 4, 1, 2)


def _face_cover_fraction(a, lam):
    """The covering step on Fraction coordinates summing to 1."""
    if lam > Fraction(1, len(a)):
        raise DomainError("lambda exceeds 1/k")
    return next(l for l, x in enumerate(a) if x >= lam)


def _simplex_cover_fraction(b, lam):
    total = sum(b, Fraction(0))
    if not 1 < total <= 1 + lam:
        raise DomainError("not between the simplex and its dilation")
    return _face_cover_fraction([x / total for x in b], lam)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError:
        return "DomainError"


@st.composite
def simplex_inputs(draw):
    """(nums, den, p, q); half the time den puts nums/den strictly between the
    unit simplex and its (1 + p/q) dilation, when such a den exists."""
    nums = draw(st.lists(st.integers(0, 60), min_size=2, max_size=4))
    p, q = draw(st.integers(1, 6)), draw(st.integers(1, 24))
    s = sum(nums)
    lo, hi = -(-q * s // (q + p)), s - 1
    if 1 <= lo <= hi and draw(st.booleans()):
        return nums, draw(st.integers(lo, hi)), p, q
    return nums, draw(st.integers(1, 200)), p, q


class TestCoverIndexMatchesFractions:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 60), min_size=2, max_size=4).filter(any),
        st.integers(1, 6),
        st.integers(1, 24),
    )
    def test_face(self, nums, p, q):
        a = [Fraction(x, sum(nums)) for x in nums]
        assert _outcome(cone.face_cover_index, nums, p, q) == _outcome(
            _face_cover_fraction, a, Fraction(p, q)
        )

    @settings(max_examples=300, deadline=None)
    @given(simplex_inputs())
    def test_simplex(self, inputs):
        nums, den, p, q = inputs
        b = [Fraction(x, den) for x in nums]
        assert _outcome(cone.simplex_cover_index, nums, den, p, q) == _outcome(
            _simplex_cover_fraction, b, Fraction(p, q)
        )


class TestBuildThinGenerators:
    def test_seed_matches_predicate_enumeration(self):
        X = cone.build_thin_generators(SPEC, 0)
        expected = set()
        for x in range(7):
            for y in range(7):
                p = Point((x, y))
                if p.is_zero:
                    continue
                nums, den = SPEC.coeff_numerators(p)
                if all(x >= 0 for x in nums) and sum(nums) <= 2 * den:
                    expected.add(p)
        assert set(X.seed) == expected
        for p in [Point((1, 1)), Point((2, 4)), Point((4, 2)), Point((3, 3)), Point((2, 2))]:
            assert p in X.seed
        assert Point((5, 1)) not in X.seed

    def test_ray_depth(self):
        X = cone.build_thin_generators(SPEC, 3)
        assert X.rays[0] == (Point((1, 2)), Point((2, 4)), Point((4, 8)), Point((8, 16)))

    def test_negative_depth_rejected(self):
        with pytest.raises(ValidationError):
            cone.build_thin_generators(SPEC, -1)

    def test_membership_agrees_with_all_elements(self):
        X = cone.build_thin_generators(SPEC, 5)
        elements = X.all_elements()
        assert all(p in X and p in elements for ray in X.rays for p in ray)
        for x in range(70):
            for y in range(70):
                p = Point((x, y))
                assert (p in X) == (p in elements)
        assert Point((1, 2, 0)) not in X


class TestCellCap:
    """Each charge refuses one below its size, before any point is scanned."""

    @pytest.fixture(autouse=True)
    def no_scan(self, monkeypatch):
        # every walk over cone points computes each point's numerators
        def refuse(spec, coords):
            raise AssertionError("scanned a point")

        monkeypatch.setattr(cone.ConeSpec, "numerators", refuse)

    def test_rays_then_seed_box(self):
        # depth 5: 2 rays of 6 elements, each of up to 6 bits; the seed box is [0, 4]^2
        with pytest.raises(ResourceLimitError, match="^cone rays has 72 points, above the cap of 71$"):
            cone.build_thin_generators(SPEC, 5, cell_cap=71)
        with pytest.raises(ResourceLimitError, match="^cone seed box has 25 points, above the cap of 24$"):
            cone.build_thin_generators(SPEC, 1, cell_cap=24)

    def test_negative_depth_is_checked_first(self):
        with pytest.raises(ValidationError):
            cone.build_thin_generators(SPEC, -1, cell_cap=1)

    def test_window_then_rays(self):
        refusal = "^cone verify window has 441 points, above the cap of 440$"
        with pytest.raises(ResourceLimitError, match=refusal):
            cone.check_window(SPEC, 20, cell_cap=440)
        # [0, 3]^2 has 16 points, but the corner's depth of 4 makes 2 * 5^2 ray bits
        with pytest.raises(ResourceLimitError, match="^cone rays has 50 points, above the cap of 49$"):
            cone.check_window(SPEC, 3, cell_cap=49)


def test_charges_admit_their_size():
    assert cone.build_thin_generators(SPEC, 5, cell_cap=72) == cone.build_thin_generators(SPEC, 5)
    assert cone.check_window(SPEC, 20, cell_cap=441) == cone.check_window(SPEC, 20)


class TestPeel:
    def test_ray_point(self):
        l, residual = cone.peel(SPEC, Point((9, 18)))
        assert l == 0
        assert residual == Point((8, 16))

    def test_base_simplex_rejected(self):
        with pytest.raises(DomainError):
            cone.peel(SPEC, Point((3, 3)))

    def test_layer_boundary(self):
        # (7,8) = 3*v1 + 2*v2, coefficient sum 5
        l, residual = cone.peel(SPEC, Point((7, 8)))
        nums, den = SPEC.coeff_numerators(residual)
        assert all(x >= 0 for x in nums)
        assert sum(nums) == 4 * den

    def test_wrong_layer_hint_rejected(self):
        with pytest.raises(DomainError):
            cone.peel(SPEC, Point((9, 18)), layer=0)

    @pytest.mark.parametrize(
        "step",
        [
            lambda v: cone.peel(SPEC, v),
            lambda v: cone.decompose(SPEC, cone.build_thin_generators(SPEC, 2), v),
        ],
        ids=["peel", "decompose"],
    )
    def test_outside_cone_message(self, step):
        with pytest.raises(DomainError) as info:
            step(Point((5, 1)))
        assert type(info.value) is cone.OutsideConeError
        assert str(info.value) == "(5,1) is not in the cone"


class TestDecompose:
    def _set(self, depth=6):
        return cone.build_thin_generators(SPEC, depth)

    def test_generator_itself(self):
        rep = cone.decompose(SPEC, self._set(), Point((1, 2)))
        assert rep.members == (Point((1, 2)),)

    def test_seed_element(self):
        rep = cone.decompose(SPEC, self._set(), Point((3, 3)))
        assert rep.members == (Point((3, 3)),)

    def test_ray_multiple_merges_carries(self):
        rep = cone.decompose(SPEC, self._set(), Point((9, 18)))
        assert rep.members == (Point((1, 2)), Point((8, 16)))
        assert validate_representation(rep)

    def test_oracle_agrees(self):
        X = self._set()
        for coords in [(9, 18), (20, 25), (33, 40), (17, 19)]:
            target = Point(coords)
            rep = cone.decompose(SPEC, X, target)
            assert validate_representation(rep)
            assert all(m in X for m in rep.members)
            assert fs_membership(X.all_elements(), target) is not None

    def test_outside_cone_rejected(self):
        with pytest.raises(DomainError):
            cone.decompose(SPEC, self._set(), Point((5, 1)))

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            cone.decompose(SPEC, self._set(), Point((0, 0)))

    def test_depth_error_carries_requirement(self):
        shallow = self._set(depth=0)
        with pytest.raises(DepthError) as exc:
            cone.decompose(SPEC, shallow, Point((9, 18)))
        assert exc.value.required_depth > 0

    def test_auto_extension(self):
        shallow = self._set(depth=0)
        target = Point((9, 18))
        X = self._set(depth=max(shallow.depth, cone.required_depth(SPEC, target)))
        rep = cone.decompose(SPEC, X, target)
        assert X.depth > 0
        assert validate_representation(rep)

    @pytest.mark.parametrize("coords", [(9, 18), (1000, 777), (2**40 + 5, 2**40), (10**20, 10**20)])
    def test_required_depth_is_exact(self, coords):
        target = Point(coords)
        nums, den = SPEC.coeff_numerators(target)
        required = max(x // den for x in nums).bit_length() - 1
        with pytest.raises(DepthError) as exc:
            cone.decompose(SPEC, self._set(depth=required - 1), target)
        assert exc.value.required_depth == required
        assert validate_representation(cone.decompose(SPEC, self._set(depth=required), target))
        assert cone.required_depth(SPEC, target) == required

    def test_required_depth_outside_cone_rejected(self):
        with pytest.raises(DomainError):
            cone.required_depth(SPEC, Point((5, 1)))

    def test_completeness_small_window(self):
        X = cone.build_thin_generators(SPEC, cone.default_depth(SPEC, Point((30, 30))))
        for x in range(31):
            for y in range(31):
                p = Point((x, y))
                if p.is_zero or min(SPEC.numerators(p.coords)) < 0:
                    continue
                rep = cone.decompose(SPEC, X, p)
                assert validate_representation(rep)
                assert all(m in X for m in rep.members)


@st.composite
def small_cones(draw, dims=(2, 3)):
    """A small independent, non-axis-parallel cone of a dimension in dims."""
    k = draw(st.sampled_from(dims))
    coords = st.lists(st.integers(0, 3), min_size=k, max_size=k)
    vs = draw(st.lists(coords.filter(lambda c: sum(x != 0 for x in c) >= 2), min_size=k, max_size=k))
    try:
        return cone.ConeSpec(tuple(Point(tuple(v)) for v in vs))
    except ValidationError:
        assume(False)


@st.composite
def cones_and_points(draw):
    """A small cone (small_cones) and a cone point up to 10^30."""
    spec = draw(small_cones())
    k = spec.k
    mult = draw(st.lists(st.integers(0, 10**29), min_size=k, max_size=k))
    shift = draw(st.lists(st.integers(0, 3 * k), min_size=k, max_size=k))
    p = Point(tuple(
        s + sum(m * v.coords[i] for m, v in zip(mult, spec.v)) for i, s in enumerate(shift)
    ))
    assume(not p.is_zero and min(spec.numerators(p.coords)) >= 0)
    return spec, p


@settings(deadline=None, max_examples=60)
@given(cones_and_points())
def test_closed_form_at_scale(case):
    spec, p = case
    X = cone.build_thin_generators(spec, cone.default_depth(spec, p))
    rep = cone.decompose(spec, X, p)
    assert validate_representation(rep)
    assert all(m in X for m in rep.members)
    off_ray = [m for m in rep.members if not any(m in ray for ray in X.rays)]
    assert len(off_ray) <= 1
    assert all(m in X.seed for m in off_ray)


@settings(deadline=None, max_examples=60)
@given(cones_and_points())
def test_required_depth_within_default(case):
    # every floor is at most max(p) // (smallest nonzero generator coordinate)
    spec, p = case
    required = cone.required_depth(spec, p)
    assert required <= cone.default_depth(spec, p) - 2
    X = cone.build_thin_generators(spec, max(required, 0))  # -1: every floor is 0
    rep = cone.decompose(spec, X, p)
    assert validate_representation(rep)
    assert all(m in X for m in rep.members)


def _det(rows):
    """Integer determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]]) for j in range(len(rows))
    )


@settings(deadline=None, max_examples=40)
@given(small_cones())
def test_residual_lies_in_the_parallelepiped(spec):
    # P = {sum t_l v_l : 0 <= t_l < 1}; a point of the seed is its own
    # representation, every other one is its residual plus distinct ray elements
    k = spec.k
    corner = Point((12 if k == 2 else 6,) * k)
    X = cone.build_thin_generators(spec, cone.default_depth(spec, corner))
    rays = {p for ray in X.rays for p in ray}
    for p in map(Point, product(*(range(h + 1) for h in corner.coords))):
        if p.is_zero or min(spec.numerators(p.coords)) < 0:
            continue
        rep = cone.decompose(spec, X, p)
        if p in X.seed:
            assert rep.members == (p,)
            continue
        residual = [m for m in rep.members if m not in rays]
        assert len(residual) <= 1
        for r in residual:
            nums, den = spec.coeff_numerators(r)
            assert all(0 <= x < den for x in nums)
    # P holds |det V| lattice points, and its nonzero ones all lie in the seed
    assert abs(_det([list(v.coords) for v in spec.v])) - 1 <= len(X.seed)


@settings(deadline=None, max_examples=30)
@given(small_cones(dims=(2, 3, 4)), st.data())
def test_cone_points_is_the_sign_filtered_box_and_gives_the_seed(spec, data):
    k = spec.k
    hi = data.draw(st.lists(st.integers(0, 6 if k < 4 else 3), min_size=k, max_size=k))
    nums = spec.numerators
    box = product(*(range(h + 1) for h in hi))  # lexicographic order
    expected = [(p, nums(p)) for p in box if any(p) and min(nums(p)) >= 0]
    assert list(cone.cone_points(spec, hi)) == expected
    # the seed by its definition, through V^-1 by Fractions, not the package's
    # numerators: the nonzero p of the box [0, k * max_l v_l] whose
    # coefficients a = V^-1 p are all >= 0 with sum(a) <= k
    axes = [list(axis) for axis in zip(*(v.coords for v in spec.v))]
    inverse, _ = _fraction_inverse(axes)
    den = lcm(*(x.denominator for row in inverse for x in row))
    rows = [[int(x * den) for x in row] for row in inverse]
    seed = []
    for p in product(*(range(k * max(axis) + 1) for axis in axes)):
        a = [sum(map(operator.mul, row, p)) for row in rows]
        if any(p) and min(a) >= 0 and sum(a) <= k * den:
            seed.append(Point(p))
    X = cone.build_thin_generators(spec, data.draw(st.integers(0, 3)))
    assert X.seed.elements == tuple(seed)


def test_check_window_computes_numerators_once(monkeypatch):
    # coeff_numerators wraps numerators, so this counts every computation
    numerators = cone.ConeSpec.numerators
    build = cone.build_thin_generators
    calls = []
    counting = [True]

    def counted(self, coords):
        if counting[0]:
            calls.append(Point(coords))
        return numerators(self, coords)

    def build_uncounted(spec, depth, *cap):
        counting[0] = False
        try:
            return build(spec, depth, *cap)
        finally:
            counting[0] = True

    monkeypatch.setattr(cone.ConeSpec, "numerators", counted)
    monkeypatch.setattr(cone, "build_thin_generators", build_uncounted)
    _, checked, failures = cone.check_window(SPEC, 20)
    window = [Point(p) for p in product(range(21), repeat=2) if any(p)]
    # the products run once per row, at its first point; the rest of the row
    # adds a column to its left neighbour's numerators
    assert calls == [p for p in window if p.coords[-1] == 0]
    assert checked == sum(1 for p in window if min(numerators(SPEC, p.coords)) >= 0) and not failures


def test_check_window_builds_no_point_per_window_point(monkeypatch):
    X = cone.build_thin_generators(SPEC, cone.default_depth(SPEC, Point((20, 20))))

    def prebuilt(spec, depth, cell_cap):  # X is built outside the count
        assert (spec, depth) == (X.spec, X.depth)
        return X

    init = Point.__post_init__
    created = []

    def counted(self):
        created.append(self.coords)
        init(self)

    monkeypatch.setattr(cone, "build_thin_generators", prebuilt)
    monkeypatch.setattr(Point, "__post_init__", counted)
    _, checked, failures = cone.check_window(SPEC, 20)
    assert checked > 200 and not failures
    assert created == [(20, 20)]  # the corner, for X's depth, and no window point


@settings(deadline=None, max_examples=40)
@given(small_cones(), st.integers(0, 3))
def test_decompose_coords_is_decompose(spec, depth):
    # the core agrees with its wrapper on every point of a small window, in the
    # cone or not: the same members, the same DepthError where X is too shallow,
    # and the sign test check_window skips by where decompose raises
    X = cone.build_thin_generators(spec, depth)
    k = spec.k
    for p in map(Point, product(range(9 if k == 2 else 5), repeat=k)):
        if p.is_zero:
            continue
        nums = spec.numerators(p.coords)
        try:
            rep = cone.decompose(spec, X, p)
        except cone.OutsideConeError:
            assert min(nums) < 0
            continue
        except DepthError as exc:
            with pytest.raises(DepthError) as core_exc:
                cone.decompose_coords(spec, X, p.coords, nums)
            assert (str(core_exc.value), core_exc.value.required_depth) == (str(exc), exc.required_depth)
            continue
        assert min(nums) >= 0
        members = cone.decompose_coords(spec, X, p.coords, nums)
        assert rep.members == tuple(Point(m) for m in sorted(members))
        assert validate_representation(rep) and all(m in X for m in rep.members)


class TestThinness:
    def test_budget_at_16(self):
        X = cone.build_thin_generators(SPEC, 6)
        report = cone.thinness_report(X, 16)
        assert report.count <= len(X.seed) + 2 * 4 + 2
        assert report.passed

    def test_boundary_n1(self):
        X = cone.build_thin_generators(SPEC, 6)
        report = cone.thinness_report(X, 1)
        assert report.count == sum(
            1 for p in X.all_elements() if all(c == 1 for c in p.coords)
        )

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_exact_verdict_at_power_of_two(self, m):
        # n = 2^m: the budget |S| + k*log2(n) + k = 1 + 2m + 2 is an integer, met
        # exactly by that many elements in [1, n]^2 and failed by one more
        n = 1 << m
        seed = GeneratorSet.of([Point((1, 1))])
        others = [Point(p) for p in product(range(1, n + 1), repeat=2) if p != (1, 1)]
        budget = 1 + 2 * m + 2
        for count, passed in ((budget, True), (budget + 1, False)):
            X = cone.ThinGeneratorSet(SPEC, 0, seed, (tuple(others[: count - 1]), ()))
            report = cone.thinness_report(X, n)
            assert report.count == count and report.bound == budget
            assert report.passed is passed

    def test_doubling_adds_at_most_k(self):
        X = cone.build_thin_generators(SPEC, 17)
        prev = cone.thinness_report(X, 1 << 6).count
        for e in range(7, 16):
            cur = cone.thinness_report(X, 1 << e).count
            assert cur - prev <= 2
            prev = cur
