"""Thin complete generator sets for simplicial lattice cones.

Given linearly independent v_1..v_k (none parallel to an axis), the generator
set S u X_1 u ... u X_k -- the integer points of the simplex on k*v_1..k*v_k
plus the dyadic multiples of each v_i -- covers every integer point of the
cone by sums of distinct elements, while growing only logarithmically.  The
decomposition is closed form: flooring the barycentric coefficients leaves a
residual in the seed, and the binary digits of the floors pick distinct ray
elements, so the ray depth a point needs (`required_depth`) is known before X
is built.  The one walk over the nonzero cone points of a box is
`cone_points`, on coordinate tuples with their numerators
(`ConeSpec.numerators`); `build_thin_generators` keeps the points of the
simplex as the seed, and `check_window` hands each point to the one
decomposition, `decompose_coords`, which `decompose` wraps in checked Points.
`peel` and the cover indices keep the paper's covering lemmas, and all three
take one integer step, `face_cover_index`: the face point nums / sum(nums)
has a coordinate l reaching lam = p/q iff nums[l]*q >= p*sum(nums).

All membership predicates are exact: barycentric coordinates are kept as
integer numerators over the (positive) determinant, never floats.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, islice, product
from typing import Iterator, Optional, Sequence

from .core import (
    DEFAULT_CELL_CAP,
    DepthError,
    DomainError,
    GeneratorSet,
    Point,
    Representation,
    ValidationError,
    charge,
    validate_sum,
)


def _adjugate_det(matrix: list[list[int]]) -> tuple[list[list[int]], int]:
    """Fraction-free Gauss-Jordan on [V | I]; returns (adjugate, determinant).

    Each step replaces every other row a_r by (p * a_r - f * a_col) / prev, with
    p the pivot, f = a_r[col] and prev the previous pivot.  Every entry is then
    a minor of [PV | P] up to sign (P the row swaps), so each division is exact,
    and the rows end as [d * I | d * V^-1] with d = det(PV) = sign * det(V).
    """
    k = len(matrix)
    a = [list(row) + [int(r == c) for c in range(k)] for r, row in enumerate(matrix)]
    prev, sign = 1, 1
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            raise ValidationError("cone generators are linearly dependent")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p = a[col][col]
        for r in range(k):
            if r != col:
                f = a[r][col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], a[col])]
        prev = p
    return [[sign * x for x in row[k:]] for row in a], sign * prev


class OutsideConeError(DomainError):
    """A point outside the cone."""

    def __init__(self, point: Point):
        super().__init__(f"{point} is not in the cone")


@dataclass(frozen=True)
class ConeSpec:
    """Simplicial cone data: k linearly independent generators in N^k."""

    v: tuple[Point, ...]

    def __post_init__(self) -> None:
        k = len(self.v)
        if k < 1:
            raise ValidationError("cone needs at least one generator")
        for p in self.v:
            if p.dim != k:
                raise ValidationError("cone generators must live in dimension k")
            if sum(1 for c in p.coords if c != 0) < 2:
                raise ValidationError(f"generator {p} is parallel to a coordinate axis")
        # cache the exact inverse as integer numerators over a positive denominator
        axes = tuple(zip(*(p.coords for p in self.v)))  # axes[i][l] = v_l[i]
        num, den = _adjugate_det([list(axis) for axis in axes])
        if den < 0:
            den = -den
            num = [[-x for x in row] for row in num]
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_num", tuple(map(tuple, num)))
        object.__setattr__(self, "_axes", axes)

    @property
    def k(self) -> int:
        return len(self.v)

    def coeff_numerators(self, p: Point) -> tuple[tuple[int, ...], int]:
        """Barycentric numerators of p over the common positive denominator."""
        if p.dim != len(self.v):
            raise ValidationError("point/cone dimension mismatch")
        return self.numerators(p.coords), self._den  # type: ignore[attr-defined]

    def numerators(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """coeff_numerators' numerators for a coordinate tuple of dimension k,
        unchecked: the point is in the cone iff none is negative."""
        num = self._num  # type: ignore[attr-defined]
        return tuple([sum(map(operator.mul, row, coords)) for row in num])

    def to_json(self) -> dict:
        return {"v": [p.to_json() for p in self.v]}

    @classmethod
    def from_json(cls, data: object) -> "ConeSpec":
        if not isinstance(data, dict) or not isinstance(data.get("v"), list):
            raise ValidationError(f'cone spec needs an object with an array "v": {str(data)[:40]}')
        return cls(tuple(Point.from_json(p) for p in data["v"]))


def face_cover_index(nums: Sequence[int], p: int, q: int) -> int:
    """Smallest index l with nums[l]*q >= p*sum(nums): the first coordinate of
    the face point nums / sum(nums) that reaches lam = p/q.

    This is the pigeonhole step behind the face covering: with lam <= 1/k some
    coordinate must clear the threshold, and subtracting lam from it keeps the
    point inside the simplex.
    """
    k, s = len(nums), sum(nums)
    if any(x < 0 for x in nums) or s == 0:
        raise ValidationError("face point needs nonnegative numerators with a positive sum")
    if p * k > q:
        raise DomainError(f"lambda {p}/{q} exceeds 1/{k}")
    for l, x in enumerate(nums):
        if x * q >= p * s:
            return l
    raise AssertionError("unreachable: some coordinate is >= 1/k >= lambda")


def simplex_cover_index(nums: Sequence[int], den: int, p: int, q: int) -> int:
    """Index l such that b - lam*e_l lies in the unit simplex, for b = nums/den
    and lam = p/q.

    b must lie in the (1+lam)-scaled simplex but not in the unit one
    (1 < sum b <= 1+lam); the index is the face step on b normalized to the
    face, whose numerators are nums again.
    """
    if not q * den < q * sum(nums) <= (q + p) * den:
        raise DomainError("point must lie strictly between the simplex and its dilation")
    return face_cover_index(nums, p, q)


@dataclass(frozen=True)
class ThinGeneratorSet:
    """Simplex seed S plus truncated dyadic rays 2^j * v_i, 0 <= j <= depth."""

    spec: ConeSpec
    depth: int
    seed: GeneratorSet
    rays: tuple[tuple[Point, ...], ...]

    def __post_init__(self) -> None:
        # seed plus rays, built once; not a field, so eq and hash ignore it
        members = GeneratorSet.of(chain(self.seed, *self.rays))
        object.__setattr__(self, "_members", members)

    def all_elements(self) -> GeneratorSet:
        return self._members  # type: ignore[attr-defined]

    def __contains__(self, p: Point) -> bool:
        return p in self._members  # type: ignore[attr-defined]

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "depth": self.depth,
            "seed": self.seed.to_json(),
            "rays": [[p.to_json() for p in ray] for ray in self.rays],
        }


def build_thin_generators(
    spec: ConeSpec, depth: int, cell_cap: int = DEFAULT_CELL_CAP
) -> ThinGeneratorSet:
    """Enumerate the seed simplex exactly and attach dyadic rays of the given depth.
    Charges the rays' k * (depth + 1)^2 bits, then the seed box it scans, to cell_cap."""
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    k = spec.k
    charge(k * (depth + 1) ** 2, "cone rays", cell_cap)
    hi = [k * max(axis) for axis in zip(*(v.coords for v in spec.v))]  # the seed's bounding box
    charge(math.prod(h + 1 for h in hi), "cone seed box", cell_cap)
    top = k * spec._den  # type: ignore[attr-defined]
    # cone_points walks in lexicographic order, so the seed is already canonical
    seed = GeneratorSet(tuple(Point(p) for p, nums in cone_points(spec, hi) if sum(nums) <= top))
    rays = tuple(tuple(v.scale(1 << j) for j in range(depth + 1)) for v in spec.v)
    return ThinGeneratorSet(spec=spec, depth=depth, seed=seed, rays=rays)


def default_depth(spec: ConeSpec, target: Point) -> int:
    """Enough ray powers for the target, plus two spare slots."""
    min_coord = min(c for v in spec.v for c in v.coords if c != 0)
    max_target = max(target.coords)
    if max_target == 0:
        return 2
    # ceil(log2(max_target / min_coord)), clamped at 0, in exact integers
    return ((max_target - 1) // min_coord).bit_length() + 2


def peel(spec: ConeSpec, v: Point, layer: Optional[int] = None) -> tuple[int, Point]:
    """One covering step: find l with v - v_l still in the next-lower simplex layer.

    The layer index i satisfies coefficient-sum in (k+i, k+i+1]; the returned l
    is the smallest index whose face-normalized coefficient reaches 1/(k+i).
    """
    k = spec.k
    nums, den = spec.coeff_numerators(v)
    if any(x < 0 for x in nums):
        raise OutsideConeError(v)
    s = sum(nums)
    if s <= k * den:
        raise DomainError(f"{v} is already in the base simplex; nothing to peel")
    computed_layer = -(-s // den) - k - 1  # ceil(sum) - k - 1
    if layer is not None and layer != computed_layer:
        raise DomainError(
            f"{v} has coefficient sum in layer {computed_layer}, not {layer}"
        )
    # the face step at lam = 1/(k + layer): nums[l]*(k+layer) >= s > (k+layer)*den, so v - v_l is in the cone
    l = face_cover_index(nums, 1, k + computed_layer)
    return l, Point(tuple(map(operator.sub, v.coords, spec.v[l].coords)))


def required_depth(spec: ConeSpec, v: Point) -> int:
    """The ray depth decompose needs for the cone point v: the top binary
    digit of its largest floored coefficient (-1 when every floor is 0).
    DomainError when v is outside the cone."""
    nums, den = spec.coeff_numerators(v)
    if min(nums) < 0:
        raise OutsideConeError(v)
    return (max(nums) // den).bit_length() - 1


def decompose(spec: ConeSpec, X: ThinGeneratorSet, v: Point) -> Representation:
    """Express a nonzero cone point as a sum of distinct elements of X.

    With v = sum a_l v_l, take c_l = floor(a_l).  The residual v - sum c_l v_l
    has every coefficient in [0, 1), so it lies in the seed and is no ray
    element (each has one coefficient 2^j >= 1); the binary digits of c_l pick
    distinct ray elements 2^j v_l.  Cost O(k^2 + k log n).  A point already in
    the seed is its own representation.  X shallower than required_depth(spec, v)
    raises DepthError.  The work is decompose_coords'.
    """
    nums, _ = spec.coeff_numerators(v)
    if min(nums) < 0:
        raise OutsideConeError(v)
    if not any(v.coords):
        raise DomainError("cannot decompose the origin")
    # coordinate tuples sort as their Points do
    return Representation(tuple(map(Point, sorted(decompose_coords(spec, X, v.coords, nums)))), v)


def decompose_coords(
    spec: ConeSpec, X: ThinGeneratorSet, coords: tuple[int, ...], nums: Sequence[int]
) -> list[tuple[int, ...]]:
    """decompose on coordinate tuples: the members' coordinates, unsorted, for
    the nonzero cone point `coords`, whose numerators spec.numerators(coords)
    are `nums`, none negative (unchecked).  They are the point itself when it
    is in the seed, else the residual when it is nonzero, then the ray
    elements picked by the floors' binary digits.  DepthError as decompose;
    the error builds the one Point it names."""
    if coords in X.seed.coord_set:
        return [coords]
    den: int = spec._den  # type: ignore[attr-defined]
    counts = [x // den for x in nums]
    required = max(counts).bit_length() - 1
    if required > X.depth:
        raise DepthError(
            f"ray depth {X.depth} too small; need depth {required} for {Point(coords)}",
            required_depth=required,
        )
    # axis i of the residual: coords[i] - sum_l c_l v_l[i]
    axes = spec._axes  # type: ignore[attr-defined]
    residual = tuple([x - sum(map(operator.mul, counts, axis)) for x, axis in zip(coords, axes)])
    members = [residual] if any(residual) else []
    for ray, c in zip(X.rays, counts):
        members.extend(ray[j].coords for j in range(c.bit_length()) if c >> j & 1)
    return members


def cone_points(spec: ConeSpec, hi: Sequence[int]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The nonzero cone points of the box [0, hi], in lexicographic order, as
    (coords, spec.numerators(coords)) tuples.  Each point's numerators are
    computed once, and a negative one skips a point outside the cone.  A step
    that adds 1 to the last coordinate adds the inverse's last column to the
    numerators: k additions, not the k^2 products of `numerators`."""
    numerators = spec.numerators
    column = tuple(row[-1] for row in spec._num)  # type: ignore[attr-defined]
    nums = (0,) * len(hi)  # the origin's, the box's first tuple in lexicographic order
    for p in islice(product(*(range(h + 1) for h in hi)), 1, None):
        nums = tuple(map(operator.add, nums, column)) if p[-1] else numerators(p)
        if min(nums) >= 0:
            yield p, nums


def check_window(
    spec: ConeSpec, limit: int, cell_cap: int = DEFAULT_CELL_CAP
) -> tuple[ThinGeneratorSet, int, list[Point]]:
    """Decompose every nonzero cone point of [0, limit]^k, in lexicographic order.

    X is built once, at the default depth of the corner (limit, ..., limit),
    and that always suffices: if v_l has a nonzero coordinate i, then
    a_l * v_l[i] <= p[i] <= limit, so floor(a_l) <= limit // m for m the
    smallest nonzero generator coordinate, and required_depth(spec, p) <=
    default_depth(spec, corner) - 2.  Returns X, the number of cone points
    checked, and the points whose decompose_coords raises DepthError, fails
    validate_sum or uses a non-member of X.  The window is walked by
    cone_points, as coordinate tuples; a Point is built only for a failure.
    Charges the (limit + 1)^k window, then X's rays and seed box, against
    cell_cap.
    """
    if limit < 0:
        raise ValidationError(f"window limit must be nonnegative, got {limit}")
    corner = Point((limit,) * spec.k)
    charge((limit + 1) ** spec.k, "cone verify window", cell_cap)
    X = build_thin_generators(spec, default_depth(spec, corner), cell_cap)
    members_of_X = X.all_elements().coord_set
    checked = 0
    failures = []
    for p, nums in cone_points(spec, corner.coords):
        checked += 1
        try:
            members = decompose_coords(spec, X, p, nums)
        except DepthError:
            failures.append(Point(p))
            continue
        if not validate_sum(members, p) or not members_of_X.issuperset(members):
            failures.append(Point(p))
    return X, checked, failures


@dataclass(frozen=True)
class ThinnessReport:
    n: int
    count: int
    bound: float
    passed: bool


def thinness_report(X: ThinGeneratorSet, n: int) -> ThinnessReport:
    """Census of X inside [1,n]^k against the |S| + k*log2(n) + k budget.

    The verdict is exact: with e = count - |S| - k, count <= |S| + k*log2(n)
    + k iff e <= 0 or 2^e <= n^k.  `bound` is the budget as a float, for
    display only.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    k = X.spec.k
    count = sum(
        1 for p in X.all_elements() if all(1 <= c <= n for c in p.coords)
    )
    bound = len(X.seed) + k * math.log2(n) + k
    e = count - len(X.seed) - k
    return ThinnessReport(n=n, count=count, bound=bound, passed=e <= 0 or 1 << e <= n**k)
