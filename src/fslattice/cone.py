"""Thin complete generator sets for simplicial lattice cones.

Given linearly independent v_1..v_k (none parallel to an axis), the generator
set S u X_1 u ... u X_k -- the integer points of the simplex on k*v_1..k*v_k
plus the dyadic multiples of each v_i -- covers every integer point of the
cone by sums of distinct elements, while growing only logarithmically.  The
decomposition is closed form: flooring the barycentric coefficients leaves a
residual in the seed, and the binary digits of the floors pick distinct ray
elements, so the ray depth a point needs (`required_depth`) is known before X
is built.  `check_window` decomposes every cone point of a box against one X.
`peel` and the cover indices keep the paper's covering lemmas.

All membership predicates are exact: barycentric coordinates are kept as
integer numerators over the (positive) determinant, never floats.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .core import (
    COORDS,
    Box,
    DepthError,
    DomainError,
    GeneratorSet,
    Point,
    Representation,
    ValidationError,
    validate_representation,
)


def _invert_exact(matrix: list[list[int]]) -> tuple[list[list[Fraction]], Fraction]:
    """Gauss-Jordan over Fractions; returns (inverse, determinant)."""
    k = len(matrix)
    a = [[Fraction(matrix[r][c]) for c in range(k)] for r in range(k)]
    inv = [[Fraction(1 if r == c else 0) for c in range(k)] for r in range(k)]
    det = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            raise ValidationError("cone generators are linearly dependent")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
            det = -det
        p = a[col][col]
        det *= p
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv, det


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
        inv, det = _invert_exact([[self.v[j].coords[i] for j in range(k)] for i in range(k)])
        if det == 0:
            raise ValidationError("cone generators are linearly dependent")
        den = det.numerator if det.denominator == 1 else None
        assert den is not None
        num = [[inv[r][c] * den for c in range(k)] for r in range(k)]
        if den < 0:
            den = -den
            num = [[-x for x in row] for row in num]
        object.__setattr__(self, "_den", int(den))
        object.__setattr__(self, "_num", tuple(tuple(int(x) for x in row) for row in num))

    @property
    def k(self) -> int:
        return len(self.v)

    def coeff_numerators(self, p: Point) -> tuple[tuple[int, ...], int]:
        """Barycentric numerators of p over the common positive denominator."""
        coords = p.coords
        if len(coords) != len(self.v):
            raise ValidationError("point/cone dimension mismatch")
        den: int = self._den  # type: ignore[attr-defined]
        num = self._num  # type: ignore[attr-defined]
        return tuple(sum(map(operator.mul, row, coords)) for row in num), den

    def in_cone(self, p: Point) -> bool:
        nums, _ = self.coeff_numerators(p)
        return all(x >= 0 for x in nums)

    def to_json(self) -> dict:
        return {"v": [p.to_json() for p in self.v]}

    @classmethod
    def from_json(cls, data: object) -> "ConeSpec":
        if not isinstance(data, dict) or not isinstance(data.get("v"), list):
            raise ValidationError(f'cone spec needs an object with an array "v": {str(data)[:40]}')
        return cls(tuple(Point.from_json(p) for p in data["v"]))


def face_cover_index(a: Sequence[Fraction], lam: Fraction) -> int:
    """Smallest index l with a_l >= lam, for coordinates summing to 1.

    This is the pigeonhole step behind the face covering: with lam <= 1/k some
    coordinate must clear the threshold, and subtracting lam from it keeps the
    point inside the simplex.
    """
    k = len(a)
    if sum(a, Fraction(0)) != 1:
        raise ValidationError("face point must have coordinate sum exactly 1")
    if lam > Fraction(1, k):
        raise DomainError(f"lambda {lam} exceeds 1/{k}")
    for l, x in enumerate(a):
        if x >= lam:
            return l
    raise AssertionError("unreachable: some coordinate is >= 1/k >= lambda")


def simplex_cover_index(b: Sequence[Fraction], lam: Fraction) -> int:
    """Index l such that b - lam*e_l lies in the unit simplex.

    `b` are coordinates of a point of the (1+lam)-scaled simplex that is not in
    the unit simplex (1 < sum b <= 1+lam); the index comes from normalizing to
    the face and reusing face_cover_index.
    """
    total = sum(b, Fraction(0))
    if not 1 < total <= 1 + lam:
        raise DomainError("point must lie strictly between the simplex and its dilation")
    c = [x / total for x in b]
    return face_cover_index(c, lam)


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


def seed_box(spec: ConeSpec) -> Box:
    """The box build_thin_generators scans for the seed: [0, k * max_l v_l[j]] on axis j."""
    k = spec.k
    return Box(Point.zero(k), Point(tuple(k * max(v.coords[j] for v in spec.v) for j in range(k))))


def build_thin_generators(spec: ConeSpec, depth: int) -> ThinGeneratorSet:
    """Enumerate the seed simplex exactly and attach dyadic rays of the given depth."""
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    k = spec.k
    seed_points = []
    for p in seed_box(spec).points_lex():
        nums, den = spec.coeff_numerators(p)
        if not p.is_zero and all(x >= 0 for x in nums) and sum(nums) <= k * den:
            seed_points.append(p)
    rays = tuple(
        tuple(v.scale(1 << j) for j in range(depth + 1)) for v in spec.v
    )
    return ThinGeneratorSet(spec=spec, depth=depth, seed=GeneratorSet.of(seed_points), rays=rays)


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
        raise DomainError(f"{v} is not in the cone")
    s = sum(nums)
    if s <= k * den:
        raise DomainError(f"{v} is already in the base simplex; nothing to peel")
    computed_layer = -(-s // den) - k - 1  # ceil(sum) - k - 1
    if layer is not None and layer != computed_layer:
        raise DomainError(
            f"{v} has coefficient sum in layer {computed_layer}, not {layer}"
        )
    i = computed_layer
    # c_l >= 1/(k+i)  <=>  nums[l]*(k+i) >= s   (all terms integer)
    for l in range(k):
        if nums[l] * (k + i) >= s:
            return l, v - spec.v[l]
    raise AssertionError("unreachable: face covering always yields an index")


def _floors(spec: ConeSpec, v: Point) -> list[int]:
    """The floors of v's barycentric coefficients; DomainError outside the cone."""
    nums, den = spec.coeff_numerators(v)
    if any(x < 0 for x in nums):
        raise DomainError(f"{v} is not in the cone")
    return [x // den for x in nums]


def required_depth(spec: ConeSpec, v: Point) -> int:
    """The ray depth decompose needs for the cone point v: the top binary
    digit of its largest floored coefficient (-1 when every floor is 0).
    DomainError when v is outside the cone."""
    return max(_floors(spec, v)).bit_length() - 1


def decompose(spec: ConeSpec, X: ThinGeneratorSet, v: Point) -> Representation:
    """Express a nonzero cone point as a sum of distinct elements of X.

    With v = sum a_l v_l, take c_l = floor(a_l).  The residual v - sum c_l v_l
    has every coefficient in [0, 1), so it lies in the seed and is no ray
    element (each has one coefficient 2^j >= 1); the binary digits of c_l pick
    distinct ray elements 2^j v_l.  Cost O(k^2 + k log n).  A point already in
    the seed is its own representation.  X shallower than required_depth(spec, v)
    raises DepthError.
    """
    counts = _floors(spec, v)
    if not any(v.coords):
        raise DomainError("cannot decompose the origin")
    if v in X.seed:
        return Representation((v,), v)

    required = max(counts).bit_length() - 1
    if required > X.depth:
        raise DepthError(
            f"ray depth {X.depth} too small; need depth {required} for {v}",
            required_depth=required,
        )
    # axis i of the residual: v[i] - sum_l c_l v_l[i]; a Point only when nonzero
    axes = zip(*(g.coords for g in spec.v))
    residual = tuple(x - sum(map(operator.mul, counts, axis)) for x, axis in zip(v.coords, axes))
    members = [Point(residual)] if any(residual) else []
    for ray, c in zip(X.rays, counts):
        members.extend(ray[j] for j in range(c.bit_length()) if c >> j & 1)
    return Representation(tuple(sorted(members, key=COORDS)), v)


def check_window(spec: ConeSpec, limit: int) -> tuple[ThinGeneratorSet, int, list[Point]]:
    """Decompose every nonzero cone point of [0, limit]^k, in lexicographic order.

    X is built once, at the default depth of the corner (limit, ..., limit),
    and that always suffices: if v_l has a nonzero coordinate i, then
    a_l * v_l[i] <= p[i] <= limit, so floor(a_l) <= limit // m for m the
    smallest nonzero generator coordinate, and required_depth(spec, p) <=
    default_depth(spec, corner) - 2.  Returns X, the number of cone points
    checked, and the points whose decomposition raises DepthError, fails
    validate_representation or uses a non-member of X.  Each point's
    numerators are computed once, in decompose, whose DomainError marks a
    point outside the cone.
    """
    corner = Point((limit,) * spec.k)
    X = build_thin_generators(spec, default_depth(spec, corner))
    checked = 0
    failures = []
    for p in Box(Point.zero(spec.k), corner).points_lex():
        if p.is_zero:
            continue
        try:
            rep = decompose(spec, X, p)
        except DepthError:  # a DomainError too, so caught first
            checked += 1
            failures.append(p)
            continue
        except DomainError:  # outside the cone
            continue
        checked += 1
        if not validate_representation(rep) or not all(m in X for m in rep.members):
            failures.append(p)
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
