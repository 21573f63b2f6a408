"""Subset-sum geometry of the power-of-two grid {2^m} x {2^k} in N^2.

Outside the exceptional set E = {(a,b): 2^b <= a or 2^a <= b} every point has
a constructive representation by splitting dyadic expansions; inside E there
are arbitrarily large squares with no reachable point at all, and other
squares that are dense with "horizontal" sums.  All log comparisons are done
as exact power comparisons on Python ints.  The dense squares' corner
2^(2^(R+1)) is kept as its bit position, never expanded; corners in JSON
output are ascending lists of bit positions.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

from . import oracle
from .core import Box, DomainError, GeneratorSet, Point, Representation, ValidationError


def in_exceptional(a: int, b: int) -> bool:
    """Exact membership in E: 2^b <= a or 2^a <= b (no floating-point logs)."""
    if a < 1 or b < 1:
        raise ValidationError("coordinates must be >= 1")
    # 2^b <= a exactly when b <= a.bit_length() - 1
    return b < a.bit_length() or a < b.bit_length()


def bit_positions(n: int) -> list[int]:
    """The exponents of n's binary expansion, ascending."""
    return [i for i in range(n.bit_length()) if n >> i & 1]


def split_to_terms(a: int, j: int) -> list[int]:
    """Write a as exactly j powers of two (repetition allowed), largest-first.

    Deterministic: repeatedly split the currently largest power 2^c (c > 0)
    into two copies of 2^(c-1).  Requires popcount(a) <= j <= a.
    """
    if a < 1:
        raise ValidationError("a must be >= 1")
    n = bin(a).count("1")
    if not n <= j <= a:
        raise DomainError(f"term count {j} outside [{n}, {a}]")
    # exponents kept ascending; the largest is at the end
    exps = bit_positions(a)
    while len(exps) < j:
        c = exps.pop()
        insort(exps, c - 1)
        insort(exps, c - 1)
    return [1 << c for c in reversed(exps)]


def dyadic_generators(hi: Point) -> GeneratorSet:
    """All grid generators (2^i, 2^j) fitting under `hi` componentwise."""
    hx, hy = hi.coords
    points = [
        Point((1 << i, 1 << j))
        for i in range(max(hx, 1).bit_length())
        for j in range(max(hy, 1).bit_length())
        if (1 << i) <= hx and (1 << j) <= hy
    ]
    return GeneratorSet.of(points)


def dyadic_represent(a: int, b: int) -> Representation:
    """Constructive representation of (a,b) outside E over the dyadic grid.

    With b <= a (swap otherwise): split the coordinate with the shorter dyadic
    expansion into as many terms as the other side has, then pair terms
    largest-with-largest.  Distinctness is automatic because one side of every
    pair runs through distinct powers.
    """
    if in_exceptional(a, b):
        raise DomainError(
            f"({a},{b}) lies in the exceptional set; no structural guarantee "
            "applies there (use the brute-force oracle instead)"
        )
    swapped = b > a
    if swapped:
        a, b = b, a
    n = a.bit_count()
    m = b.bit_count()
    if n <= m:
        firsts = split_to_terms(a, m)  # repetition allowed on the left
        seconds = [1 << i for i in reversed(bit_positions(b))]  # m distinct powers on the right
    else:
        firsts = [1 << i for i in reversed(bit_positions(a))]  # n distinct powers on the left
        seconds = split_to_terms(b, n)
    pairs = list(zip(firsts, seconds))
    if swapped:
        pairs = [(q, p) for p, q in pairs]
        target = Point((b, a))
    else:
        target = Point((a, b))
    # int pairs sort as their Points do, without a generated __lt__ per comparison
    members = tuple(map(Point, sorted(pairs)))
    return Representation(members, target)


@dataclass(frozen=True)
class SquareSpec:
    """Axis-aligned square with lower corner (x0, y0)."""

    x0: int
    y0: int
    side: int


@dataclass(frozen=True)
class EmptySquareCertificate:
    """Term-count gap certifying unreachability, one entry per column."""

    square: SquareSpec
    # for each column offset j = 1..side, the minimum number of grid terms the
    # first coordinate x0 + j needs; row offset k allows at most 1 + k <= side + 1
    min_terms: tuple[int, ...]

    def all_unreachable(self) -> bool:
        """Every interior point (x0 + j, 1 + k) needs more terms than 1 + k."""
        return all(t > self.square.side + 1 for t in self.min_terms)


def empty_square(D: int) -> EmptySquareCertificate:
    """The proof square with corner x0 = 2^(D+1) + ... + 2^(2D+1), y0 = 1.

    Every interior point (x0+j, 1+k), 1 <= j,k <= D, needs at least D+2 powers
    of two in its first coordinate while the second coordinate caps the number
    of grid summands at 1+k <= D+1.  The term count depends on j alone: x0 has
    D+1 one-bits above bit D and j < 2^(D+1) never carries into them, so
    popcount(x0 + j) = D + 1 + popcount(j); D entries certify all D^2 points.
    """
    if D < 1:
        raise ValidationError("D must be >= 1")
    x0 = (1 << (2 * D + 2)) - (1 << (D + 1))
    min_terms = tuple((x0 + j).bit_count() for j in range(1, D + 1))
    return EmptySquareCertificate(square=SquareSpec(x0=x0, y0=1, side=D), min_terms=min_terms)


def empty_square_points(cert: EmptySquareCertificate) -> list[Point]:
    """Interior lattice points of the proof square, as machine-sized Points."""
    x0 = cert.square.x0
    D = cert.square.side
    return [Point((x0 + j, 1 + k)) for j in range(1, D + 1) for k in range(1, D + 1)]


def empty_square_reach(cert: EmptySquareCertificate, cell_cap: int) -> oracle.ReachableSet:
    """The oracle's FS of the dyadic grid inside the proof square (its box is
    the square itself), empty when the certificate is right."""
    points = empty_square_points(cert)
    box = Box(min(points), max(points))
    return oracle.fs_enumerate(dyadic_generators(box.hi), box, cell_cap)


@dataclass(frozen=True)
class DenseSquareReport:
    """Exact census of horizontal sums in the dense square at scale 2^R."""

    R: int
    exact_count: int
    enumeration_count: int
    per_k: tuple[tuple[int, int], ...]  # (k, contribution) for k = 1..R+1
    chain_threshold: int  # 2^R * R / 2, the proof's chain value (binding for R >= 6)
    closed_form_lower: float  # sum C(R,k) * (R - log2(k+1))
    quarter_bound: float  # (1/4) * M * log2(M) at M = 2^R


def _max_doubling(R: int, k: int) -> int:
    """Largest f with k * 2^f <= 2^R, i.e. floor(R - log2 k)."""
    return ((1 << R) // k).bit_length() - 1


def dense_square_count(R: int) -> DenseSquareReport:
    """Count Z = {(n, k*2^f)} inside the square anchored at 2^(2^(R+1)).

    Computed two independent ways and asserted equal: the binomial formula
    over term counts k, and direct enumeration of n = 2^(2^(R+1)) + r with
    r < 2^R.  Every enumerated point's horizontal representation is checked
    with ints, the corner kept as its bit position 2^(R+1).
    """
    if R < 1:
        raise ValidationError("R must be >= 1")
    per_k = []
    formula = 0
    for k in range(1, R + 2):
        contrib = math.comb(R, k - 1) * (_max_doubling(R, k) + 1)
        per_k.append((k, contrib))
        formula += contrib

    enumeration = 0
    for r in range(1 << R):
        lows = bit_positions(r)
        _validate_firsts(R, r, lows)
        k = r.bit_count() + 1  # the corner term plus one term per low bit
        for f in range(_max_doubling(R, k) + 1):
            _validate_seconds(R, lows, f, k << f)
            enumeration += 1

    if enumeration != formula:
        raise AssertionError(
            f"dense-square count mismatch at R={R}: formula {formula}, "
            f"enumeration {enumeration}"
        )
    M = 1 << R
    closed_form = sum(math.comb(R, k) * (R - math.log2(k + 1)) for k in range(R + 1))
    return DenseSquareReport(
        R=R,
        exact_count=formula,
        enumeration_count=enumeration,
        per_k=tuple(per_k),
        chain_threshold=(M * R) // 2,
        closed_form_lower=closed_form,
        quarter_bound=0.25 * M * R,
    )


def _validate_firsts(R: int, r: int, lows: list[int]) -> None:
    """Check with ints that the firsts 2^(2^(R+1)) and 2^c (c in lows) sum to
    n = 2^(2^(R+1)) + r inside the square; they do not depend on f."""
    corner_bit = 1 << (R + 1)  # the corner's one bit; n = 2^corner_bit + r is never formed
    distinct = len(set(lows)) == len(lows)
    if not distinct or sum(1 << c for c in lows) != r or r.bit_length() > corner_bit:
        raise AssertionError("first coordinates do not sum to n")
    if not 0 <= r < 1 << R:
        raise AssertionError("point escapes the dense square")


def _validate_seconds(R: int, lows: list[int], f: int, m: int) -> None:
    """Check with ints that the len(lows) + 1 seconds 2^f sum to m, and that
    (n, m) lies in E and in the square."""
    corner_bit = 1 << (R + 1)
    if (len(lows) + 1) << f != m:
        raise AssertionError("second coordinates do not sum to m")
    # in_exceptional(n, m) for m < n: 2^m <= n iff m < n.bit_length() == corner_bit + 1
    if m > corner_bit:
        raise AssertionError("dense-square point unexpectedly outside E")
    if m > 1 << R:
        raise AssertionError("point escapes the dense square")


# heatmap levels for `dyadic map`
LEVEL_E_UNREACHABLE = 0
LEVEL_E_REACHABLE = 128
LEVEL_OUTSIDE_E = 255


def exceptional_map(box_lo: Point, box_hi: Point, reach: oracle.ReachableSet) -> list[bytes]:
    """Rows of level bytes (top row = max y) classifying each box point.

    Row y of E is two runs, x < y.bit_length() and x >= 2^y (in_exceptional's
    own test), so only the run between them is outside E; the levels of the
    runs in E come from reach.row(y).  2^y is formed only when y <
    hx.bit_length(), that is when 2^y <= hx.
    """
    lx, ly = box_lo.coords
    hx, hy = box_hi.coords
    if lx < 1 or ly < 1:
        raise ValidationError("coordinates must be >= 1")
    width = hx - lx + 1
    rows = []
    for y in range(hy, ly - 1, -1):
        row = reach.row(y) >> lx
        levels = oracle.bit_levels(row, width, LEVEL_E_UNREACHABLE, LEVEL_E_REACHABLE)
        # outside E: y.bit_length() <= x < 2^y, clipped to the box, as offsets from lx
        start = max(y.bit_length(), lx) - lx
        stop = (1 << y if y < hx.bit_length() else hx + 1) - lx
        if start < stop:
            levels = levels[:start] + bytes((LEVEL_OUTSIDE_E,)) * (stop - start) + levels[stop:]
        rows.append(levels)
    return rows
