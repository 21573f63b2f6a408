"""Generalized arithmetic progressions and dense rectangles inside FS(A x B).

The GAP construction rides on popular pair sums: a value x with many disjoint
pairs a + a' = x yields an arithmetic progression of grid points with
difference (x, b1+b2), and stages built on disjoint slices of A combine into a
proper homogeneous GAP.  The rectangle pipeline finds an arithmetic
progression inside FS of one slice by exhaustive reachability, shifts it with
fresh elements to force high term counts, and converts term counts into
vertical sumset mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterator, Optional, Sequence

from .core import (
    Box,
    DensityError,
    DomainError,
    GeneratorSet,
    Point,
    Representation,
    ResourceLimitError,
    ValidationError,
    charge,
    check_ascending,
)
from .oracle import DEFAULT_CELL_CAP, fs_enumerate, trm_table


def _pair_sums(values: Sequence[int]) -> dict[int, list[tuple[int, int]]]:
    sums: dict[int, list[tuple[int, int]]] = {}
    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            sums.setdefault(a + b, []).append((a, b))
    return sums


def _best_sum_below(
    values: Sequence[int], min_exclusive: int, max_inclusive: Optional[int]
) -> tuple[Optional[int], list[tuple[int, int]]]:
    """Most popular pair sum x with min < x (<= max); ties broken by smallest x."""
    sums = _pair_sums(values)
    candidates = [
        x
        for x in sums
        if x > min_exclusive and (max_inclusive is None or x <= max_inclusive)
    ]
    if not candidates:
        return None, []
    x = max(candidates, key=lambda s: (len(sums[s]), -s))
    return x, sorted(sums[x])


@dataclass(frozen=True)
class StageCertificate:
    """Collision evidence for one GAP stage."""

    stage: int
    x: int
    pairs: tuple[tuple[int, int], ...]  # the L_i pairs actually consumed
    multiplicity: int  # total disjoint pairs available at x within the slice


@dataclass(frozen=True)
class GapDescription:
    dimension: int
    differences: tuple[Point, ...]
    lengths: tuple[int, ...]
    elements: tuple[tuple[tuple[int, ...], Representation], ...]
    certificates: tuple[StageCertificate, ...]
    proper: bool
    separated: bool  # d_{i+1} > sum_{j<=i} L_j d_j on the first coordinate

    def points(self) -> list[Point]:
        return [rep.target for _, rep in self.elements]

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "differences": [d.to_json() for d in self.differences],
            "lengths": list(self.lengths),
            "proper": self.proper,
            "separated": self.separated,
            "certificates": [
                {
                    "stage": c.stage,
                    "x": c.x,
                    "pairs": [list(p) for p in c.pairs],
                    "multiplicity": c.multiplicity,
                }
                for c in self.certificates
            ],
            "elements": [
                {"l": list(l), "representation": rep.to_json()}
                for l, rep in self.elements
            ],
        }


def slice_interleaved(values: Sequence[int], parts: int) -> list[list[int]]:
    """Deterministic density-preserving split: part i takes indices i mod parts."""
    return [list(values[i::parts]) for i in range(parts)]


def build_gap(
    A: Sequence[int], B: Sequence[int], L: Sequence[int], cell_cap: int = DEFAULT_CELL_CAP
) -> GapDescription:
    """Proper homogeneous GAP of shape L_1 x ... x L_D inside FS(A x B).

    Stage i lives on its own interleaved slice of A and contributes the
    difference d_i = (x_i, b1+b2) from a popular pair sum x_i.  Stages are
    chosen from the top dimension down, each earlier stage constrained to a
    budget that keeps the separation d_{i+1} > sum_{j<=i} L_j d_j available;
    at finite scale a first-come greedy choice would exhaust the slice range
    before the later, larger differences could clear it.  Once the input
    checks out, it charges the pair sums it tabulates, C(|slice|, 2) per
    slice, then the prod(L) GAP elements, then their member points against
    cell_cap: an element with stage counts l holds 2 * sum(l) members, so
    prod(L) * sum(L_i + 1) in all.
    """
    check_ascending(A, "A")
    check_ascending(B, "B")
    if len(B) < 2:
        raise ValidationError("B needs at least two elements")
    if not L or any(x < 1 for x in L):
        raise ValidationError("lengths must be positive")
    D = len(L)
    slices = slice_interleaved(A, D)
    charge(sum(math.comb(len(s), 2) for s in slices), "gap slices", cell_cap, "pairs", "have")
    charge(math.prod(L), "gap", cell_cap)
    charge(math.prod(L) * sum(n + 1 for n in L), "gap elements", cell_cap, "member points", "have")
    b1, b2 = B[0], B[1]
    vstep = b1 + b2

    xs: list[Optional[int]] = [None] * D
    certs: list[Optional[StageCertificate]] = [None] * D
    allowance: Optional[int] = None  # budget for sum_{j<=s} L_j x_j, None = unbounded
    for s in range(D, 0, -1):
        need = L[s - 1]
        cap = None if allowance is None else allowance // need
        x, pairs = _best_sum_below(slices[s - 1], min_exclusive=need, max_inclusive=cap)
        if x is None or len(pairs) < need:
            raise DensityError(
                f"stage {s}: only {len(pairs)} disjoint pairs available "
                f"(need {need}, sum cap {cap})",
                stage=s,
                achieved=len(pairs),
                required=need,
            )
        assert x > 2 * len(pairs)  # smaller halves are distinct and below x/2
        xs[s - 1] = x
        certs[s - 1] = StageCertificate(
            stage=s, x=x, pairs=tuple(pairs[:need]), multiplicity=len(pairs)
        )
        budget = x - 1
        if allowance is not None:
            budget = min(budget, allowance - need * x)
        allowance = budget

    diffs = tuple(Point((x, vstep)) for x in xs)  # type: ignore[arg-type]
    lengths = tuple(L)

    elements = []
    for combo in product(*(range(1, n + 1) for n in lengths)):
        first = sum(l * x for l, x in zip(combo, xs))  # type: ignore[operator]
        second = sum(combo) * vstep
        members: list[Point] = []
        for s in range(D):
            for a, a2 in certs[s].pairs[: combo[s]]:  # type: ignore[union-attr]
                members.append(Point((a, b1)))
                members.append(Point((a2, b2)))
        rep = Representation(tuple(sorted(members)), Point((first, second)))
        elements.append((combo, rep))

    points = [rep.target for _, rep in elements]
    proper = len(set(points)) == len(points)
    separated = all(
        xs[i] > sum(lengths[j] * xs[j] for j in range(i))  # type: ignore[operator]
        for i in range(1, D)
    )
    return GapDescription(
        dimension=D,
        differences=diffs,
        lengths=lengths,
        elements=tuple(elements),
        certificates=tuple(certs),  # type: ignore[arg-type]
        proper=proper,
        separated=separated,
    )


@dataclass(frozen=True)
class ApSearchResult:
    """Suffix-complete arithmetic progression found in FS of a 1-D slice."""

    found: bool
    difference: int
    start: int
    elements: tuple[int, ...]  # AP members in [1, H] that are reachable
    density: float  # |AP(d) in [1,H]| / H
    horizon: int
    reason: str = ""


def find_ap_in_fs(A1: Sequence[int], H: int, cell_cap: int = DEFAULT_CELL_CAP) -> ApSearchResult:
    """Smallest difference d <= H/4 whose residue class is fully reachable.

    "Fully" means every class member up to H - H/8 lies in FS(A1); the margin
    guards against truncation artifacts at the top of the window.  Failure is
    an ordinary result, not an exception.  Class c mod d is full exactly when
    bit c - 1 of the holes (x in [1, top] outside FS(A1)) folded onto d bits is
    clear; log(top/d) shift-and-ORs fold them, ~H^2/128 word operations in all.
    The DP charges its H + 1 cells; the fold charges ceil(top/32) word
    operations per d as it goes, refused once their total passes cell_cap.
    """
    check_ascending(A1, "A1")
    if H < 8:
        raise ValidationError("H must be >= 8")
    line = GeneratorSet(tuple(Point((a,)) for a in A1))
    reached = fs_enumerate(line, Box(Point((0,)), Point((H,))), cell_cap=cell_cap).row(0)
    top = H - H // 8
    holes = ~reached >> 1 & ((1 << top) - 1)  # bit x - 1 for each hole x
    words = -(-top // 32)  # the fold's word operations for one d
    for d in range(1, H // 4 + 1):
        if d * words > cell_cap:
            raise ResourceLimitError(f"AP search needs over {cell_cap} word operations, the cap")
        fold, width = holes, top
        while width > d:
            width = -(-width // (2 * d)) * d  # a multiple of d, at least half
            fold = fold & ((1 << width) - 1) | fold >> width
        c = (~fold & (fold + 1)).bit_length()  # the lowest clear bit, plus one
        if c <= d:
            bits = format(reached, f"0{H + 1}b")[::-1]  # bits[x] is bit x, read in one pass
            return ApSearchResult(
                found=True,
                difference=d,
                start=c,
                elements=tuple(x for x in range(c, H + 1, d) if bits[x] == "1"),
                density=len(range(c, H + 1, d)) / H,
                horizon=H,
            )
    return ApSearchResult(
        found=False,
        difference=0,
        start=0,
        elements=(),
        density=0.0,
        horizon=H,
        reason=f"no residue class fully reachable up to {top} with d <= {H // 4}",
    )


def _sumset_levels(B_T: Sequence[int], top: int) -> Iterator[set[int]]:
    """The q-fold sumsets of B_T cut at top, for q = 1, 2, ...; the cut is exact
    because the values are positive, so each partial sum of a sum <= top is <= top."""
    level = {b for b in B_T if b <= top}
    while True:
        yield level
        level = {t for s in level for b in B_T if (t := s + b) <= top}


def sumset_iterate(B_T: Sequence[int], Q: int) -> list[int]:
    """Q-fold sumset (values may repeat across the Q picks), sorted.

    Asserts the iterated Pluennecke-type lower bound |Q B| >= Q|B| - (Q-1) and
    the obvious range containment.
    """
    check_ascending(B_T, "B_T")
    if Q < 1:
        raise ValidationError("Q must be >= 1")
    if not B_T:
        raise ValidationError("B_T must be nonempty")
    out = sorted(next(islice(_sumset_levels(B_T, Q * B_T[-1]), Q - 1, None)))
    assert len(out) >= Q * len(B_T) - (Q - 1)
    assert out[0] == Q * B_T[0] and out[-1] == Q * B_T[-1]
    return out


@dataclass(frozen=True)
class RectangleReport:
    interval: tuple[int, int]
    height: int
    measured: int
    ledger_bound: int
    rectangle_points: int
    b_density: float  # B(T) / T
    density_ratio: float  # measured / (|R| * B(T)/T)
    ap: ApSearchResult
    Q: int
    shift: int
    shift_elements: tuple[int, ...]
    column_terms: tuple[tuple[int, int, int], ...]  # (x, trm(x), usable sumset size)
    trm_floor_ok: bool  # trm(y) >= Q+1 for every column y

    def to_json(self) -> dict:
        return {
            "interval": list(self.interval),
            "height": self.height,
            "measured": self.measured,
            "ledger_bound": self.ledger_bound,
            "rectangle_points": self.rectangle_points,
            "b_density": self.b_density,
            "density_ratio": self.density_ratio,
            "Q": self.Q,
            "shift": self.shift,
            "shift_elements": list(self.shift_elements),
            "trm_floor_ok": self.trm_floor_ok,
            "columns": [list(c) for c in self.column_terms],
            "ap": {
                "difference": self.ap.difference,
                "start": self.ap.start,
                "density": self.ap.density,
                "elements": list(self.ap.elements),
            },
        }


def dense_rectangle(
    A: Sequence[int],
    B: Sequence[int],
    T: int,
    H: int,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> RectangleReport:
    """Measure a rectangle of FS(A x B) against the popular-column ledger.

    Pipeline: arithmetic progression in FS(A1), shift by Q fresh elements of
    the other slice so every column has trm >= Q+1, then each column x holds
    at least |trm(x)-fold sumset of B_T| points of height <= 2QT.  The ledger
    bound sums those column guarantees; the measured count comes from the
    brute-force oracle, over the pairs of A x B that fit in the rectangle,
    whose count it charges before it builds them.  That DP charges its cells
    before the ledger, which walks the sumsets of B_T cut at the height once,
    up to the largest trm(x), after charging that walk's additions.
    """
    check_ascending(A, "A")
    check_ascending(B, "B")
    if T < 1:
        raise ValidationError("T must be >= 1")
    B_T = [b for b in B if b <= T]
    if not B_T:
        raise ValidationError("B has no elements <= T")
    A1, A2 = slice_interleaved(A, 2)
    ap = find_ap_in_fs(A1, H, cell_cap=cell_cap)
    if not ap.found:
        raise DomainError(f"no suffix-complete AP in FS of the slice: {ap.reason}")

    table1 = trm_table(A1, H, cell_cap)
    Q = max(table1[ap.start :: ap.difference])  # the AP's members in [1, H]
    if len(A2) < Q:
        raise DomainError(f"second slice too small for the {Q}-element shift")
    shift_elements = tuple(A2[:Q])
    shift = sum(shift_elements)

    columns = sorted(shift + x for x in ap.elements)
    a, b = columns[0], columns[-1]
    height = 2 * Q * T
    merged = sorted(set(A1) | set(shift_elements))
    table = trm_table(merged, b, cell_cap)

    fit_a, fit_b = [av for av in A if av <= b], [bv for bv in B if bv <= height]
    charge(len(fit_a) * len(fit_b), "rectangle", cell_cap, "generators")
    generators = GeneratorSet.of(Point((av, bv)) for av in fit_a for bv in fit_b)
    box = Box(Point((a, 1)), Point((b, height)))
    measured = len(fs_enumerate(generators, box, cell_cap=cell_cap).points)

    q_top = max(table[x] for x in columns)
    walk = min(q_top, height // B_T[0]) * (height + 1) * len(B_T)
    charge(walk, "rectangle ledger", cell_cap, "additions", "needs")
    sizes = [0, *map(len, islice(_sumset_levels(B_T, height), q_top))]  # sizes[q] = |q B_T cut at height|
    column_terms = tuple((x, table[x], sizes[table[x]]) for x in columns)
    ledger = sum(usable for _, _, usable in column_terms)
    trm_ok = all(q_x >= Q + 1 for _, q_x, _ in column_terms)

    rect_points = (b - a + 1) * height
    b_density = len(B_T) / T
    denom = rect_points * b_density
    return RectangleReport(
        interval=(a, b),
        height=height,
        measured=measured,
        ledger_bound=ledger,
        rectangle_points=rect_points,
        b_density=b_density,
        density_ratio=measured / denom if denom else math.inf,
        ap=ap,
        Q=Q,
        shift=shift,
        shift_elements=shift_elements,
        column_terms=column_terms,
        trm_floor_ok=trm_ok,
    )


def five_squares_check(lo: int, hi: int, cell_cap: int = DEFAULT_CELL_CAP) -> list[int]:
    """All n in [lo, hi] with no representation as 5 distinct positive squares.

    Empty for lo >= 1024; below that threshold failures are expected and the
    check is still exhaustive.  n is such a sum iff (n, 5) is in
    FS({(r^2, 1) : r >= 1}), so one include-or-not DP over [0, hi] x [0, 5]
    decides every n <= hi at once, and its row 5 is read off.  The DP charges
    its (hi + 1) * 6 cells against cell_cap; bounding the roots by the cap
    keeps that refusal cheap.
    """
    if lo < 1 or hi < lo:
        raise ValidationError("need 1 <= lo <= hi")
    roots = range(1, math.isqrt(min(hi, cell_cap)) + 1)
    squares = GeneratorSet.of(Point((r * r, 1)) for r in roots)
    row = fs_enumerate(squares, Box(Point((0, 0)), Point((hi, 5))), cell_cap).row(5)
    bits = format(row, f"0{hi + 1}b")[::-1]  # bits[n] is bit n, read in one pass
    return [n for n in range(lo, hi + 1) if bits[n] == "0"]
