"""Brute-force ground truth for FS membership.

Everything constructive elsewhere in the package is cross-checked against the
routines here, so this module must stay independent of the constructions: it
only does exhaustive subset search and include-or-not dynamic programming.
"""

from __future__ import annotations

import operator
import re
import sys
from array import array
from collections.abc import Set
from functools import cache, cached_property, reduce
from itertools import accumulate, chain, compress
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    COORDS,
    DEFAULT_CELL_CAP,
    Box,
    GeneratorSet,
    Point,
    Representation,
    ResourceLimitError,
    ValidationError,
    charge,
    check_ascending,
)


def fs_membership(
    X: GeneratorSet, target: Point, cell_cap: int = DEFAULT_CELL_CAP
) -> Optional[Representation]:
    """Decide target in FS(X), with the witness `ReachableSet` fixes.

    Within the cap, one include-or-not DP over [0, target] decides it, and that
    pass also builds the witness planes.  A target box beyond the cap goes to
    the exclude-first search, bounded by cell_cap nodes, which finds the same
    witness.
    """
    if len(X) and X.dim != target.dim:
        raise ValidationError("generator/target dimension mismatch")
    if target.is_zero:
        return Representation((), target)
    gens = [g for g in X if all(map(operator.le, g.coords, target.coords))]
    # a subset sums to at most the total of gens on each axis: a target past it needs no DP
    if any(sum(g.coords[j] for g in gens) < t for j, t in enumerate(target.coords)):
        return None
    if _cells(target) > cell_cap:
        return _search_membership(gens, target, cell_cap)
    reach = ReachableSet(Box(Point.zero(target.dim), target), gens, planes=True)
    return reach.witness(target) if target in reach else None


def _search_membership(
    gens: Sequence[Point], target: Point, node_cap: int
) -> Optional[Representation]:
    """Exclude-first search over gens (canonical order, each <= target) with
    memoized failures; more than node_cap pushes raise ResourceLimitError.

    Every vector searched is <= target, so each is packed into one int with a
    field of w bits per axis whose top (guard) bit stays clear; a <= b is then
    one subtraction that cannot borrow across fields.  The search keeps an
    explicit stack, so its depth is not bounded by the recursion limit.
    """
    w = max(target.coords).bit_length() + 1
    guards = sum(1 << (w * j + w - 1) for j in range(target.dim))

    def pack(coords: Sequence[int]) -> int:
        return sum(c << (w * j) for j, c in enumerate(coords))

    # suffix sums, clamped to the target, let us abandon branches that can no
    # longer reach it; rem <= target, so clamping keeps the test exact
    n = len(gens)
    packed = [pack(g.coords) for g in gens]
    suffix = [0] * (n + 1)
    total = [0] * target.dim
    for i in range(n - 1, -1, -1):
        total = [min(s + c, t) for s, c, t in zip(total, gens[i].coords, target.coords)]
        suffix[i] = pack(total)

    failed: list[set[int]] = [set() for _ in range(n)]
    stack: list[list] = []  # frames [i, rem, included] of the open calls
    nodes = 0
    i, rem = 0, pack(target.coords)
    while True:
        if rem == 0:
            members = tuple(gens[f[0]] for f in stack if f[2])
            return Representation(members, target)
        if i < n and ((suffix[i] | guards) - rem) & guards == guards and rem not in failed[i]:
            nodes += 1
            if nodes > node_cap:
                raise ResourceLimitError(f"membership search needs over {node_cap} nodes, the cap")
            stack.append([i, rem, False])
            i += 1  # exclude first
            continue
        while stack:  # this call failed: back up to the latest untried include
            frame = stack[-1]
            i, rem, included = frame
            if not included and ((rem | guards) - packed[i]) & guards == guards:
                frame[2] = True
                i, rem = i + 1, rem - packed[i]
                break
            failed[i].add(rem)
            stack.pop()
        else:
            return None


def _cells(hi: Point) -> int:
    """The number of cells of the box [0, hi]."""
    return reduce(operator.mul, (c + 1 for c in hi.coords), 1)


def _repeat_mask(period: int, cells: int) -> int:
    """One bit at every multiple of period below cells, for a period dividing
    cells: ((1 << cells) - 1) // ((1 << period) - 1), built by doubling in
    linear time instead of by a quadratic big-int division."""
    mask, width = 1, period
    while width < cells:
        mask |= mask << width
        width <<= 1
    return mask & ((1 << cells) - 1)


class ReachableSet(Set):
    """FS(generators) in a box, a read-only set of Points: one bytes object
    holds a bit per cell of a padded grid over [0, box.hi] (axis 0 fastest),
    set exactly for the reachable cells of the box.  Points are built only
    while iterating.

    Two orders, whatever order the generators are given in.  The reach does
    not depend on the order, so the pass that builds only the reach adds them
    narrow first: ascending last coordinate, the larger shift first among
    equal ones.  After m steps the reach spans at most the rows of the last
    axis up to the sum of their last coordinates, so taking the small ones
    first (the shortest-processing-time rule) makes every such prefix sum,
    and so the bits each step shifts, as small as it can be; among equal last
    coordinates each shifted copy is then no wider than the one before, and
    its memory is reused.  Only the planes pass fixes the witness order.

    The witness rule: the planes are built adding the generators in reverse
    canonical order, `generators`.  A point's witness takes the generator
    whose stage first reached it, steps back by it and repeats to the origin,
    so it depends only on the generator set and the point and lists its
    members in canonical order.  It is the lexicographically first include
    vector, which `_search_membership` finds: that search skips generator i
    exactly while the remainder is in FS of the generators after it.

    Witnesses come from each cell's first-reach index k (the cell was first
    reached by including generator k - 1; 0 for the origin), kept bit-sliced as
    its Gray code g(k) = k ^ (k >> 1): bit j of g(k) is the cell's bit of plane
    j, in one bytes object per plane.  Consecutive codes differ in one bit, so
    each DP step costs the planes one XOR.  The constructor runs the DP once;
    with planes=True that pass also builds the planes, and otherwise it keeps
    only the reach bitset and the first `witness` or `witnesses` call runs the
    DP again to build them.  Only the generators that fit under box.hi are kept:
    no sum in the box uses the others.
    """

    def __init__(self, box: Box, generators: Iterable[Point], *, planes: bool = False):
        self.box = box
        hi = box.hi.coords
        fits = (g for g in generators if all(map(operator.le, g.coords, hi)))
        self.generators = tuple(sorted(fits, key=COORDS, reverse=True))
        # every axis but the last is padded by the largest coordinate on it of a
        # generator, so q + g stays inside q's block whenever q <= hi: a shift
        # never carries a cell into the next block
        coords = [g.coords for g in self.generators]
        pads = [max(c) for c in zip(*coords)] if coords else [0] * len(hi)
        self._widths = [h + 1 + pad for h, pad in zip(hi[:-1], pads)] + [hi[-1] + 1]
        # place values of the axes; the last one is the number of padded cells
        self._strides = list(accumulate(self._widths, operator.mul, initial=1))
        cells = self._strides[-1]
        # per axis, one bit at the start of every block of the axes up to it
        self._repeats = [_repeat_mask(s, cells) for s in self._strides[1:]]
        self._inside = self._box_mask([0] * len(hi), hi)
        self._shifts = {c: sum(map(operator.mul, c, self._strides)) for c in coords}
        self._offsets = [self._shifts[c] for c in coords]
        reach, gray = self._run(planes)
        if planes:
            self._planes = gray
        if any(box.lo.coords):
            reach &= self._box_mask(box.lo.coords, hi)
        self._len = reach.bit_count()
        self._bytes = reach.to_bytes(cells // 8 + 1, "little")  # one bytes view for every bit test

    def _stages(self, order: Sequence[Point]) -> Iterator[int]:
        """The DP over [0, box.hi]: the reach bitset of stages 0..n, where stage
        m has added the first m generators of order, each included or not."""
        reach = 1  # bit 0, the origin, is the empty sum
        yield reach
        for g in order:
            reach = self._include(reach, g)
            yield reach

    def _run(self, planes: bool) -> tuple[int, list[bytes]]:
        """One DP pass: the last of `_stages()`, the whole reach, and with
        planes the Gray-coded first-reach planes, most significant bit first
        (none without).  A cell first reached at stage k is in stages k..n,
        and g(k) is the XOR of g(m) ^ g(m + 1) over m = k..n - 1 and of g(n):
        so stage m < n XORs its cells into the one plane where g(m) and
        g(m + 1) differ, bit tz(m + 1), and stage n into the planes of the set
        bits of g(n).  The planes pass walks the witness order; the reach
        alone walks the narrow-first order of the class docstring."""
        n = len(self.generators)
        gray = [0] * n.bit_length() if planes else []
        order = self.generators
        if not planes:
            order = sorted(order, key=lambda g: (g.coords[-1], -self._shifts[g.coords]))
        for m, reach in enumerate(self._stages(order)):
            if planes:
                flips = (m + 1) & -(m + 1) if m < n else n ^ n >> 1
                for j in range(flips.bit_length()):
                    if flips >> j & 1:
                        gray[j] ^= reach
        size = self._strides[-1] // 8 + 1  # the size of the reach bytes
        return reach, [plane.to_bytes(size, "little") for plane in reversed(gray)]

    @cached_property
    def _planes(self) -> list[bytes]:
        """The planes of a set built without them, by a second DP pass on the
        first call; kept."""
        return self._run(True)[1]

    @property
    def points(self) -> "ReachableSet":
        return self

    _from_iterable = staticmethod(frozenset)  # so `&`, `|`, `-` and `^` give frozensets

    def __len__(self) -> int:
        return self._len

    def __contains__(self, p: object) -> bool:
        fits = isinstance(p, Point) and p.dim == self.box.dim and self.box.contains(p)
        return fits and bool(_bit(self._bytes, self._index(p)))

    def __iter__(self) -> Iterator[Point]:
        return map(Point, map(_COORDS_OF, self._cells()))

    def _cells(self, runs: Optional[list[slice]] = None) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(cell index, coordinates) of every point, in iteration order, or of
        the points in runs, runs of nonzero reach bytes as slices."""
        # walk the nonzero bytes: clearing one bit at a time would copy the int per
        # point; decode each byte's first cell once and step along axis 0 from there
        width = self._strides[1]
        view = self._bytes
        for run in chain.from_iterable(self._chunks()) if runs is None else runs:
            for base, byte in enumerate(view[run], run.start):
                i = 8 * base
                first = self._coords(i)
                x0, rest = first[0], first[1:]
                for bit in _BYTE_BITS[byte]:
                    x = x0 + bit
                    yield i + bit, (x,) + rest if x < width else self._coords(i + bit)

    def _chunks(self) -> Iterator[list[slice]]:
        """The runs of nonzero reach bytes as slices, in order, a list per
        window of _DECODE_BYTES bytes (a run crossing a window's end is split
        there); a regex skips the zero bytes between runs."""
        view = self._bytes
        for start in range(0, len(view), _DECODE_BYTES):
            found = _NONZERO_RUN.finditer(view, start, start + _DECODE_BYTES)
            yield [slice(*m.span()) for m in found]

    def _index(self, p: Point) -> int:
        return sum(map(operator.mul, p.coords, self._strides))

    def _coords(self, i: int) -> tuple[int, ...]:
        return tuple(i // s % w for s, w in zip(self._strides, self._widths))

    def _box_mask(self, lo: Sequence[int], hi: Sequence[int]) -> int:
        """Bits of the cells q with lo <= q <= hi, by block repetition along each axis."""
        mask = -1
        for s, repeat, l, h in zip(self._strides, self._repeats, lo, hi):
            # cells with l <= q[axis] <= h: a run of ones, once in every block of this axis
            mask &= (repeat << ((h + 1) * s)) - (repeat << (l * s))
        return mask

    def _include(self, reach: int, g: Point) -> int:
        """One DP step: every reached cell q with q + g <= hi also reaches q + g.
        The padding keeps each shifted cell in its block, so one AND with the
        box drops the sums past hi.  reach lies in the box already, so only the
        shifted copy is ANDed: a step makes one temporary wider than the box,
        not two, and on large boxes each one costs freshly mapped pages."""
        return reach | reach << self._shifts[g.coords] & self._inside

    def row(self, y: int) -> int:
        """The cells (0..hi_x, y) of a 2D set as one int, bit x for cell (x, y);
        0 for a row outside the box.  A 1D set is its one row, y = 0."""
        if self.box.dim > 2:
            raise ValidationError(f"row needs a 1D or 2D set, got {self.box.dim}D")
        hx, hy = (*self.box.hi.coords, 0)[:2]  # a 1D set's one row has y = 0
        if not 0 <= y <= hy:
            return 0
        start = y * self._strides[1]
        chunk = self._bytes[start >> 3 : ((start + hx + 1) >> 3) + 1]
        return int.from_bytes(chunk, "little") >> (start & 7) & ((1 << (hx + 1)) - 1)

    def _first_reach(self, i: int) -> int:
        """The first-reach index k of cell i, decoded from its Gray code in the
        bit planes, most significant bit first: bit j of k is bit j of the code
        XOR bit j + 1 of k."""
        byte, shift = i >> 3, i & 7
        k = 0
        for plane in self._planes:
            # the low bit of (plane[byte] >> shift) ^ k: the cell's bit here XOR k's last bit
            k = k << 1 | (plane[byte] >> shift ^ k) & 1
        return k

    def witness(self, p: Point) -> Representation:
        """The witness of a reachable point, by the walk of the class docstring:
        stages fall along it, so it meets the members in canonical order.
        Unless the set was built with planes=True, the first call of this or of
        `witnesses` builds the planes (a second DP pass)."""
        if p not in self:
            raise ValidationError(f"{p} is not reachable inside the box")
        members: list[Point] = []
        i = self._index(p)
        while k := self._first_reach(i):
            members.append(self.generators[k - 1])
            i -= self._offsets[k - 1]
        return Representation(tuple(members), p)

    def _first_reaches(self, runs: list[slice]) -> Iterator[int]:
        """The first-reach index of every point, in iteration order, decoded in
        bulk from the planes' bytes in runs, a chunk of `_chunks()`, only: the
        work and the memory follow the points, not the padded grid.  Bit j of k
        is the XOR of the code's bits j and up, so a running XOR of those plane
        bytes, most significant first, gives k's bit planes.  Each is spread to
        one bit per cell lane (a table maps a plane byte to its 8 lanes) and
        shifted into bit j of every lane; a lane has as many bytes as k needs,
        so any generator count decodes.  The reach bytes, spread the same way,
        then pick the points' lanes."""
        planes = self._planes
        table = next(a for a in map(array, "BHIQ") if a.itemsize * 8 >= len(planes))
        spread = _spread_bits(table.itemsize)
        code = lanes = 0
        for j, plane in zip(range(len(planes) - 1, -1, -1), planes):
            picked = b"".join(map(plane.__getitem__, runs))
            code ^= int.from_bytes(b"".join(map(spread.__getitem__, picked)), "little")
            lanes |= code << j
        occupied = b"".join(map(self._bytes.__getitem__, runs))
        table.frombytes(lanes.to_bytes(len(occupied) * 8 * table.itemsize, "little"))
        if sys.byteorder == "big":
            table.byteswap()
        return compress(table, b"".join(map(_spread_bits(1).__getitem__, occupied)))

    def witnesses(
        self, values: Optional[Sequence[Sequence]] = None
    ) -> Iterator[tuple[tuple[int, ...], Sequence]]:
        """(coords, members) for every point, in iteration order, on coordinate
        tuples: members lists the coords of witness(p)'s members in the same
        order, the generators' own tuples.  With values, one per generator of
        `generators` (tuples or strings, say), members is instead the
        concatenation of the members' values in that order, from values[0][:0]
        (() without generators).  Each point's members is its cell's value
        followed by the memoized fold of the cell it steps back to.  The points'
        first-reach indices are decoded in bulk, one chunk of `_chunks()` at a
        time, so a decode's memory is bounded; a walk below box.lo decodes its
        cells one at a time.  One memo, local to the call, maps each cell walked
        to its fold, so a walk stops at the first cell an earlier walk passed
        and the walks share their tails."""
        as_lists = values is None
        if as_lists:  # each generator's coords as a 1-tuple
            values = [(g.coords,) for g in self.generators]
        # per first-reach index k: generator k - 1's value and its offset; k = 0,
        # the origin's, adds nothing
        steps = [(values[0][:0] if values else (), 0), *zip(values, self._offsets)]
        memo: dict[int, Sequence] = {0: steps[0][0]}
        get = memo.get
        for runs in self._chunks():
            for (i, c), k in zip(self._cells(runs), self._first_reaches(runs)):
                g, offset = steps[k]
                # the cell before i in its walk has a lower index, so iteration
                # memoized it already, unless it lies below box.lo; then so do the
                # walk's later cells, in no reach byte, so each is decoded alone
                if (tail := get(i - offset)) is None:
                    path = []  # (cell, its generator's value) down to a memoized cell
                    j = i - offset
                    while (tail := get(j)) is None:
                        h, step = steps[self._first_reach(j)]
                        path.append((j, h))
                        j -= step
                    for cell, h in reversed(path):
                        tail = h + tail
                        memo[cell] = tail
                members = memo[i] = g + tail
                yield c, list(members) if as_lists else members


def _bit(view: bytes, i: int) -> int:
    """Bit i of a little-endian bytes view of a bitset."""
    return view[i >> 3] >> (i & 7) & 1


# the set bit positions of each byte value, for iterating a bitset bytewise
_BYTE_BITS = [tuple(j for j in range(8) if b >> j & 1) for b in range(256)]
_NONZERO_RUN = re.compile(rb"[^\x00]+")
_DECODE_BYTES = 1 << 14  # the reach bytes whose first-reach indices one bulk decode takes
_COORDS_OF = operator.itemgetter(1)  # the coordinates of a (cell index, coordinates) pair


@cache
def _spread_bits(width: int) -> list[bytes]:
    """Per byte value, its 8 bits as 8 little-endian lanes of width bytes."""
    return [b"".join((b >> t & 1).to_bytes(width, "little") for t in range(8)) for b in range(256)]


def bit_levels(bits: int, width: int, off: int, on: int) -> bytes:
    """Bits 0..width-1 of a nonnegative int as width bytes: byte x is `on`
    where bit x is set and `off` elsewhere (one translate)."""
    table = bytes.maketrans(b"01", bytes((off, on)))
    return format(bits & ((1 << width) - 1), f"0{width}b")[::-1].encode().translate(table)


def fs_enumerate(X: GeneratorSet, box: Box, cell_cap: int = DEFAULT_CELL_CAP) -> ReachableSet:
    """All points of the box reachable as sums of distinct generators.

    The DP runs over [0, box.hi] (partial sums of nonnegative vectors are
    monotone, so nothing outside that domain can contribute), one generator at
    a time: include it or not.  Charges the cells of [0, box.hi] against cell_cap.
    """
    charge(_cells(box.hi), "enumeration domain", cell_cap, "cells")
    if len(X):
        X.elements[0]._check_dim(box.hi)
    return ReachableSet(box, X)


def trm_table(values: Sequence[int], x_max: int, cell_cap: int = DEFAULT_CELL_CAP) -> list[int]:
    """trm(x) for every x in [0, x_max]: max subset size summing to x, 0 if none.

    (trm(0) = 0 is the empty sum; for x >= 1 a zero means not representable.)
    x is a sum of j values exactly when (x, j) is in FS({(a, 1)}): one DP over
    [0, x_max] x [0, J], J the count of smallest values summing to <= x_max,
    refused above cell_cap cells.  The walk yields rows in ascending order, so a
    dict of its (x, j) cells keeps the largest j, trm(x).
    """
    check_ascending(values, "values")
    if x_max < 0:
        raise ValidationError("x_max must be >= 0")
    J = sum(1 for s in accumulate(values) if s <= x_max)
    lift = GeneratorSet(tuple(Point((a, 1)) for a in values))
    reach = fs_enumerate(lift, Box(Point((0, 0)), Point((x_max, J))), cell_cap)
    last = dict(map(_COORDS_OF, reach._cells()))
    return [last.get(x, 0) for x in range(x_max + 1)]


def trm(values: Sequence[int], x: int) -> int:
    """Maximum number of distinct terms of `values` summing to x (0 = no subset)."""
    if x < 1:
        raise ValidationError("x must be >= 1")
    return trm_table(values, x)[x]
