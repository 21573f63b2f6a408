"""Independent reference answers for the benchmark's output checks.

Nothing here imports fslattice: the reachable sets are recomputed with a
flattened big-int bitset DP, so a check never trusts the code it checks.
Cells of the box [0, hi] are numbered in mixed radix with axis 0 fastest:
index(p) = p[0] + p[1]*(hi[0]+1) + p[2]*(hi[0]+1)*(hi[1]+1) + ...
"""

from __future__ import annotations

from typing import Iterable, Sequence

Coords = Sequence[int]


class Grid:
    """The cells of the box [0, hi] as bit positions of one Python int."""

    def __init__(self, hi: Coords):
        self.hi = tuple(hi)
        self.strides = []
        stride = 1
        for h in self.hi:
            self.strides.append(stride)
            stride *= h + 1
        self.cells = stride

    def index(self, p: Coords) -> int:
        return sum(c * s for c, s in zip(p, self.strides))

    def box_mask(self, lo: Coords, hi: Coords) -> int:
        """Bits of the cells q with lo <= q <= hi componentwise."""
        mask = ((1 << (hi[0] - lo[0] + 1)) - 1) << lo[0]
        span = self.hi[0] + 1
        for axis in range(1, len(self.hi)):
            # one copy of the lower-dimensional block per coordinate value on
            # this axis; the block is narrower than `span`, so no carries
            copies = hi[axis] - lo[axis] + 1
            repeat = ((1 << (copies * span)) - 1) // ((1 << span) - 1)
            mask = (mask * repeat) << (lo[axis] * span)
            span *= self.hi[axis] + 1
        return mask

    def reachable(self, generators: Iterable[Coords]) -> int:
        """FS(generators) inside [0, hi]: include-or-not over a shift-or bitset."""
        reach = 1  # the empty sum
        for g in generators:
            if any(c > h for c, h in zip(g, self.hi)):
                continue
            fit = self.box_mask((0,) * len(self.hi), [h - c for h, c in zip(self.hi, g)])
            reach |= (reach & fit) << self.index(g)
        return reach

    def bits_of(self, points: Iterable[Coords]) -> int:
        """The int whose set bits are the given cells."""
        buf = bytearray(self.cells // 8 + 1)
        strides = self.strides
        if len(strides) == 2:  # the hot case: a million points of the 1023^2 grid
            width = strides[1]
            for x, y in points:
                i = x + y * width
                buf[i >> 3] |= 1 << (i & 7)
        else:
            for p in points:
                i = sum(c * s for c, s in zip(p, strides))
                buf[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(buf, "little")

    def points_of(self, bits: int) -> list[tuple[int, ...]]:
        """The cells of `bits`, in index order."""
        out = []
        raw = bits.to_bytes(self.cells // 8 + 1, "little")
        for byte_index, byte in enumerate(raw):
            while byte:
                low = byte & -byte
                i = byte_index * 8 + low.bit_length() - 1
                coords = []
                for h in self.hi:
                    i, c = divmod(i, h + 1)
                    coords.append(c)
                out.append(tuple(coords))
                byte ^= low
        return out


def in_exceptional(a: int, b: int) -> bool:
    """(a, b) with a, b >= 1 lies in E = {2^b <= a or 2^a <= b}."""
    return b < a.bit_length() or a < b.bit_length()


def dyadic_grid(max_exponent: int) -> list[tuple[int, int]]:
    """All points (2^i, 2^j) with 0 <= i, j <= max_exponent."""
    return [(1 << i, 1 << j) for i in range(max_exponent + 1) for j in range(max_exponent + 1)]


def is_representation(members: Sequence[Coords], target: Coords, generators: set) -> bool:
    """Members are distinct generators that sum exactly to the target."""
    members = [tuple(m) for m in members]
    if len(set(members)) != len(members) or not all(m in generators for m in members):
        return False
    total = [0] * len(target)
    for m in members:
        if len(m) != len(target):
            return False
        for axis, c in enumerate(m):
            total[axis] += c
    return total == list(target)
