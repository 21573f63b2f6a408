"""Exact lattice arithmetic primitives: points, boxes, generator sets, representations.

Everything here is immutable and pure; all downstream algorithms depend on the
canonical (lexicographic) ordering fixed by GeneratorSet.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class ValidationError(ValueError):
    """Malformed input: bad coordinates, dimension mismatch, unordered lists."""


class DomainError(ValueError):
    """Structurally valid input outside an operation's stated domain."""


class ResourceLimitError(RuntimeError):
    """Work would exceed the configured cell cap."""


DEFAULT_CELL_CAP = 2**26


def charge(count: int, what: str, cap: int, unit: str = "points", verb: str = "has") -> None:
    """Refuse work of `count` units above the cell cap, before it is done."""
    if count > cap:
        raise ResourceLimitError(f"{what} {verb} {count} {unit}, above the cap of {cap}")


class DepthError(DomainError):
    """Ray depth exhausted during carry merging; carries `required_depth`."""

    def __init__(self, message: str, required_depth: int):
        super().__init__(message)
        self.required_depth = required_depth


class DensityError(DomainError):
    """A GAP stage found too few collisions; carries the stage diagnostics."""

    def __init__(self, message: str, stage: int, achieved: int, required: int):
        super().__init__(message)
        self.stage = stage
        self.achieved = achieved
        self.required = required


@dataclass(frozen=True, order=True)
class Point:
    """Integer lattice point in N^k (zero coordinates allowed)."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) < 1:
            raise ValidationError("point needs at least one coordinate")
        for c in self.coords:
            if not isinstance(c, int) or c < 0:
                raise ValidationError(f"coordinates must be nonnegative integers, got {c!r}")

    @classmethod
    def zero(cls, dim: int) -> "Point":
        return cls((0,) * dim)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def scale(self, c: int) -> "Point":
        if c < 0:
            raise ValidationError("scalar must be nonnegative")
        return Point(tuple(c * x for x in self.coords))

    def fits_within(self, other: "Point") -> bool:
        """Componentwise <=; the condition for a generator to be usable."""
        a, b = self.coords, other.coords
        if len(a) != len(b):
            self._check_dim(other)  # raises the mismatch
        return all(map(operator.le, a, b))

    def _check_dim(self, other: "Point") -> None:
        if self.dim != other.dim:
            raise ValidationError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def to_json(self) -> list[int]:
        return list(self.coords)

    @classmethod
    def from_json(cls, data: Sequence[int]) -> "Point":
        return cls(tuple(int_array(data, "a point")))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


# Point's dataclass order compares (coords,), so this key sorts Points in the
# same order without a generated __lt__ call per comparison
COORDS = operator.attrgetter("coords")


def int_array(data: object, what: str) -> list[int]:
    """Decoded JSON checked to be an array of integers (booleans excluded)."""
    if not isinstance(data, (list, tuple)) or not all(type(v) is int for v in data):
        raise ValidationError(f"{what} must be an array of integers, got {repr(data)[:40]}")
    return list(data)


def check_ascending(values: Sequence[int], name: str) -> None:
    """Reject values that are not strictly ascending positive integers."""
    prev = 0
    for v in values:
        if v <= prev:
            raise ValidationError(f"{name} must be ascending, distinct and positive")
        prev = v


@dataclass(frozen=True)
class GeneratorSet:
    """Finite set of distinct nonzero points, kept in canonical lex order."""

    elements: tuple[Point, ...]

    def __post_init__(self) -> None:
        coords = [p.coords for p in self.elements]
        # tuples compare in C: one dimension, strictly ascending (so distinct),
        # and the smallest, the only place a zero vector can then be, nonzero
        if coords and (
            len(set(map(len, coords))) > 1
            or not all(map(operator.lt, coords, coords[1:]))
            or not any(coords[0])
        ):
            raise ValidationError(self._fault())
        # membership set, built once; not a field, so eq and hash ignore it
        object.__setattr__(self, "_members", frozenset(coords))

    def _fault(self) -> str:
        """What is wrong with the elements: the first bad element's fault,
        checked in element order, else their order."""
        seen: set[tuple[int, ...]] = set()
        for p in self.elements:
            if p.dim != self.elements[0].dim:
                return "generator set mixes dimensions"
            if p.is_zero:
                return "generator set may not contain the zero vector"
            if p.coords in seen:
                return f"duplicate generator {p}"
            seen.add(p.coords)
        return "generators must be in canonical (lexicographic) order"

    @classmethod
    def of(cls, points: Iterable[Point]) -> "GeneratorSet":
        return cls(tuple(sorted(set(points), key=COORDS)))

    @property
    def dim(self) -> int:
        if not self.elements:
            raise ValidationError("empty generator set has no dimension")
        return self.elements[0].dim

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.elements)

    def __contains__(self, p: Point) -> bool:
        return isinstance(p, Point) and p.coords in self._members  # type: ignore[attr-defined]

    @property
    def coord_set(self) -> frozenset[tuple[int, ...]]:
        """The elements' coordinate tuples: membership without a Point."""
        return self._members  # type: ignore[attr-defined]

    def to_json(self) -> list[list[int]]:
        return [p.to_json() for p in self.elements]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[int]]) -> "GeneratorSet":
        if not isinstance(data, (list, tuple)):
            raise ValidationError("a generator set must be an array of points")
        return cls.of(Point.from_json(p) for p in data)


@dataclass(frozen=True)
class Representation:
    """A subset of generators whose vector sum equals `target`.

    The empty member list is valid only for the zero target (empty sum).
    """

    members: tuple[Point, ...]
    target: Point

    def to_json(self) -> dict:
        return {
            "target": self.target.to_json(),
            "members": [m.to_json() for m in self.members],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Representation":
        return cls(
            tuple(Point.from_json(m) for m in data["members"]),
            Point.from_json(data["target"]),
        )


def validate_representation(r: Representation) -> bool:
    """True iff members are pairwise distinct and sum exactly to the target."""
    # Point equality and hash are those of coords, so distinct tuples are
    # distinct Points
    return validate_sum([m.coords for m in r.members], r.target.coords)


def validate_sum(members: Sequence[tuple[int, ...]], target: tuple[int, ...]) -> bool:
    """validate_representation on coordinate tuples: True iff the members are
    pairwise distinct and sum exactly to the target."""
    if not set(map(len, members)) <= {len(target)}:
        raise ValidationError("member/target dimension mismatch")
    if len(set(members)) != len(members):
        return False
    if not members:
        return not any(target)
    return tuple(map(sum, zip(*members))) == tuple(target)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: contains p iff lo <= p <= hi componentwise."""

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        self.lo._check_dim(self.hi)
        if not self.lo.fits_within(self.hi):
            raise ValidationError("box lower corner exceeds upper corner")

    @property
    def dim(self) -> int:
        return self.lo.dim

    def contains(self, p: Point) -> bool:
        return self.lo.fits_within(p) and p.fits_within(self.hi)


def parse_point(text: str) -> Point:
    """Parse "a,b,..." into a Point (CLI helper)."""
    try:
        coords = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"cannot parse point {text!r}") from exc
    return Point(coords)
