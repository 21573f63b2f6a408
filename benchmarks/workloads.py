"""The benchmark's workloads: seeded inputs, timed operations, output checks.

`build(workload, seed, workdir)` generates and writes the inputs and returns
the operations.  Each operation's `run` is timed; its `check` runs afterwards,
outside the timed interval, and raises WrongOutput when the output is wrong.
Checks compare against `reference` (which imports no fslattice) or, where a
workload checks one oracle path with the other, against fslattice itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import reference

from fslattice import cli, core, oracle

Point = core.Point

# membership: each target of the 13 x 13 grid over [0, 180]^2 is asked
# QUERIES_PER_TARGET times, TARGETS_PER_SET queries to one seeded set of
# SET_SIZE generators in [1, SET_RANGE]^2.  Search cost is heavy-tailed in the
# generator set, so many small batches keep the seed-to-seed spread low; the
# targets are large enough that the search, not cli.main's per-call parser
# set-up (about 4.5 ms), takes most of the time.
TARGET_MAX = 180
GRID_TARGETS = [(x, y) for x in range(0, TARGET_MAX + 1, 15) for y in range(0, TARGET_MAX + 1, 15)]
QUERIES_PER_TARGET = 3
TARGETS_PER_SET = 13
SET_SIZE = 20
SET_RANGE = 30
# the deep query: generators (i, 1), i = 1..1200; only (1199,1) + (1200,1) reach the target
DEEP_SIZE = 1200
DEEP_TARGET = (2399, 2)


class WrongOutput(Exception):
    """An operation returned, but its output fails the workload's check."""


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


def _cli(argv: list[str]) -> tuple[int, str]:
    """fslattice's CLI in process; returns the exit code and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _write_generators(path: Path, points) -> str:
    path.write_text(json.dumps([list(p) for p in points]))
    return str(path)


# -- enumerate --------------------------------------------------------------


def _check_reach(grid: reference.Grid, expected: int, reach) -> None:
    got = grid.bits_of(p.coords for p in reach.points)
    _require(got == expected, f"reachable set differs: {got.bit_count()} points, expected {expected.bit_count()}")


def _enumerate(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)

    # 1. dyadic grid DP, membership only: all 121 points (2^i, 2^j), i, j <= 10;
    #    the DP prunes the 21 with a coordinate 1024 outside the box
    grid_points = reference.dyadic_grid(10)
    grid_gens = core.GeneratorSet.of(Point(p) for p in grid_points)
    grid_box = core.Box(Point((1, 1)), Point((1023, 1023)))
    grid = reference.Grid((1023, 1023))

    # 2. 3D DP: all 125 points of [1,5]^3 over the box [0,25]^3
    cube_points = list(itertools.product(range(1, 6), repeat=3))
    cube_gens = core.GeneratorSet.of(Point(p) for p in cube_points)
    cube_box = core.Box(Point((0, 0, 0)), Point((25, 25, 25)))
    cube = reference.Grid((25, 25, 25))

    # 3. `dyadic map` over [1,511]^2
    map_path = workdir / "map.pgm"
    map_grid = reference.Grid((511, 511))

    # 4. `fs enumerate` with witnesses: 64 seeded generators in [1,12]^2
    small_points = rng.sample([(x, y) for x in range(1, 13) for y in range(1, 13)], 64)
    small_path = _write_generators(workdir / "small.json", sorted(small_points))
    small_out = workdir / "small-out.json"
    small = reference.Grid((60, 60))

    def check_grid(reach) -> None:
        expected = grid.reachable(grid_points) & grid.box_mask((1, 1), (1023, 1023))
        _check_reach(grid, expected, reach)

    def check_cube(reach) -> None:
        expected = cube.reachable(cube_points)
        _check_reach(cube, expected, reach)
        # the other oracle path on a seeded sample, reachable and unreachable
        everything = (1 << cube.cells) - 1
        check_rng = random.Random(seed + 1)
        sample = check_rng.sample(cube.points_of(expected), 3)
        sample += check_rng.sample(cube.points_of(everything & ~expected), 3)
        gens = set(cube_points)
        for p in sample:
            rep = oracle.fs_membership(cube_gens, Point(p))
            reachable = (expected >> cube.index(p)) & 1
            _require((rep is not None) == bool(reachable), f"fs_membership disagrees at {p}")
            if rep is not None:
                members = [m.coords for m in rep.members]
                _require(reference.is_representation(members, p, gens), f"bad witness for {p}")

    def check_map(result) -> None:
        code, printed = result
        _require(code == 0, f"dyadic map exited {code}")
        reach = map_grid.reachable(grid_points)
        in_box = reach & map_grid.box_mask((1, 1), (511, 511))
        _require(json.loads(printed)["reachable"] == in_box.bit_count(), "reachable count differs")
        reach_bytes = reach.to_bytes(map_grid.cells // 8 + 1, "little")
        tokens = map_path.read_text().split()
        _require(tokens[:4] == ["P2", "511", "511", "255"], "bad PGM header")
        pixels = iter(tokens[4:])
        for y in range(511, 0, -1):
            for x in range(1, 512):
                i = map_grid.index((x, y))
                if not reference.in_exceptional(x, y):
                    level = "255"
                elif reach_bytes[i >> 3] >> (i & 7) & 1:
                    level = "128"
                else:
                    level = "0"
                _require(next(pixels, None) == level, f"pixel ({x},{y}) is not {level}")
        _require(next(pixels, None) is None, "PGM has extra pixels")

    def check_small(code) -> None:
        _require(code == 0, f"fs enumerate exited {code}")
        payload = json.loads(small_out.read_text())
        expected = small.reachable(small_points)
        points = [tuple(p) for p in payload["points"]]
        _require(payload["count"] == expected.bit_count() == len(points), "reachable count differs")
        _require(small.bits_of(points) == expected, "reachable set differs")
        witnesses = payload["witnesses"]
        _require(len(witnesses) == len(points), "a point lacks its witness")
        gens = set(small_points)
        for p in random.Random(seed + 2).sample(points, min(64, len(points))):
            members = witnesses["(" + ",".join(map(str, p)) + ")"]
            _require(reference.is_representation(members, p, gens), f"bad witness for {p}")

    return [
        Op("fs_enumerate 1023^2 dyadic grid", lambda: oracle.fs_enumerate(grid_gens, grid_box), check_grid),
        Op("fs_enumerate 25^3 box", lambda: oracle.fs_enumerate(cube_gens, cube_box), check_cube),
        Op("dyadic map 511^2", lambda: _cli(["dyadic", "map", "--box", "1,1,511,511", "--out", str(map_path)]), check_map),
        Op(
            "fs enumerate 60^2 with witnesses",
            lambda: _cli(["fs", "enumerate", "--generators", small_path, "--box", "0,0,60,60", "--out", str(small_out)])[0],
            check_small,
        ),
    ]


# -- membership -------------------------------------------------------------


def _membership(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    targets = GRID_TARGETS * QUERIES_PER_TARGET
    rng.shuffle(targets)
    cells = [(x, y) for x in range(1, SET_RANGE + 1) for y in range(1, SET_RANGE + 1)]
    answers: dict[str, set] = {}  # set file -> reachable targets, filled by the checks
    ops = []
    for start in range(0, len(targets), TARGETS_PER_SET):
        points = sorted(rng.sample(cells, SET_SIZE))
        path = _write_generators(workdir / f"set{start // TARGETS_PER_SET}.json", points)
        for target in targets[start : start + TARGETS_PER_SET]:
            ops.append(_query(path, points, target, answers))
    deep = [(i, 1) for i in range(1, DEEP_SIZE + 1)]
    deep_path = _write_generators(workdir / "deep.json", deep)
    answers[deep_path] = {DEEP_TARGET}
    ops.append(_query(deep_path, deep, DEEP_TARGET, answers))
    return ops


def _query(path: str, points: list, target: tuple, answers: dict) -> Op:
    text = ",".join(map(str, target))
    gens = set(points)

    def check(result) -> None:
        code, printed = result
        _require(code == 0, f"fs check exited {code}")
        if path not in answers:
            # verdicts from the other oracle path, one DP per generator set
            X = core.GeneratorSet.of(Point(p) for p in points)
            reach = oracle.fs_enumerate(X, core.Box(Point((0, 0)), Point((TARGET_MAX, TARGET_MAX))))
            answers[path] = {t for t in GRID_TARGETS if Point(t) in reach.points}
        payload = json.loads(printed)
        expected = target in answers[path]
        _require(payload["reachable"] == expected, f"verdict for {target} is not {expected}")
        if expected:
            rep = core.Representation.from_json(payload["representation"])
            _require(rep.target == Point(target), "witness has another target")
            _require(core.validate_representation(rep), f"invalid witness for {target}")
            _require(all(m.coords in gens for m in rep.members), "witness uses a non-generator")

    return Op(f"fs check {text}", lambda: _cli(["fs", "check", "--generators", path, "--target", text]), check)


# -- selftest ---------------------------------------------------------------


def _selftest(seed: int, workdir: Path) -> list[Op]:
    out = workdir / "selftest.json"

    def check(code) -> None:
        _require(code == 0, f"selftest exited {code}")
        payload = json.loads(out.read_text())
        _require(payload["all_passed"] is True, "a criterion failed")
        _require(payload["seed"] == seed, "payload is for another seed")

    return [Op("selftest", lambda: _cli(["selftest", "--seed", str(seed), "--out", str(out)])[0], check)]


def selftest_digest(workdir: Path) -> str:
    """sha256 of the selftest payload bytes; equal across passes of one seed."""
    return hashlib.sha256((workdir / "selftest.json").read_bytes()).hexdigest()


BY_NAME = {"enumerate": _enumerate, "membership": _membership, "selftest": _selftest}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    return BY_NAME[workload](seed, workdir)
