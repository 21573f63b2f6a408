import argparse
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import fslattice
from fslattice import cli, cone, dyadic, gaps
from fslattice.cli import main
from fslattice.core import Box, GeneratorSet, Point, Representation, validate_representation
from fslattice.oracle import fs_enumerate


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def point_key(coords):
    return "(" + ",".join(map(str, coords)) + ")"


@pytest.fixture(autouse=True)
def enumerate_pieces_are_json_dumps(monkeypatch):
    """Every `fs enumerate` a test here runs, fuzzed ones included: its
    pieces join to the text of json.dumps(payload, sort_keys=True, indent=2)
    plus a newline, for the payload rebuilt from the set's default
    `witnesses()` walk.  Returns the unchecked function."""
    pieces_of = cli._enumerate_pieces

    def checked(head, reach):
        pieces = pieces_of(head, reach)
        walk = dict(reach.witnesses())
        assert head["count"] == len(walk)
        payload = {**head, "points": sorted(walk), "witnesses": {point_key(c): m for c, m in walk.items()}}
        assert "".join(pieces) == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        return pieces

    monkeypatch.setattr(cli, "_enumerate_pieces", checked)
    return pieces_of


@pytest.fixture
def gens_file(tmp_path):
    return write_json(tmp_path / "g.json", [[1, 1], [2, 2], [4, 2]])


class TestFs:
    def test_check_reachable(self, capsys, gens_file):
        code, out, _ = run(capsys, ["fs", "check", "--generators", gens_file, "--target", "5,3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["reachable"]
        assert payload["representation"]["members"] == [[1, 1], [4, 2]]

    def test_check_unreachable(self, capsys, gens_file):
        code, out, _ = run(capsys, ["fs", "check", "--generators", gens_file, "--target", "1,2"])
        assert code == 0
        assert not json.loads(out)["reachable"]

    def test_enumerate_with_heatmap(self, capsys, tmp_path, gens_file):
        pgm = tmp_path / "reach.pgm"
        code, out, _ = run(
            capsys,
            ["fs", "enumerate", "--generators", gens_file, "--box", "0,0,7,5", "--heatmap", str(pgm)],
        )
        assert code == 0
        payload = json.loads(out)
        assert [1, 1] in payload["points"]
        assert payload["count"] == len(payload["points"])
        header = pgm.read_text().splitlines()
        assert header[0] == "P2"
        assert header[1] == "8 6"

    def test_enumerate_in_three_dimensions(self, capsys, tmp_path):
        gens = write_json(tmp_path / "g3.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        code, out, _ = run(
            capsys, ["fs", "enumerate", "--generators", gens, "--box", "0,0,0,2,2,2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["box"] == {"lo": [0, 0, 0], "hi": [2, 2, 2]}
        # 16 subsets; (1,1,1) is both a generator and the sum of the three units
        assert payload["count"] == len(payload["points"]) == 15
        assert [2, 2, 2] in payload["points"]
        # the search excludes (0,0,1) first, so it takes (1,1,1) alone
        assert payload["witnesses"]["(1,1,1)"] == [[1, 1, 1]]
        assert payload["witnesses"]["(2,2,2)"] == [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]]

    @pytest.mark.parametrize(
        "seed, cube, count, box",
        [
            (5, [(x, y) for x in range(6) for y in range(6) if x or y], 10, "0,0,14,14"),
            # lo != 0: every walk passes cells below lo, which the walk decodes one at a time
            (11, list(itertools.product(range(4), repeat=3))[1:], 12, "2,1,3,7,6,8"),
        ],
    )
    def test_check_and_enumerate_give_the_same_witness(self, capsys, tmp_path, seed, cube, count, box):
        gens = write_json(tmp_path / "g.json", random.Random(seed).sample(cube, count))
        code, out, _ = run(capsys, ["fs", "enumerate", "--generators", gens, "--box", box])
        assert code == 0
        witnesses = json.loads(out)["witnesses"]
        assert len(witnesses) > 50
        for point, members in witnesses.items():
            argv = ["fs", "check", "--generators", gens, "--target", point[1:-1]]
            code, out, _ = run(capsys, argv)
            assert code == 0
            assert json.loads(out)["representation"]["members"] == members


    def test_enumerate_memory_follows_its_output(self, tmp_path, monkeypatch, enumerate_pieces_are_json_dumps):
        # the 64 dyadic generators (2^i, 2^j), i, j <= 7, over [0,127]^2, 49 of
        # them inside: a 3.4 MB payload, whose text is never held whole
        gens = write_json(tmp_path / "g.json", [[1 << i, 1 << j] for i in range(8) for j in range(8)])
        out = tmp_path / "out.json"
        argv = ["fs", "enumerate", "--generators", gens, "--box", "0,0,127,127", "--out", str(out)]
        assert main(argv) == 0  # its text checked by the autouse fixture
        checked = out.read_bytes()
        # unchecked under tracemalloc: the fixture's json.dumps would set the peak
        monkeypatch.setattr(cli, "_enumerate_pieces", enumerate_pieces_are_json_dumps)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_bytes() == checked and len(checked) > 3_000_000
        assert peak <= 5 * len(checked)


class TestCone:
    def test_build_decompose_verify(self, capsys, tmp_path):
        spec_file = tmp_path / "cone.json"
        code, out, _ = run(capsys, ["cone", "build", "--v", "1,2;2,1", "--depth", "5"])
        assert code == 0
        spec_file.write_text(out)

        code, out, _ = run(
            capsys, ["cone", "decompose", "--spec", str(spec_file), "--point", "9,18"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["representation"]["target"] == [9, 18]
        assert payload["representation"]["members"] == [[1, 2], [8, 16]]

        code, out, _ = run(capsys, ["cone", "verify", "--spec", str(spec_file), "--max", "15"])
        assert code == 0
        assert json.loads(out)["passed"]

    def test_decompose_huge_point(self, capsys, tmp_path):
        spec_file = tmp_path / "cone.json"
        code, out, _ = run(capsys, ["cone", "build", "--v", "1,2;2,1", "--depth", "5"])
        assert code == 0
        spec_file.write_text(out)
        n = 10**400
        code, out, err = run(
            capsys, ["cone", "decompose", "--spec", str(spec_file), "--point", f"{n},{n}"]
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["depth"] == (n // 3).bit_length() - 1
        rep = Representation.from_json(payload["representation"])
        assert rep.target == Point((n, n))
        assert validate_representation(rep)

    def test_verify_checks_membership(self, capsys, monkeypatch, tmp_path):
        # a representation that sums right but uses a point outside X must fail
        spec_file = write_json(tmp_path / "cone.json", {"v": [[1, 2], [2, 1]]})
        outsider = (15, 15)
        real = cone.decompose_coords

        def decompose_coords(spec, X, coords, nums):
            return [coords] if coords == outsider else real(spec, X, coords, nums)

        monkeypatch.setattr(cone, "decompose_coords", decompose_coords)
        code, out, _ = run(capsys, ["cone", "verify", "--spec", spec_file, "--max", "15"])
        assert code == 1
        payload = json.loads(out)
        assert not payload["passed"]
        assert payload["failing_point"] == [15, 15]


class TestDyadic:
    def test_check_outside_e(self, capsys):
        code, out, _ = run(capsys, ["dyadic", "check", "--point", "5,3"])
        assert code == 0
        payload = json.loads(out)
        assert not payload["in_exceptional"]
        assert payload["representation"]["target"] == [5, 3]

    def test_check_inside_e(self, capsys):
        code, out, _ = run(capsys, ["dyadic", "check", "--point", "8,3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["in_exceptional"]
        assert payload["representation"] is None

    def test_empty_square_verified(self, capsys):
        code, out, _ = run(capsys, ["dyadic", "empty-square", "--D", "3", "--verify"])
        assert code == 0
        payload = json.loads(out)
        assert payload["x0"] == [4, 5, 6, 7]
        assert payload["certificate_ok"]
        assert payload["verified"]

    def test_dense_square(self, capsys):
        code, out, _ = run(capsys, ["dyadic", "dense-square", "--R", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_count"] == 21
        assert payload["enumeration_count"] == 21

    def test_runs_as_module(self):
        src = str(Path(fslattice.__file__).parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
        proc = subprocess.run(
            [sys.executable, "-m", "fslattice", "dyadic", "dense-square", "--R", "3"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["exact_count"] == 21

    def test_map_writes_pgm(self, capsys, tmp_path):
        pgm = tmp_path / "e.pgm"
        code, out, _ = run(capsys, ["dyadic", "map", "--box", "1,1,16,16", "--out", str(pgm)])
        assert code == 0
        assert pgm.read_text().startswith("P2\n16 16\n255\n")

    @pytest.mark.parametrize("box", ["0,1,2047,2047", "1,0,2047,2047"])
    def test_map_checks_its_corner_before_the_dp(self, capsys, monkeypatch, tmp_path, box):
        def refuse(*args, **kwargs):
            raise AssertionError("ran the DP")

        monkeypatch.setattr(cli, "fs_enumerate", refuse)
        pgm = tmp_path / "e.pgm"
        assert run(capsys, ["dyadic", "map", "--box", box, "--out", str(pgm)]) == (
            1, "", "error: coordinates must be >= 1\n"
        )
        assert not pgm.exists()

    def test_map_makes_no_per_cell_call(self, capsys, monkeypatch, tmp_path):
        lo, hi = Point((3, 2)), Point((40, 24))
        reach = fs_enumerate(dyadic.dyadic_generators(hi), Box(lo, hi))
        rows = [
            " ".join(
                "255" if not dyadic.in_exceptional(x, y) else "128" if Point((x, y)) in reach else "0"
                for x in range(3, 41)
            )
            for y in range(24, 1, -1)
        ]
        # repeated rows, so the per-cell definition also covers the writer's row memo
        assert len(set(rows)) < len(rows)

        def refuse(a, b):
            raise AssertionError("dyadic map tested a cell with in_exceptional")

        monkeypatch.setattr(dyadic, "in_exceptional", refuse)
        pgm = tmp_path / "e.pgm"
        code, _, err = run(capsys, ["dyadic", "map", "--box", "3,2,40,24", "--out", str(pgm)])
        assert code == 0, err
        assert pgm.read_text() == "P2\n38 23\n255\n" + "\n".join(rows) + "\n"


class TestGap:
    def test_build(self, capsys, tmp_path):
        a = write_json(tmp_path / "a.json", list(range(1, 13)))
        b = write_json(tmp_path / "b.json", [1, 2])
        code, out, _ = run(capsys, ["gap", "build", "--A", a, "--B", b, "--L", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["differences"] == [[13, 3]]
        assert payload["proper"]

    def test_rectangle(self, capsys, tmp_path):
        a = write_json(tmp_path / "a.json", list(range(1, 41)))
        b = write_json(tmp_path / "b.json", [1, 2, 3])
        code, out, _ = run(
            capsys, ["gap", "rectangle", "--A", a, "--B", b, "--T", "3", "--H", "30"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["measured"] >= payload["ledger_bound"]

    def test_five_squares(self, capsys):
        code, out, _ = run(capsys, ["gap", "five-squares", "--lo", "30", "--hi", "30"])
        assert code == 0
        assert json.loads(out)["failures"] == [30]


class TestSelftest:
    def test_subset_passes(self, capsys):
        code, out, err = run(capsys, ["selftest", "--criteria", "9,11"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"]
        assert "[PASS]" in err

    def test_stderr_shows_timings(self, capsys):
        code, _, err = run(capsys, ["selftest", "--criteria", "9,10"])
        assert code == 0
        nine, ten = err.splitlines()
        assert re.fullmatch(r"\[PASS\]  9 iterated sumset inequality +\d+\.\d\d s", nine)
        assert re.fullmatch(r"\[PASS\] 10 five distinct squares +\d+\.\d\d s \(limit 5 s\)", ten)

    def test_byte_determinism(self, capsys):
        _, first, _ = run(capsys, ["selftest", "--criteria", "5"])
        _, second, _ = run(capsys, ["selftest", "--criteria", "5"])
        assert first == second


def _over(count, what, unit="points", verb="has"):
    """A charge as (count, the refusal it makes), {cap} standing for the cap."""
    return count, f"{what} {verb} {count} {unit}, above the cap of {{cap}}"


def _cone(v, depth):
    """build_thin_generators' charges: k rays of depth + 1 elements, each of
    up to depth + 1 bits, then the seed box, [0, k * max_l v_l[j]] on axis j."""
    k = len(v)
    seed = math.prod(k * max(axis) + 1 for axis in zip(*v))
    return [_over(k * (depth + 1) ** 2, "cone rays"), _over(seed, "cone seed box")]


def _at_cap_cases(tmp):
    """Every command that charges the cap, on a small input: (argv, charges),
    the charges in the order the command makes them."""
    cone_a = write_json(tmp / "cone-a.json", {"v": [[1, 2], [2, 1]]})
    cone_b = write_json(tmp / "cone-b.json", {"v": [[1, 1], [1, 2]]})
    A16 = write_json(tmp / "a16.json", list(range(1, 17)))
    A40 = write_json(tmp / "a40.json", list(range(1, 41)))
    B, B3 = write_json(tmp / "b.json", [1, 2]), write_json(tmp / "b3.json", [1, 2, 3])
    x0 = 2**8 - 2**4  # the corner of the D = 3 proof square; its box is [x0 + 1, x0 + 3] x [2, 4]
    rect = gaps.dense_rectangle(list(range(1, 41)), [1, 2, 3], 3, 30)
    return {
        # [0, (300, 4)] has 1,505 cells; below that the search runs, and it needs 4,768 nodes
        "fs-check": (
            ["fs", "check", "--generators", write_json(tmp / "line.json", [[i, 1] for i in range(1, 41)]),
             "--target", "300,4"],
            [(301 * 5, "membership search needs over {cap} nodes, the cap")],
        ),
        "fs-enumerate": (
            ["fs", "enumerate", "--generators", write_json(tmp / "g.json", [[1, 1], [2, 2], [4, 2]]),
             "--box", "1,0,5,3"],
            [_over(6 * 4, "enumeration domain", "cells")],
        ),
        "cone-build": (["cone", "build", "--v", "1,2;2,1", "--depth", "5"], _cone([[1, 2], [2, 1]], 5)),
        # the default depth, ceil(log2 18) + 2 = 7, is deeper than the 3 that (9, 18) needs
        "cone-decompose": (
            ["cone", "decompose", "--spec", cone_a, "--point", "9,18"], _cone([[1, 2], [2, 1]], 7)
        ),
        # the window, then the rays at the corner's default depth, ceil(log2 3) + 2 = 4
        "cone-verify": (
            ["cone", "verify", "--spec", cone_b, "--max", "3"],
            [_over(4**2, "cone verify window")] + _cone([[1, 1], [1, 2]], 4),
        ),
        "dyadic-map": (
            ["dyadic", "map", "--box", "1,1,16,16", "--out", str(tmp / "map.pgm")],
            [_over(17 * 17, "enumeration domain", "cells")],
        ),
        "dyadic-empty-square": (["dyadic", "empty-square", "--D", "4"], [_over(4 * 4, "empty square")]),
        "dyadic-empty-square-verify": (
            ["dyadic", "empty-square", "--D", "3", "--verify"],
            [_over(3 * 3, "empty square"), _over((x0 + 4) * 5, "enumeration domain", "cells")],
        ),
        "dyadic-dense-square": (
            ["dyadic", "dense-square", "--R", "4"],
            [(2**4, "dense square has 2^4 points, above the cap of {cap}")],
        ),
        # two slices of 8: 28 + 28 pairs, then 2 * 4 GAP elements holding 8 * (3 + 5) member points
        "gap-build": (
            ["gap", "build", "--A", A16, "--B", B, "--L", "2,4"],
            [
                _over(28 + 28, "gap slices", "pairs", "have"),
                _over(8, "gap"),
                _over(64, "gap elements", "member points", "have"),
            ],
        ),
        # its largest DP is the measured rectangle's (test_gap_rectangle_runs_at_its_largest_dp)
        "gap-rectangle": (
            ["gap", "rectangle", "--A", A40, "--B", B3, "--T", "3", "--H", "30"],
            [_over((rect.interval[1] + 1) * (rect.height + 1), "enumeration domain", "cells")],
        ),
        # the DP over [0, 16] x [0, 5]
        "gap-five-squares": (
            ["gap", "five-squares", "--lo", "1", "--hi", "16"], [_over(17 * 6, "enumeration domain", "cells")]
        ),
        # criterion 6's dense squares, R = 1..12; the largest has 2^12 points
        "selftest": (
            ["selftest", "--criteria", "6"], [(2**12, "dense square has 2^12 points, above the cap of {cap}")]
        ),
    }


def _command(argv):
    """The subcommand an argv runs, e.g. "cone build": the words before its first option."""
    return " ".join(itertools.takewhile(lambda a: not a.startswith("-"), argv))


def _untimed(err):
    """stderr with the selftest table's timings masked; other commands print none."""
    return re.sub(r"\d+\.\d\d s", "- s", err)


# the commands that charge nothing against the cap
CHARGES_NOTHING = {"dyadic check"}


def _commands(parser, names=()):
    """The names of every subcommand under parser, e.g. "cone build"."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(names)}
    return set().union(*(_commands(p, names + (name,)) for name, p in subs[0].choices.items()))


def test_every_command_decides_its_cap(tmp_path):
    charged = {_command(argv) for argv, _ in _at_cap_cases(tmp_path).values()}
    assert not charged & CHARGES_NOTHING
    assert _commands(cli.build_parser()) == charged | CHARGES_NOTHING


def _leaf_parsers(parser, names=()):
    """Each subcommand's parser under parser, by name, e.g. {"cone build": ...}."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(names): parser}
    return {k: v for name, p in subs[0].choices.items() for k, v in _leaf_parsers(p, names + (name,)).items()}


def test_every_command_has_its_handler_and_the_shared_out():
    leaves = _leaf_parsers(cli.build_parser())
    handlers = [p.get_default("run") for p in leaves.values()]
    assert all(map(callable, handlers)) and len(set(handlers)) == len(leaves)
    outs = {name: p._option_string_actions.get("--out") for name, p in leaves.items()}
    pgm = outs.pop("dyadic map")  # the PGM path, which the command needs
    shared = outs["selftest"]
    assert all(out is shared for out in outs.values()) and not shared.required
    assert pgm is not shared and pgm.required


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gap", "build", "--A", "a.json", "--B", "b.json", "--L", "3,x"], "--L must be comma-separated integers, got '3,x'"),
        (["selftest", "--criteria", "1,x"], "--criteria must be comma-separated integers, got '1,x'"),
        (["cone", "verify", "--spec", "cone.json", "--max", "-1"], "window limit must be nonnegative, got -1"),
    ],
    ids=["gap-build-lengths", "selftest-criteria", "cone-verify-max"],
)
def test_bad_option_value_is_named(capsys, tmp_path, argv, message):
    write_json(tmp_path / "a.json", list(range(1, 13)))
    write_json(tmp_path / "b.json", [1, 2])
    write_json(tmp_path / "cone.json", {"v": [[1, 2], [2, 1]]})
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert run(capsys, argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "A, B, options, cap, uncharged, refusal",
    [
        # 56 pairs and 8 elements fit; their 64 member points do not
        (range(1, 17), [1, 2], ["build", "--L", "2,4"], 63, "Representation",
         "gap elements have 64 member points, above the cap of 63"),
        # the DP over [0, 59] x [0, 4000] is refused before the ledger's walk
        (range(1, 41), range(1, 401), ["rectangle", "--T", "400", "--H", "30"], 10**5, "_sumset_levels",
         "enumeration domain has 240060 cells, above the cap of 100000"),
        # the walk up to trm 10 at height 4000 over 400 values is refused before its first level
        (range(1, 41), range(1, 401), ["rectangle", "--T", "400", "--H", "30"], 10**7, "_sumset_levels",
         "rectangle ledger needs 16004000 additions, above the cap of 10000000"),
    ],
    ids=["gap-build-members", "gap-rectangle-dp", "gap-rectangle-ledger"],
)
def test_gap_refuses_before_uncharged_work(capsys, monkeypatch, tmp_path, A, B, options, cap, uncharged, refusal):
    def refuse(*args):
        raise AssertionError(f"called {uncharged}")

    monkeypatch.setattr(gaps, uncharged, refuse)
    monkeypatch.setenv("FSLATTICE_CAP", str(cap))
    argv = ["gap", options[0], "--A", write_json(tmp_path / "a.json", list(A)),
            "--B", write_json(tmp_path / "b.json", list(B)), *options[1:]]
    assert run(capsys, argv) == (2, "", f"resource error: {refusal}\n")


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = run(capsys, ["fs", "check", "--no-such-flag"])
        assert code == 64
        assert "usage error" in err

    def test_config_flag_is_a_usage_error(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"cell_cap": 16})
        code, out, err = run(capsys, ["--config", cfg, "selftest"])
        assert (code, out) == (64, "")
        assert err == "usage error: unrecognized arguments: --config\n"

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--config", "x.json", "selftest"], "--config"),
            (["--config=x.json", "selftest"], "--config=x.json"),
            (["--bogus", "selftest"], "--bogus"),
            (["selftest", "--bogus"], "--bogus"),
            (["-x", "fs", "check"], "-x"),
            (["--bogus"], "--bogus"),
        ],
    )
    def test_unknown_option_is_named(self, capsys, argv, option):
        code, out, err = run(capsys, argv)
        assert (code, out) == (64, "")
        assert err == f"usage error: unrecognized arguments: {option}\n"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--", "selftest", "--criteria", "9"], ["selftest", "--criteria", "9"]),
            (["dyadic", "--", "check", "--point", "5,3"], ["dyadic", "check", "--point", "5,3"]),
        ],
    )
    def test_separator_before_a_name_is_skipped(self, capsys, argv, expected):
        code, out, _ = run(capsys, argv)  # stderr may hold timings
        assert code == 0
        assert (code, out) == run(capsys, expected)[:2]

    def test_separator_before_an_option_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, ["dyadic", "check", "--", "--point", "5,3"])
        assert (code, out) == (64, "")
        assert err == "usage error: the following arguments are required: --point\n"

    def test_parser_is_reused_after_a_usage_error(self, capsys, gens_file):
        check = ["fs", "check", "--generators", gens_file, "--target", "5,3"]
        first = run(capsys, check)
        assert run(capsys, ["fs", "check", "--no-such-flag"])[0] == 64
        second = run(capsys, check)
        assert first[0] == 0
        assert first == second  # same exit code, stdout bytes and stderr

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["fs", "check", "--generators", "/no/such.json", "--target", "1,1"])
        assert code == 1
        assert "error" in err

    def test_bad_point(self, capsys, gens_file):
        code, _, _ = run(capsys, ["fs", "check", "--generators", gens_file, "--target", "1,x"])
        assert code == 1

    @pytest.mark.parametrize("box", ["0,0,0,2,2", "1", "0,0,x,3"])
    def test_bad_box(self, capsys, gens_file, box):
        code, _, err = run(capsys, ["fs", "enumerate", "--generators", gens_file, "--box", box])
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["fs", "enumerate", "--box", "0,0,0,2,2,2", "--heatmap", "h.pgm"],
            ["dyadic", "map", "--box", "1,1,1,8,8,8", "--out", "m.pgm"],
            ["dyadic", "map", "--box", "1,8", "--out", "m.pgm"],
            ["dyadic", "check", "--point", "1,2,3"],
        ],
    )
    def test_two_dimensional_only(self, capsys, tmp_path, gens_file, argv):
        argv = [str(tmp_path / a) if a.endswith(".pgm") else a for a in argv]
        if argv[0] == "fs":
            argv[2:2] = ["--generators", gens_file]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "needs 2D input" in err and err.count("\n") == 1
        assert not list(tmp_path.glob("*.pgm"))

    @pytest.mark.parametrize(
        "argv, env",
        [
            (["selftest", "--criteria", "13"], None),
            (["selftest", "--criteria", "1,x"], None),
            (["selftest", "--criteria", ""], None),
            (["selftest", "--criteria", "2,2"], None),
            (["selftest", "--criteria", "12,12"], None),
            (["gap", "build", "--A", "a.json", "--B", "b.json", "--L", "3,x"], None),
            (["gap", "build", "--A", "nested.json", "--B", "b.json", "--L", "3"], None),
            (["gap", "five-squares", "--lo", "30", "--hi", "30"], "abc"),
            (["gap", "five-squares", "--lo", "30", "--hi", "30"], "0"),
            (["gap", "five-squares", "--lo", "30", "--hi", "30"], "-5"),
            (["fs", "check", "--generators", "deep.json", "--target", "1,1"], None),
            (["fs", "check", "--generators", "newline.json", "--target", "1,1"], None),
            (["cone", "decompose", "--spec", "spec-array.json", "--point", "3,3"], None),
            (["cone", "verify", "--spec", "spec-array.json"], None),
            (["cone", "decompose", "--spec", "spec-no-v.json", "--point", "3,3"], None),
            (["cone", "verify", "--spec", "spec-no-v.json"], None),
            (["cone", "decompose", "--spec", "spec-v-int.json", "--point", "3,3"], None),
            (["cone", "verify", "--spec", "spec-v-int.json"], None),
            (["cone", "decompose", "--spec", "spec-spec-array.json", "--point", "3,3"], None),
            (["cone", "verify", "--spec", "spec-spec-array.json"], None),
            (["cone", "decompose", "--spec", "spec-depth-str.json", "--point", "3,3"], None),
            (["cone", "verify", "--spec", "spec-depth-str.json"], None),
            (["cone", "decompose", "--spec", "spec-depth-negative.json", "--point", "9,18"], None),
            (["fs", "check", "--generators", "dir.json", "--target", "1,1"], None),
            (["fs", "check", "--generators", "g.json", "--target", "1,1", "--out", "dir.json"], None),
            (["fs", "enumerate", "--generators", "g.json", "--box", "0,0,3,3", "--heatmap", "dir.json"], None),
        ],
        ids=[
            "unknown-criterion",
            "bad-criteria",
            "empty-criteria",
            "repeated-criterion",
            "repeated-criterion-12",
            "bad-lengths",
            "nested-array",
            "bad-env-cap",
            "zero-env-cap",
            "negative-env-cap",
            "deep-generators",
            "newline-in-message",
            "cone-decompose-array",
            "cone-verify-array",
            "cone-decompose-no-v",
            "cone-verify-no-v",
            "cone-decompose-v-int",
            "cone-verify-v-int",
            "cone-decompose-spec-array",
            "cone-verify-spec-array",
            "cone-decompose-depth-string",
            "cone-verify-depth-string",
            "cone-decompose-depth-negative",
            "directory-generators",
            "directory-out",
            "directory-heatmap",
        ],
    )
    def test_bad_input_is_one_line(self, capsys, monkeypatch, tmp_path, argv, env):
        write_json(tmp_path / "a.json", list(range(1, 13)))
        write_json(tmp_path / "b.json", [1, 2])
        write_json(tmp_path / "nested.json", [[1, 2], [3]])
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        write_json(tmp_path / "newline.json", ["\n"])
        write_json(tmp_path / "spec-array.json", [[1, 2], [2, 1]])
        write_json(tmp_path / "spec-no-v.json", {"w": 1})
        write_json(tmp_path / "spec-v-int.json", {"v": 5})
        write_json(tmp_path / "spec-spec-array.json", {"spec": [1]})
        write_json(tmp_path / "spec-depth-str.json", {"v": [[1, 2], [2, 1]], "depth": "5"})
        write_json(tmp_path / "spec-depth-negative.json", {"v": [[1, 2], [2, 1]], "depth": -1})
        write_json(tmp_path / "g.json", [[1, 1], [2, 2]])
        (tmp_path / "dir.json").mkdir()
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        if env is not None:
            monkeypatch.setenv("FSLATTICE_CAP", env)
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, env",
        [
            (["dyadic", "dense-square", "--R", "60"], None),
            (["dyadic", "dense-square", "--R", "4"], "8"),
            (["dyadic", "empty-square", "--D", "100000"], None),
            (["dyadic", "empty-square", "--D", "3"], "8"),
            (["cone", "verify", "--spec", "cone.json", "--max", "100000"], None),
            (["cone", "verify", "--spec", "cone.json", "--max", "3"], "15"),
            (["cone", "build", "--v", "1,2;2,1", "--depth", "100000"], None),
            (["cone", "build", "--v", "100,99;99,100", "--depth", "1"], "100"),
            (["cone", "decompose", "--spec", "cone-deep.json", "--point", "3,3"], None),
            (["cone", "decompose", "--spec", "cone.json", "--point", f"{10**40},{10**40}"], "100"),
            (["cone", "decompose", "--spec", "cone-shallow.json", "--point", f"{10**40},{10**40}"], "100"),
            (["gap", "five-squares", "--lo", "1", "--hi", "1000000000"], None),
            (["gap", "five-squares", "--lo", "1", "--hi", "9"], "8"),
            (["gap", "build", "--A", "a40.json", "--B", "b.json", "--L", "3"], "100"),
            (["gap", "build", "--A", "a40.json", "--B", "b.json", "--L", "10000,10000"], None),
            (["fs", "check", "--generators", "line.json", "--target", "300,4"], "1000"),
            # the AP search's 31 cells fit; trm over the odd slice needs 31 * 6 = 186
            (["gap", "rectangle", "--A", "a40.json", "--B", "b.json", "--T", "3", "--H", "30"], "100"),
        ],
        ids=[
            "dense-square",
            "dense-square-small-cap",
            "empty-square",
            "empty-square-small-cap",
            "cone-verify",
            "cone-verify-small-cap",
            "cone-build-depth",
            "cone-build-seed-box",
            "cone-decompose-spec-depth",
            "cone-decompose-default-depth",
            "cone-decompose-required-depth",
            "five-squares",
            "five-squares-small-cap",
            "gap-build-pairs",
            "gap-build-elements",
            "fs-check-search-nodes",
            "gap-rectangle",
        ],
    )
    def test_point_count_above_cap(self, capsys, monkeypatch, tmp_path, argv, env):
        write_json(tmp_path / "cone.json", {"v": [[1, 2], [2, 1]]})
        write_json(tmp_path / "cone-deep.json", {"v": [[1, 2], [2, 1]], "depth": 100000})
        # the point needs depth 131 whatever the spec says: 2 * 132^2 ray cells
        write_json(tmp_path / "cone-shallow.json", {"v": [[1, 2], [2, 1]], "depth": 1})
        # 1,505 target cells, above the cap, so the search runs: it needs 4,768 nodes
        write_json(tmp_path / "line.json", [[i, 1] for i in range(1, 41)])
        # one slice of 40, so 780 pairs; as two slices of 20, 380 pairs for 10^8 GAP elements
        write_json(tmp_path / "a40.json", list(range(1, 41)))
        write_json(tmp_path / "b.json", [1, 2])
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        if env is not None:
            monkeypatch.setenv("FSLATTICE_CAP", env)
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("resource error: ") and err.count("\n") == 1

    def test_point_count_at_cap_runs(self, capsys, monkeypatch, tmp_path):
        """Each command runs at its largest charge as it does uncapped, and one
        below that the first charge of that size refuses it."""
        for name, (argv, charges) in _at_cap_cases(tmp_path).items():
            largest = max(count for count, _ in charges)
            refusal = next(text for count, text in charges if count == largest)
            monkeypatch.delenv("FSLATTICE_CAP", raising=False)
            code, expected, err = run(capsys, argv)
            assert code == 0, name
            monkeypatch.setenv("FSLATTICE_CAP", str(largest))
            code, out, capped_err = run(capsys, argv)
            assert (code, out, _untimed(capped_err)) == (0, expected, _untimed(err)), name
            monkeypatch.setenv("FSLATTICE_CAP", str(largest - 1))
            assert run(capsys, argv) == (
                2, "", "resource error: " + refusal.format(cap=largest - 1) + "\n"
            ), name

    @pytest.mark.parametrize(
        "cap, lo, hi, cells",
        [("16", 1, 16, 17 * 6), ("20000000", 11184800, 11184810, 11184811 * 6)],
    )
    def test_five_squares_charges_its_dp_against_the_cap(self, capsys, monkeypatch, cap, lo, hi, cells):
        monkeypatch.setenv("FSLATTICE_CAP", cap)
        assert run(capsys, ["gap", "five-squares", "--lo", str(lo), "--hi", str(hi)]) == (
            2, "", f"resource error: enumeration domain has {cells} cells, above the cap of {cap}\n"
        )

    def test_gap_rectangle_runs_at_its_largest_dp(self, capsys, monkeypatch, tmp_path):
        A, B, T, H = list(range(1, 41)), [1, 2, 3], 3, 30
        report = gaps.dense_rectangle(A, B, T, H)
        a1 = gaps.slice_interleaved(A, 2)[0]
        merged = sorted(set(a1) | set(report.shift_elements))
        b = report.interval[1]

        def rows(values, x_max):  # the lifted trm DP's rows: 1 + the most terms within x_max
            return 1 + sum(1 for r in range(1, len(values) + 1) if sum(values[:r]) <= x_max)

        largest = max(
            H + 1,  # the AP search over [0, H]
            (H + 1) * rows(a1, H),  # trm over the slice
            (b + 1) * rows(merged, b),  # trm over the shifted columns
            (b + 1) * (report.height + 1),  # the measured rectangle's DP box
        )
        argv = ["gap", "rectangle", "--A", write_json(tmp_path / "a.json", A),
                "--B", write_json(tmp_path / "b.json", B), "--T", str(T), "--H", str(H)]
        monkeypatch.delenv("FSLATTICE_CAP", raising=False)
        code, expected, _ = run(capsys, argv)
        assert code == 0
        monkeypatch.setenv("FSLATTICE_CAP", str(largest))
        assert run(capsys, argv) == (0, expected, "")
        monkeypatch.setenv("FSLATTICE_CAP", str(largest - 1))
        assert run(capsys, argv) == (
            2, "", f"resource error: enumeration domain has {largest} cells, above the cap of {largest - 1}\n"
        )

    @pytest.mark.parametrize("command", ["build", "decompose", "verify"])
    def test_seed_box_is_charged(self, capsys, monkeypatch, tmp_path, command):
        # the seed box of (1,2),(2,1) is [0,4]^2, 25 points; the rays and the window are smaller
        spec = write_json(tmp_path / "cone.json", {"v": [[1, 2], [2, 1]], "depth": 1})
        argv = {
            "build": ["cone", "build", "--v", "1,2;2,1", "--depth", "1"],
            "decompose": ["cone", "decompose", "--spec", spec, "--point", "3,3"],
            "verify": ["cone", "verify", "--spec", spec, "--max", "1"],
        }[command]
        monkeypatch.delenv("FSLATTICE_CAP", raising=False)
        code, expected, _ = run(capsys, argv)
        assert code == 0
        for cap in ("100", "25"):
            monkeypatch.setenv("FSLATTICE_CAP", cap)
            assert run(capsys, argv) == (0, expected, "")
        monkeypatch.setenv("FSLATTICE_CAP", "24")
        assert run(capsys, argv) == (
            2, "", "resource error: cone seed box has 25 points, above the cap of 24\n"
        )

    def test_bad_env_cap_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("FSLATTICE_CAP", "abc")
        assert run(capsys, ["gap", "five-squares", "--lo", "1", "--hi", "3"]) == (
            1, "", "error: FSLATTICE_CAP must be an integer, got 'abc'\n"
        )

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_nonpositive_env_cap_names_the_variable(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("FSLATTICE_CAP", cap)
        assert run(capsys, ["gap", "five-squares", "--lo", "1", "--hi", "3"]) == (
            1, "", f"error: FSLATTICE_CAP must be positive, got {cap}\n"
        )

    def test_resource_cap_env(self, capsys, monkeypatch, gens_file):
        monkeypatch.setenv("FSLATTICE_CAP", "50")
        code, _, err = run(
            capsys, ["fs", "enumerate", "--generators", gens_file, "--box", "0,0,99,99"]
        )
        assert code == 2
        assert "resource error" in err


def test_cli_imports_no_fractions_and_no_config():
    """A fresh interpreter, since hypothesis itself imports fractions."""
    src = str(Path(fslattice.__file__).parent.parent)
    script = (
        "import sys, fslattice.cli; "
        "print(sorted({'fractions', 'decimal', 'fslattice.config'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**80) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12,
)
generator_lists = st.lists(st.lists(st.integers(0, 6), min_size=2, max_size=2), max_size=8)
generator_files = st.one_of(
    generator_lists.map(json.dumps), json_values.map(json.dumps), st.text(max_size=12)
)
targets = st.text(max_size=8) | st.lists(st.integers(-1, 2**72), max_size=3).map(
    lambda cs: ",".join(map(str, cs))
)
boxes = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 6), st.integers(0, 6)),
    st.lists(st.integers(-1, 6), max_size=6),
).map(lambda cs: ",".join(map(str, cs))) | st.text(max_size=8)


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(generator_files, targets)
def test_fs_check_fuzz(capsys, tmp_path, generators, target):
    path = tmp_path / "fuzz.json"
    path.write_text(generators)
    code, out, err = run(capsys, ["fs", "check", "--generators", str(path), "--target", target])
    assert code in {0, 1, 2, 64}
    assert "Traceback" not in err
    if code == 0:
        payload = json.loads(out)
        if payload["reachable"]:
            assert validate_representation(Representation.from_json(payload["representation"]))
    else:
        assert out == "" and err.count("\n") == 1


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(any), max_size=8, unique=True),
    st.tuples(st.integers(0, 30), st.integers(0, 12)),
    st.tuples(st.integers(0, 30), st.integers(0, 12)),
)
def test_heatmap_is_the_per_cell_definition(capsys, tmp_path, generators, a, b):
    lo, hi = Point(tuple(map(min, a, b))), Point(tuple(map(max, a, b)))
    box = ",".join(map(str, lo.coords + hi.coords))
    path = write_json(tmp_path / "heat.json", generators)
    pgm = tmp_path / "heat.pgm"
    code, _, err = run(capsys, ["fs", "enumerate", "--generators", path, "--box", box, "--heatmap", str(pgm)])
    assert code == 0, err
    reach = fs_enumerate(GeneratorSet.of(Point(t) for t in generators), Box(lo, hi))
    (lx, ly), (hx, hy) = lo.coords, hi.coords
    rows = [
        " ".join("255" if Point((x, y)) in reach else "0" for x in range(lx, hx + 1))
        for y in range(hy, ly - 1, -1)
    ]
    assert pgm.read_text() == f"P2\n{hx - lx + 1} {hy - ly + 1}\n255\n" + "\n".join(rows) + "\n"


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    # mostly well-formed inputs, so the payload checks run too
    generator_lists.map(json.dumps) | generator_files,
    boxes,
    st.sampled_from([None, "64", "16", "1", "x"]),
)
def test_fs_enumerate_fuzz(capsys, monkeypatch, tmp_path, generators, box, cap):
    path = tmp_path / "fuzz.json"
    path.write_text(generators)
    if cap is None:
        monkeypatch.delenv("FSLATTICE_CAP", raising=False)
    else:
        monkeypatch.setenv("FSLATTICE_CAP", cap)
    code, out, err = run(capsys, ["fs", "enumerate", "--generators", str(path), "--box", box])
    assert code in {0, 1, 2, 64}
    assert "Traceback" not in err
    if code != 0:
        assert out == "" and err.count("\n") == 1
        return
    payload = json.loads(out)
    gens = {tuple(g) for g in json.loads(generators)}
    assert payload["count"] == len(payload["points"]) == len(payload["witnesses"])
    for p in payload["points"]:
        members = payload["witnesses"][point_key(p)]
        assert all(tuple(m) in gens for m in members)
        assert validate_representation(Representation.from_json({"target": p, "members": members}))


@st.composite
def enumerate_cases(draw):
    """A 1-4D generator set (empty ones too), a box whose lo may be nonzero and
    reach no point, a 2D heatmap at a non-ASCII path or none, --out or stdout."""
    dim = draw(st.integers(1, 4))
    coords = st.tuples(*[st.integers(0, 3)] * dim)
    generators = draw(st.lists(coords.filter(any), max_size=6, unique=True))
    lo = draw(coords)
    hi = tuple(c + draw(st.integers(0, 3)) for c in lo)
    heatmap = dim == 2 and draw(st.booleans())
    return generators, lo, hi, heatmap, draw(st.booleans())


@settings(deadline=None, max_examples=120, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(enumerate_cases())
# an empty file; a box with no point; the origin's empty witness; non-ASCII heatmap to --out
@example(([], (0,), (3,), False, False))
@example(([], (1, 0), (2, 2), True, True))
@example(([(1, 0, 0, 2), (0, 1, 3, 0)], (0, 0, 0, 0), (1, 1, 3, 2), False, True))
@example(([(1, 2), (3, 1), (2, 2)], (1, 1), (4, 4), True, True))
def test_fs_enumerate_is_json_dumps(capsys, tmp_path, case):
    """`fs enumerate` writes json.dumps of a payload built here by trying every
    include vector in lexicographic order, canonical generators first."""
    generators, lo, hi, heatmap, to_file = case
    path = write_json(tmp_path / "g.json", generators)
    argv = ["fs", "enumerate", "--generators", path, "--box", ",".join(map(str, lo + hi))]
    canonical = sorted(generators)
    witnesses = {}
    for include in itertools.product((0, 1), repeat=len(canonical)):
        members = list(itertools.compress(canonical, include))
        p = tuple(map(sum, zip(*members, (0,) * len(lo))))
        if all(l <= c <= h for l, c, h in zip(lo, p, hi)):
            witnesses.setdefault(p, members)
    payload = {
        "box": {"lo": list(lo), "hi": list(hi)},
        "count": len(witnesses),
        "points": sorted(witnesses),
        "witnesses": {point_key(p): m for p, m in witnesses.items()},
    }
    if heatmap:
        payload["heatmap"] = str(tmp_path / "карта-é.pgm")
        argv += ["--heatmap", payload["heatmap"]]
    out = tmp_path / "out.json"
    if to_file:
        argv += ["--out", str(out)]
    code, printed, err = run(capsys, argv)
    assert code == 0, err
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert (out.read_text() if to_file else printed) == expected
    assert printed == ("" if to_file else expected)


# -- every other subcommand: any input exits 0, 1, 2 or 64, never with a traceback.
# Each input is a pair (well-formed, junk) of strategies, and most cases draw
# only well-formed inputs, so the success paths run too.  The caps are small,
# so every case is short.


def _joined(sep, strategy):
    return strategy.map(lambda values: sep.join(map(str, values)))


def _runs_criterion_12(criteria: str) -> bool:
    """Whether `selftest --criteria` would run criterion 12, which starts a child interpreter."""
    try:
        return 12 in [int(v) for v in criteria.split(",")]
    except ValueError:
        return False


good_vectors = st.lists(st.lists(st.integers(1, 4), min_size=2, max_size=2), min_size=2, max_size=2)
INPUTS = {
    "cap": (
        st.sampled_from(["4096", "1000", "64"]),
        st.sampled_from(["1", "0", "x"]),
    ),
    "int": (
        st.integers(0, 12).map(str),
        st.integers(-2, 70).map(str) | st.text(max_size=4),
    ),
    "point": (
        _joined(",", st.lists(st.integers(0, 40), min_size=2, max_size=2)),
        _joined(",", st.lists(st.integers(-1, 2**72), max_size=3)) | st.text(max_size=8),
    ),
    "vectors": (
        good_vectors.map(lambda vs: ";".join(",".join(map(str, v)) for v in vs)),
        st.sampled_from(["1,2", "1,2;2,1;1,1", "0,1;1,0", "1,2;2,4", "1,2,3;3,2,1;1,1,2"])
        | st.text(max_size=8),
    ),
    "spec": (
        st.fixed_dictionaries({"v": good_vectors}, optional={"depth": st.integers(0, 6)}),
        st.fixed_dictionaries(
            {"v": st.lists(st.lists(st.integers(0, 4), max_size=3), max_size=3)},
            optional={"depth": st.integers(-2, 40) | json_values},
        )
        | json_values,
    ),
    "A": (
        st.integers(8, 60).map(lambda n: list(range(1, n + 1)))
        | st.lists(st.integers(1, 60), unique=True, min_size=2, max_size=40).map(sorted),
        st.lists(st.integers(-2, 60), max_size=6) | json_values,
    ),
    "B": (
        st.lists(st.integers(1, 6), unique=True, min_size=2, max_size=4).map(sorted),
        st.lists(st.integers(-2, 60), max_size=6) | json_values,
    ),
    "box": (
        _joined(",", st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(8, 40), st.integers(8, 40))),
        boxes,
    ),
    "lengths": (
        _joined(",", st.lists(st.integers(1, 3), min_size=1, max_size=3)),
        _joined(",", st.lists(st.integers(-1, 4), max_size=3)) | st.text(max_size=4),
    ),
    "T": (st.integers(1, 6).map(str), st.integers(-2, 70).map(str) | st.text(max_size=4)),
    "H": (
        st.integers(8, 200).map(str),
        st.integers(-1, 5000).map(str) | st.text(max_size=4),
    ),
    "lo": (st.integers(1, 2000), st.integers(-2, 2**40)),
    "span": (st.integers(0, 40), st.integers(-2, 0)),
    # never criterion 12, so fuzzing starts no process
    "criteria": (
        _joined(",", st.lists(st.sampled_from([2, 3, 5, 6, 7, 8, 9, 10, 11]), min_size=1, max_size=3)),
        (_joined(",", st.lists(st.sampled_from([-1, 0, 1, 4, 13]), max_size=3)) | st.text(max_size=4)).filter(
            lambda s: not _runs_criterion_12(s)
        ),
    ),
}


@st.composite
def cli_calls(draw):
    """(argv, env cap, files) for one call of a subcommand other than fs; each
    NAME.json in argv names a file holding the JSON text files[NAME]."""
    wellformed = draw(st.integers(0, 3)) > 0

    def arg(kind):
        good, junk = INPUTS[kind]
        return draw(good if wellformed else good | junk)

    command = draw(st.sampled_from([
        "cone build", "cone decompose", "cone verify",
        "dyadic check", "dyadic map", "dyadic empty-square", "dyadic dense-square",
        "gap build", "gap rectangle", "gap five-squares", "selftest",
    ]))
    argv, files = command.split(), {}
    if command == "cone build":
        argv += ["--v", arg("vectors"), "--depth", arg("int")]
    elif command.startswith("cone"):
        spec = arg("spec")
        files["spec"] = json.dumps(spec)
        argv += ["--spec", "spec.json"]
        if command == "cone verify":
            argv += ["--max", arg("int")]
        elif wellformed:  # a point of the cone
            (v, w), (a, b) = spec["v"], draw(st.tuples(st.integers(0, 20), st.integers(0, 20)))
            argv += ["--point", f"{a * v[0] + b * w[0]},{a * v[1] + b * w[1]}"]
        else:
            argv += ["--point", arg("point")]
    elif command == "dyadic check":
        argv += ["--point", arg("point")]
    elif command == "dyadic map":
        argv += ["--box", arg("box"), "--out", "map.pgm"]
    elif command == "dyadic empty-square":
        argv += ["--D", arg("int")] + ["--verify"] * draw(st.booleans())
    elif command == "dyadic dense-square":
        argv += ["--R", arg("int")]
    elif command == "gap five-squares":
        lo = arg("lo")
        argv += ["--lo", str(lo), "--hi", str(lo + arg("span"))]
    elif command.startswith("gap"):
        files["a"], files["b"] = json.dumps(arg("A")), json.dumps(arg("B"))
        argv += ["--A", "a.json", "--B", "b.json"]
        if command == "gap build":
            argv += ["--L", arg("lengths")]
        else:
            argv += ["--T", arg("T"), "--H", arg("H")]
    else:
        argv += ["--criteria", arg("criteria"), "--seed", arg("int")]
    return argv, arg("cap"), files


@settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_calls())
def test_other_subcommands_fuzz(capsys, monkeypatch, tmp_path, call):
    def no_child(*args, **kwargs):
        raise AssertionError("the fuzzed call started a process")

    monkeypatch.setattr(subprocess, "Popen", no_child)
    argv, cap, files = call
    monkeypatch.setenv("FSLATTICE_CAP", cap)
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
    argv = [str(tmp_path / a) if a.endswith((".json", ".pgm")) else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code in {0, 1, 2, 64}
    assert "Traceback" not in err
    if code != 0:
        assert out == "" and err.count("\n") == 1
