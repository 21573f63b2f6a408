import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fslattice
from fslattice import cli, cone, dyadic
from fslattice.cli import _json_text, main
from fslattice.core import Box, GeneratorSet, Point, Representation, validate_representation
from fslattice.oracle import fs_enumerate


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture(autouse=True)
def writer_is_json_dumps(monkeypatch):
    """Every payload a test here emits, fuzzed ones included: the CLI's writer
    gives the text of json.dumps(payload, sort_keys=True, indent=2)."""

    def checked(payload):
        text = _json_text(payload)
        assert text == json.dumps(payload, sort_keys=True, indent=2)
        return text

    monkeypatch.setattr(cli, "_json_text", checked)


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
        assert payload["witnesses"]["(1,1,1)"] == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        assert payload["witnesses"]["(2,2,2)"] == [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]]


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
        outsider = Point((15, 15))
        real = cone.decompose

        def decompose(spec, X, v):
            return Representation((v,), v) if v == outsider else real(spec, X, v)

        monkeypatch.setattr(cone, "decompose", decompose)
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


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = run(capsys, ["fs", "check", "--no-such-flag"])
        assert code == 64
        assert "usage error" in err

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
        "argv, env, config",
        [
            (["selftest", "--criteria", "13"], None, None),
            (["selftest", "--criteria", "1,x"], None, None),
            (["selftest", "--criteria", ""], None, None),
            (["selftest", "--criteria", "2,2"], None, None),
            (["selftest", "--criteria", "12,12"], None, None),
            (["gap", "build", "--A", "a.json", "--B", "b.json", "--L", "3,x"], None, None),
            (["gap", "build", "--A", "nested.json", "--B", "b.json", "--L", "3"], None, None),
            (["gap", "five-squares", "--lo", "30", "--hi", "30"], "abc", None),
            (["gap", "five-squares", "--lo", "30", "--hi", "30"], None, {"cell_cap": "5"}),
            (["fs", "check", "--generators", "deep.json", "--target", "1,1"], None, None),
            (["fs", "check", "--generators", "newline.json", "--target", "1,1"], None, None),
            (["--config", "deep.json", "gap", "five-squares", "--lo", "30", "--hi", "30"], None, None),
            (["gap", "five-squares", "--lo", "30", "--hi", "30"], None, 5),
            (["cone", "decompose", "--spec", "spec-array.json", "--point", "3,3"], None, None),
            (["cone", "verify", "--spec", "spec-array.json"], None, None),
            (["cone", "decompose", "--spec", "spec-no-v.json", "--point", "3,3"], None, None),
            (["cone", "verify", "--spec", "spec-no-v.json"], None, None),
            (["cone", "decompose", "--spec", "spec-v-int.json", "--point", "3,3"], None, None),
            (["cone", "verify", "--spec", "spec-v-int.json"], None, None),
            (["cone", "decompose", "--spec", "spec-spec-array.json", "--point", "3,3"], None, None),
            (["cone", "verify", "--spec", "spec-spec-array.json"], None, None),
            (["cone", "decompose", "--spec", "spec-depth-str.json", "--point", "3,3"], None, None),
            (["cone", "verify", "--spec", "spec-depth-str.json"], None, None),
            (["cone", "decompose", "--spec", "spec-depth-negative.json", "--point", "9,18"], None, None),
            (["fs", "check", "--generators", "dir.json", "--target", "1,1"], None, None),
            (["--config", "dir.json", "fs", "check", "--generators", "g.json", "--target", "1,1"], None, None),
            (["fs", "check", "--generators", "g.json", "--target", "1,1", "--out", "dir.json"], None, None),
            (["fs", "enumerate", "--generators", "g.json", "--box", "0,0,3,3", "--heatmap", "dir.json"], None, None),
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
            "string-config",
            "deep-generators",
            "newline-in-message",
            "deep-config",
            "non-object-config",
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
            "directory-config",
            "directory-out",
            "directory-heatmap",
        ],
    )
    def test_bad_input_is_one_line(self, capsys, monkeypatch, tmp_path, argv, env, config):
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
        if config is not None:
            argv = ["--config", write_json(tmp_path / "cfg.json", config)] + argv
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
            (["fs", "check", "--generators", "line.json", "--target", "300,4"], "1000"),
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
            "fs-check-search-nodes",
        ],
    )
    def test_point_count_above_cap(self, capsys, monkeypatch, tmp_path, argv, env):
        write_json(tmp_path / "cone.json", {"v": [[1, 2], [2, 1]]})
        write_json(tmp_path / "cone-deep.json", {"v": [[1, 2], [2, 1]], "depth": 100000})
        # the point needs depth 131 whatever the spec says: 2 * 132^2 ray cells
        write_json(tmp_path / "cone-shallow.json", {"v": [[1, 2], [2, 1]], "depth": 1})
        # 1,505 target cells, above the cap, so the search runs: it needs 4,768 nodes
        write_json(tmp_path / "line.json", [[i, 1] for i in range(1, 41)])
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        if env is not None:
            monkeypatch.setenv("FSLATTICE_CAP", env)
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("resource error: ") and err.count("\n") == 1

    def test_point_count_at_cap_runs(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("FSLATTICE_CAP", "16")
        # a 16-point window; the seed box is [0,2] x [0,4], 15 points
        spec = write_json(tmp_path / "cone.json", {"v": [[1, 1], [1, 2]]})
        for argv in (
            ["dyadic", "dense-square", "--R", "4"],
            ["dyadic", "empty-square", "--D", "4"],
            ["cone", "verify", "--spec", spec, "--max", "3"],
            ["gap", "five-squares", "--lo", "1", "--hi", "16"],
        ):
            code, _, err = run(capsys, argv)
            assert code == 0, err

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

    def test_resource_cap_env(self, capsys, monkeypatch, gens_file):
        monkeypatch.setenv("FSLATTICE_CAP", "50")
        code, _, err = run(
            capsys, ["fs", "enumerate", "--generators", gens_file, "--box", "0,0,99,99"]
        )
        assert code == 2
        assert "resource error" in err


# -- the JSON writer: the text of json.dumps(value, sort_keys=True, indent=2)

json_strings = st.text(
    st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\U0001f600\xe9'), max_size=6
)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**100), 2**100)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | json_strings
)


def json_trees(depth):
    """JSON values nested at most `depth` deep; tuples stand for arrays too."""
    if depth == 0:
        return json_scalars
    inner = json_trees(depth - 1)
    return (
        json_scalars
        | st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(json_strings, inner, max_size=3)
    )


@settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(json_trees(6))
def test_writer_is_json_dumps(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(st.integers(-(2**70), 2**70), json_trees(2), max_size=5))
def test_writer_int_keys(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        {None: 1},
        {True: [1]},
        {1.5: {}},
        {float("nan"): 0},
        # the memo must not render these equal lists alike
        [[1, 2], [1.0, 2], [True, 2], (1, 2), [[1, 2]]],
    ],
)
def test_writer_keys_and_memo(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, {"a": [frozenset()]}, {(1, 2): 0}])
def test_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as got:
        _json_text(value)
    assert str(got.value) == str(expected.value)


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
        members = payload["witnesses"]["(" + ",".join(map(str, p)) + ")"]
        assert all(tuple(m) in gens for m in members)
        assert validate_representation(Representation.from_json({"target": p, "members": members}))


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
