"""Command-line entry point: every operation as a subcommand with JSON output.

Exit codes: 0 success, 1 domain/validation error, 2 resource cap, 64 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import cone, dyadic, gaps
from .core import (
    DEFAULT_CELL_CAP,
    Box,
    GeneratorSet,
    Point,
    ResourceLimitError,
    ValidationError,
    int_array,
    parse_point,
)
from .oracle import ReachableSet, bit_levels, fs_enumerate, fs_membership
from .selftest import payload_of, run_criteria

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 64
ENV_CAP = "FSLATTICE_CAP"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _write(pieces: Iterable[str], out: Optional[str]) -> None:
    """Write the pieces of one text, in order, to the file out or to stdout."""
    if out:
        with open(out, "w") as f:
            f.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _emit(payload: dict, out: Optional[str]) -> None:
    _write((json.dumps(payload, sort_keys=True, indent=2), "\n"), out)


def _enumerate_pieces(head: dict, reach: ReachableSet) -> list[str]:
    """The pieces of the text `_emit` writes for head plus "points", the set's
    coordinate tuples sorted, and "witnesses", each point's witness members
    keyed by str(Point(c)).  Those two keys sort after head's ("box",
    "count", "heatmap"), so json.dumps writes head and one %d template per
    tuple shape writes the two arrays.  Each generator's member text is
    rendered once, and the witness walk folds those texts into each point's
    member list."""
    dim = reach.box.dim

    def array(parts: list[str], ind: str, brackets: str = "[]") -> str:
        """An indented JSON container of item texts, opening on a line at indent ind."""
        if not parts:
            return brackets
        return f"{brackets[0]}\n{ind}  " + f",\n{ind}  ".join(parts) + f"\n{ind}{brackets[1]}"

    member = array(["%d"] * dim, "      ")
    key = '"(' + ",".join(["%d"] * dim) + ')": '  # str(Point(c)) for a c of this dimension
    # a witness's text is ",\n      " before each member, folded by the walk
    values = [",\n      " + member % g.coords for g in reach.generators]
    points, witnesses = [], []
    for c, text in reach.witnesses(values):
        points.append(c)
        witnesses.append(key % c + (f"[{text[1:]}\n    ]" if text else "[]"))
    point = array(["%d"] * dim, "    ")
    return [
        json.dumps(head, sort_keys=True, indent=2)[:-2],  # without its closing "\n}"
        ',\n  "points": ',
        array(list(map(point.__mod__, sorted(points))), "  "),
        ',\n  "witnesses": ',
        array(sorted(witnesses), "  ", "{}"),  # no key is a prefix of another: they sort as their keys
        "\n}\n",
    ]


# the text of each level 0..255 in a PGM row
_LEVEL_TEXT = [str(v) for v in range(256)]


def _write_pgm(path: str, rows: Sequence[bytes]) -> None:
    """Write rows of levels as a plain PGM; each distinct row is rendered once
    (a `dyadic map` of [1, 511]^2 repeats 465 of its 511 rows)."""
    height = len(rows)
    width = len(rows[0]) if rows else 0
    texts = {row: " ".join(map(_LEVEL_TEXT.__getitem__, row)) for row in set(rows)}
    lines = ["P2", f"{width} {height}", "255", *map(texts.__getitem__, rows)]
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_box(text: str) -> Box:
    """Parse "lo_1,...,lo_k,hi_1,...,hi_k" into a k-dimensional box."""
    try:
        coords = tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"cannot parse box {text!r}") from exc
    if len(coords) % 2:
        raise ValidationError(f"box needs 2k coordinates (lo, then hi), got {len(coords)}")
    k = len(coords) // 2
    return Box(Point(coords[:k]), Point(coords[k:]))


def _require_2d(value: Box | Point, what: str) -> None:
    if value.dim != 2:
        raise ValidationError(f"{what} needs 2D input, got {value.dim}D")


def _cell_cap() -> int:
    """The one setting: FSLATTICE_CAP, or DEFAULT_CELL_CAP when it is unset."""
    text = os.environ.get(ENV_CAP)
    if text is None:
        return DEFAULT_CELL_CAP
    try:
        cap = int(text)
    except ValueError:
        raise ValidationError(f"{ENV_CAP} must be an integer, got {text!r}") from None
    if cap < 1:
        raise ValidationError(f"{ENV_CAP} must be positive, got {cap}")
    return cap


def read_json(path: str) -> object:
    """Decode the JSON file at `path`; nesting too deep to decode is a ValidationError."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValidationError(f"{path}: JSON nested too deeply to decode") from exc


def _load_generators(path: str) -> GeneratorSet:
    return GeneratorSet.from_json(read_json(path))


def _load_ints(path: str) -> list[int]:
    return int_array(read_json(path), path)


def _parse_cone_vectors(text: str) -> cone.ConeSpec:
    points = tuple(parse_point(part) for part in text.split(";"))
    return cone.ConeSpec(points)


def _int_list(text: str, option: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"{option} must be comma-separated integers, got {text!r}") from None


def _load_cone_spec(path: str) -> tuple[cone.ConeSpec, Optional[int]]:
    """The cone spec in a JSON file, bare or under "spec", and its "depth" if it gives one."""
    data = read_json(path)
    spec = cone.ConeSpec.from_json(data.get("spec", data) if isinstance(data, dict) else data)
    # from_json accepted data, so it is a dict
    if "depth" in data and (type(data["depth"]) is not int or data["depth"] < 0):
        raise ValidationError(f"depth must be a nonnegative integer, got {data['depth']!r}")
    return spec, data.get("depth")


def _fs_check(args, cap: int) -> int:
    X = _load_generators(args.generators)
    target = parse_point(args.target)
    rep = fs_membership(X, target, cell_cap=cap)
    payload = {"target": target.to_json(), "reachable": rep is not None}
    payload["representation"] = rep.to_json() if rep else None
    _emit(payload, args.out)
    return EXIT_OK


def _fs_enumerate(args, cap: int) -> int:
    X = _load_generators(args.generators)
    box = _parse_box(args.box)
    if args.heatmap:
        _require_2d(box, "--heatmap")
    reach = fs_enumerate(X, box, cell_cap=cap)
    head = {"box": {"lo": box.lo.to_json(), "hi": box.hi.to_json()}, "count": len(reach)}
    if args.heatmap:
        lx, ly = box.lo.coords
        hx, hy = box.hi.coords
        rows = [bit_levels(reach.row(y) >> lx, hx - lx + 1, 0, 255) for y in range(hy, ly - 1, -1)]
        _write_pgm(args.heatmap, rows)
        head["heatmap"] = args.heatmap
    _write(_enumerate_pieces(head, reach), args.out)
    return EXIT_OK


def _cone_build(args, cap: int) -> int:
    X = cone.build_thin_generators(_parse_cone_vectors(args.v), args.depth, cap)
    _emit(X.to_json(), args.out)
    return EXIT_OK


def _cone_decompose(args, cap: int) -> int:
    spec, depth = _load_cone_spec(args.spec)
    target = parse_point(args.point)
    # one build: at the spec's (or default) depth, or deeper if the point needs it
    default = cone.default_depth(spec, target)
    depth = max(default if depth is None else depth, cone.required_depth(spec, target))
    rep = cone.decompose(spec, cone.build_thin_generators(spec, depth, cap), target)
    _emit({"depth": depth, "representation": rep.to_json()}, args.out)
    return EXIT_OK


def _cone_verify(args, cap: int) -> int:
    spec, _ = _load_cone_spec(args.spec)
    _, checked, failures = cone.check_window(spec, args.max, cap)
    payload = {"max": args.max, "checked": checked, "passed": not failures}
    payload["failing_point"] = failures[0].to_json() if failures else None
    _emit(payload, args.out)
    return EXIT_DOMAIN if failures else EXIT_OK


def _dyadic_check(args, cap: int) -> int:
    p = parse_point(args.point)
    _require_2d(p, "dyadic check")
    a, b = p.coords
    in_e = dyadic.in_exceptional(a, b)
    rep = None if in_e else dyadic.dyadic_represent(a, b)
    payload = {"point": p.to_json(), "in_exceptional": in_e}
    payload["representation"] = rep.to_json() if rep else None
    _emit(payload, args.out)
    return EXIT_OK


def _dyadic_map(args, cap: int) -> int:
    box = _parse_box(args.box)
    _require_2d(box, "dyadic map")
    dyadic.check_corner(box.lo)  # before the DP, not after it
    reach = fs_enumerate(dyadic.dyadic_generators(box.hi), box, cell_cap=cap)
    _write_pgm(args.out, dyadic.exceptional_map(box.lo, box.hi, reach))
    sys.stdout.write(
        json.dumps({"heatmap": args.out, "reachable": len(reach.points)}, sort_keys=True) + "\n"
    )
    return EXIT_OK


def _dyadic_empty_square(args, cap: int) -> int:
    cert = dyadic.empty_square(args.D, cap)
    payload = {
        "x0": dyadic.bit_positions(cert.square.x0),
        "y0": dyadic.bit_positions(cert.square.y0),
        "side": cert.square.side,
        "certificate_ok": cert.all_unreachable(),
    }
    if args.verify:
        payload["verified"] = not dyadic.empty_square_reach(cert, cap)
    _emit(payload, args.out)
    return EXIT_OK


def _dyadic_dense_square(args, cap: int) -> int:
    _emit(dataclasses.asdict(dyadic.dense_square_count(args.R, cap)), args.out)
    return EXIT_OK


def _gap_build(args, cap: int) -> int:
    A, B = _load_ints(args.A), _load_ints(args.B)
    _emit(gaps.build_gap(A, B, _int_list(args.L, "--L"), cap).to_json(), args.out)
    return EXIT_OK


def _gap_rectangle(args, cap: int) -> int:
    A, B = _load_ints(args.A), _load_ints(args.B)
    _emit(gaps.dense_rectangle(A, B, args.T, args.H, cell_cap=cap).to_json(), args.out)
    return EXIT_OK


def _gap_five_squares(args, cap: int) -> int:
    failures = gaps.five_squares_check(args.lo, args.hi, cap)
    _emit({"lo": args.lo, "hi": args.hi, "failures": failures}, args.out)
    return EXIT_OK


def _selftest(args, cap: int) -> int:
    ids = None
    if args.criteria is not None:
        if not args.criteria:
            raise ValidationError("--criteria lists no criterion")
        ids = _int_list(args.criteria, "--criteria")
    results = run_criteria(args.seed, cap, ids)
    payload = payload_of(args.seed, results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        limit = "" if r.time_limit_s is None else f" (limit {r.time_limit_s:g} s)"
        sys.stderr.write(f"[{mark}] {r.id:2d} {r.name:36s} {r.elapsed:7.2f} s{limit}\n")
    _emit(payload, args.out)
    return EXIT_OK if payload["all_passed"] else EXIT_DOMAIN


@functools.cache  # built on the first main() call, then reused
def build_parser() -> _Parser:
    """The command tree; each command's parser sets `run`, the handler main calls."""
    parser = _Parser(prog="fslattice", description=__doc__)
    sub = parser.add_subparsers(dest="group", required=True)
    writes_json = _Parser(add_help=False)  # the parent of every command but `dyadic map`
    writes_json.add_argument("--out")

    def command(commands, name: str, run, parents=(writes_json,), **kwargs) -> _Parser:
        p = commands.add_parser(name, parents=list(parents), **kwargs)
        p.set_defaults(run=run)
        return p

    def group(name: str, text: str):
        return sub.add_parser(name, help=text).add_subparsers(dest="command", required=True)

    fs = group("fs", "brute-force oracle")
    p = command(fs, "check", _fs_check)
    p.add_argument("--generators", required=True)
    p.add_argument("--target", required=True)
    p = command(fs, "enumerate", _fs_enumerate)
    p.add_argument("--generators", required=True)
    p.add_argument("--box", required=True)
    p.add_argument("--heatmap")

    cn = group("cone", "thin cone generators")
    p = command(cn, "build", _cone_build)
    p.add_argument("--v", required=True, help='generators, e.g. "1,2;2,1"')
    p.add_argument("--depth", type=int, default=6)
    p = command(cn, "decompose", _cone_decompose)
    p.add_argument("--spec", required=True)
    p.add_argument("--point", required=True)
    p = command(cn, "verify", _cone_verify)
    p.add_argument("--spec", required=True)
    p.add_argument("--max", type=int, default=80)

    dy = group("dyadic", "power-of-two grid")
    command(dy, "check", _dyadic_check).add_argument("--point", required=True)
    p = command(dy, "map", _dyadic_map, parents=())
    p.add_argument("--box", required=True)
    p.add_argument("--out", required=True)  # the PGM path
    p = command(dy, "empty-square", _dyadic_empty_square)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    command(dy, "dense-square", _dyadic_dense_square).add_argument("--R", type=int, required=True)

    gp = group("gap", "GAPs and dense rectangles")
    p = command(gp, "build", _gap_build)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--L", required=True, help='lengths, e.g. "3,2"')
    p = command(gp, "rectangle", _gap_rectangle)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--H", type=int, required=True)
    p = command(gp, "five-squares", _gap_five_squares)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)

    p = command(sub, "selftest", _selftest, help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--criteria", help='subset to run, e.g. "1,4,12"')
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a "--" where the group or the command name goes for that
    # name; there it ends no options, so skip it
    if argv[:1] == ["--"]:
        del argv[0]
    if argv[1:2] == ["--"] and argv[0] != "selftest":
        del argv[1]
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        message = str(exc)
        first = argv[0] if argv else ""
        if first.startswith("-") and first not in ("-", "--"):
            # the parser's only option is -h, which never fails; argparse would
            # take an unknown option's value for the group and name that instead
            message = f"unrecognized arguments: {first}"
        sys.stderr.write(f"usage error: {message}\n")
        return EXIT_USAGE
    try:
        return args.run(args, _cell_cap())
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:  # ValidationError, DomainError, JSON errors, paths
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
