"""Acceptance gate: run every selftest criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with pytest -v -s or on
failure) and asserts the criterion's verdict, which already folds in the
per-criterion runtime limits.
"""

import hashlib
import json
import random
from itertools import product
from pathlib import Path

import pytest

from fslattice import cone, dyadic, oracle, selftest
from fslattice.cli import main
from fslattice.core import GeneratorSet, Point, validate_representation
from fslattice.selftest import CRITERIA, payload_of, run_criteria, run_criterion

_IDS = [f"{cid:02d}-{name.replace(' ', '-')}" for cid, name, _ in CRITERIA]


@pytest.mark.parametrize(
    "cid,name", [(cid, name) for cid, name, _ in CRITERIA], ids=_IDS
)
def test_criterion(cid, name):
    result = run_criterion(cid, seed=0)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {cid:2d}: {name} ({result.elapsed:.2f}s)")
    assert result.passed, f"criterion {cid} ({name}) failed: {result.details}"


# planted faults: criteria 1 and 4 must still see one bad point among thousands
PLANTED = (5, 3)  # outside E, inside the 64 x 64 grid of criterion 4


def test_grid_coverage_catches_a_wrong_sum(monkeypatch):
    # the criterion checks dyadic_represent's pairs as dyadic_pairs returns them
    real = dyadic.dyadic_pairs

    def pairs(a, b):
        return real(a, b)[1:] if (a, b) == PLANTED else real(a, b)

    monkeypatch.setattr(dyadic, "dyadic_pairs", pairs)
    assert not validate_representation(dyadic.dyadic_represent(*PLANTED))  # one path for both
    result = run_criterion(4, seed=0)
    assert not result.passed
    assert result.details["represent_failures"] == ["(5,3)"]
    assert result.details["oracle_misses"] == []


def test_grid_coverage_catches_an_oracle_miss(monkeypatch):
    real = oracle.ReachableSet.row
    a, b = PLANTED

    def row(self, y):
        return real(self, y) & ~(1 << a) if y == b else real(self, y)

    monkeypatch.setattr(oracle.ReachableSet, "row", row)
    result = run_criterion(4, seed=0)
    assert not result.passed
    assert result.details["oracle_misses"] == ["(5,3)"]
    assert result.details["represent_failures"] == []


def test_grid_coverage_catches_a_wrong_witness(monkeypatch):
    real = oracle.ReachableSet.witnesses

    def witnesses(self):
        for c, members in real(self):
            yield c, members[1:] if c == PLANTED else members

    monkeypatch.setattr(oracle.ReachableSet, "witnesses", witnesses)
    result = run_criterion(4, seed=0)
    assert not result.passed
    assert result.details["witness_failures"] == ["(5,3)"]
    assert result.details["represent_failures"] == result.details["oracle_misses"] == []


def test_cone_completeness_catches_a_non_member(monkeypatch):
    # (9,18) = 9 * (1,2) sums right but is neither a seed point nor a ray element 2^j v_l
    outsider = (9, 18)
    real = cone.decompose_coords

    def decompose_coords(spec, X, coords, nums):
        return [coords] if coords == outsider else real(spec, X, coords, nums)

    monkeypatch.setattr(cone, "decompose_coords", decompose_coords)
    X = cone.build_thin_generators(cone.ConeSpec((Point((1, 2)), Point((2, 1)))), 5)
    assert cone.decompose(X.spec, X, Point(outsider)).members == (Point(outsider),)  # one path for both
    result = run_criterion(1, seed=0)
    assert not result.passed
    assert result.details["decompose_failures"] == ["(9,18)"]


def test_cone_completeness_catches_an_oracle_miss(monkeypatch):
    # the oracle subsample reads criterion 1's verdicts from the rows too
    real = oracle.ReachableSet.row

    def row(self, y):
        return real(self, y) & ~(1 << 9) if y == 18 else real(self, y)

    monkeypatch.setattr(oracle.ReachableSet, "row", row)
    result = run_criterion(1, seed=0)
    assert not result.passed
    assert result.details["oracle_misses"] == ["(9,18)"]
    assert result.details["decompose_failures"] == []


# sha256 of the sorted-key JSON payload of criteria 1-11, which criterion 12
# byte-compares; a change here changes `fslattice selftest` output
PAYLOAD_SHA256 = {
    0: "62a38673195ee087d4747add6f3031004e4913c31f7fa90a0984ed4653987426",
    7: "e0ebfed31f5f88d94570b8d0450a3b0a61ab0695146ede5fe5e0b15cc981af98",
}


@pytest.mark.parametrize("seed", sorted(PAYLOAD_SHA256))
def test_payload_is_pinned(seed):
    payload = payload_of(seed, run_criteria(seed, ids=range(1, 12)))
    text = json.dumps(payload, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == PAYLOAD_SHA256[seed]


def test_empty_square_output_is_pinned(capsys):
    assert main(["dyadic", "empty-square", "--D", "2"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "certificate_ok": true,\n  "side": 2,\n'
        '  "x0": [\n    3,\n    4,\n    5\n  ],\n  "y0": [\n    0\n  ]\n}\n'
    )


# sha256 of `dyadic dense-square --R 12` stdout: the census and its bounds
DENSE_SQUARE_SHA256 = "d6bebc5610a447a1ec1f9881aa3d22088be28b9e46de0ee1ba65d9505bb7f39f"


def test_dense_square_output_is_pinned(capsys):
    assert main(["dyadic", "dense-square", "--R", "12"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == DENSE_SQUARE_SHA256


def search_payload(generators: list, lo: tuple, hi: tuple) -> str:
    """`fs enumerate` stdout rebuilt from the exclude-first search alone: every
    cell of the box it reaches, with the search's witness."""
    X = GeneratorSet.of(map(Point, generators))
    points, witnesses = [], {}
    for c in product(*(range(l, h + 1) for l, h in zip(lo, hi))):  # in sorted order
        target = Point(c)
        rep = oracle._search_membership([g for g in X if g.fits_within(target)], target, 10**6)
        if rep is not None:
            points.append(c)
            witnesses[str(target)] = [m.coords for m in rep.members]
    payload = {
        "box": {"lo": list(lo), "hi": list(hi)},
        "count": len(points),
        "points": points,
        "witnesses": witnesses,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# sha256 of `fs enumerate` stdout for 24 seeded generators in [1,9]^2 over the
# box [0,30]^2: 664 points, each with its witness
FS_ENUMERATE_SHA256 = "385ec70b9100136a8c107eb5e053cab54f58a4be2f6e3c30de48ecdb036a3ada"


def test_fs_enumerate_output_is_pinned(capsys, tmp_path):
    rng = random.Random(13)
    generators = sorted(rng.sample([(x, y) for x in range(1, 10) for y in range(1, 10)], 24))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(generators))
    assert main(["fs", "enumerate", "--generators", str(path), "--box", "0,0,30,30"]) == 0
    out = capsys.readouterr().out
    assert out == search_payload(generators, (0, 0), (30, 30))
    assert hashlib.sha256(out.encode()).hexdigest() == FS_ENUMERATE_SHA256


# sha256 of `fs enumerate` stdout for 20 seeded generators in [0,3]^3 over the
# box [2,9] x [1,8] x [3,10]: 477 points, whose witnesses walk through cells below lo
FS_ENUMERATE_3D_SHA256 = "f8b45ab3414e1db8770965a32637aae36c893475311fa6a5050f0740feac7cfa"


def test_fs_enumerate_3d_output_is_pinned(capsys, tmp_path):
    rng = random.Random(17)
    cube = [(x, y, z) for x in range(4) for y in range(4) for z in range(4) if x or y or z]
    generators = sorted(rng.sample(cube, 20))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(generators))
    assert main(["fs", "enumerate", "--generators", str(path), "--box", "2,1,3,9,8,10"]) == 0
    out = capsys.readouterr().out
    assert out == search_payload(generators, (2, 1, 3), (9, 8, 10))
    assert hashlib.sha256(out.encode()).hexdigest() == FS_ENUMERATE_3D_SHA256


# sha256 of `cone build` stdout: the seed scan and the rays, in a skinny 2D
# cone (seed box [0, 200]^2) and a small 3D one
CONE_BUILD_SHA256 = {
    "100,99;99,100": "2af5bcaf47c7bbeb79d164ea8d100692987aa7c07658a0d7f097265319429890",
    "2,1,0;0,2,1;1,0,2": "8a421eb6fdd963bf5a1f02f6ac3eb27939e5f8a67a7cd24c2ac1c84dc6a40b2d",
}


@pytest.mark.parametrize("v", sorted(CONE_BUILD_SHA256))
def test_cone_build_output_is_pinned(capsys, v):
    assert main(["cone", "build", "--v", v, "--depth", "3"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CONE_BUILD_SHA256[v]


# t = 10 breaks only t(t+1)/2 <= x at x = 50; t = 15 breaks t <= 2 sqrt(x) too
@pytest.mark.parametrize("t", [10, 15])
def test_trm_bound_catches_a_planted_entry(monkeypatch, t):
    real = selftest.trm_table

    def trm_table(A, hi, cell_cap):
        table = real(A, hi, cell_cap)
        table[50] = t
        return table

    monkeypatch.setattr(selftest, "trm_table", trm_table)
    result = run_criterion(11, seed=0)
    assert not result.passed
    assert result.details["violations"] == [50]


@pytest.mark.parametrize("mode, patches", [("traced", 30), ("memory", 5)])
def test_benchmark_tracer_finds_every_name(monkeypatch, mode, patches):
    # benchmarks/run.py --trace 1 wraps these package names; a rename must fail here too
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
    import tracing

    tracer = tracing.Tracer(run_id=f"test-{mode}")
    tracing.instrument(tracer, mode)
    planned = [(owner, attr, original) for owner, attr, original, _ in tracer._patches]
    assert len(planned) == patches
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not original for owner, attr, original in planned)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in planned)
