"""Acceptance gate: run every selftest criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with pytest -v -s or on
failure) and asserts the criterion's verdict, which already folds in the
per-criterion runtime limits.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from fslattice import cone, dyadic, oracle
from fslattice.cli import main
from fslattice.core import Point, Representation
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
    real = dyadic.dyadic_represent

    def represent(a, b):
        rep = real(a, b)
        return Representation(rep.members[1:], rep.target) if (a, b) == PLANTED else rep

    monkeypatch.setattr(dyadic, "dyadic_represent", represent)
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


def test_cone_completeness_catches_a_non_member(monkeypatch):
    # (9,18) = 9 * (1,2) sums right but is neither a seed point nor a ray element 2^j v_l
    outsider = Point((9, 18))
    real = cone.decompose

    def decompose(spec, X, v):
        return Representation((v,), v) if v == outsider else real(spec, X, v)

    monkeypatch.setattr(cone, "decompose", decompose)
    result = run_criterion(1, seed=0)
    assert not result.passed
    assert result.details["decompose_failures"] == ["(9,18)"]


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


# sha256 of `fs enumerate` stdout for 24 seeded generators in [1,9]^2 over the
# box [0,30]^2: 664 points, each with its witness
FS_ENUMERATE_SHA256 = "4f3ae0d0deb1fbaf77fd6aa1298f2df72a89871dd8db730b0a9da4a9fdc45efc"


def test_fs_enumerate_output_is_pinned(capsys, tmp_path):
    rng = random.Random(13)
    generators = sorted(rng.sample([(x, y) for x in range(1, 10) for y in range(1, 10)], 24))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(generators))
    assert main(["fs", "enumerate", "--generators", str(path), "--box", "0,0,30,30"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == FS_ENUMERATE_SHA256


@pytest.mark.parametrize("mode, patches", [("traced", 31), ("memory", 5)])
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
