"""Acceptance suite: every headline guarantee checked at desk scale.

Criteria 1-11 are pure functions of (seed, cell_cap) returning a result whose
JSON form is deterministic.  The determinism criterion, 12, compares their
bytes from this process's one run with those of a second interpreter, started
with a different PYTHONHASHSEED before criterion 1 and running alongside it.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Optional, Sequence

from . import cone, dyadic, gaps
from .core import (
    Box,
    GeneratorSet,
    Point,
    validate_representation,
    validate_sum,
)
from .oracle import DEFAULT_CELL_CAP, fs_enumerate, trm_table


@dataclass
class CriterionResult:
    id: int
    name: str
    passed: bool
    details: dict
    elapsed: float  # not serialized: timings must not break determinism
    time_limit_s: Optional[float]  # not serialized either

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
        }


_CONE_SPEC = cone.ConeSpec((Point((1, 2)), Point((2, 1))))


def crit_cone_completeness(seed: int, cell_cap: int) -> dict:
    spec = _CONE_SPEC
    X, checked, failures = cone.check_window(spec, 80, cell_cap)
    sub = [p for p, _ in cone.cone_points(spec, (40, 40))]
    reach = fs_enumerate(X.all_elements(), Box(Point((0, 0)), Point((40, 40))), cell_cap)
    rows = [reach.row(y) for y in range(41)]  # bit x of rows[y]: is (x, y) reachable
    oracle_misses = [f"({x},{y})" for x, y in sub if not rows[y] >> x & 1]
    return {
        "passed": not failures and not oracle_misses,
        "time_limit_s": 10.0,
        "details": {
            "points_checked": checked,
            "decompose_failures": [str(p) for p in failures[:10]],
            "oracle_subsample": len(sub),
            "oracle_misses": oracle_misses[:10],
        },
    }


def crit_thinness(seed: int, cell_cap: int) -> dict:
    X = cone.build_thin_generators(_CONE_SPEC, 17, cell_cap)
    rows = []
    ok = True
    for e in range(2, 17):
        rep = cone.thinness_report(X, 1 << e)
        rows.append({"n": rep.n, "count": rep.count, "bound": rep.bound})
        ok = ok and rep.passed
    return {"passed": ok, "details": {"seed_size": len(X.seed), "census": rows}}


def _shift_lands(nums: Sequence[int], den: int, l: int, p: int, q: int) -> bool:
    """Whether nums/den - (p/q)*e_l lies in the unit simplex, over den*q."""
    shifted = [x * q for x in nums]
    shifted[l] -= p * den
    return all(x >= 0 for x in shifted) and sum(shifted) <= den * q


def crit_cover_lemmas(seed: int, cell_cap: int) -> dict:
    rng = random.Random(seed)
    face_failures = 0
    simplex_failures = 0
    for _ in range(500):
        k = rng.choice([2, 3, 4])
        raw = [rng.randint(0, 1000) for _ in range(k)]
        if sum(raw) == 0:
            raw[0] = 1
        # the face point raw / total, at lam = 1/k
        l = cone.face_cover_index(raw, 1, k)
        if not _shift_lands(raw, sum(raw), l, 1, k):
            face_failures += 1
    for _ in range(500):
        k = rng.choice([2, 3, 4])
        m = k + rng.randint(0, 3)  # lam = 1/m
        raw = [rng.randint(1, 1000) for _ in range(k)]
        total = sum(raw)
        # raw / total scaled by 1 + lam*s/1000 = (1000m + s)/(1000m): a point
        # of the (1+lam)-dilated simplex strictly outside the unit one
        scale = 1000 * m + rng.randint(1, 1000)
        b, den = [x * scale for x in raw], total * 1000 * m
        l = cone.simplex_cover_index(b, den, 1, m)
        if not _shift_lands(b, den, l, 1, m):
            simplex_failures += 1
    return {
        "passed": face_failures == 0 and simplex_failures == 0,
        "details": {
            "samples_each": 500,
            "face_failures": face_failures,
            "simplex_failures": simplex_failures,
        },
    }


def crit_grid_coverage(seed: int, cell_cap: int) -> dict:
    hi = Point((64, 64))
    reach = fs_enumerate(dyadic.dyadic_generators(hi), Box(Point((1, 1)), hi), cell_cap)
    represent_failures = []
    oracle_misses = []
    witness_failures = []
    outside_e = 0
    rows = [reach.row(b) for b in range(65)]  # bit a of rows[b]: is (a, b) reachable
    for a in range(1, 65):
        for b in range(1, 65):
            if dyadic.in_exceptional(a, b):
                continue
            outside_e += 1
            if not validate_sum(dyadic.dyadic_pairs(a, b), (a, b)):
                represent_failures.append(f"({a},{b})")
            if not rows[b] >> a & 1:
                oracle_misses.append(f"({a},{b})")
    for c, members in reach.witnesses():
        if not validate_sum(members, c):
            witness_failures.append(str(Point(c)))
    return {
        "passed": not (represent_failures or oracle_misses or witness_failures),
        "time_limit_s": 30.0,
        "details": {
            "points_outside_e": outside_e,
            "reachable_points": len(reach.points),
            "represent_failures": represent_failures[:10],
            "oracle_misses": oracle_misses[:10],
            "witness_failures": witness_failures[:10],
        },
    }


def crit_empty_squares(seed: int, cell_cap: int) -> dict:
    rows = []
    ok = True
    for D in range(1, 7):
        cert = dyadic.empty_square(D, cell_cap)
        reachable = sorted(str(p) for p in dyadic.empty_square_reach(cert, cell_cap))
        square_ok = cert.all_unreachable() and not reachable
        ok = ok and square_ok
        rows.append(
            {
                "D": D,
                "x0_bits": dyadic.bit_positions(cert.square.x0),
                "points": D * D,
                "reachable": reachable,
                "certificate_ok": cert.all_unreachable(),
            }
        )
    return {"passed": ok, "details": {"squares": rows}}


def crit_dense_squares(seed: int, cell_cap: int) -> dict:
    rows = []
    ok = True
    for R in range(1, 13):
        rep = dyadic.dense_square_count(R, cell_cap)
        entry = {
            "R": R,
            "exact": rep.exact_count,
            "enumeration": rep.enumeration_count,
            "chain_threshold": rep.chain_threshold,
        }
        if rep.exact_count != rep.enumeration_count:
            ok = False
        if R >= 6 and rep.exact_count < rep.chain_threshold:
            ok = False
        rows.append(entry)
    r3 = next(r for r in rows if r["R"] == 3)
    if r3["exact"] != 21:
        ok = False
    return {"passed": ok, "details": {"per_R": rows}}


def _oracle_confirms(points: Sequence[Point], A: Sequence[int], B: Sequence[int], cell_cap: int) -> list[str]:
    hi = Point((max(p.coords[0] for p in points), max(p.coords[1] for p in points)))
    gens = GeneratorSet.of(Point((a, b)) for a in A for b in B)
    reach = fs_enumerate(gens, Box(Point((0, 0)), hi), cell_cap)
    return [str(p) for p in points if p not in reach.points]


def crit_gap_construction(seed: int, cell_cap: int) -> dict:
    A1 = list(range(1, 13))
    g1 = gaps.build_gap(A1, [1, 2], [3], cell_cap)
    g1_ok = (
        g1.differences == (Point((13, 3)),)
        and g1.proper
        and all(validate_representation(rep) for _, rep in g1.elements)
    )
    misses1 = _oracle_confirms(g1.points(), A1, [1, 2], cell_cap)

    A2 = list(range(1, 61))
    g2 = gaps.build_gap(A2, [1, 2], [3, 2], cell_cap)
    g2_ok = (
        len(set(g2.points())) == 6
        and g2.proper
        and g2.separated
        and all(validate_representation(rep) for _, rep in g2.elements)
    )
    misses2 = _oracle_confirms(g2.points(), A2, [1, 2], cell_cap)
    return {
        "passed": g1_ok and g2_ok and not misses1 and not misses2,
        "details": {
            "gap1_difference": g1.differences[0].to_json(),
            "gap1_oracle_misses": misses1,
            "gap2_differences": [d.to_json() for d in g2.differences],
            "gap2_separated": g2.separated,
            "gap2_oracle_misses": misses2,
        },
    }


def crit_dense_rectangle(seed: int, cell_cap: int) -> dict:
    report = gaps.dense_rectangle(list(range(1, 41)), [1, 2, 3], T=3, H=30, cell_cap=cell_cap)
    passed = report.measured >= report.ledger_bound and report.trm_floor_ok
    return {
        "passed": passed,
        "details": {
            "interval": list(report.interval),
            "height": report.height,
            "measured": report.measured,
            "ledger_bound": report.ledger_bound,
            "Q": report.Q,
            "trm_floor_ok": report.trm_floor_ok,
            "density_ratio": report.density_ratio,
        },
    }


def crit_sumset_inequality(seed: int, cell_cap: int) -> dict:
    rng = random.Random(seed + 9)
    failures = 0
    for _ in range(200):
        size = rng.randint(1, 8)
        B_T = sorted(rng.sample(range(1, 31), size))
        Q = rng.randint(1, 6)
        out = gaps.sumset_iterate(B_T, Q)
        brute = sorted({sum(c) for c in combinations_with_replacement(B_T, Q)})
        if out != brute or len(out) < Q * len(B_T) - (Q - 1):
            failures += 1
    return {"passed": failures == 0, "details": {"samples": 200, "failures": failures}}


def crit_five_squares(seed: int, cell_cap: int) -> dict:
    failures = gaps.five_squares_check(1024, 4096, cell_cap)
    return {
        "passed": not failures,
        "time_limit_s": 5.0,
        "details": {"range": [1024, 4096], "failures": failures[:10]},
    }


def crit_trm_bound(seed: int, cell_cap: int) -> dict:
    table = trm_table(list(range(1, 101)), 200, cell_cap)
    violations = []
    for x in range(1, 201):
        t = table[x]
        # t(t+1)/2 <= x gives t^2 < 2x <= 4x, so this also checks t <= 2 sqrt(x)
        if t * (t + 1) // 2 > x:
            violations.append(x)
    return {"passed": not violations, "details": {"max_trm": max(table), "violations": violations}}


# run by the determinism child: argv is seed, cell_cap and the directory
# holding this package, which goes first on sys.path
_CHILD_SCRIPT = """\
import sys
sys.path.insert(0, sys.argv[3])
from fslattice.selftest import payload_bytes
sys.stdout.buffer.write(payload_bytes(int(sys.argv[1]), int(sys.argv[2])))
"""


def payload_bytes(
    seed: int, cell_cap: int, results: Optional[Sequence[CriterionResult]] = None
) -> bytes:
    """The sorted-key JSON payload of criteria 1-11, the bytes criterion 12
    compares; they are run here unless `results` holds them."""
    if results is None:
        results = run_criteria(seed, cell_cap, ids=range(1, 12))
    return json.dumps(payload_of(seed, results), sort_keys=True).encode()


def _start_child(seed: int, cell_cap: int):
    """The one determinism child: payload_bytes in a second interpreter with
    another PYTHONHASHSEED, or None when it cannot start."""
    import subprocess  # here, not at the top: `fslattice.cli` imports this module

    own = os.environ.get("PYTHONHASHSEED")
    env = {**os.environ, "PYTHONHASHSEED": "2" if own == "1" else "1"}
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # -S: the child needs only the stdlib and `src`, so it skips `site`; -I or
    # -E would also drop PYTHONHASHSEED, which is what the child is for
    argv = [sys.executable, "-Sc", _CHILD_SCRIPT, str(seed), str(cell_cap), src]
    try:
        return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    except OSError:
        return None


def crit_determinism(seed: int, cell_cap: int, child, own: bytes) -> dict:
    """Criteria 1-11 give the same bytes in this process (`own`) and in the
    child interpreter, which run_criteria starts with another PYTHONHASHSEED
    before criterion 1, so iteration order that follows string hashing shows
    too.  What is timed here is the wait left for the child; a child that
    could not start (None) or exits non-zero fails the criterion."""
    theirs = None
    if child is not None:
        out, _ = child.communicate()  # stderr is read and dropped, never echoed
        theirs = out if child.returncode == 0 else None
    return {
        "passed": own == theirs,
        "details": {"bytes": len(own), "identical": own == theirs},
    }


CRITERIA: list[tuple[int, str, Callable[..., dict]]] = [
    (1, "cone completeness", crit_cone_completeness),
    (2, "cone thinness census", crit_thinness),
    (3, "simplex covering lemmas (sampled)", crit_cover_lemmas),
    (4, "dyadic grid coverage outside E", crit_grid_coverage),
    (5, "empty squares in E", crit_empty_squares),
    (6, "dense squares in E", crit_dense_squares),
    (7, "GAP construction", crit_gap_construction),
    (8, "dense rectangle pipeline", crit_dense_rectangle),
    (9, "iterated sumset inequality", crit_sumset_inequality),
    (10, "five distinct squares", crit_five_squares),
    (11, "trm bound", crit_trm_bound),
    (12, "selftest determinism", crit_determinism),
]


def _entry(cid: int) -> tuple[int, str, Callable[..., dict]]:
    entry = next((e for e in CRITERIA if e[0] == cid), None)
    if entry is None:
        raise ValueError(f"unknown criterion {cid}")
    return entry


def run_criterion(
    cid: int, seed: int = 0, cell_cap: int = DEFAULT_CELL_CAP, *determinism
) -> CriterionResult:
    """Run and time one criterion.  Criterion 12 takes the child and the bytes
    of criteria 1-11 (`determinism`) from run_criteria; called without them it
    is run_criteria(seed, cell_cap, [12])."""
    if cid == 12 and not determinism:
        return run_criteria(seed, cell_cap, [12])[0]
    _, name, fn = _entry(cid)
    start = time.perf_counter()
    out = fn(seed, cell_cap, *determinism)
    elapsed = time.perf_counter() - start
    passed = out["passed"]
    limit = out.get("time_limit_s")
    if limit is not None and elapsed >= limit:
        passed = False
    return CriterionResult(cid, name, passed, out["details"], elapsed, limit)


def run_criteria(
    seed: int = 0,
    cell_cap: int = DEFAULT_CELL_CAP,
    ids: Optional[Sequence[int]] = None,
) -> list[CriterionResult]:
    """The wanted criteria (default: all), in the order asked.  With criterion
    12 wanted, its child starts first and criteria 1-11 each run once in this
    process while it runs; criterion 12 compares their bytes with the child's,
    and only the wanted results are returned."""
    wanted = list(ids) if ids is not None else [cid for cid, _, _ in CRITERIA]
    for i, cid in enumerate(wanted):
        _entry(cid)  # an unknown or repeated id fails before any work
        if cid in wanted[:i]:
            raise ValueError(f"criterion {cid} is asked for twice")
    if 12 not in wanted:
        return [run_criterion(cid, seed, cell_cap) for cid in wanted]
    child = _start_child(seed, cell_cap)
    try:
        done = {cid: run_criterion(cid, seed, cell_cap) for cid in range(1, 12)}
        own = payload_bytes(seed, cell_cap, list(done.values()))
        done[12] = run_criterion(12, seed, cell_cap, child, own)
    except BaseException:  # stop the child, then re-raise
        if child is not None:
            child.kill()
            child.communicate()
        raise
    return [done[cid] for cid in wanted]


def payload_of(seed: int, results: Sequence[CriterionResult]) -> dict:
    """The deterministic JSON payload of a run: no timings."""
    return {
        "seed": seed,
        "criteria": [r.to_json() for r in results],
        "all_passed": all(r.passed for r in results),
    }
