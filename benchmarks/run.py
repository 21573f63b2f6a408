"""fslattice benchmark: end-to-end and per-layer metrics of three workloads.

    python3 benchmarks/run.py --workload enumerate --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Run from a checkout of the repository; stdlib only, fslattice is imported
from ./src.  Every pass of a workload runs in a fresh child interpreter
(child.py), one operation after the previous completes, from this single
parent process, which starts no threads.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       time spent in the workload's operations (checks run between
               operations and are not timed); median over passes
  setup_s      child spawn to the start of its first operation: interpreter
               start, `import fslattice`, generating and writing the inputs;
               median over set-up-only children and passes
  peak_rss_mb  the child's peak resident set (wait4 ru_maxrss); median over passes
and prints ops_failed_ratio = failed / attempted, which the last line
carries as "failed" and "attempted".  A failed operation raised, exited with
an unexpected code, or returned an output that failed its check; only the
last, or a pass that does not finish, makes "correct" false.

--trace 1 reports the per-layer metrics: untraced passes give the base wall
time, one traced pass gives spans and counters (tracing.py), and one memory
pass gives fs_enumerate's tracemalloc peak.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import tracing

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("enumerate", "membership", "selftest")
SETUP_ONLY_CHILDREN = 8
MIN_PASSES = 2
MAX_OPS_LISTED = 8  # workloads with at most this many operations print each one's time
RUN_BUDGET_S = 170.0  # a child still running then is killed, so a run ends within 180 s

# the layer each workload is built to stress: (metrics summed, comparison, share)
SEPARATION = {
    "enumerate": [(("oracle.fs_enumerate.share",), ">=", 0.60)],
    "membership": [(("oracle.fs_membership.share",), ">=", 0.80)],
    "selftest": [
        (("oracle.fs_enumerate.share",), "<=", 0.05),
        (("cone.share", "dyadic.dense_square_count.share"), ">=", 0.60),
    ],
}


@dataclass
class Pass:
    mode: str
    exit_code: int
    setup_s: float
    rss_mb: float
    result: Optional[dict]
    dir: Path

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.result is not None


@dataclass
class Run:
    workload: str
    seed: int
    workdir: Path
    deadline: float
    passes: list[Pass] = field(default_factory=list)

    def spawn(self, mode: str) -> Pass:
        pass_dir = self.workdir / f"{len(self.passes):03d}-{mode}"
        pass_dir.mkdir()
        result_path = pass_dir / "result.json"
        argv = [sys.executable, str(CHILD), str(ROOT), self.workload, str(self.seed), str(pass_dir), mode, str(result_path)]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(pass_dir / "stdout.txt"), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(pass_dir / "stderr.txt"), flags, 0o644),
        ]
        t_spawn = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
        status, usage = _reap(pid, self.deadline)
        exit_code = os.waitstatus_to_exitcode(status)
        result = json.loads(result_path.read_text()) if result_path.exists() else None
        setup_s = result["t_first"] - t_spawn if result else float("nan")
        p = Pass(mode, exit_code, setup_s, usage.ru_maxrss / 1024, result, pass_dir)
        if not p.ok:
            tail = (pass_dir / "stderr.txt").read_text()[-2000:]
            sys.stderr.write(f"{self.workload} {mode} pass exited {exit_code}:\n{tail}\n")
        self.passes.append(p)
        return p

    def measured(self, mode: str) -> list[Pass]:
        return [p for p in self.passes if p.mode == mode and p.ok]

    def tally(self) -> tuple[bool, int, int, list[str]]:
        """(correct, attempted, failed, first errors) over every pass that ran operations."""
        correct, attempted, failed, errors = True, 0, 0, []
        digests = set()
        for p in self.passes:
            if p.mode == "setup":
                correct = correct and p.ok
                continue
            if not p.ok:
                correct = False
                attempted += 1
                failed += 1
                errors.append(f"{p.mode} pass exited {p.exit_code}")
                continue
            r = p.result
            attempted += r["ops"]
            failed += r["failed"]
            correct = correct and r["wrong"] == 0
            errors += r["errors"]
            if "payload_sha256" in r:
                digests.add(r["payload_sha256"])
        if len(digests) > 1:
            correct = False
            errors.append(f"selftest payload bytes differ between passes: {sorted(digests)}")
        return correct, attempted, failed, errors


def _reap(pid: int, deadline: float):
    """Wait for the child, killing it at the deadline; returns (status, rusage)."""
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done == pid:
                return status, usage
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
                return status, usage
            time.sleep(0.02)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f}, quartiles {q1:.4f} .. {q3:.4f}, n={len(values)}"


def run_workload(workload: str, seed: int, seconds: int, traced: bool, spec: dict) -> dict:
    start = time.monotonic()
    workdir = ROOT / ".bench_work" / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(workload, seed, workdir, deadline=start + RUN_BUDGET_S)
    try:
        if not traced:
            for _ in range(SETUP_ONLY_CHILDREN):
                run.spawn("setup")
        measure_start = time.monotonic()
        min_passes = 1 if traced else MIN_PASSES
        plain_passes = 0
        while plain_passes < min_passes or time.monotonic() - measure_start < seconds:
            if time.monotonic() > run.deadline:
                break
            run.spawn("plain")
            plain_passes += 1
        if traced:
            traced_pass = run.spawn("traced")
            memory_pass = run.spawn("memory")
        correct, attempted, failed, errors = run.tally()
        plain = run.measured("plain")
        walls = [p.result["wall_s"] for p in plain]
        print(f"workload {workload}  seed {seed}  passes {len(plain)}  operations {attempted}")
        if traced:
            metrics = _layer_metrics(run, traced_pass, memory_pass, walls, spec)
        else:
            metrics = _end_to_end(run, walls, spec)
        print(f"  {'ops_failed_ratio':<40} {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
        for e in errors[:5]:
            print(f"    failure: {e}")
        print(f"  correct: {correct}")
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _end_to_end(run: Run, walls: list[float], spec: dict) -> dict:
    plain = run.measured("plain")
    if not plain:
        raise RuntimeError("no pass of the workload finished")
    samples = {
        "wall_s": walls,
        "setup_s": [p.setup_s for p in run.passes if p.ok],
        "peak_rss_mb": [p.rss_mb for p in plain],
    }
    metrics = {}
    for m in spec["end_to_end"]:
        values = samples[m["name"]]
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
        print(f"  {m['name']:<40} {metrics[m['name']]['value']:.6g} {m['unit']}  ({_quartiles(values)})")
    if plain[0].result["ops"] <= MAX_OPS_LISTED:
        for i, name in enumerate(plain[0].result["op_names"]):
            print(f"    operation {name:<36} {statistics.median(p.result['op_s'][i] for p in plain):.6g} s")
    return metrics


def _layer_metrics(run: Run, traced_pass: Pass, memory_pass: Pass, walls: list[float], spec: dict) -> dict:
    if not (traced_pass.ok and memory_pass.ok and walls):
        raise RuntimeError("a traced, memory or untraced pass did not finish")
    base = traced_pass.dir / "result.json.trace"
    values = tracing.layer_metrics(
        base, memory_pass.dir / "result.json.trace", traced_pass.result["wall_s"], statistics.median(walls)
    )
    keep = ROOT / ".bench_work" / "traces" / f"{run.workload}-seed{run.seed}"
    keep.parent.mkdir(parents=True, exist_ok=True)
    for suffix in (".json", ".bin"):
        shutil.copyfile(f"{base}{suffix}", f"{keep}{suffix}")
    metrics = {}
    for m in spec["per_layer"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<40} {values[m['name']]:.6g} {m['unit']}")
    wall = values["trace.wall_s"]
    for names, op, bound in SEPARATION[run.workload]:
        share = sum(values[n] for n in names)
        ok = share >= bound if op == ">=" else share <= bound
        print(
            f"  separation: {' + '.join(names)} = {share:.1%} of the traced wall "
            f"{wall:.3f} s (want {op} {bound:.0%}): {'ok' if ok else 'NOT MET'}"
        )
    print(f"  spans written to {keep}.json and {keep}.bin")
    return metrics


def main(argv: Optional[list[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fslattice" / "__init__.py").is_file():
        sys.stderr.write(f"no fslattice sources under {ROOT / 'src'}; run from a checkout of the repository\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec) for w in names}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
