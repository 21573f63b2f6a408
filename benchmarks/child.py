"""One pass of a benchmark workload, in a fresh interpreter started by run.py.

    python3 benchmarks/child.py ROOT WORKLOAD SEED WORKDIR MODE RESULT

MODE is "setup" (set up, then stop where the first operation would start),
"plain" (run the operations untraced), "traced" (record spans and counters)
or "memory" (tracemalloc around fs_enumerate only).  The child imports
fslattice from ROOT/src, generates and writes its inputs under WORKDIR, runs
the operations one after another, checks each output after its timed
interval, and writes a JSON summary to RESULT.  Times are CLOCK_MONOTONIC,
which run.py shares, so it can time set-up from its own spawn.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    root, workload, seed, workdir, mode, result_path = argv
    workdir = Path(workdir)
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import fslattice

    if Path(fslattice.__file__).resolve().parent != (src / "fslattice").resolve():
        sys.stderr.write(f"fslattice imported from {fslattice.__file__}, not from {src}\n")
        return 3

    import tracing
    import workloads

    ops = workloads.build(workload, int(seed), workdir)
    tracer = None
    if mode in ("traced", "memory"):
        tracer = tracing.Tracer(run_id=f"{workload}-seed{seed}-{mode}")
        tracing.instrument(tracer, mode)
    summary = {"ops": len(ops), "op_names": [op.name for op in ops], "op_s": [], "wall_s": 0.0}
    summary.update(failed=0, wrong=0, errors=[])
    summary["t_first"] = time.monotonic()  # set-up ends here
    if mode == "setup":
        return _write(result_path, summary)

    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
            tracer.install()
        start = time.monotonic()
        try:
            output = op.run()
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{op.name}: {type(exc).__name__}: {str(exc)[:200]}"
        elapsed = time.monotonic() - start
        summary["wall_s"] += elapsed
        summary["op_s"].append(elapsed)
        if tracer is not None:
            tracer.uninstall()
        if error is None:
            try:
                op.check(output)
            except workloads.WrongOutput as exc:
                summary["wrong"] += 1
                error = f"{op.name}: wrong output: {exc}"
        output = None  # release a large result before the next operation
        if error is not None:
            summary["failed"] += 1
            if len(summary["errors"]) < 5:
                summary["errors"].append(error)

    if workload == "selftest" and (workdir / "selftest.json").exists():
        summary["payload_sha256"] = workloads.selftest_digest(workdir)
    if tracer is not None:
        tracer.dump(Path(f"{result_path}.trace"))
    return _write(result_path, summary)


def _write(path: str, summary: dict) -> int:
    Path(path).write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
