"""Spans and counters recorded around calls into fslattice, and their analysis.

The benchmark records from its own code only: it replaces a public function
at every module attribute that holds it, because ``from .oracle import
fs_enumerate`` binds a second name in cli, gaps and selftest, and a call must
be traced whichever name the caller looked up.  Spans (name, parent, operation,
start, end) and counters stay in memory in flat arrays and are written once,
when the pass ends; run.py loads them and computes self times.
"""

from __future__ import annotations

import array
import json
import statistics
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Optional

SPAN_FIELDS = (("name", "i"), ("parent", "i"), ("op", "i"), ("start_ns", "q"), ("end_ns", "q"))

# shares of the traced wall time; each group counts its outermost spans only
SHARE_GROUPS = {
    "oracle.fs_enumerate.share": ("oracle.fs_enumerate",),
    "oracle.fs_membership.share": ("oracle.fs_membership",),
    "cone.share": ("cone.decompose", "cone.build_thin_generators"),
    "dyadic.dense_square_count.share": ("dyadic.dense_square_count",),
}
CRITERIA = range(1, 13)


class Tracer:
    """Wraps fslattice callables; `install` and `uninstall` switch the wrappers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = {field: array.array(code) for field, code in SPAN_FIELDS}
        self.counters: dict[str, int] = {}
        self.op = -1  # index of the operation being run; spans of one operation share it
        self._open = [-1]  # stack of open span indices
        self._patches: list[tuple[Any, str, Any, Any]] = []

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[Any], None]] = None,
        name_of: Optional[Callable[..., str]] = None,
    ) -> Callable:
        """`fn` recording one span per call; `name_of(*args)` names it per call."""
        spans, open_spans, counters = self.spans, self._open, self.counters
        names, parents, ops = spans["name"], spans["parent"], spans["op"]
        starts, ends = spans["start_ns"], spans["end_ns"]
        fixed_id = None if name_of else self._name_id(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(fixed_id if name_of is None else self._name_id(name_of(*args)))
            parents.append(open_spans[-1])
            ops.append(self.op)
            ends.append(0)
            open_spans.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                open_spans.pop()
                counters[name + ".errors"] = counters.get(name + ".errors", 0) + 1
                raise
            ends[i] = clock()
            open_spans.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, key: str, fn: Callable) -> Callable:
        """`fn` adding one to counter `key` per call."""
        counters = self.counters
        counters.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def peak_bytes(self, key: str, fn: Callable) -> Callable:
        """`fn` under tracemalloc; counter `key` keeps the largest peak of one call."""
        counters = self.counters
        counters.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                counters[key] = max(counters[key], peak)

        return wrapper

    # -- patching ---------------------------------------------------------

    def replace(self, modules: list, original: Callable, wrapper: Callable) -> None:
        """Plan to swap `original` for `wrapper` at every module attribute bound to it."""
        found = False
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original, wrapper))
                    found = True
        if not found:
            raise LookupError(f"{original!r} is bound in no fslattice module")

    def replace_attr(self, owner: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Plan to swap a class attribute (a method or __post_init__) for its wrapper."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original, wrap(original)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def dump(self, base: Path) -> None:
        """Write `<base>.json` (names, counters, layout) and `<base>.bin` (the spans)."""
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "counters": self.counters,
            "spans": len(self.spans["start_ns"]),
            "fields": [[field, code] for field, code in SPAN_FIELDS],
        }
        Path(f"{base}.json").write_text(json.dumps(header, sort_keys=True))
        with open(f"{base}.bin", "wb") as f:
            for field, _ in SPAN_FIELDS:
                self.spans[field].tofile(f)


def _result_counters(tracer: Tracer) -> Callable[[Any], None]:
    counters = tracer.counters
    for key in ("cells", "generators", "points"):
        counters.setdefault("oracle.fs_enumerate." + key, 0)

    def on_enumerate(reach) -> None:
        cells = 1
        for h in reach.box.hi.coords:
            cells *= h + 1
        counters["oracle.fs_enumerate.cells"] += cells
        counters["oracle.fs_enumerate.generators"] += len(reach.generators)
        counters["oracle.fs_enumerate.points"] += len(reach.points)

    return on_enumerate


def instrument(tracer: Tracer, mode: str) -> None:
    """Plan the wrappers of a traced pass ("traced") or of a memory pass ("memory")."""
    import fslattice
    from fslattice import bitint, cli, cone, core, dyadic, gaps, oracle, selftest

    modules = [fslattice, bitint, cli, cone, core, dyadic, gaps, oracle, selftest]
    if mode == "memory":
        probe = tracer.peak_bytes("oracle.fs_enumerate.peak_bytes", oracle.fs_enumerate)
        tracer.replace(modules, oracle.fs_enumerate, probe)
        return

    reachable = "oracle.fs_membership.reachable"
    tracer.counters.setdefault(reachable, 0)

    def on_membership(rep) -> None:
        if rep is not None:
            tracer.counters[reachable] += 1

    spans = {
        "oracle.fs_enumerate": (oracle.fs_enumerate, _result_counters(tracer)),
        "oracle.fs_membership": (oracle.fs_membership, on_membership),
        "oracle.trm_table": (oracle.trm_table, None),
        "core.validate_representation": (core.validate_representation, None),
        "dyadic.in_exceptional": (dyadic.in_exceptional, None),
        "dyadic.exceptional_map": (dyadic.exceptional_map, None),
        "dyadic.dense_square_count": (dyadic.dense_square_count, None),
        "bitint.bit_sum": (bitint.bit_sum, None),
        "cone.decompose": (cone.decompose, None),
        "cone.build_thin_generators": (cone.build_thin_generators, None),
        "gaps.five_squares_check": (gaps.five_squares_check, None),
        "gaps.dense_rectangle": (gaps.dense_rectangle, None),
        "gaps.build_gap": (gaps.build_gap, None),
        "cli.main": (cli.main, None),
    }
    for name, (fn, on_result) in spans.items():
        tracer.replace(modules, fn, tracer.span(name, fn, on_result))
    for name, fn in (("cone.peel.calls", cone.peel), ("gaps.sumset_iterate.calls", gaps.sumset_iterate)):
        tracer.replace(modules, fn, tracer.count(name, fn))
    tracer.replace(
        modules,
        selftest.run_criterion,
        tracer.span(
            "selftest.criterion",
            selftest.run_criterion,
            name_of=lambda cid, *rest: f"selftest.criterion.{cid}",
        ),
    )
    tracer.replace_attr(
        oracle.ReachableSet, "witness", lambda fn: tracer.span("oracle.witness", fn)
    )
    tracer.replace_attr(
        core.Point, "__post_init__", lambda fn: tracer.count("core.Point.created", fn)
    )
    tracer.replace_attr(
        bitint.BitInt, "__post_init__", lambda fn: tracer.count("bitint.BitInt.created", fn)
    )


# -- analysis (run.py; imports no fslattice) -------------------------------


def load(base: Path) -> tuple[dict, dict[str, array.array]]:
    header = json.loads(Path(f"{base}.json").read_text())
    spans = {}
    with open(f"{base}.bin", "rb") as f:
        for field, code in header["fields"]:
            spans[field] = array.array(code)
            spans[field].fromfile(f, header["spans"])
    return header, spans


def _quantile(values: list[float], index: int) -> float:
    """Decile `index` (5 = median, 9 = p90) of the values, 0 when there are none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[index - 1]


def layer_metrics(
    traced: Path, memory: Path, traced_wall_s: float, untraced_wall_s: float
) -> dict[str, float]:
    """Per-layer metrics from the dumps of a traced pass and a memory pass.

    `<layer>.s` is self time: span time minus the time of its child spans.
    `selftest.criterion.<n>.s` is a criterion's whole span (criteria partition
    the selftest; criterion 12 holds the rerun of 1-11), and shares use the
    whole outermost spans of their group, over the traced wall time.
    """
    header, spans = load(traced)
    names = header["names"]
    counters = header["counters"]
    name_of, parent = spans["name"], spans["parent"]
    durations = [e - s for s, e in zip(spans["start_ns"], spans["end_ns"])]
    child_ns = [0] * len(durations)
    for i, p in enumerate(parent):
        if p >= 0:
            child_ns[p] += durations[i]

    calls = [0] * len(names)
    self_ns = [0] * len(names)
    for i, n in enumerate(name_of):
        calls[n] += 1
        self_ns[n] += durations[i] - child_ns[i]
    by_name = {name: i for i, name in enumerate(names)}

    def n_calls(name: str) -> int:
        return calls[by_name[name]] if name in by_name else 0

    def self_s(name: str) -> float:
        return self_ns[by_name[name]] / 1e9 if name in by_name else 0.0

    def outermost_s(group: tuple[str, ...], enclosing: tuple[str, ...] = ()) -> float:
        """Whole time of the spans in `group` that no span of `enclosing` (default: the group) encloses."""
        ids = {by_name[name] for name in group if name in by_name}
        outer = {by_name[name] for name in enclosing or group if name in by_name}
        total = 0
        for i, n in enumerate(name_of):
            if n not in ids:
                continue
            p = parent[i]
            while p >= 0 and name_of[p] not in outer:
                p = parent[p]
            if p < 0:
                total += durations[i]
        return total / 1e9

    m: dict[str, float] = {
        "trace.wall_s": traced_wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_ratio": traced_wall_s / untraced_wall_s,
    }
    for name in (
        "oracle.fs_enumerate",
        "oracle.witness",
        "core.validate_representation",
        "oracle.fs_membership",
        "dyadic.in_exceptional",
        "bitint.bit_sum",
        "cone.decompose",
        "cone.build_thin_generators",
        "oracle.trm_table",
    ):
        m[name + ".calls"] = n_calls(name)
        m[name + ".s"] = self_s(name)
    for name in (
        "dyadic.exceptional_map",
        "dyadic.dense_square_count",
        "gaps.five_squares_check",
        "gaps.dense_rectangle",
        "gaps.build_gap",
    ):
        m[name + ".s"] = self_s(name)
    m["cli.main.calls"] = n_calls("cli.main")
    m["cli.main.self_s"] = self_s("cli.main")
    for key in ("cells", "generators", "points"):
        m["oracle.fs_enumerate." + key] = counters.get("oracle.fs_enumerate." + key, 0)
    m["oracle.fs_enumerate.peak_bytes"] = load(memory)[0]["counters"].get(
        "oracle.fs_enumerate.peak_bytes", 0
    )
    for key in ("core.Point.created", "bitint.BitInt.created", "cone.peel.calls", "gaps.sumset_iterate.calls"):
        m[key] = counters.get(key, 0)

    member = by_name.get("oracle.fs_membership")
    member_ms = [durations[i] / 1e6 for i, n in enumerate(name_of) if n == member]
    errors = counters.get("oracle.fs_membership.errors", 0)
    answered = len(member_ms) - errors
    m["oracle.fs_membership.p50_ms"] = _quantile(member_ms, 5)
    m["oracle.fs_membership.p90_ms"] = _quantile(member_ms, 9)
    m["oracle.fs_membership.reachable_ratio"] = (
        counters.get("oracle.fs_membership.reachable", 0) / answered if answered else 0.0
    )
    m["oracle.fs_membership.errors"] = errors

    for key, group in SHARE_GROUPS.items():
        m[key] = outermost_s(group) / traced_wall_s
    criteria = tuple(f"selftest.criterion.{cid}" for cid in CRITERIA)
    for name in criteria:
        m[name + ".s"] = outermost_s((name,), criteria)
    return m
