"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, op, round) plus counters such as
``letters`` or ``squares``.  The benchmark opens a root span per op and a
child span around each call it makes into a wordpower module; nothing
inside the package is instrumented.  Spans stay in a list until the run
ends, when :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, name: str, start: float, end: float, parent: int | None,
            op: int | None, round_: int | None, **counts) -> int:
        self.spans.append({"id": len(self.spans), "name": name, "start": start, "end": end,
                           "parent": parent, "op": op, "round": round_, **counts})
        return len(self.spans) - 1

    def scope(self, name: str, op: int | None, round_: int | None) -> "Scope":
        """Open a root span; close it with :meth:`Scope.close`."""
        return Scope(self, self.add(name, perf_counter(), None, None, op, round_))

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


class Scope:
    """A root span and the children recorded under it."""

    def __init__(self, tracer: Tracer, root: int) -> None:
        self.tracer = tracer
        self.root = root

    @contextmanager
    def span(self, name: str, **counts):
        """Child span around a block; the block may add counters to the
        yielded dict."""
        root = self.tracer.spans[self.root]
        start = perf_counter()
        extra = dict(counts)
        try:
            yield extra
        finally:
            self.tracer.add(name, start, perf_counter(), self.root, root["op"], root["round"], **extra)

    def add(self, name: str, start: float, end: float, **counts) -> None:
        """Child span measured elsewhere, e.g. inside a child process."""
        root = self.tracer.spans[self.root]
        self.tracer.add(name, start, end, self.root, root["op"], root["round"], **counts)

    def close(self) -> None:
        self.tracer.spans[self.root]["end"] = perf_counter()


def traced(scope: Scope | None, name: str, fn, **counts):
    """``fn()``, inside a child span of ``scope`` when tracing."""
    if scope is None:
        return fn()
    with scope.span(name, **counts):
        return fn()


SUITES = ("tmmorph", "shur", "stronger", "fact", "pansiot", "square", "conj", "extend",
          "main", "finite-overlaps", "infinite", "uncount", "automatic", "beta")

#: Every per-layer metric of a traced run, with its unit.  Times and
#: counts are per round (one pass over the workload's ops), as the median
#: over traced rounds; a layer that only the set-up calls is reported for
#: the set-up.  cli.import_s, cli.process_s and cli.startup_s are medians
#: per CLI process.  A layer the workload does not reach reads 0.
PER_LAYER_UNITS = {
    "repetition.busy_s": "s",
    "repetition.calls": "count",
    "repetition.letters_in": "count",
    "repetition.find_power_s": "s",
    "repetition.is_power_free_s": "s",
    "repetition.max_exponent_s": "s",
    "repetition.list_repetitions_s": "s",
    "atlas.squares_in_s": "s",
    "atlas.squares": "count",
    "atlas.classify_s": "s",
    "atlas.classified": "count",
    "atlas.in_atlas_ratio": "ratio",
    "cli.main_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.emit_s": "s",
    "cli.import_s": "s",
    "cli.process_s": "s",
    "cli.startup_s": "s",
    **{f"verify.{suite}_s": "s" for suite in SUITES},
    "verify.passed": "count",
    "constructions.busy_s": "s",
    "constructions.calls": "count",
    "constructions.letters": "count",
    "op.self_s": "s",
    "trace.traced_ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The span-derived entries of :data:`PER_LAYER_UNITS` (all but trace.*)."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    rounds = sorted({s["round"] for s in spans if s["round"] is not None})
    groups = [[s for s in spans if s["round"] == r] for r in rounds]
    setup = [s for s in spans if s["round"] is None]

    def total(prefix: str, value=_duration) -> float:
        def picked(span: dict) -> bool:
            return span["name"] == prefix or prefix.endswith(".") and span["name"].startswith(prefix)

        per_round = [sum(value(s) for s in group if picked(s)) for group in groups]
        if not any(per_round):
            per_round = [sum(value(s) for s in setup if picked(s))]
        return _median(per_round)

    def counter(key: str):
        return lambda span: span.get(key, 0)

    def one(span: dict) -> int:
        return 1

    def ratio(group: list[dict]) -> float | None:
        classified = sum(s.get("classified", 0) for s in group)
        return sum(s.get("in_atlas", 0) for s in group) / classified if classified else None

    def emit(group: list[dict]) -> float:
        # cli.main minus the same input's generate, squares_in and classify.
        probes = [s for s in group if s["name"] == "probe"]
        probed = {s["op"] for s in probes}
        main = sum(_duration(s) for s in group if s["name"] == "cli.main" and s["op"] in probed)
        return main - sum(_duration(c) for p in probes for c in children.get(p["id"], []))

    def per_process(name: str) -> list[float]:
        return [_duration(s) for s in spans if s["name"] == name]

    startup = []
    for root in spans:
        kids = {c["name"]: c for c in children.get(root["id"], [])}
        if "cli.process" in kids and "cli.main" in kids:
            startup.append(_duration(kids["cli.process"]) - _duration(kids["cli.main"]))
    ratios = [r for r in map(ratio, groups) if r is not None]

    out = {
        "repetition.busy_s": total("repetition."),
        "repetition.calls": total("repetition.", one),
        "repetition.letters_in": total("repetition.", counter("letters")),
        "atlas.squares_in_s": total("atlas.squares_in"),
        "atlas.squares": total("atlas.squares_in", counter("squares")),
        "atlas.classify_s": total("atlas.classify"),
        "atlas.classified": total("atlas.classify", counter("classified")),
        "atlas.in_atlas_ratio": _median(ratios),
        "cli.main_s": total("cli.main"),
        "cli.stdout_bytes": total("cli.main", counter("stdout_bytes")),
        "cli.emit_s": _median([emit(g) for g in groups if any(s["name"] == "probe" for s in g)]),
        "cli.import_s": _median(per_process("cli.import")),
        "cli.process_s": _median(per_process("cli.process")),
        "cli.startup_s": _median(startup),
        "verify.passed": total("verify.", counter("passed")),
        "constructions.busy_s": total("constructions."),
        "constructions.calls": total("constructions.", one),
        "constructions.letters": total("constructions.", counter("letters")),
        "op.self_s": _median([sum(self_time(s, children.get(s["id"], [])) for s in g if s["name"] == "op")
                              for g in groups]),
    }
    for fn in ("find_power", "is_power_free", "max_exponent", "list_repetitions"):
        out[f"repetition.{fn}_s"] = total(f"repetition.{fn}")
    for suite in SUITES:
        out[f"verify.{suite}_s"] = total(f"verify.{suite}")
    return out


def self_time(root: dict, children: list[dict]) -> float:
    """The root's duration minus the part its children cover."""
    covered = 0.0
    edge = root["start"]
    for child in sorted(children, key=lambda s: s["start"]):
        start, end = max(child["start"], edge), min(child["end"], root["end"])
        if end > start:
            covered += end - start
            edge = end
    return root["end"] - root["start"] - covered
