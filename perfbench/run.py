#!/usr/bin/env python3
"""Benchmark for wordpower: four closed-loop workloads with checked outputs.

Run from the root of a wordpower checkout:

    python3 perfbench/run.py                    # every workload, each in a fresh process
    python3 perfbench/run.py --workload scan --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload squares --trace 1   # per-layer metrics

One client runs whole rounds (every op of the workload once, in an order
drawn from the seed) until ``--seconds`` have passed.  Every output is
checked.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is a record of the run (seed, commit, versions,
sample counts).  Spans and results are written under .bench_build/.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("scan", "squares", "verify", "cli")
SETUP_RUNS = 7
SETUP_RUNS_TINY = 2
# The tail percentile, in tenths of a percent, is fixed per workload so
# that every run and every commit report the same point of the latency
# distribution.  Each is the highest of p75/p90/p95/p99 with at least
# TAIL_MIN_BEYOND samples beyond it over the sample counts a 25-second run
# makes at this commit, whether this machine is in a fast or a slow phase.
TAIL_PERMILLE = {"scan": 900, "squares": 900, "verify": 750, "cli": 750}
TAIL_FALLBACK_PERMILLE = (750, 500)
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="wordpower benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per workload (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_only and args.workload is None:
        parser.error("--setup-only needs --workload")
    return args


def tail_latency(samples: list[float], permille: int) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) by the nearest-rank rule.

    Falls back to a lower percentile when fewer than TAIL_MIN_BEYOND
    samples lie beyond, and to the maximum when every one does.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in (permille, *(q for q in TAIL_FALLBACK_PERMILLE if q < permille)):
        rank = -(-p * n // 1000)
        if n - rank >= TAIL_MIN_BEYOND:
            return p / 10, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def setup_samples(args: argparse.Namespace) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of the
    workload's set-up (import and inputs), SETUP_RUNS times."""
    runs = SETUP_RUNS_TINY if args.tiny else SETUP_RUNS
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(runs):
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        samples.append(ready - started)
    return samples


def measure(workload, args: argparse.Namespace, tracer) -> list[dict]:
    """Run whole rounds until args.seconds have passed.  With a tracer,
    odd rounds are traced and even rounds are not, so both rates come
    from the same run."""
    rng = random.Random(f"order/{args.seed}")
    rounds: list[dict] = []
    op_id = 0
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < args.seconds or (tracer and len(rounds) < 2):
        traced = tracer is not None and len(rounds) % 2 == 1
        index = len(rounds)
        order = list(workload.ops)
        rng.shuffle(order)
        latencies, failures = [], []
        for op in order:
            scope = tracer.scope("op", op_id, index) if traced else None
            began = time.perf_counter()
            try:
                result = op.call(scope)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                error = f"raised {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - began)
            if scope is not None:
                scope.close()
            try:
                if error is None:
                    error = op.check(result)
                if traced and op.probe is not None:
                    probe = tracer.scope("probe", op_id, index)
                    op.probe(probe)
                    probe.close()
            except Exception as exc:
                error = f"check or probe raised {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append(f"{op.name}: {error}")
            op_id += 1
        rounds.append({"traced": traced, "ops": [op.name for op in order],
                       "latencies": latencies, "failures": failures})
    return rounds


def rate(rounds: list[dict]) -> float:
    latencies = [x for r in rounds for x in r["latencies"]]
    return len(latencies) / sum(latencies) if latencies else 0.0


def source_identity() -> dict:
    """The git commit when the checkout is a repository, and always a
    digest of the package sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "wordpower").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_one(args: argparse.Namespace) -> int:
    setups = [] if args.trace else setup_samples(args)
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    setup_scope = tracer.scope("setup", None, None) if tracer else None
    workload = workloads.build(args.workload, args.seed, args.tiny, setup_scope)
    if setup_scope is not None:
        setup_scope.close()
    try:
        rounds = measure(workload, args, tracer)
    finally:
        workload.cleanup()

    plain = [r for r in rounds if not r["traced"]]
    latencies = [x for r in plain for x in r["latencies"]]
    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(len(r["latencies"]) for r in rounds)
    tail_pct, tail, beyond = tail_latency(latencies, TAIL_PERMILLE[args.workload])
    if args.trace:
        units = spans.PER_LAYER_UNITS
        values = spans.layer_metrics(tracer.spans)
        traced_rate, plain_rate = rate([r for r in rounds if r["traced"]]), rate(plain)
        values["trace.traced_ops_per_s"] = traced_rate
        values["trace.untraced_ops_per_s"] = plain_rate
        values["trace.overhead_frac"] = 1 - traced_rate / plain_rate
    else:
        units = END_TO_END_UNITS
        if workload.child_rss_kib:
            rss_kib = max(workload.child_rss_kib)  # largest CLI child
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": rate(plain),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_tail_ms": tail * 1000,
            "peak_rss_mb": rss_kib / 1024,
        }

    record = {
        "kind": "record",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        **source_identity(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "rounds": len(rounds),
        "traced_rounds": len(rounds) - len(plain),
        "ops_per_round": len(workload.ops),
        "latency_samples": len(latencies),  # behind both op_p50_ms and op_tail_ms
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "setup_samples_s": setups,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl")
    by_op: dict[str, list[float]] = {}
    for r in plain:
        for name, latency in zip(r["ops"], r["latencies"]):
            by_op.setdefault(name, []).append(latency)
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps({"record": record, **result, "untraced_latencies_s": by_op}, indent=1) + "\n")

    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}: seed {args.seed}, {len(rounds)} rounds of {len(workload.ops)} ops, "
          f"{len(failures)} of {attempted} ops failed")
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  {'failed_frac':32s} {record['failed_frac']:14.6g} ratio")
    print(f"  (p50 and p{tail_pct:g} tail over {len(latencies)} untraced samples"
          + ("" if args.trace else f"; setup_s is the median of {len(setups)} fresh set-ups") + ")")
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, then a summary table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        print(done.stdout, end="", flush=True)
        if done.returncode != 0:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        lines = done.stdout.splitlines()
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
        rows.append((name, result["metrics"], record))
    if not args.trace:
        print(f"\n{'workload':9s}" + "".join(f"{m + ' (' + u + ')':>20s}" for m, u in END_TO_END_UNITS.items())
              + f"{'failed_frac (ratio)':>22s}")
        for name, metrics, record in rows:
            print(f"{name:9s}" + "".join(f"{metrics[m]['value']:20.4f}" for m in END_TO_END_UNITS)
                  + f"{record['failed_frac']:22.4f}")
    print(json.dumps(combined, separators=(",", ":")))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "wordpower" / "__init__.py").is_file():
        print(f"error: no wordpower sources under {SRC}; run from a wordpower checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        import workloads

        workload = workloads.build(args.workload, args.seed, args.tiny)
        print("ready", flush=True)
        workload.cleanup()
        return 0
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
