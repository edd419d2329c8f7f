#!/usr/bin/env python3
"""Run every workload repeatedly and print each metric's median and spread.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 0] [--workload NAME ...] [--trace]

Each run is ``run.py`` with its own seed (first-seed, first-seed + 1, ...)
and the run length from BENCHMARK.json. For every end-to-end metric the
table gives the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread: the distance between the quartiles as a share of the median,
next to the metric's bound. With ``--trace`` each seed also gets a traced
run; the table then adds every per-layer metric and the tracing overhead,
the traced op_p50_s over the untraced one. The records go to
perfbench/out/repeat-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = BENCH_DIR / "out" / "raw" / f"{workload}-seed{seed}-trace{trace}.json"
    result["op_p50_s"] = json.loads(raw.read_text(encoding="utf-8"))["op_p50_s"]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--trace", action="store_true", help="add a traced run per seed")
    args = p.parse_args()
    seconds = spec["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    records = {}
    for workload in args.workload or names:
        runs = []
        for seed in seeds:
            started = time.monotonic()
            run = {"seed": seed, "untraced": one_run(workload, seed, seconds, 0)}
            if args.trace:
                run["traced"] = one_run(workload, seed, seconds, 1)
            run["wall_s"] = time.monotonic() - started
            runs.append(run)
            print(f"{workload} seed {seed}: {run['wall_s']:.1f} s", file=sys.stderr, flush=True)
        records[workload] = runs

        untraced = [r["untraced"] for r in runs]
        shares = {r["failed"] / r["attempted"] for r in untraced}
        print(f"\n{workload}: {len(runs)} runs, seeds {seeds.start}-{seeds.stop - 1}, "
              f"all correct: {all(r['correct'] for r in untraced)}, "
              f"failed share(s): {sorted(shares)}, "
              f"ops per run: {min(r['attempted'] for r in untraced)}-"
              f"{max(r['attempted'] for r in untraced)}")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            med, q1, q3, rel = spread([r["metrics"][m["name"]]["value"] for r in untraced])
            flag = "" if m["name"] == "setup_s" or rel < m["bound"] / 3 else "  > bound/3"
            print(f"  {m['name']:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.2%} "
                  f"{m['bound']:6.2f}{flag}")
        if args.trace:
            traced = [r["traced"] for r in runs]
            plain = statistics.median(r["op_p50_s"] for r in untraced)
            with_spans = statistics.median(r["op_p50_s"] for r in traced)
            print(f"  traced op_p50_s {with_spans:.6g} s vs {plain:.6g} s untraced: "
                  f"overhead {with_spans / plain - 1:+.2%}")
            for m in spec["per_layer"]:
                med, q1, q3, rel = spread([r["metrics"][m["name"]]["value"] for r in traced])
                print(f"  {m['name']:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.2%}")
    out = BENCH_DIR / "out" / f"repeat-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(records, indent=1), encoding="utf-8")
    print(f"\nrecords: {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
