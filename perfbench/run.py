#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; beliefbet is imported from its src/.
With ``--trace 0`` the last line carries the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it carries the per-layer ones, taken
from a traced run. Set-up time is the median over ``SETUP_SAMPLES``
fresh processes, the timed one included. The full record of the run is
also written to perfbench/out/raw/, and a traced run's spans to
perfbench/out/.
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
OUT_DIR = BENCH_DIR / "out"

#: Fresh processes whose set-up time is measured, the timed one included.
SETUP_SAMPLES = 5
#: Every run ends within this many seconds or fails.
DEADLINE_S = 170.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(1)


def run_worker(args: argparse.Namespace, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--outdir", str(OUT_DIR)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish before the {DEADLINE_S:.0f} s deadline")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"{args.workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    if not (ROOT / "src" / "beliefbet" / "__init__.py").is_file():
        fail(f"no beliefbet sources under {ROOT / 'src'}; run from a full checkout")
    (OUT_DIR / "raw").mkdir(parents=True, exist_ok=True)

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(args, True, deadline)["setup_s"])
    record = run_worker(args, False, deadline)
    setups.append(record["setup_s"])
    record["setup_samples_s"] = setups

    if args.trace:
        values, wanted = record["per_layer"], spec["per_layer"]
    else:
        values = {"op_p50_s": record["op_p50_s"], "ops_per_s": record["ops_per_s"],
                  "peak_rss_mb": record["peak_rss_mb"], "setup_s": statistics.median(setups)}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value for metric(s) {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    raw = OUT_DIR / "raw" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"args": vars(args), **record}, indent=1), encoding="utf-8")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
