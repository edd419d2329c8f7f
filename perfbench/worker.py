"""One workload process: set up, warm up, run the closed loop, check.

Run by ``run.py``; prints one JSON object on its last line. Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only] --root CHECKOUT --outdir DIR

The process pins itself to one CPU and OpenBLAS to one thread before
numpy loads, so every figure comes from one core.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--root", required=True, help="checkout whose src/ holds beliefbet")
    p.add_argument("--outdir", required=True, help="directory for documents and traces")
    return p.parse_args()


def main() -> None:
    args = parse_args()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)

    import beliefbet
    if not os.path.abspath(beliefbet.__file__).startswith(src + os.sep):
        raise SystemExit(f"beliefbet was imported from {beliefbet.__file__}, not {src}")
    from tracing import Tracer
    from workloads import WORKLOADS

    import checks

    workdir = os.path.join(args.outdir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        warm = wl.op(0)
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return

        reference = {0: wl.fingerprint(0, warm)}
        firsts = {0: warm}
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        times: list[float] = []
        attempted = failed = mismatched = 0
        begin = time.perf_counter()
        while True:
            for i in range(wl.models):
                if tracer:
                    tracer.op = attempted
                attempted += 1
                t0 = time.perf_counter()
                try:
                    result = wl.op(i)
                except Exception as exc:  # an op that raises is a failed op
                    print(f"op {attempted - 1} on input {i} failed: {exc!r}", file=sys.stderr)
                    failed += 1
                    continue
                times.append(time.perf_counter() - t0)
                if tracer:
                    tracer.count("cli.output_bytes", wl.output_bytes(i, result))
                digest = wl.fingerprint(i, result)
                if reference.setdefault(i, digest) != digest:
                    mismatched += 1
                    print(f"op {attempted - 1}: output of input {i} changed", file=sys.stderr)
                firsts.setdefault(i, result)
            span = time.perf_counter() - begin
            if span >= args.seconds:
                break
        if tracer:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if not times:
            raise SystemExit(f"all {attempted} operations failed")

        problems = []
        for i, result in sorted(firsts.items()):
            try:
                wl.check(i, result)
            except checks.CheckFailed as exc:
                problems.append(f"input {i}: {exc}")
        for line in problems:
            print(f"check failed: {line}", file=sys.stderr)

        result = {
            "correct": not problems and not mismatched,
            "attempted": attempted,
            "failed": failed,
            "setup_s": setup_s,
            "op_p50_s": statistics.median(times),
            "ops_per_s": len(times) / span,
            "peak_rss_mb": peak_rss_mb,
            "op_times_s": times,
            "span_s": span,
            "models": wl.models,
        }
        if tracer:
            result["per_layer"] = tracer.layer_metrics(attempted, wl.focal_sets)
            tracer.dump(os.path.join(args.outdir, f"trace-{args.workload}-seed{args.seed}.json"))
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
