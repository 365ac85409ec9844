"""Benchmark entry point for hypvol.  Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: fig8_dehn, suspension4, simplex_cocycle, schlafli_families
(see perfbench/README.md).  The run starts fresh interpreters that only
set up, to time set-up, then one worker that sets up and runs timed
rounds of the workload for --seconds (see worker.py).  The last line of
standard output is one JSON object with "correct", "attempted", "failed"
and "metrics": the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Full per-round figures go to
perfbench/results/.

Exits 2 without a result when the checkout holds no hypvol sources.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("fig8_dehn", "suspension4", "simplex_cocycle", "schlafli_families")
SETUP_PROBES = 4  # set-up only processes; the worker's own set-up is one more sample
PROBE_TIMEOUT_S = 30
WORKER_SLACK_S = 120  # beyond --seconds: checks, set-up and the last round


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="hypvol benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_worker(args, extra, timeout):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe(args):
    return run_worker(args, ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"]


def end_to_end(result, setups):
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(result["round_wall_s"]), "s"),
        "cpu_s": (statistics.median(result["round_cpu_s"]), "s"),
        "op_p50_ms": (statistics.median(result["op_ms"]), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "hypvol" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        sys.stderr.write(f"no hypvol sources under {ROOT}: expected src/hypvol and fixtures/\n")
        return 2
    try:
        # half the set-up probes before the worker and half after, so
        # that they sample the machine at different moments of the run
        setups = [probe(args) for _ in range(SETUP_PROBES // 2)]
        result = run_worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                            args.seconds + WORKER_SLACK_S)
        setups += [probe(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    setups.append(result["setup"]["setup_s"])
    metrics = result["layers"] if args.trace else end_to_end(result, setups)
    for message in result["failures"]:
        sys.stderr.write(f"check failed: {message}\n")

    detail = dict(result, setup_probes_s=setups,
                  metrics={k: v for k, (v, _) in metrics.items()})
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail) + "\n")

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
