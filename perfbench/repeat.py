"""Repeat benchmark runs over seeds and summarise each end-to-end metric:

    python3 perfbench/repeat.py --workload NAME [--workload NAME ...] \
        --seeds 1-10 --seconds S [--out FILE]

For each workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, the
quartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json.  It also checks that every run was correct and that
the failed share of operations is the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description="repeat benchmark runs over seeds")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    ok = True
    for wl in args.workload:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok = ok and correct and len(shares) == 1
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": bounds.get(name)}
        summary[wl] = {"seeds": args.seeds, "correct": correct,
                       "failed_shares": sorted(shares), "metrics": rows}
        print(f"\n{wl}: correct={correct} failed shares={sorted(shares)}")
        print(f"  {'metric':<12} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
        for name, row in rows.items():
            print(f"  {name:<12} {row['median']:>11.4f} {row['q1']:>11.4f} {row['q3']:>11.4f} "
                  f"{row['spread']:>7.3f} {row['bound']:>6}")
        print(flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
