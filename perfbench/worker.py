"""One benchmark process: set up, then run timed rounds of one workload.

Run by run.py in a fresh interpreter, from the root of a checkout:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Set-up is everything a fresh process pays before the first operation:
importing hypvol and hypvol.cli, loading the workload's fixtures through
the public loaders and drawing round 0's seeded inputs.  The timed phase
then runs whole rounds and stops at the round boundary nearest to
--seconds of operation time (at least one round).  The clocks stop
around each operation; its outputs are checked off the clock right
after it.  The last line of standard output is a JSON object.

With --trace 1 each operation runs twice in a row on the same inputs,
untraced and then traced; the per-layer metrics come from the traced
copies and the tracing overhead from the ratio of the two.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

MAX_WALL_S = 150.0  # no new round starts after this much time in the process


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def timed_call(wl, inp, tracer=None):
    """Run one operation; returns (output, wall s, cpu s).  With a tracer
    its wrappers are in place for this call only."""
    if tracer is not None:
        tracer.install()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        return wl.run(inp), time.perf_counter() - t0, time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_round(wl, inputs, ck, tracer=None):
    """Run one round and check each operation's outputs off the clock.
    Returns (wall seconds of each operation that succeeded, round CPU
    seconds, failed operations, traced wall seconds, check seconds).  With a tracer each
    operation runs again, traced, right after its untraced run."""
    walls, traced = [], []
    cpu = check_s = 0.0
    failed = 0
    for inp in inputs:
        try:
            out, wall, op_cpu = timed_call(wl, inp)
            if tracer is not None:
                tracer.op_index += 1
                traced.append(timed_call(wl, inp, tracer)[1])
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            ck.fail(f"operation raised {type(exc).__name__}: {exc}")
            continue
        walls.append(wall)
        cpu += op_cpu
        t0 = time.perf_counter()
        try:
            wl.check(inp, out, ck)
        except Exception as exc:  # output the check cannot even read
            ck.fail(f"check raised {type(exc).__name__}: {exc}")
        check_s += time.perf_counter() - t0
    return walls, cpu, failed, traced, check_s


def main(argv=None):
    args = parse_args(argv)
    import hypvol
    import hypvol.cli  # noqa: F401
    t_import = time.perf_counter()
    if not Path(hypvol.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"hypvol was imported from {hypvol.__file__}, not from {ROOT / 'src'}\n")
        return 2
    from workloads import WORKLOADS, Checker

    wl = WORKLOADS[args.workload]()
    wl.load(ROOT)
    t_fixtures = time.perf_counter()
    inputs = wl.round_inputs(np.random.default_rng([args.seed, 0]))
    t_setup = time.perf_counter()
    setup = {"setup_s": t_setup - T_START,
             "import_s": t_import - T_START,
             "fixtures_s": t_fixtures - t_import}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    ck = Checker()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    op_walls, round_walls, round_cpus, traced_walls = [], [], [], []
    attempted = failed = 0
    timed = check_s = 0.0
    last = 0.0
    r = 0
    # stop at the round boundary nearest to --seconds
    while timed + last / 2 < args.seconds and time.perf_counter() - T_START < MAX_WALL_S:
        if r > 0:
            inputs = wl.round_inputs(np.random.default_rng([args.seed, r]))
        walls, cpu, bad, traced, checking = run_round(wl, inputs, ck, tracer)
        check_s += checking
        last = sum(walls) + sum(traced)
        attempted += len(inputs)
        failed += bad
        op_walls += walls
        round_walls.append(sum(walls))
        round_cpus.append(cpu)
        traced_walls += traced
        timed += last
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": r,
        "ops_per_round": len(inputs),
        "attempted": attempted,
        "failed": failed,
        "correct": not ck.failures,
        "failures": ck.failures,
        "worst_err_over_tol": ck.worst,
        "setup": setup,
        "round_wall_s": round_walls,
        "round_cpu_s": round_cpus,
        "op_ms": [1e3 * w for w in op_walls],
        "peak_rss_mb": peak_rss_mb,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "timed_s": timed,
        "check_s": check_s,
        "process_s": time.perf_counter() - T_START,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(len(traced_walls))
        result["layers"]["cli.import_ms"] = (1e3 * setup["import_s"], "ms")
        result["layers"]["fixtures.load_ms"] = (1e3 * setup["fixtures_s"], "ms")
        result["layers"]["check.worst_err_over_tol"] = (ck.worst, "ratio")
        # per-operation pairs, so that the first operation's warm-up (grid
        # caches fill in its untraced copy) does not count against tracing
        ratios = [t / w for t, w in zip(traced_walls, op_walls)]
        overhead = 100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0
        result["layers"]["trace.overhead_pct"] = (overhead, "%")
        tracer.write(BENCH_DIR / "results" / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
