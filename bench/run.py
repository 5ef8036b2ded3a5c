"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload apps-cold --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``
in this process, which then serves whole rounds of requests, one at a
time on one thread, until --seconds have passed, and checks every
output with the benchmark's own checks.  It prints each metric by name
and unit, writes a report to bench/results/, and prints as its last
line the JSON object {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

Every round serves the same requests.  round_ref is the mean wall time
of a round over the mean time of a fixed reference loop, apart from the
program, that runs between requests every quarter second: the round in
reference units.  A shared machine's speed drifts by a third over
minutes; both times follow it, and their ratio much less.  The raw mean
round (round_s) and the reference's time are in the report.
setup_s is the median of three set-ups, each timed from the first
statement of this script to the first request: this process's own and
two fresh processes (``--setup-only``) started one after the other
once the timed loop has ended.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RESULTS = os.path.join(BENCH, "results")
WORKLOADS = ("apps-cold", "apps-jobs", "streaks", "offline-checks")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed loop runs (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate traced and untraced rounds, print per-layer metrics")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import locallemma from src/ and return the import time."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "locallemma", "__init__.py")):
        sys.exit(f"error: no locallemma source under {src}; run from a full checkout")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import locallemma.cli  # noqa: F401  (pulls in every layer)
    import_s = time.perf_counter() - start
    import locallemma

    if os.path.dirname(os.path.dirname(os.path.abspath(locallemma.__file__))) != src:
        sys.exit(f"error: imported locallemma from {locallemma.__file__}, not {src}")
    return import_s


def git_sha() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> str:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{platform.system()} {platform.machine()}, {os.cpu_count()} cpus, {model}"


def setup_probe(args) -> float:
    """Set-up time of a fresh process, as the --setup-only child reports it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    import spans
    import workloads

    setup_tracer = spans.Tracer("setup") if args.trace else None
    workload = workloads.WORKLOADS[args.workload](args.seed, setup_tracer)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    round_tracer = spans.Tracer("rounds") if args.trace else None
    reference = workloads.Reference()
    rounds = []  # (traced, ops)
    start = time.perf_counter()
    while len(rounds) < 1 + args.trace or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append((traced, workload.round(round_tracer if traced else None, reference)))
    problems = workload.finish()
    n_rounds = len(rounds)

    ops = [op for _, r in rounds for op in r]
    done = [op for op in ops if not op.failed]
    problems += [p for op in done for p in op.problems]
    plain = [r for traced, r in rounds if not traced]
    round_times = [sum(op.seconds for op in r) for r in plain]
    round_s = statistics.mean(round_times)
    reference_s = statistics.mean(reference.times)
    extra = {"round_s": (round_s, "s"), "reference_s": (reference_s, "s"),
             **workload.kind_metrics(plain)}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else ""))
    setups = [setup_s]
    if args.trace:
        traced_s = [sum(op.seconds for op in r) for traced, r in rounds if traced]
        overhead = 100 * (statistics.median(traced_s) / statistics.median(round_times) - 1)
        builds = workload.BUILDS
        del workload
        gc.collect()
        build_mb = workloads.build_peak_mb(args.seed * workloads.STRIDE) if builds else 0.0
        layer = spans.per_layer(setup_tracer, round_tracer, len(traced_s), import_s,
                                build_mb, overhead)
        metrics = {name: (layer[name], unit) for name, unit in spans.PER_LAYER}
        spans.write(stem + "-spans.json", (setup_tracer, round_tracer))
    else:
        del workload, rounds
        gc.collect()
        setups += [setup_probe(args) for _ in range(SETUP_PROBES)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "round_ref": (round_s / reference_s, "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(ops) - len(done),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = dict(
        workload=args.workload, seed=args.seed, trace=args.trace, seconds=args.seconds,
        rounds=n_rounds, machine=machine(), python=platform.python_version(),
        sha=git_sha(), problems=problems[:20], setup_runs_s=setups, round_times_s=round_times,
        request_times_s=[[op.kind, op.seconds] for r in plain for op in r],
        workload_metrics={k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        **result,
    )
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print(f"{args.workload} seed={args.seed} trace={args.trace} rounds={n_rounds} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    print(f"{report['machine']}; python {report['python']}; sha {report['sha']}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
