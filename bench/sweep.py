"""Sets of benchmark runs, their spread, and whether two sets agree.

    python3 bench/sweep.py run --seeds 1-10 --out bench/results/set-a.json
    python3 bench/sweep.py compare bench/results/set-a.json bench/results/set-b.json

``run`` starts bench/run.py untraced once per (workload, seed), one
after the other, for every workload and with the run length in
BENCHMARK.json, and prints for every metric its median and its spread:
the distance between the first and third quartile as a share of the
median.  ``compare`` checks that both sets cover the same workloads and
metrics, that every median of the second set is within the metric's
bound of the first's, in either direction, and that both sets fail the
same share of operations.  Bounds come from BENCHMARK.json and hold for
its metrics; the figures only the report carries (round_s,
latin_solve_s, synth_s, ...) are shown with no bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_one(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(BENCH, "results", f"{workload}-seed{seed}.json"),
              encoding="utf-8") as fh:
        report = json.load(fh)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics.update({k: v["value"] for k, v in report["workload_metrics"].items()})
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def summarize(workload: str, runs: list[dict], bounds: dict) -> None:
    bad = sum(1 for r in runs if not r["correct"])
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"{workload}: {len(runs)} runs, {bad} incorrect, {failed}/{attempted} failed")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        line = f"  {name:34s} median {statistics.median(values):.6g}"
        if len(values) >= 2:
            line += f"  spread {spread(values):.2%}"
            if name in bounds:
                flag = "" if spread(values) < bounds[name] / 3 else "  WIDE (>= bound/3)"
                line += f"  bound {bounds[name]:.0%}{flag}"
        print(line)


def cmd_run(args) -> int:
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for workload in (w["name"] for w in spec["workloads"]):
        out[workload] = [run_one(workload, seed, spec["run_seconds"])
                         for seed in parse_seeds(args.seeds)]
        summarize(workload, out[workload], bounds)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
    return 0


def cmd_compare(args) -> int:
    spec = load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    with open(args.first, encoding="utf-8") as fh:
        first = json.load(fh)
    with open(args.second, encoding="utf-8") as fh:
        second = json.load(fh)
    ok = first.keys() == second.keys()
    if not ok:
        print(f"workloads differ: {sorted(first)} vs {sorted(second)}")
    for workload in (w for w in first if w in second):
        a, b = first[workload], second[workload]
        names = set(a[0]["metrics"])
        if any(set(r["metrics"]) != names for r in a + b):
            print(f"{workload}: the runs do not all report the same metrics")
            ok = False
            continue
        share_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        share_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        print(f"{workload}: failed share {share_a:.4f} vs {share_b:.4f}")
        ok &= share_a == share_b and all(r["correct"] for r in a + b)
        for name in a[0]["metrics"]:
            ma = statistics.median(r["metrics"][name] for r in a)
            mb = statistics.median(r["metrics"][name] for r in b)
            change = (mb - ma) / ma
            if name not in e2e:
                print(f"  {name:34s} {ma:.6g} -> {mb:.6g}  {change:+.2%} (report only)")
                continue
            bound = e2e[name]["bound"]
            verdict = "ok" if abs(change) <= bound else "DIFFER"
            ok &= verdict == "ok"
            print(f"  {name:34s} {ma:.6g} -> {mb:.6g}  {change:+.2%} "
                  f"(bound {bound:.0%}) {verdict}")
    print("agree" if ok else "disagree")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)
    r = subs.add_parser("run", help="run every (workload, seed) once")
    r.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    r.add_argument("--out", required=True, help="summary JSON to write")
    c = subs.add_parser("compare", help="do two summaries agree within the bounds")
    c.add_argument("first")
    c.add_argument("second")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
