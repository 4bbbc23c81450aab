"""Steadiness check: run each workload on several seeds and report spreads.

    python3 bench/steady.py --seeds 1-10
    python3 bench/steady.py --workloads deep_psd --seeds 11-15 --compare bench/results/steady-a.json

Runs bench/run.py --trace 0 once per (workload, seed), one run at a time,
reversing the workload order on every other seed so that no workload always
runs first.  For each end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
bound in BENCHMARK.json.  With --compare it also prints how far each median
moved from an earlier set of runs.  The runs are saved with --out.
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


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], bench: dict, earlier: dict | None) -> bool:
    steady = True
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in mine}
        failed = sum(r["result"]["failed"] for r in mine)
        print(f"\n{workload}: {len(mine)} runs, {failed} failed queries, "
              f"failed/attempted pairs {sorted(shares)}")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}"
              f"{'moved':>9}")
        for name, spec in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            moved = ""
            if earlier and workload in earlier and name in earlier[workload]:
                before = earlier[workload][name]
                worse = (med - before) / before if spec["better"] == "lower" else (before - med) / before
                moved = f"{worse:+.1%}"
                steady &= worse <= spec["bound"]
            flag = "" if spread < spec["bound"] / 3 else ("  > bound/3" if spread < spec["bound"] else "  > bound")
            steady &= spread < spec["bound"]
            print(f"  {name:<16}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.1%}"
                  f"{spec['bound']:>7.0%}{moved:>9}{flag}")
    return steady


def medians(runs: list[dict]) -> dict:
    out: dict = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
    return {w: {k: statistics.median(v) for k, v in ms.items()} for w, ms in out.items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=None, help="save the runs as JSON")
    parser.add_argument("--compare", default=None, help="runs saved by an earlier --out")
    args = parser.parse_args()

    runs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = args.workloads if i % 2 == 0 else list(reversed(args.workloads))
        for workload in order:
            result = run_once(workload, seed, args.seconds)
            runs.append({"workload": workload, "seed": seed, "result": result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = medians(json.load(fh))
    steady = summarize(runs, bench, earlier)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
