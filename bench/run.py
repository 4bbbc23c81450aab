"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload corpus --seed 1 --seconds 4 --trace 0

Run from the repository root.  Workloads (see bench/README.md):

  cold_cli  `formsign decide --output json` as one fresh process per query
  corpus    many small planted forms, parsed and decided against warm schemes
  deep_psd  strictly positive forms that need depth >= 5, decided warm

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
traced replay and prints the per-layer metrics instead.  Every verdict is
checked apart from formsign (bench/check.py); a wrong or missing one counts
as a failed query.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; a fuller record, and the spans of a
traced run as JSONL, go to bench/results/.

All load comes from this process and at most one child at a time: the
workers (bench/worker.py), the set-up probes and the CLI processes run one
after another, each in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
WORKER = os.path.join(BENCH, "worker.py")

sys.path.insert(0, BENCH)
import check  # noqa: E402
import inputs  # noqa: E402

CHILD_TIMEOUT_S = 150
PROBE_SAMPLES = 5
SAMPLE_MIN_S = 1.0
COLD_MIN_ROUNDS = 3
WARM_MIN_PASSES = 3
# Fresh workers per warm pass.  Each pays the workload's whole set-up, which
# is one setup_s sample, then decides its contiguous share of the pass, so
# the set-up samples are spread over the run.
WORKERS_PER_PASS = {"corpus": 4, "deep_psd": 3}


class ChildError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], stdin_text: str = "", ready: bool = False) -> dict:
    """Run one child to completion and return its exit code, output, wall
    time, and CPU time and peak resident memory (from wait4, so they are this
    child's own).  With `ready`, also the wall time until the child's first
    stdout line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_env(), text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        proc.stdin.write(stdin_text)
        proc.stdin.close()
        out = proc.stdout.readline() if ready else ""
        ready_s = time.perf_counter() - start
        out += proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        for stream in (proc.stdout, proc.stderr):
            stream.close()
    return {
        "code": proc.returncode,
        "out": out,
        "err": "".join(err),
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024,
        "ready_s": ready_s,
    }


def run_ok(argv: list[str], stdin_text: str = "", ready: bool = False) -> dict:
    child = run_child(argv, stdin_text, ready)
    if child["code"] != 0:
        raise ChildError(f"{argv[1:3]} exited {child['code']}: {child['err'][-2000:]}")
    return child


def run_worker(mode: str, spec: dict) -> dict:
    child = run_ok([sys.executable, WORKER, mode], json.dumps(spec), ready=mode == "run")
    child["result"] = json.loads(child["out"].splitlines()[-1])
    return child


def cli_argv(query: dict) -> list[str]:
    scheme = "wds" if query["scheme"].startswith("wds") else query["scheme"]
    return [
        sys.executable, "-m", "formsign.cli", "decide",
        "--vars", query["vars"], "--form", query["text"],
        "--scheme", scheme, "--max-depth", str(query["max_depth"]),
        "--output", "json",
    ]


def median_wall(argv: list[str], stdin_text: str) -> float:
    """Wall time of one fresh interpreter running argv: the median of
    PROBE_SAMPLES samples, after one untimed run that compiles the bytecode
    and warms the file cache.  A sample is the mean of as many interpreters,
    run back to back, as make the first sample last SAMPLE_MIN_S."""

    def one() -> float:
        return run_ok(argv, stdin_text)["wall_s"]

    one()
    walls = [one()]
    while sum(walls) < SAMPLE_MIN_S:
        walls.append(one())
    per_sample = len(walls)
    samples = [sum(walls) / per_sample]
    while len(samples) < PROBE_SAMPLES:
        samples.append(sum(one() for _ in range(per_sample)) / per_sample)
    return statistics.median(samples)


class Checker:
    """Counts attempted and failed queries.  Each query's first verdict is
    checked in full; every later run of it must repeat that verdict."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict = {}
        self._sympy = None

    def verdicts(self, queries: list[dict], verdicts: list[dict]) -> None:
        for query, verdict in zip(queries, verdicts):
            self.verdict(query, verdict)

    def tallied(self, queries: list[dict], distinct: list[dict]) -> None:
        """Verdicts as the worker counts them: per query, each distinct
        verdict (as JSON) with the number of runs that gave it."""
        for query, seen in zip(queries, distinct):
            for text, count in seen.items():
                self.verdict(query, json.loads(text), runs=count)

    def verdict(self, query: dict, verdict: dict, problems=(), runs: int = 1) -> None:
        self.attempted += runs
        qid = query["id"]
        text = json.dumps(verdict, sort_keys=True)
        if qid not in self._first:
            self._first[qid] = (
                text, check.check_planted_point(query) + check.check_verdict(query, verdict))
        first_text, first_problems = self._first[qid]
        problems = list(problems) + (
            first_problems if text == first_text
            else ["verdict differs from the query's first run"])
        if problems:
            self.failed += runs
            self.problems.extend(f"{qid}: {p}" for p in problems)

    def cli(self, query: dict, child: dict) -> None:
        if self._sympy is None:
            self._sympy = check.SympyExpansion()
        problems, verdict = check.check_cli(query, child["code"], child["out"], self._sympy)
        if verdict is None:
            verdict = {"verdict": None}
        self.verdict(query, verdict, problems)

    def mismatch(self, qid: str) -> None:
        self.failed += 1
        self.problems.append(f"{qid}: traced replay differs from decide")


def tail(samples: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 40:
        return None
    ordered = sorted(samples)
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            idx = min(n - 1, int(round(p / 100 * (n - 1))))
            return f"p{p:g}", ordered[idx]
    return None


def measure(workload: str, queries: list[dict], seconds: float, checker: Checker) -> dict:
    """Whole rounds of the workload's queries until `seconds` of query wall
    time have passed, with a fresh-interpreter set-up sample taken before
    every CLI query (cold_cli) or every worker (warm workloads), so that the
    set-up samples, like the query samples, are spread over the whole run.

    The metrics are CPU times (user + system) of the process doing the work:
    the program is single-threaded and does no I/O, so on an unloaded
    machine CPU time is its wall time, and CPU time leaves out the time the
    hypervisor of a virtual machine gives to other guests.  The wall-time
    figures go to the results file."""
    cpu = {"setup": [], "query": []}
    wall = {"setup": [], "query": []}
    rss = []
    if workload == "cold_cli":
        probe = ([sys.executable, WORKER, "probe"], json.dumps({"queries": queries}))
        run_ok(*probe)  # untimed: compiles the bytecode, warms the file cache
        while len(wall["query"]) < COLD_MIN_ROUNDS * len(queries) or sum(wall["query"]) < seconds:
            for q in queries:
                child = run_ok(*probe)
                cpu["setup"].append(child["cpu_s"])
                wall["setup"].append(child["wall_s"])
                child = run_child(cli_argv(q))
                cpu["query"].append(child["cpu_s"])
                wall["query"].append(child["wall_s"])
                rss.append(child["maxrss_mb"])
                checker.cli(q, child)
    else:
        size = -(-len(queries) // WORKERS_PER_PASS[workload])
        chunks = [queries[i:i + size] for i in range(0, len(queries), size)]
        run_worker("run", {"setup": queries, "queries": []})  # untimed, as above
        passes = 0
        while passes < WARM_MIN_PASSES or sum(wall["query"]) < seconds:
            for chunk in chunks:
                child = run_worker("run", {"setup": queries, "queries": chunk})
                result = child["result"]
                cpu["setup"].append(result["ready_cpu_s"])
                wall["setup"].append(child["ready_s"])
                cpu["query"] += result["cpus"]
                wall["query"] += result["walls"]
                rss.append(child["maxrss_mb"])
                checker.verdicts(chunk, result["verdicts"])
            passes += 1
    metrics = {name: (value, unit) for name, value, unit in _timing(cpu)}
    metrics["peak_rss_mb"] = (max(rss), "MB")
    times = cpu["query"]
    extra = {"samples": len(times), "setup_samples": len(cpu["setup"]),
             "wall": {name: value for name, value, _ in _timing(wall)},
             "median_by_query_s": _median_by_query(times, queries),
             "pass_s": [sum(times[i:i + len(queries)]) for i in range(0, len(times), len(queries))]}
    t = tail(times)
    if t is not None:
        extra[f"verdict_s.{t[0]}"] = t[1]
    return {"metrics": metrics, "extra": extra}


def _timing(samples: dict) -> list:
    times = samples["query"]
    return [("setup_s", statistics.median(samples["setup"]), "s"),
            ("verdicts_per_s", len(times) / sum(times), "1/s"),
            ("verdict_s.p50", statistics.median(times), "s")]


def _median_by_query(walls: list[float], queries: list[dict]) -> dict:
    n = len(queries)
    return {q["id"]: statistics.median(walls[i::n]) for i, q in enumerate(queries)}


def layer_split(self_s: dict) -> dict:
    """Self seconds per layer; the first expand_level per (scheme, degree)
    is set-up and is listed apart from the warm kernel."""
    split: dict = {}
    for name, seconds in self_s.items():
        if name == "engine.expand_level.first":
            layer = "engine set-up"
        elif name == "query":
            layer = "replay"
        else:
            layer = name.split(".")[0]
        split[layer] = split.get(layer, 0.0) + seconds
    return split


def traced(workload: str, queries: list[dict], seconds: float, seed: int,
           checker: Checker) -> dict:
    import_s = median_wall([sys.executable, "-c", "import formsign.cli"], "")
    cli_queries = queries if workload == "cold_cli" else [queries[0]] * 3
    process = []
    for q in cli_queries:
        child = run_child(cli_argv(q))
        process.append(child["wall_s"])
        checker.cli(q, child)

    trace_path = os.path.join(RESULTS, f"trace-{workload}-seed{seed}.jsonl")
    spec = {"queries": queries, "seconds": seconds, "cold": workload == "cold_cli",
            "trace_path": trace_path}
    result = run_worker("trace", spec)["result"]
    checker.tallied(queries, result["verdicts"])
    for qid in result["mismatches"]:
        checker.mismatch(qid)

    self_s, counts = result["self_s"], result["counts"]
    metrics = {
        "engine.first_level_s": (result["first_level_s"], "s"),
        "engine.expand_s": (self_s.get("engine.expand_level", 0.0), "s"),
        "engine.children_per_s": (result["children_per_s"], "1/s"),
        "engine.children": (counts["children"], "count"),
        "engine.levels": (counts["levels"], "count"),
        "engine.peak_frontier": (counts["peak_frontier"], "count"),
        "engine.max_coeff_bits": (counts["max_coeff_bits"], "bits"),
        "engine.pruned_share": (_share(counts["pruned"], counts["children"]), "ratio"),
        "engine.dup_share": (_share(counts["dups"], counts["kept"]), "ratio"),
        "subdivision.scheme_s": (result["scheme_s"], "s"),
        "subdivision.validate_s": (self_s.get("subdivision.validate_scheme", 0.0), "s"),
        "subdivision.witness_s": (self_s.get("subdivision.witness_point", 0.0), "s"),
        "parsing.parse_s": (self_s.get("parsing.parse_form", 0.0), "s"),
        "parsing.terms": (counts["terms"], "count"),
        "forms.normalize_s": (self_s.get("forms.normalize_content", 0.0), "s"),
        "forms.evaluate_s": (self_s.get("forms.evaluate", 0.0), "s"),
        "cli.process_s": (statistics.median(process), "s"),
        "cli.import_s": (import_s, "s"),
        "trace.overhead_s": (result["traced_pass_s"] - result["untraced_pass_s"], "s"),
    }
    extra = {
        "traced_pass_s": result["traced_pass_s"],
        "untraced_pass_s": result["untraced_pass_s"],
        "layer_split_s": layer_split(self_s),
        "trace_file": os.path.relpath(trace_path, ROOT),
    }
    return {"metrics": metrics, "extra": extra}


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def workload_queries(workload: str, seed: int, size: str) -> list[dict]:
    if size == "tiny":
        if workload != "corpus":
            raise SystemExit("--size tiny is defined for the corpus workload only")
        return inputs.corpus_queries(seed, per_stratum=1, degrees=range(1, 4))
    return inputs.WORKLOADS[workload](seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few corpus forms, for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "formsign", "__init__.py")):
        print(f"error: no formsign sources under {SRC}", file=sys.stderr)
        return 2

    queries = workload_queries(args.workload, args.seed, args.size)
    checker = Checker()
    os.makedirs(RESULTS, exist_ok=True)
    if args.trace:
        run = traced(args.workload, queries, args.seconds, args.seed, checker)
    else:
        run = measure(args.workload, queries, args.seconds, checker)

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in run["metrics"].items()}
    line = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size, queries=len(queries),
                  problems=checker.problems[:50], **run["extra"])
    out_path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for problem in checker.problems[:20]:
        print(f"FAILED {problem}")
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{checker.attempted} attempted, {checker.failed} failed")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in run["extra"].items():
        if name.startswith("verdict_s."):
            print(f"{name} = {value:.6g} s  (results file only)")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
