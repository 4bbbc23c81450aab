"""The measured process: imports formsign and decides the queries.

Run by bench/run.py in a fresh interpreter, one at a time, with `src` on
the path; it reads one JSON spec on stdin and writes one JSON result line
on stdout.  Modes:

  run     set up for every query in `setup` (build the schemes, pay each
          (scheme, degree) set-up), print a "ready" line, then decide the
          queries in `queries` once each
  trace   replay `decide` step by step with spans around the public calls
  probe   import the CLI module and build the schemes (the CLI's set-up)

The worker times the program but checks nothing: verdicts go back to
run.py, which checks them apart from formsign.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager

from formsign import (
    Branch,
    Outcome,
    RunStats,
    SchemeError,
    Verdict,
    barycenter,
    decide,
    expand_level,
    make_midpoint3_scheme,
    make_trisection3_scheme,
    make_wds_scheme,
    parse_form,
    validate_scheme,
    witness_point,
)

clock = time.perf_counter
cpu_clock = time.process_time  # user + system time of this process
TRACE_MIN_PASSES = 3  # warm traced passes, each paired with an untraced one


def make_scheme(selector: str):
    if selector == "midpoint3":
        return make_midpoint3_scheme()
    if selector == "trisection3":
        return make_trisection3_scheme()
    if selector.startswith("wds"):
        return make_wds_scheme(int(selector[3:]))
    raise ValueError(f"unknown scheme {selector!r}")


def warm_up(schemes: dict, pairs) -> None:
    """Pay the lazy per-(scheme, degree) set-up: one level of a form with a
    negative coefficient, which no depth-0 rule settles."""
    for selector, degree in pairs:
        scheme = schemes[selector]
        names = "x,y" + "".join(f",v{i}" for i in range(scheme.n - 2))
        text = "x - y" if degree == 1 else f"x^{degree} - x^{degree - 1}*y"
        decide(parse_form(text, names), scheme, max_depth=1)


def build_schemes(queries) -> dict:
    schemes = {}
    for q in queries:
        if q["scheme"] not in schemes:
            schemes[q["scheme"]] = make_scheme(q["scheme"])
    return schemes


def compact(verdict) -> dict:
    s = verdict.stats
    out = {
        "verdict": verdict.outcome.value,
        "depth": verdict.depth_reached,
        "stats": [s.branches_expanded, s.branches_pruned_positive, s.peak_frontier_size],
        "path": None,
        "point": None,
        "value": None,
    }
    if verdict.outcome is Outcome.INDEFINITE:
        out["path"] = list(verdict.witness_path)
        out["point"] = [str(v) for v in verdict.witness_point]
        out["value"] = str(verdict.witness_value)
    return out


def untraced_pass(queries, schemes) -> tuple[list[float], list[float], list[dict]]:
    """Decide each query once: wall times, CPU times and verdicts."""
    walls, cpus, verdicts = [], [], []
    for q in queries:
        t0, c0 = clock(), cpu_clock()
        verdict = decide(parse_form(q["text"], q["vars"]), schemes[q["scheme"]],
                         max_depth=q["max_depth"])
        cpus.append(cpu_clock() - c0)
        walls.append(clock() - t0)
        verdicts.append(compact(verdict))
    return walls, cpus, verdicts


def mode_probe(spec) -> dict:
    import formsign.cli  # noqa: F401  (the CLI's own import cost)

    build_schemes(spec["queries"])
    return {}


def tally(distinct: list[dict], verdicts: list[dict]) -> None:
    """Count each query's distinct verdicts (one, unless a run differs), so
    memory does not grow with the number of passes."""
    for seen, verdict in zip(distinct, verdicts):
        key = json.dumps(verdict, sort_keys=True)
        seen[key] = seen.get(key, 0) + 1


def mode_run(spec) -> dict:
    schemes = build_schemes(spec["setup"])
    warm_up(schemes, {(q["scheme"], q["degree"]) for q in spec["setup"]})
    ready_cpu_s = cpu_clock()  # since the process started
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    walls, cpus, verdicts = untraced_pass(spec["queries"], schemes)
    return {"ready_cpu_s": ready_cpu_s, "walls": walls, "cpus": cpus, "verdicts": verdicts}


# ---------------------------------------------------------------------------
# traced replay


class Tracer:
    """Spans (name, start, end, parent, query) and per-query counts, kept in
    memory and written as JSONL at the end."""

    def __init__(self):
        self.spans: list = []
        self.counts: list = []
        self._stack: list[int] = []
        self.query = None

    @contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = clock()
        try:
            yield attrs
        finally:
            end = clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.query, attrs)

    def self_times(self, first: int = 0) -> dict:
        """Self time per span name over spans[first:]: duration minus the
        part covered by child spans."""
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None and parent >= first:
                covered[parent - first] += end - start
        out: dict = {}
        for (name, start, end, _, _, attrs), cov in zip(spans, covered):
            key = name + (".first" if attrs.get("first") else "")
            out[key] = out.get(key, 0.0) + (end - start - cov)
        return out

    def kernel_rate(self, first: int = 0) -> tuple[int, float]:
        """Children made and seconds spent by expand_level calls after each
        (scheme, degree)'s first, over spans[first:]."""
        children, seconds = 0, 0.0
        for name, start, end, _, _, attrs in self.spans[first:]:
            if name == "engine.expand_level" and not attrs["first"]:
                children += attrs["children"]
                seconds += end - start
        return children, seconds

    def write_jsonl(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query, attrs in self.spans:
                record = {"name": name, "start": start - origin, "end": end - origin,
                          "parent": parent, "query": query}
                record.update(attrs)
                fh.write(json.dumps(record) + "\n")
            for record in self.counts:
                fh.write(json.dumps(record) + "\n")


def _max_bits(forms) -> int:
    bits = 0
    for f in forms:
        for c in f.terms.values():
            bits = max(bits, abs(c.numerator).bit_length())
    return bits


def replay(form, scheme, max_depth: int, tracer: Tracer, seen: set, counts: dict) -> Verdict:
    """engine.decide (dedup off) step by step through its public calls:
    validate_scheme, expand_level per level, witness_point, Form.evaluate."""
    with tracer.span("subdivision.validate_scheme"):
        validation = validate_scheme(scheme)
    if not validation.ok:
        raise SchemeError("invalid scheme: " + "; ".join(validation.failures()))
    if form.is_trivially_negative():
        point = barycenter(form.n)
        with tracer.span("forms.evaluate"):
            value = form.evaluate(point)
        return Verdict(Outcome.INDEFINITE, 0, RunStats(0, 0, 1), (), point, value)
    if form.is_trivially_positive():
        return Verdict(Outcome.PSD, 0, RunStats(0, 0, 1))
    with tracer.span("forms.normalize_content"):
        root = form.normalize_content()
    frontier = [Branch(root, ())]
    expanded = pruned_total = 0
    peak = 1
    for level in range(1, max_depth + 1):
        key = (id(scheme), form.degree)
        first = key not in seen
        seen.add(key)
        with tracer.span("engine.expand_level", first=first, level=level) as attrs:
            children, pruned, negative = expand_level(frontier, scheme)
        made = len(children) + pruned + (negative is not None)
        attrs["children"] = made
        expanded += made
        pruned_total += pruned
        counts["levels"] += 1
        counts["children"] += made
        counts["pruned"] += pruned
        counts["kept"] += len(children)
        counts["dups"] += len(children) - len({b.form for b in children})
        counts["max_coeff_bits"] = max(
            counts["max_coeff_bits"],
            _max_bits([b.form for b in children] + ([negative.form] if negative else [])),
        )
        if negative is not None:
            with tracer.span("subdivision.witness_point"):
                point = witness_point(negative.path, scheme)
            with tracer.span("forms.evaluate"):
                value = form.evaluate(point)
            return Verdict(Outcome.INDEFINITE, level, RunStats(expanded, pruned_total, peak),
                           negative.path, point, value)
        peak = max(peak, len(children))
        if not children:
            return Verdict(Outcome.PSD, level, RunStats(expanded, pruned_total, peak))
        frontier = children
    return Verdict(Outcome.INCONCLUSIVE, max_depth, RunStats(expanded, pruned_total, peak))


def _zero_counts() -> dict:
    return {"levels": 0, "children": 0, "pruned": 0, "kept": 0, "dups": 0,
            "max_coeff_bits": 0, "terms": 0, "peak_frontier": 0}


def traced_pass(queries, schemes, tracer: Tracer, seen: set, cold: bool):
    """One traced pass; with `cold`, every query gets fresh scheme objects,
    as a CLI process does."""
    verdicts, totals = [], _zero_counts()
    start = clock()
    for q in queries:
        tracer.query = q["id"]
        counts = _zero_counts()
        with tracer.span("query"):
            if cold:
                seen.clear()  # a fresh scheme object pays its set-up again
                with tracer.span("subdivision.make_scheme"):
                    scheme = make_scheme(q["scheme"])
            else:
                scheme = schemes[q["scheme"]]
            with tracer.span("parsing.parse_form"):
                form = parse_form(q["text"], q["vars"])
            counts["terms"] = len(form.terms)
            verdict = replay(form, scheme, q["max_depth"], tracer, seen, counts)
        counts["peak_frontier"] = verdict.stats.peak_frontier_size
        tracer.counts.append({"query": q["id"], "counts": counts})
        for k, v in counts.items():
            if k in ("max_coeff_bits", "peak_frontier"):
                totals[k] = max(totals[k], v)
            else:
                totals[k] += v
        verdicts.append(compact(verdict))
    return clock() - start, verdicts, totals


def untraced_cold_pass(queries) -> tuple[float, list[dict]]:
    start = clock()
    verdicts = []
    for q in queries:
        scheme = make_scheme(q["scheme"])
        verdict = decide(parse_form(q["text"], q["vars"]), scheme, max_depth=q["max_depth"])
        verdicts.append(compact(verdict))
    return clock() - start, verdicts


def mode_trace(spec) -> dict:
    """A cold traced pass (which pays every first level), then warm
    untraced and traced passes in turn; for a cold workload every pass is
    cold.  The replayed verdicts are compared with decide's own."""
    queries = spec["queries"]
    cold = spec["cold"]
    origin = clock()
    tracer = Tracer()
    seen: set = set()

    scheme_times = []
    for _ in range(5):
        t0 = clock()
        schemes = build_schemes(queries)
        scheme_times.append(clock() - t0)

    distinct: list[dict] = [{} for _ in queries]
    first_elapsed, verdicts, totals = traced_pass(queries, schemes, tracer, seen, cold)
    tally(distinct, verdicts)
    first_self = tracer.self_times()
    if cold:
        untraced_s, reference = untraced_cold_pass(queries)
        traced, untraced, selfs = [first_elapsed], [untraced_s], [first_self]
        rates = [tracer.kernel_rate()]
    else:
        reference = untraced_pass(queries, schemes)[2]
        traced, untraced, selfs, rates = [], [], [], []
        start = clock()
        while len(traced) < TRACE_MIN_PASSES or clock() - start < spec["seconds"]:
            untraced.append(sum(untraced_pass(queries, schemes)[0]))
            mark = len(tracer.spans)
            elapsed, more, _ = traced_pass(queries, schemes, tracer, seen, cold)
            traced.append(elapsed)
            selfs.append(tracer.self_times(mark))
            rates.append(tracer.kernel_rate(mark))
            tally(distinct, more)

    mismatches = [
        q["id"] for q, seen, ref in zip(queries, distinct, reference)
        if set(seen) != {json.dumps(ref, sort_keys=True)}
    ]

    tracer.write_jsonl(spec["trace_path"], origin)
    layer = {key: statistics.median([s.get(key, 0.0) for s in selfs])
             for key in set().union(*selfs)}
    return {
        "verdicts": distinct,
        "mismatches": mismatches,
        "counts": totals,
        "first_level_s": first_self.get("engine.expand_level.first", 0.0),
        "self_s": layer,
        "children_per_s": statistics.median([c / t if t else 0.0 for c, t in rates]),
        "scheme_s": statistics.median(scheme_times),
        "traced_pass_s": statistics.median(traced),
        "untraced_pass_s": statistics.median(untraced),
    }


MODES = {"probe": mode_probe, "run": mode_run, "trace": mode_trace}


if __name__ == "__main__":
    spec = json.load(sys.stdin)
    result = MODES[sys.argv[1]](spec)
    sys.stdout.write(json.dumps(result) + "\n")
