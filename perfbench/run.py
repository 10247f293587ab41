"""The forbor benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload search|lang|sweep --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  Each run fixes a seeded batch of at least
100 distinct queries and replays it, pass after pass, one query at a
time (one client, no threads).  The parent starts MEASURE_RUNS fresh
child processes one after another.  Each imports forbor from ./src,
writes the seeded inputs and warms the session caches (one set-up
sample), then continues the passes where the previous child stopped
until its share of S seconds of query time has passed; the last child
goes on until MIN_PASSES whole passes are done.  A pass issues every
query once, and the queries of a median group several times.  A
query's latency is the best of its samples: the host's speed swings by
more than half in phases of seconds, and the best sample filters them
out.
Every answer is checked; a wrong verdict or witness stops the run with a
non-zero exit and no result line.  Known-defect probes run once, outside
the timed passes, and are reported apart from the measured queries.

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 the last child runs the batch untraced, traced with every
public forbor function wrapped, and untraced again, and reports
per-layer self times and counts plus the tracing overhead.  The line
before the result holds the provenance and the per-workload details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
#: fresh child processes per run; each is one set-up sample and measures
#: for a share of --seconds
MEASURE_RUNS = 3
#: every pass of the batch is made at least this many times per run
MIN_PASSES = 3
#: the whole run, children included, must end within this many seconds
DEADLINE_S = 170

END_TO_END = {
    "throughput_qps": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}

#: per-layer metric -> unit; self times are summed over the traced pass
PER_LAYER = {
    "search.nodes": "count", "search.us_per_node": "us",
    "search.admits_orientation.calls": "count", "search.admits_orientation.self_s": "s",
    "search.verify_orientation.calls": "count", "search.verify_orientation.self_s": "s",
    "search.homomorphic_image_closure.self_s": "s", "search.cycle_spectrum.self_s": "s",
    "graphs.contains_induced.calls": "count", "graphs.contains_induced.self_s": "s",
    "graphs.canonical_form.calls": "count", "graphs.canonical_form.self_s": "s",
    "graphs.orientations_of.items": "count", "graphs.universe.members": "count",
    "graphs.universe.build_s": "s",
    "words.automaton.states": "count", "words.walk.full_states": "count",
    "words.is_transitive.self_s": "s", "words.enumerate_periods.calls": "count",
    "words.enumerate_periods.self_s": "s", "words.period_structure.self_s": "s",
    "duality.hom_exists.calls": "count", "duality.hom_exists.self_s": "s",
    "duality.verify_generalized_duality.self_s": "s", "duality.core_of.self_s": "s",
    "holes.trichotomy_verdict.self_s": "s", "io.calls": "count", "io.self_s": "s",
    "cli.self_s": "s", "probes.failing": "count", "trace.overhead_frac": "frac",
}


# ---------------------------------------------------------------------------
# the measuring child


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def fingerprint(outcome):
    """What two runs of one query must agree on: the report or the result."""
    if isinstance(outcome, tuple) and len(outcome) == 2 and isinstance(outcome[1], str):
        return outcome
    return repr(outcome)


def schedule(queries):
    """One pass as batch indices: a query with `repeat` k comes k times, spread evenly."""
    n = len(queries)
    slots = [((i + 0.5) / n + r / q.repeat) % 1 for i, q in enumerate(queries)
             for r in range(q.repeat)]
    owners = [i for i, q in enumerate(queries) for _ in range(q.repeat)]
    return [i for _, i in sorted(zip(slots, owners))]


def drive(queries, seconds=None, start=0, stop=None, tracer=None, clear=None,
          fingerprints=False, order=None):
    """Issue queries[order[p % len(order)]] for p = start, start + 1, ..., one at a time.

    `order` is one pass as batch indices, each query once by default.
    Goes on until position `stop` is reached and, when `seconds` is given,
    until `seconds` of query time have passed.  Returns per-query records
    (batch index, kind, elapsed, error or None, fingerprint or None) and
    the position reached.  A query that raises or exits with an
    unexpected status is failed; a wrong answer raises VerdictError.
    """
    order = range(len(queries)) if order is None else order
    records = []
    busy = 0.0
    p = start
    stop = start if stop is None else stop
    while p < stop or (seconds is not None and busy < seconds):
        i = order[p % len(order)]
        q = queries[i]
        if q.cli and clear is not None:
            clear()
        span = tracer.begin_query(len(records), q.kind) if tracer else None
        outcome, error, elapsed = issue(q)
        if tracer:
            tracer.end_query(span)
        busy += elapsed
        records.append((i, q.kind, elapsed, error,
                        fingerprint(outcome) if fingerprints and error is None else None))
        p += 1
    return records, p


def issue(q):
    """Call one query and check its outcome: (outcome, error or None, elapsed)."""
    started = time.perf_counter()
    try:
        outcome = q.call()
        error = None
    except Exception as e:  # a crash is a failed query, never a harness crash
        outcome, error = None, f"{type(e).__name__}: {str(e)[:120]}"
    elapsed = time.perf_counter() - started
    if error is None and q.status is not None and outcome[0] != q.status:
        error = f"exit status {outcome[0]}, expected {q.status}"
    if error is None:
        q.check(outcome)
    return outcome, error, elapsed


def run_probes(workload, clear):
    """Issue each known-defect probe once; a probe whose defect is fixed is checked."""
    found = []
    for q in workload.probes():
        clear()
        _, error, elapsed = issue(q)
        found.append({"kind": q.kind, "error": error, "elapsed_s": elapsed})
    return found


def verdicts(records):
    return [(i, kind, error, fp) for i, kind, _, error, fp in records]


def summarize(records):
    """End-to-end figures of (index, kind, elapsed, error, ...) records.

    A query's latency is the best of its samples; a failed query counts
    as infinitely slow, and so does every query whose sample failed.
    """
    best, bad = {}, {}
    for i, kind, elapsed, error, *_ in records:
        best[i] = min(best.get(i, math.inf), elapsed)
        if error:
            bad.setdefault(i, f"{kind}: {error}")
    ok = [t for i, t in best.items() if i not in bad]
    latencies = sorted(math.inf if i in bad else t for i, t in best.items())
    failed = sum(1 for rec in records if rec[3])
    samples = Counter(rec[0] for rec in records).values()
    return {
        "throughput_qps": len(ok) / sum(ok) if ok else 0.0,
        "latency_p50_ms": 1e3 * percentile(latencies, 0.5),
        "latency_p90_ms": 1e3 * percentile(latencies, 0.9),
        "attempted": len(records),
        "failed": failed,
        "failed_frac": failed / len(records),
        "queries": len(best),
        "beyond_p90": len(best) - math.ceil(0.9 * len(best)),
        "samples_per_query": [min(samples), max(samples)],
        "query_s": sum(rec[2] for rec in records),
        "failures": sorted(set(bad.values())),
    }


def layer_metrics(tracer, workload, overhead, failing=0):
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    m = {"search.nodes": counts["search.nodes"],
         "graphs.orientations_of.items": counts["graphs.orientations_of.items"],
         "graphs.universe.members": workload.universe_members,
         "graphs.universe.build_s": workload.universe_build_s,
         "words.automaton.states": counts["words.automaton.states"],
         "words.walk.full_states": counts["words.walk.full_states"],
         "io.calls": sum(c for k, c in calls.items() if k.startswith("io.")),
         "io.self_s": sum(s for k, s in self_s.items() if k.startswith("io.")),
         "cli.self_s": sum(s for k, s in self_s.items() if k.startswith("cli.")),
         "probes.failing": failing, "trace.overhead_frac": overhead}
    nodes = m["search.nodes"]
    m["search.us_per_node"] = 1e6 * self_s["search.admits_orientation"] / nodes if nodes else 0.0
    for name in PER_LAYER:
        if name in m:
            continue
        label, _, field = name.rpartition(".")
        m[name] = calls[label] if field == "calls" else self_s[label]
    return m


def child(role, workload_name, seed, seconds, part, start):
    started = time.perf_counter()
    sys.path.insert(0, str(HERE))
    import workloads
    directory = OUT / "inputs" / f"{workload_name}-s{seed}-p{os.getpid()}"
    clear = workloads.clear_invocation_caches
    try:
        workload = workloads.build(workload_name, seed, directory)
        workload.setup()
        result = {"setup_s": time.perf_counter() - started}
        last = part == MEASURE_RUNS - 1
        if role == "measure":
            order = schedule(workload.queries)
            records, end = drive(workload.queries, seconds=seconds / MEASURE_RUNS, start=start,
                                 stop=max(start, MIN_PASSES * len(order)) if last else start,
                                 clear=clear, order=order)
            result["end"] = end
            result["records"] = [rec[:4] for rec in records]
            if last:
                result["probes"] = run_probes(workload, clear)
        elif role == "trace":
            result.update(trace_run(workload, clear, seed))
        import resource
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        import numpy
        result["numpy"] = numpy.__version__
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(result))
    return 0


def trace_run(workload, clear, seed):
    from spans import Tracer
    queries = workload.queries
    one_pass = {"stop": len(queries), "clear": clear}
    # a warm-up pass, then untraced, traced and untraced again, so that
    # neither warm-up nor drift counts as tracing cost
    drive(queries, **one_pass)
    plain, _ = drive(queries, fingerprints=True, **one_pass)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = drive(queries, tracer=tracer, fingerprints=True, **one_pass)
    finally:
        tracer.uninstall()
    again, _ = drive(queries, fingerprints=True, **one_pass)
    if not verdicts(plain) == verdicts(traced) == verdicts(again):
        raise AssertionError("traced and untraced runs disagree on a verdict")
    tracer.dump(OUT / f"trace-{workload.name}-s{seed}")
    untraced_s = (sum(rec[2] for rec in plain) + sum(rec[2] for rec in again)) / 2
    overhead = sum(rec[2] for rec in traced) / untraced_s - 1
    result = summarize(plain)
    result["probes"] = run_probes(workload, clear)
    failing = sum(1 for probe in result["probes"] if probe["error"])
    result["layers"] = layer_metrics(tracer, workload, overhead, failing)
    result["spans"] = len(tracer.span_start)
    return result


# ---------------------------------------------------------------------------
# the parent


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def spawn(role, args, deadline, part=0, start=0):
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path("src").resolve()),
                                                        os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(HERE / "run.py"), "--child", role, "--part", str(part),
            "--start", str(start), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {role} child failed with exit status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "lang", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--start", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child, args.workload, args.seed, args.seconds, args.part, args.start)

    root = Path.cwd()
    if not (root / "src" / "forbor" / "__init__.py").is_file():
        print("perfbench: no forbor sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            children = [spawn("setup", args, deadline, part) for part in range(MEASURE_RUNS - 1)]
            children.append(spawn("trace", args, deadline, MEASURE_RUNS - 1))
        else:
            children, position = [], 0
            for part in range(MEASURE_RUNS):
                children.append(spawn("measure", args, deadline, part, position))
                position = children[-1]["end"]
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {DEADLINE_S} s", file=sys.stderr)
        return 3
    setups = [c["setup_s"] for c in children]
    res = children[-1]
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in res["layers"].items()}
    else:
        res = summarize([rec for c in children for rec in c["records"]])
        values = {k: res[k] for k in END_TO_END if k not in ("setup_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = max(c["peak_rss_mb"] for c in children)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    details = {
        "provenance": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": children[-1]["numpy"], "platform": platform.platform(),
            "commit": commit(root), "src_sha256": source_digest(root),
            "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "queries": res["queries"], "attempted": res["attempted"],
        },
        "failed_frac": res["failed_frac"], "failures": res["failures"],
        "samples_per_query": res["samples_per_query"], "beyond_p90": res["beyond_p90"],
        "query_s": res["query_s"], "setup_samples_s": setups,
        "known_defect_probes": children[-1]["probes"],
    }
    if args.trace:
        details["spans"] = res["spans"]
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
