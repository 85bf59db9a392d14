#!/usr/bin/env python3
"""Benchmark of the qspace package: four seeded workloads, each run in fresh
single-threaded worker processes, one after another.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads: verify-all, nf-ladder, star-ladder, query-stream (see NOTES.md).

``--trace 0`` measures end-to-end metrics with tracing off: a few set-up
samples (a worker that only imports qspace), then a fixed number of workload
passes, each in a fresh worker; the number depends only on the workload and
``--seconds`` (see ``pass_count``), never on how fast the program runs.
Times are scaled to the host's speed (hostspeed.py); every figure is a median.
``--trace 1`` runs one untraced and two traced passes and reports per-layer
metrics from the first traced pass; the two traced passes must record
exactly the same call counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (provenance, fail fraction, sample counts, failures), which
are also written to ``.perfbench_out/``.  Exit code 0 with a result, 1 when
the harness itself cannot run (for example when ``src/qspace`` is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("verify-all", "nf-ladder", "star-ladder", "query-stream")
DEFAULT_SEED = 1
SETUP_SAMPLES = 7
MIN_PASSES = 3
# Passes of a --trace 0 run at --seconds 20 (NOTES.md); --seconds scales them.
PASSES_AT_20S = {"verify-all": 3, "nf-ladder": 7, "star-ladder": 5, "query-stream": 5}
OP_LIMIT_S = 60.0
# every run ends inside this budget, whatever the program does; a worker
# still running at the budget is killed and its pass counted as failed
RUN_BUDGET_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}

SUITE_NAMES = (
    "evolution", "grassmann", "hopf-taylor", "metric", "numeric-integrals",
    "oracle-actions", "pairings", "projectors", "relations", "star", "ybe",
)

# per-layer metric -> (span name, statistic); layer self times use the span
# name of the layer itself
_SPAN_METRICS = {
    "scalars.self_s": ("scalars", "layer_self_s"),
    "scalars.mul.calls": ("scalars.mul", "calls"),
    "scalars.add.calls": ("scalars.add", "calls"),
    "scalars.div.calls": ("scalars.div", "calls"),
    "scalars.new.calls": ("scalars.new", "calls"),
    "ncalgebra.self_s": ("ncalgebra", "layer_self_s"),
    "ncalgebra.normal_form.calls": ("ncalgebra.normal_form", "calls"),
    "ncalgebra.normal_form.self_s": ("ncalgebra.normal_form", "self_s"),
    "ncalgebra.mul.calls": ("ncalgebra.mul", "calls"),
    "ncalgebra.mul.self_s": ("ncalgebra.mul", "self_s"),
    "ncalgebra.act.calls": ("ncalgebra.act", "calls"),
    "ncalgebra.act.self_s": ("ncalgebra.act", "self_s"),
    "ncalgebra.act.zero_frac": ("ncalgebra.act", "zero_frac"),
    "ncalgebra.reorder.calls": ("ncalgebra.reorder_transform", "calls"),
    "ncalgebra.reorder.self_s": ("ncalgebra.reorder_transform", "self_s"),
    "cfunc.self_s": ("cfunc", "layer_self_s"),
    "cfunc.mul.calls": ("cfunc.mul", "calls"),
    "cfunc.jackson_d.calls": ("cfunc.jackson_d", "calls"),
    "starcalc.self_s": ("starcalc", "layer_self_s"),
    "starcalc.star.calls": ("starcalc.star", "calls"),
    "pairexp.self_s": ("pairexp", "layer_self_s"),
    "pairexp.qexp.calls": ("pairexp.qexp", "calls"),
    "pairexp.qexp.self_s": ("pairexp.qexp", "self_s"),
    "pairexp.pair.calls": ("pairexp.pair", "calls"),
    "qfunc.self_s": ("qfunc", "layer_self_s"),
    "qfunc.closed.calls": ("qfunc.act_partial_closed", "calls"),
    "hopf.self_s": ("hopf", "layer_self_s"),
    "hopf.translate.calls": ("hopf.translate", "calls"),
    "hopf.antipode.calls": ("hopf.antipode", "calls"),
    "expressions.parse.self_s": ("expressions.parse", "self_s"),
    "expressions.render.self_s": ("expressions.render", "self_s"),
    "evolution.self_s": ("evolution", "layer_self_s"),
    "rmatrix.self_s": ("rmatrix", "layer_self_s"),
    "grassmann.self_s": ("grassmann", "layer_self_s"),
}

_UNITS = {"calls": "count", "self_s": "s", "layer_self_s": "s", "zero_frac": "ratio"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {name: _UNITS[stat] for name, (_, stat) in _SPAN_METRICS.items()}
    units.update({f"suite.{name}.s": "s" for name in SUITE_NAMES})
    units["trace.overhead_s"] = "s"
    return units


class HarnessError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------


_NEXT_CPU = itertools.cycle(sorted(os.sched_getaffinity(0)))


def run_worker(job, deadline):
    """Run one worker to completion; None when it hit the run budget (it
    is killed and reaped by subprocess.run).

    Successive workers are pinned to the available CPUs in turn.  The slow
    spells other tenants cause often hit one virtual CPU and not the other,
    so alternating spreads each operation's passes over both."""
    cpu = next(_NEXT_CPU)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None
    env = dict(os.environ, PYTHONHASHSEED="0")  # same dict order, same counts
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, WORKER, json.dumps(dict(job, root=ROOT, cpu=cpu))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=env, cwd=ROOT, check=False)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise HarnessError(
            f"worker exited with code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _killed_pass():
    return {"attempted": 1, "failed": 1,
            "failures": [{"op": "pass", "reason": f"killed at the {RUN_BUDGET_S} s run budget"}]}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _loadavg_1min():
    try:
        with open("/proc/loadavg") as fh:
            return float(fh.read().split()[0])
    except OSError:
        return None


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest():
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "qspace")
    for name in sorted(os.listdir(src)) if os.path.isdir(src) else ():
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------


def _percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _tally(passes):
    """Attempted and failed operations over all passes.  The first pass is
    checked against the oracles; every later pass must reproduce the first
    pass's outputs exactly, digest for digest."""
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p.get("failures", [])]
    failed = sum(p["failed"] for p in passes)
    done = [p for p in passes if "digests" in p]
    for p in done[1:]:
        for label, a, b in zip(p["labels"], done[0]["digests"], p["digests"]):
            if a is not None and b is not None and a != b:
                failed += 1
                failures.append({"op": label, "reason": "output differs from the first pass"})
    return attempted, failed, failures[:20]


def pass_count(workload, seconds):
    """Workload passes of a --trace 0 run: fixed by the workload and
    ``--seconds`` alone, so a faster or slower program, or a slow spell of
    the host, is measured with the same number of samples."""
    return max(MIN_PASSES, round(PASSES_AT_20S[workload] * seconds / 20))


def _median_times(passes, key):
    """Each operation's median time over the passes."""
    return [statistics.median(t) for t in zip(*(p[key] for p in passes))]


def _unscaled(passes):
    """The time metrics from the measured times, not scaled to the host."""
    if not passes:
        return {}
    ops = _median_times(passes, "op_s")
    return {"wall_s": statistics.median(p["wall_s"] for p in passes),
            "op_p50_ms": 1e3 * _percentile(ops, 50), "op_p99_ms": 1e3 * _percentile(ops, 99)}


def measure(workload, seed, seconds, size="full", plant_wrong=False, op_limit_s=OP_LIMIT_S):
    """End-to-end metrics with tracing off."""
    deadline = time.monotonic() + RUN_BUDGET_S
    setup = []
    for _ in range(SETUP_SAMPLES):
        sample = run_worker({"workload": None}, deadline)
        if sample is not None:
            setup.append(sample["scaled_setup_s"])
    job = {"workload": workload, "seed": seed, "size": size, "trace": False,
           "op_limit_s": op_limit_s, "plant_wrong": plant_wrong}
    passes, killed = [], []
    planned = pass_count(workload, seconds)
    for _ in range(planned):
        res = run_worker(dict(job, check=not passes), deadline)
        if res is None:
            killed.append(_killed_pass())
            break
        passes.append(res)
        setup.append(res["scaled_setup_s"])
    attempted, failed, failures = _tally(passes + killed)
    metrics = {}
    ops = _median_times(passes, "scaled_op_s") if passes else []
    if passes:
        values = {
            "wall_s": statistics.median(p["scaled_wall_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "op_p50_ms": 1e3 * _percentile(ops, 50),
            "op_p99_ms": 1e3 * _percentile(ops, 99),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    details = {
        "passes": len(passes),
        "passes_planned": planned,
        "wall_s_per_pass": [p["scaled_wall_s"] for p in passes],
        "unscaled_wall_s_per_pass": [p["wall_s"] for p in passes],
        "probe_s_per_pass": [p["probe_s"] for p in passes],
        "unscaled": _unscaled(passes),
        "setup_samples": len(setup),
        "op_samples": len(ops),
    }
    if workload == "query-stream" and passes:
        details["latency_by_class"] = query_classes(passes[0]["labels"], ops)
    return attempted, failed, failures, metrics, details


def query_classes(labels, times):
    """query-stream latency split by query kind and by whether the query is
    asked for the first time in the stream (cold) or repeated (warm).  The
    stream's mix of kinds and its repeat count are assumptions (NOTES.md);
    with this split the percentiles can be re-weighted for another mix."""
    seen = set()
    groups = {}
    for label, t in zip(labels, times):
        kind = label.split(" ", 1)[0]
        calls = "warm" if label in seen else "cold"
        seen.add(label)
        for key in ("all", calls, f"{kind}.{calls}"):
            groups.setdefault(key, []).append(t)
    return {
        key: {"n": len(v), "share": len(v) / len(times),
              "p50_ms": 1e3 * _percentile(v, 50), "p99_ms": 1e3 * _percentile(v, 99)}
        for key, v in sorted(groups.items())
    }


def _span_value(summary, span, stat):
    if stat == "layer_self_s":
        return summary["layers"][span]
    rec = summary["spans"].get(span, {"calls": 0, "self_s": 0.0})
    if stat == "zero_frac":
        zeros = summary["zero_counts"].get(span, 0)
        return zeros / rec["calls"] if rec["calls"] else 0.0
    return rec[stat]


def _calls(summary):
    return ({name: rec["calls"] for name, rec in summary["spans"].items()},
            summary["zero_counts"])


def trace(workload, seed, size="full", op_limit_s=OP_LIMIT_S):
    """Per-layer metrics: one untraced pass, then two traced passes."""
    deadline = time.monotonic() + RUN_BUDGET_S
    trace_dir = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}")
    job = {"workload": workload, "seed": seed, "size": size, "op_limit_s": op_limit_s,
           "trace_dir": trace_dir}
    passes = []
    for run_id in range(3):
        res = run_worker(dict(job, trace=run_id > 0, run_id=run_id, check=run_id == 0),
                         deadline)
        if res is None:
            passes.append(_killed_pass())
            break
        passes.append(res)
    attempted, failed, failures = _tally(passes)
    if len(passes) < 3 or "wall_s" not in passes[2]:
        return attempted, failed, failures, {}, {"passes": len(passes)}
    plain, first, second = passes
    repeat_ok = _calls(first["trace"]) == _calls(second["trace"])
    if not repeat_ok:
        failed += 1
        failures.append({"op": "trace", "reason": "call counts differ between traced runs"})
    units = per_layer_units()
    values = {name: _span_value(first["trace"], span, stat)
              for name, (span, stat) in _SPAN_METRICS.items()}
    suite_s = dict(zip(plain["labels"], plain["op_s"])) if workload == "verify-all" else {}
    for name in SUITE_NAMES:
        values[f"suite.{name}.s"] = suite_s.get(name, 0.0)
    values["trace.overhead_s"] = first["wall_s"] - plain["wall_s"]
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    details = {
        "passes": 3,
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": [first["wall_s"], second["wall_s"]],
        "call_counts_repeat": repeat_ok,
        "span_count": first["span_count"],
        "span_files": [first["span_file"], second["span_file"]],
        "spans": first["trace"]["spans"],
    }
    return attempted, failed, failures, metrics, details


def run_one(workload, seed, seconds, traced, **kwargs):
    """One workload run: the result object and its details."""
    load_start = _loadavg_1min()
    if traced:
        attempted, failed, failures, metrics, details = trace(workload, seed, **kwargs)
    else:
        attempted, failed, failures, metrics, details = measure(workload, seed, seconds, **kwargs)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "workload": workload,
        "seed": seed,
        "seed_used": workload != "verify-all",  # verify-all has fixed inputs
        "trace": int(traced),
        "run_seconds": seconds,
        "fail_frac": failed / max(attempted, 1),
        "failures": failures,
        "loadavg_1min": {"start": load_start, "end": _loadavg_1min()},
        "provenance": provenance(),
        **details,
    }
    return result, details


def _write_details(result, details):
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{details['workload']}-seed{details['seed']}-trace{details['trace']}.json"
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1)


def _summary_line(details):
    """Details without the bulky span table, for standard output."""
    return json.dumps({k: v for k, v in details.items() if k != "spans"})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running worker before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, details = run_one(name, args.seed, args.seconds, bool(args.trace))
            _write_details(result, details)
            print(_summary_line(details))
            print(json.dumps(result), flush=True)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    except HarnessError as exc:
        print(f"benchmark harness error: {exc}", file=sys.stderr)
        return 1
    if len(names) > 1:
        print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
