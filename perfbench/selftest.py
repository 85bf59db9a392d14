#!/usr/bin/env python3
"""Fast self-test of the benchmark harness, at tiny workload sizes.

Usage (from the root of a checkout): ``python3 perfbench/selftest.py``.

It checks that
- every workload runs correctly and emits every end-to-end metric named in
  BENCHMARK.json, with its unit;
- every traced run emits every per-layer metric with its unit, the two
  traced passes record identical call counts, and star-ladder never calls
  into ncalgebra;
- a planted wrong answer is counted in fail_frac on every workload;
- the nf-ladder split-product oracle catches a wrong normal form that is
  also held in ncalgebra's memo, so it cannot confirm a result by reading
  it back;
- scaling to the host's speed leaves the probes out and divides each piece
  of an operation by the mean of the probes around it;
- the per-operation time limit turns the ``dm^4 Xm^4`` blow-up into one
  failed operation;
- the benchmark exits non-zero, without a result, in a directory holding
  only BENCHMARK.json and the benchmark's own files.
Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import run

FAILURES = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def _spec(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def check_metrics():
    end_to_end, per_layer = _spec("end_to_end"), _spec("per_layer")
    for workload in run.WORKLOADS:
        result, details = run.run_one(workload, 1, 0, False, size="tiny")
        expect(result["correct"] and result["failed"] == 0,
               f"{workload}: tiny run correct {details['failures']}")
        expect(_units(result) == end_to_end, f"{workload}: end-to-end metrics and units")
        expect(all(m["value"] > 0 for m in result["metrics"].values()),
               f"{workload}: end-to-end metrics are positive")

        result, details = run.run_one(workload, 1, 0, True, size="tiny")
        expect(result["correct"] and details.get("call_counts_repeat") is True,
               f"{workload}: traced run correct, call counts repeat exactly")
        expect(_units(result) == per_layer, f"{workload}: per-layer metrics and units")
        if workload == "star-ladder":
            nc_calls = {k: m["value"] for k, m in result["metrics"].items()
                        if k.startswith("ncalgebra.") and k.endswith(".calls")}
            expect(set(nc_calls.values()) == {0}, f"star-ladder: no ncalgebra calls {nc_calls}")
        if workload == "verify-all":
            expect(result["metrics"]["suite.evolution.s"]["value"] > 0,
                   "verify-all: per-suite time reported")


def check_planted_wrong_answer():
    for workload in run.WORKLOADS:
        result, details = run.run_one(workload, 1, 0, False, size="tiny", plant_wrong=True)
        expect(not result["correct"] and result["failed"] >= 1 and details["fail_frac"] > 0,
               f"{workload}: planted wrong answer counted (fail_frac {details['fail_frac']:.3f})")


def check_memo_readback():
    """Plant a wrong normal form of a ladder rung both as the output and in
    the memo, as a wrong rewrite cached by the timed operation would leave
    it.  The rung's halves are ordered, so a split product formed from the
    memo would read the wrong entry back and agree with it."""
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import qspace.ncalgebra as ncalgebra
    import workloads

    word = ("xm",) * 3 + ("xp",) * 3
    key = (workloads.E3, "u", "xd", word)
    right = ncalgebra.normal_form(workloads.E3, word)
    ncalgebra._NF_CACHE[key] = {w: c + c for w, c in ncalgebra._NF_CACHE[key].items()}
    wrong = ncalgebra.normal_form(workloads.E3, word)
    expect(wrong != right, "nf-ladder: memo holds the planted wrong normal form")
    reason = workloads.split_product_error("u", word, 3, wrong)
    expect(reason is not None, f"nf-ladder: split product rejects the memoised wrong answer ({reason})")
    expect(workloads.split_product_error("u", word, 3, right) is None,
           "nf-ladder: split product accepts the right answer")


def check_host_scaling():
    import hostspeed

    ref = hostspeed.REFERENCE_PROBE_S
    sampler = hostspeed.Sampler()
    # probes at [0, 1], [3, 4] and [6, 7] s reading 1, 3 and 5 reference units
    sampler.marks = [(0.0, 1.0, ref), (3.0, 4.0, 3 * ref), (6.0, 7.0, 5 * ref)]
    got = sampler.scale([(1.0, 2.0), (2.0, 5.0), (5.0, 7.0)])
    want = [(1.0, 0.5), (2.0, 0.75), (1.0, 0.25)]
    expect(all(abs(a - b) < 1e-12 for g, w in zip(got, want) for a, b in zip(g, w)),
           f"host scaling: probes left out, pieces scaled by their probes ({got})")


def check_time_limit():
    t0 = time.monotonic()
    result, details = run.run_one("nf-ladder", 1, 0, False, size="blowup", op_limit_s=0.5)
    took = time.monotonic() - t0
    reasons = [f["reason"] for f in details["failures"]]
    expect(result["failed"] == result["attempted"] >= 1
           and all(r.startswith("timeout") for r in reasons),
           f"dm^4 Xm^4 recorded as a timed-out operation in every pass ({reasons})")
    expect(took < 30, f"time limit ends the blow-up quickly ({took:.1f} s)")


def check_bare_directory():
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, os.path.basename(run.HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(run.HERE), "run.py"),
         "--workload", "nf-ladder", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170, check=False,
    )
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and '"correct"' not in last[0],
           f"bare directory: exit code {proc.returncode}, no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    check_metrics()
    check_planted_wrong_answer()
    check_memo_readback()
    check_host_scaling()
    check_time_limit()
    check_bare_directory()
    print(f"{len(FAILURES)} failing checks")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
