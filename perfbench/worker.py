"""One benchmark pass in a fresh single-threaded process.

Usage: ``python3 perfbench/worker.py '<job json>'``; run.py writes the job.
It names the checkout root, the CPU to pin the worker to, the workload
(``null`` for a set-up sample only), seed, size, whether to trace and to
check, the per-operation time limit and an optional planted wrong answer.
The worker

1. imports ``qspace`` from ``<root>/src`` and times that import (set-up);
2. builds the workload's inputs from the seed;
3. runs every operation once, in order, each under a SIGALRM time limit, so
   a blow-up is recorded as one failed operation instead of hanging, and
   records each operation's time, sampling the host's speed meanwhile
   (hostspeed.py);
4. optionally traces the timed region (see tracer.py);
5. when asked, checks every output against the workload's oracle, outside
   the timed region and with tracing off, and always reports a digest of
   every output so the runner can compare passes;
6. prints one JSON object on stdout.

Exit codes: 0 with a result, 3 when ``qspace`` cannot be imported from the
checkout.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def _import_qspace(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    try:
        import qspace.cli  # noqa: F401  (imports every layer, as the CLI does)
    except ImportError as exc:
        print(f"cannot import qspace from {src}: {exc}", file=sys.stderr)
        sys.exit(3)
    setup_s = time.perf_counter() - t0
    import qspace

    if not os.path.abspath(qspace.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"qspace was imported from {qspace.__file__}, not {src}", file=sys.stderr)
        sys.exit(3)
    return setup_s


def run_ops(ops, limit_s, sampler):
    """Run each op once under the time limit, inside ``sampler`` (see
    hostspeed.py); returns outputs, per-op seconds without the probes,
    the same scaled to the host's speed, and errors."""
    outputs = [None] * len(ops)
    spans = []
    errors = {}
    clock = time.perf_counter
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        with sampler:
            for i, op in enumerate(ops):
                t0 = clock()
                try:
                    try:
                        signal.setitimer(signal.ITIMER_REAL, limit_s)
                        outputs[i] = op.run()
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                except OpTimeout:
                    errors[i] = f"timeout after {limit_s} s"
                except Exception as exc:  # a failing operation is data, not a crash
                    errors[i] = f"{type(exc).__name__}: {exc}"
                spans.append((t0, clock()))
    finally:
        signal.signal(signal.SIGALRM, previous)
    times, scaled = zip(*sampler.scale(spans)) if spans else ((), ())
    return outputs, list(times), list(scaled), errors


def _plant_wrong_answer(ops, outputs):
    """Give the first op the output of a later, different op (self-test)."""
    for j in range(1, len(ops)):
        if ops[j].label != ops[0].label and outputs[j] is not None:
            outputs[0] = outputs[j]
            return


def main(argv):
    job = json.loads(argv[1])
    os.sched_setaffinity(0, {job["cpu"]})
    setup_s = _import_qspace(job["root"])
    import hostspeed  # after the timed import, so that it shares none of its imports

    result = {"setup_s": setup_s,
              "scaled_setup_s": setup_s * hostspeed.REFERENCE_PROBE_S / hostspeed.probe()}
    if job.get("workload") is None:
        print(json.dumps(result))
        return 0

    import workloads  # the script's own directory is on sys.path

    ops, check = workloads.build(job["workload"], job["seed"], job.get("size", "full"))
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install("qspace")
    try:
        sampler = hostspeed.Sampler(enabled=tracer is None)
        outputs, times, scaled, errors = run_ops(ops, job["op_limit_s"], sampler)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if job.get("plant_wrong"):
        _plant_wrong_answer(ops, outputs)
    failures = dict(check(outputs)) if job.get("check") else {}
    failures.update(errors)
    result.update(
        wall_s=sum(times),
        op_s=times,
        scaled_wall_s=sum(scaled),
        scaled_op_s=scaled,
        probe_s=sampler.reading(),
        labels=[op.label for op in ops],
        digests=[None if out is None else workloads.output_digest(out) for out in outputs],
        peak_rss_mb=peak_rss_mb,
        attempted=len(ops),
        failed=len(failures),
        failures=[{"op": ops[i].label, "reason": failures[i]} for i in sorted(failures)][:20],
    )
    if tracer is not None:
        result["trace"] = tracer.summarize()
        result["span_count"] = tracer.span_count
        result["span_file"] = tracer.write(job["trace_dir"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
