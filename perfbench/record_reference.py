#!/usr/bin/env python3
"""Record the correctness references of the benchmark from the current
sources: the byte-exact ``qspace verify --all --json`` output, and the
digests of every nf-ladder output for run.py's default seed.

Usage (from the root of a checkout): ``python3 perfbench/record_reference.py``.
Run it only on a commit whose outputs are known to be right; the benchmark
counts every later difference as a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qspace.cli  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qspace.cli.main(["verify", "--all", "--json"])
    if code != 0:
        raise SystemExit(f"qspace verify --all failed with exit code {code}")
    with open(workloads.VERIFY_REFERENCE, "w") as fh:
        fh.write(out.getvalue())
    with open(workloads.NF_REFERENCE, "w") as fh:
        json.dump(workloads.nf_reference(run.DEFAULT_SEED), fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
