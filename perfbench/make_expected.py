"""Regenerate expected/<workload>.json: run every pool operation once.

    python3 perfbench/make_expected.py [workload ...]

The files record what the library at the current commit emits; commit them
together with any change to a workload's pool.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402

BLAS_THREADS = run.pin_blas()  # before numpy is imported

import workloads  # noqa: E402


def generate(name):
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"expected-{name}-", dir=run.WORK)
    try:
        wl = workloads.WORKLOADS[name](workdir)
        records = {}
        for op_id in wl.pool():
            op = wl.make_op(op_id)
            _, code, text = op.run()
            records[op_id] = workloads.observe(op, code, text)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = run.environment(BLAS_THREADS)
    out = {"workload": name, "commit": env["commit"], "src_sha256": env["src_sha256"],
           "ops": records}
    with open(os.path.join(workloads.EXPECTED_DIR, name + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    codes = {}
    for rec in records.values():
        codes[rec["code"]] = codes.get(rec["code"], 0) + 1
    print(f"{name}: {len(records)} operations, exit codes {codes}")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(workloads.WORKLOADS):
        generate(name)
