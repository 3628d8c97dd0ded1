"""Record the reference outputs every benchmark run compares against.

    python3 benchmarks/record.py [workload ...]

Runs one job per workload, size and cloud below workloads.RECORDED and writes
reference/<workload>.json. Record at a commit whose outputs are known good:
a later run counts every difference from these files as a failed operation.
Refuses to write a reference in which a check entry did not pass.
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile

import workloads
from workloads import ROOT, SRC

workloads.pin_threads()


def record(workload: str) -> dict:
    table = {"workload": workload, "clouds": {}}
    for size in workloads.SIZES:
        table["clouds"][size] = {}
        for cloud in range(workloads.RECORDED):
            doc = workloads.config(workload, cloud, size)
            with tempfile.TemporaryDirectory(dir=ROOT,
                                             prefix=".bench_tmp-") as tmp:
                out_dir = tmp if workloads.writes_artifacts(workload) else None
                report = workloads.run_job(doc, out_dir)
                if not report.passed:
                    raise SystemExit(f"{workload}/{size} cloud {cloud}: "
                                     "a check did not pass; not recording")
                ref = {"config": doc, **workloads.outputs(report, out_dir)}
            table["clouds"][size][str(cloud)] = ref
            print(f"{workload} {size} {cloud}: "
                  f"{workloads.expected_ops(ref)} operations", flush=True)
    return table


def main(argv) -> int:
    sys.path.insert(0, str(SRC))
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        table = {"recorded_at": sha or None, **record(workload)}
        with open(workloads.reference_path(workload), "w") as fh:
            json.dump(table, fh, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
