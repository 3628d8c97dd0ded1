"""Benchmark of `cubeforge run`, one workload per process.

    python3 benchmarks/run.py --workload verify --seed 3 --seconds 28 --trace 0

Run from the repository root; the package is imported from src/. The run
warms up on a tiny job, then repeats full jobs, one of the seed's clouds after
the next, while the next job is expected to end within --seconds; between
jobs it starts fresh interpreters to time set-up. Every job's outputs are
compared with the reference. Every time is rescaled to the reference host speed by the
calibration run before and after it (calibrate.py). The last line of stdout
is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced jobs and reports the per-layer metrics; the spans of the last traced
job are written to .bench_out/. The line before the result records the
environment and the raw samples. README.md lists every metric.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from calibrate import Rescaler
from workloads import HERE, ROOT, SRC, WORKLOADS

workloads.pin_threads()

OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 12   # per run, spread through the window
MAX_MISMATCHES_SHOWN = 20

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
STAGES = ("space", "nets", "labels", "family")


def per_layer_units() -> dict:
    from tracer import LAYER_METRICS
    units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    units.update({f"pipeline.stage_s.{s}": "s" for s in STAGES})
    units.update({"pipeline.artifact_mb": "MB", "pipeline.cpu_s": "s",
                  "trace.overhead_s": "s", "failed_frac": "ratio"})
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring window; jobs start only while the next "
                        "is expected to end inside it (at least one runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny runs the smoke-test instances")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


class Runner:
    """Runs jobs of one workload and benchmark seed, on the seed's clouds,
    and tallies operations."""

    def __init__(self, workload, seed, size):
        self.workload, self.seed, self.size = workload, seed, size
        self.clouds = workloads.clouds(seed)
        self.refs = {(c, s): workloads.load_reference(workload, c, s)
                     for c in self.clouds for s in {"tiny", size}}
        self.turn = 0
        self.attempted = self.failed = 0
        self.mismatches = []

    def next_cloud(self):
        """The seed's clouds in turn."""
        cloud = self.clouds[self.turn % len(self.clouds)]
        self.turn += 1
        return cloud

    def job(self, cloud, size=None, tracer=None):
        """One job; returns (seconds, cpu seconds, report or None, MB
        written). A job that raises fails every operation it attempts."""
        size = size or self.size
        doc = workloads.config(self.workload, cloud, size)
        ref = self.refs[cloud, size]
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-") as tmp:
            out_dir = tmp if workloads.writes_artifacts(self.workload) else None
            c0, t0 = time.process_time(), time.perf_counter()
            if tracer is not None:
                tracer.begin("pipeline")
            try:
                report = workloads.run_job(doc, out_dir)
            except Exception:   # a crashed job is a measured failure
                report = None
                traceback.print_exc(file=sys.stderr)
            finally:
                if tracer is not None:
                    tracer.end()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if report is None:
                n = workloads.expected_ops(ref)
                attempted, failed, mism = n, n, ["job raised"]
                written = 0.0
            else:
                attempted, failed, mism = workloads.compare(ref, report,
                                                            out_dir)
                if ref is None:   # held-out cloud: later jobs must repeat it
                    self.refs[cloud, size] = {
                        "config": doc, **workloads.outputs(report, out_dir)}
                written = sum(f.stat().st_size for f in Path(tmp).iterdir()
                              if f.is_file()) / 1e6
        self.attempted += attempted
        self.failed += failed
        self.mismatches.extend(mism[:MAX_MISMATCHES_SHOWN])
        return wall, cpu, report, written


def repeat(seconds, step):
    """Call step() while the next call is expected to end within `seconds`
    of the first; at least once. Returns the number of calls."""
    start = time.perf_counter()
    calls = 0
    while True:
        t0 = time.perf_counter()
        step()
        calls += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return calls


def setup_probe(doc):
    """Seconds from the start of a fresh interpreter until cubeforge is
    imported and the config is parsed."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC),
                          json.dumps(doc)], capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1]) - t0


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():   # a bare checkout has no history to ask
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            sha = out.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "cubeforge").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in workloads.THREAD_VARS}}


def end_to_end(runner, seconds):
    doc = workloads.config(runner.workload, runner.clouds[0], runner.size)
    runner.job(runner.clouds[0], "tiny")
    rescale = Rescaler()
    walls, setups = {}, []   # walls: cloud -> rescaled job seconds
    raw = {"wall_s": [], "setup_s": []}
    start = time.perf_counter()

    def step():
        cloud = runner.next_cloud()
        (wall, *_), factor = rescale.measure(lambda: runner.job(cloud))
        walls.setdefault(cloud, []).append(wall * factor)
        raw["wall_s"].append(wall)
        due = SETUP_PROBES * (time.perf_counter() - start) / seconds
        while len(setups) < max(1, due):   # spread through the window
            setup, factor = rescale.measure(lambda: setup_probe(doc))
            setups.append(setup * factor)
            raw["setup_s"].append(setup)

    repeat(seconds, step)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # wall_s: the mean over the clouds of each cloud's median job, so a run
    # weighs every cloud alike however many jobs each got.
    metrics = {"wall_s": statistics.fmean(statistics.median(v)
                                          for v in walls.values()),
               "setup_s": statistics.median(setups), "peak_rss_mb": peak_mb}
    return metrics, {"wall_s": walls, "setup_s": setups, "raw": raw,
                     "calibration_s": rescale.calibrations}


def _rescaled(values: dict, units: dict, factor: float) -> dict:
    return {k: v * factor if units.get(k) == "s" else v
            for k, v in values.items()}


def per_layer(runner, seconds):
    from tracer import Tracer
    tracer = Tracer()
    units = per_layer_units()
    plain, traced = [], []
    runner.job(runner.clouds[0], "tiny")
    rescale = Rescaler()

    def pair():   # an untraced and a traced job on the same cloud
        cloud = runner.next_cloud()
        (wall, cpu, report, _), factor = rescale.measure(
            lambda: runner.job(cloud))
        stages = {s["name"]: s["seconds"] * factor for s in report.stages} \
            if report is not None else {}
        plain.append((wall * factor, cpu * factor, stages))
        tracer.reset()
        tracer.install()
        try:
            (wall, _, _, written), factor = rescale.measure(
                lambda: runner.job(cloud, tracer=tracer))
        finally:
            tracer.uninstall()
        traced.append((wall * factor, written,
                       _rescaled(tracer.layer_metrics(), units, factor)))

    repeat(seconds, pair)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{runner.workload}-{runner.seed}.jsonl")

    # Means, not medians: the self times then add up to the mean traced job.
    mean = statistics.fmean
    metrics = {name: mean([t[2][name] for t in traced])
               for name in traced[0][2]}
    for s in STAGES:
        metrics[f"pipeline.stage_s.{s}"] = mean(
            [p[2].get(s, 0.0) for p in plain])
    metrics["pipeline.artifact_mb"] = mean([t[1] for t in traced])
    metrics["pipeline.cpu_s"] = mean([p[1] for p in plain])
    metrics["trace.overhead_s"] = (mean([t[0] for t in traced])
                                   - mean([p[0] for p in plain]))
    metrics["failed_frac"] = runner.failed / runner.attempted
    samples = {"wall_s_untraced": [p[0] for p in plain],
               "wall_s_traced": [t[0] for t in traced],
               "calibration_s": rescale.calibrations}
    return metrics, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cubeforge" / "__init__.py").is_file():
        print(f"run.py: no cubeforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        runner = Runner(args.workload, args.seed, args.size)
    except (OSError, KeyError, ValueError) as e:
        print(f"run.py: no usable reference: {e!r}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, samples = per_layer(runner, args.seconds)
        units = per_layer_units()
    else:
        metrics, samples = end_to_end(runner, args.seconds)
        units = END_TO_END
    info = {"workload": args.workload, "seed": args.seed,
            "clouds": runner.clouds, "size": args.size,
            "trace": args.trace, "samples": samples,
            "mismatches": runner.mismatches[:MAX_MISMATCHES_SHOWN],
            "env": environment()}
    print(json.dumps(info))
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
