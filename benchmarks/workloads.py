"""The benchmark's workloads, one `cubeforge run` job, and the comparison of
its outputs with the reference recorded in reference/<workload>.json.

A job is `run_pipeline(PipelineConfig.from_json(doc), out_dir)`: the same
call `cubeforge run` makes once it has read the config file. Every workload
is a seeded 2-D euclidean cloud in strict mode at delta = 1/144. A run with
benchmark seed s cycles over CLOUDS_PER_RUN clouds, seeds s*CLOUDS_PER_RUN
and up; the cloud seed seeds both the cloud and the pipeline config, so the
same benchmark seed always gives the same inputs. Clouds below RECORDED have
reference outputs; any other cloud is held out: its jobs are checked by the
report's own check entries and against its first job in the run.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

DELTA = 1.0 / 144.0
CLOUDS_PER_RUN = 8
RECORDED = 32   # clouds 0 .. RECORDED-1 (seeds 0-3) have reference outputs
WORKLOADS = ("verify", "sample", "analyze", "build")
SIZES = ("full", "tiny")
REL_TOL = 1e-9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Why each workload, and which layers it stresses, is in README.md.
_POINTS = {"verify": {"full": 100, "tiny": 12},
           "sample": {"full": 60, "tiny": 10},
           "analyze": {"full": 100, "tiny": 12},
           # above space.EXHAUSTIVE_TRIPLE_CAP = 512: sampled validation
           "build": {"full": 520, "tiny": 40}}
# Side of the square the clouds are drawn in. At 20 the diameter and the
# typical minimum gap sit well between powers of 1/DELTA, so almost every
# cloud has the same number of levels and K varies by about 10%. In the unit
# box about half the clouds gain a level, which halves or doubles the cost
# of a job from one cloud to the next.
BOX = 20.0
_CHECKS = {"verify": ["net", "cubes", "covering"],
           "sample": ["mc_boundary", "chain"],
           "analyze": ["analysis"],
           "build": ["net"]}
_MC = {"full": {"N": 1000, "points": [0, 1], "tau_list": [0.1, 0.01, 0.001]},
       "tiny": {"N": 1000, "points": [0], "tau_list": [0.1]}}
_ANALYSIS = {"p_list": [1.5, 2.0], "n_random_functions": 3}


def pin_threads():
    """One BLAS/OpenMP thread: must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def clouds(seed: int) -> list:
    """The cloud seeds a run with this benchmark seed cycles over."""
    return [seed * CLOUDS_PER_RUN + i for i in range(CLOUDS_PER_RUN)]


def writes_artifacts(workload: str) -> bool:
    return workload == "verify"


def config(workload: str, cloud: int, size: str = "full") -> dict:
    doc = {"space": {"kind": "euclidean_cloud",
                     "n": _POINTS[workload][size],
                     "dim": 2, "box": BOX, "seed": cloud},
           "delta": DELTA, "mode": "strict", "seed": cloud,
           "checks": list(_CHECKS[workload])}
    if workload == "sample":
        doc["mc"] = copy.deepcopy(_MC[size])
    if workload == "analyze":
        doc["analysis"] = copy.deepcopy(_ANALYSIS)
    return doc


def run_job(doc: dict, out_dir):
    """One `cubeforge run` job, from the config in memory to the report
    (and, given out_dir, the artifacts on disk)."""
    from cubeforge.pipeline import PipelineConfig, run_pipeline
    return run_pipeline(PipelineConfig.from_json(doc), out_dir)


# -- outputs and the reference ------------------------------------------------

def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def outputs(report, out_dir) -> dict:
    """The deterministic outputs of one job, in the reference's layout."""
    out = {"checks": {}}
    for name, doc in report.checks.items():
        entries = [[c["name"], c["checked"], c["passed"]]
                   for c in doc["checks"]]
        out["checks"][name] = {"entries": len(entries),
                               "digest": _digest(entries)}
    if "boundary" in report.tables:
        out["mc_hits"] = [[r["x"], r["tau"], r["hits"]]
                          for r in report.tables["boundary"]]
    if "chain" in report.checks:
        out["chain_combinations"] = [
            c["details"]["combinations"]
            for c in report.checks["chain"]["checks"]
            if c["name"].endswith("admissible_chains")]
    if out_dir is not None:
        out["artifacts"] = {}
        for name in ("hierarchy", "family"):
            with open(os.path.join(out_dir, f"{name}.json"), "rb") as fh:
                out["artifacts"][name] = hashlib.sha256(fh.read()).hexdigest()
    if "bounds" in report.tables:
        out["bounds"] = [[r["name"], r["lhs"], r["rhs"], r["pass"]]
                         for r in report.tables["bounds"]]
    if "maximal" in report.tables:
        out["maximal"] = [[r["x"], r["ball"], r["dyadic_max"], r["dyadic_sum"]]
                          for r in report.tables["maximal"]]
    return out


def _same_row(ref_row, got_row) -> bool:
    if got_row is None or len(ref_row) != len(got_row):
        return False
    for a, b in zip(ref_row, got_row):
        if isinstance(a, float):
            if not isinstance(b, (int, float)) \
                    or not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0):
                return False
        elif a != b:
            return False
    return True


_ROW_KEYS = ("mc_hits", "chain_combinations", "bounds", "maximal")


def expected_ops(ref) -> int:
    """Operations one job of this cloud attempts: its check entries plus
    one comparison per reference item (at least 1 without a reference)."""
    if ref is None:
        return 1
    out = sum(c["entries"] + 1 for c in ref["checks"].values())
    out += len(ref.get("artifacts", {}))
    for key in _ROW_KEYS:
        out += len(ref.get(key, []))
    return out


def compare(ref, report, out_dir):
    """(attempted, failed, mismatches) for one finished job. Each check
    entry is one operation, failed when the entry did not pass; each
    reference item is one more, failed when the output differs. With no
    reference (ref None) only the check entries count."""
    attempted = failed = 0
    mismatches = []
    for doc in report.checks.values():
        for c in doc["checks"]:
            attempted += 1
            if not c["passed"]:
                failed += 1
                mismatches.append(f"check entry {c['name']} did not pass")
    if ref is None:
        return attempted, failed, mismatches
    got = outputs(report, out_dir)
    for name in sorted(set(ref["checks"]) | set(got["checks"])):
        attempted += 1
        if ref["checks"].get(name) != got["checks"].get(name):
            failed += 1
            mismatches.append(f"check {name}: entries differ from reference")
    for name, digest in ref.get("artifacts", {}).items():
        attempted += 1
        if got.get("artifacts", {}).get(name) != digest:
            failed += 1
            mismatches.append(f"{name}.json differs from reference")
    for key in _ROW_KEYS:
        ref_rows, got_rows = ref.get(key, []), got.get(key, [])
        for i in range(max(len(ref_rows), len(got_rows))):
            attempted += 1
            a = ref_rows[i] if i < len(ref_rows) else None
            b = got_rows[i] if i < len(got_rows) else None
            same = a is not None and (
                a == b if not isinstance(a, list) else _same_row(a, b))
            if not same:
                failed += 1
                mismatches.append(f"{key}[{i}]: {b!r} != reference {a!r}")
    return attempted, failed, mismatches


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, cloud: int, size: str):
    """The recorded outputs for this workload and cloud, or None for a
    held-out cloud; refuses when the recorded config is not the one config()
    builds now."""
    with open(reference_path(workload)) as fh:
        table = json.load(fh)
    ref = table["clouds"][size].get(str(cloud))
    if ref is not None and ref["config"] != config(workload, cloud, size):
        raise ValueError(f"reference for {workload}/{size} cloud {cloud} was "
                         "recorded for another config; record it again")
    return ref
