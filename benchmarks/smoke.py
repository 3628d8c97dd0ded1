"""Self-test of the benchmark at tiny sizes; takes well under a minute.

    python3 benchmarks/smoke.py

Checks that
  * run.py prints, for every workload and both trace modes, exactly the
    metrics BENCHMARK.json names, each with its unit, and no failures, on a
    recorded seed and on a held-out one;
  * every kind of recorded output, when tampered with, makes the job's
    comparison fail, so failed_frac rises above 0;
  * traced self times add up to the job's root span.
"""
from __future__ import annotations

import copy
import json
import subprocess
import sys

import workloads
from workloads import HERE, ROOT, SRC

workloads.pin_threads()


HELD_OUT_SEED = 1000


def check_printed_metrics(spec):
    runs = [(w, seed, trace) for w in workloads.WORKLOADS
            for seed in (0, HELD_OUT_SEED) for trace in (0, 1)]
    for workload, seed, trace in runs:
        listed = spec["per_layer"] if trace else spec["end_to_end"]
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed",
                               "metrics"}, result.keys()
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in listed}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, (workload, trace, set(got) ^ set(want))
        for name, v in result["metrics"].items():
            assert isinstance(v["value"], (int, float)), (name, v)
        print(f"ok  {workload} seed={seed} trace={trace}: "
              f"{len(got)} metrics")


def _tampered(ref):
    """One copy of ref per kind of recorded output, each with that output
    changed."""
    for name in ref["checks"]:
        bad = copy.deepcopy(ref)
        bad["checks"][name]["digest"] = "0" * 16
        yield f"check {name}", bad
    for name in ref.get("artifacts", {}):
        bad = copy.deepcopy(ref)
        bad["artifacts"][name] = "0" * 64
        yield f"artifact {name}", bad
    if ref.get("mc_hits"):
        bad = copy.deepcopy(ref)
        bad["mc_hits"][0][2] += 1
        yield "mc hits", bad
    if ref.get("chain_combinations"):
        bad = copy.deepcopy(ref)
        bad["chain_combinations"][-1] += 1
        yield "chain combinations", bad
    for key in ("bounds", "maximal"):
        if ref.get(key):
            bad = copy.deepcopy(ref)
            bad[key][0][1] += max(abs(bad[key][0][1]), 1.0) * 1e-6
            yield f"{key} float", bad


def check_tampering():
    from run import Runner
    # A held-out seed has no recorded reference: its first job's outputs
    # become the reference the later jobs of the run are compared with.
    for workload in workloads.WORKLOADS:
        for seed in (0, HELD_OUT_SEED):
            runner = Runner(workload, seed, "tiny")
            cloud = runner.clouds[0]
            runner.job(cloud)
            assert runner.failed == 0, runner.mismatches
            ref = runner.refs[cloud, "tiny"]
            for what, bad in _tampered(ref):
                runner.refs[cloud, "tiny"] = bad
                before = runner.failed
                runner.job(cloud)
                assert runner.failed > before, (workload, seed, what)
                print(f"ok  {workload} seed={seed}: tampered {what} -> "
                      f"failed_frac {runner.failed / runner.attempted:.4f}")
            runner.refs[cloud, "tiny"] = ref


def check_self_times():
    from run import Runner
    from tracer import LAYER_METRICS, Tracer
    tracer = Tracer()
    for workload in workloads.WORKLOADS:
        runner = Runner(workload, 0, "tiny")
        tracer.reset()
        tracer.install()
        try:
            runner.job(runner.clouds[0], tracer=tracer)
        finally:
            tracer.uninstall()
        root = tracer.spans[0]
        assert root[0] == "pipeline" and root[3] == -1
        metrics = tracer.layer_metrics()
        total = sum(metrics[name] for name, (unit, kind, _)
                    in LAYER_METRICS.items() if kind == "self")
        assert abs(total - (root[2] - root[1])) < 1e-6, (workload, total)
        print(f"ok  {workload}: self times sum to the root span "
              f"({len(tracer.spans)} spans)")


def main() -> int:
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_printed_metrics(spec)
    check_tampering()
    check_self_times()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
