"""Command line front end for the pipeline.

Every subcommand reads the same JSON config (see PipelineConfig), builds
what it needs, and writes its artifacts into --out. Exit status is 0 when
every requested check passed, 1 when a check failed, 2 when the config or
a build stage is broken; failures land as one JSON line on stderr so
callers can parse them.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .adjacent import build_adjacent_family
from .errors import ConfigError, CubeforgeError
from .labeling import build_labels, index_to_pair, select_points
from .nets import build_reference_hierarchy
from .pipeline import (KNOWN_CHECKS, PipelineConfig, emit_report, run_pipeline,
                       write_json)
from .random_systems import OmegaSampler, realize_system, sample_outcome
from .space import generate_space

BUILD_COMMANDS = ("gen-space", "build-nets", "build-system",
                  "build-adjacent", "sample")
CHECK_COMMANDS = {"verify": None,            # None: run the config's checks
                  "mc-boundary": ["mc_boundary"],
                  "analyze": ["analysis"],
                  "run": None}


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="path to a pipeline JSON config")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config's seed")
    common.add_argument("--out", default=".",
                        help="directory for artifacts and reports")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format for check commands")
    p = argparse.ArgumentParser(prog="cubeforge",
                                description="dyadic cube systems on finite "
                                            "quasi-metric spaces")
    sub = p.add_subparsers(dest="command", required=True)
    helps = {
        "gen-space": "generate the point space and write space.json",
        "build-nets": "build the reference hierarchy, write hierarchy.json",
        "build-system": "build one dyadic system, write system.json",
        "build-adjacent": "build the full family, write family.json",
        "sample": "draw one random selection outcome, write sample.json",
        "verify": "run the checks listed in the config",
        "mc-boundary": "run only the boundary decay estimate",
        "analyze": "run only the maximal/weight analysis",
        "run": "full pipeline: builds, checks, artifacts, report",
    }
    for name in list(BUILD_COMMANDS) + list(CHECK_COMMANDS):
        sub.add_parser(name, parents=[common], help=helps[name])
    return p


def _load_config(args) -> PipelineConfig:
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"config: cannot read {args.config}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON: {e}") from e
    if args.seed is not None and isinstance(doc, dict):
        doc["seed"] = args.seed  # validated with the rest of the config
    return PipelineConfig.from_json(doc)


def _write(out_dir: str, name: str, doc) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    write_json(path, doc, end="\n")
    return path


def _run_build(cmd: str, cfg: PipelineConfig, out: str) -> int:
    space = generate_space(cfg.space)
    if cmd == "gen-space":
        print(_write(out, "space.json", space.to_json()))
        return 0
    hier = build_reference_hierarchy(space, cfg.delta, mode=cfg.mode,
                                     distinguished=cfg.distinguished)
    if cmd == "build-nets":
        print(_write(out, "hierarchy.json", hier.to_json()))
        return 0
    labeled = build_labels(hier)
    if cmd == "sample":
        sampler = OmegaSampler(labeled, "single", seed=cfg.seed)
        print(_write(out, "sample.json", sample_outcome(sampler, 0).to_json()))
        return 0
    if cmd == "build-system":
        # system 1 alone: the specific rule for its pair label phi^-1(1)
        rule = {"kind": "specific",
                "label": list(index_to_pair(1, labeled.max_children))}
        if cfg.distinguished is not None:
            rule.update(kind="specific_distinguished",
                        distinguished=cfg.distinguished)
        system = realize_system(labeled, select_points(labeled, rule))
        print(_write(out, "system.json", system.to_json()))
        return 0
    family = build_adjacent_family(labeled, distinguished=cfg.distinguished)
    print(_write(out, "family.json", family.to_json()))
    return 0


def _run_checks(cmd: str, cfg: PipelineConfig, out: str, fmt: str) -> int:
    override = CHECK_COMMANDS[cmd]
    if override is not None:
        cfg.checks = list(override)
    elif cmd == "verify" and not cfg.checks:
        cfg.checks = list(KNOWN_CHECKS)
    report = run_pipeline(cfg, out_dir=out)
    if fmt == "csv":
        for path in emit_report(report, "csv", out):
            print(path)
    else:
        print(report.artifacts["report"])
    failed = {}
    for name, doc in report.checks.items():
        bad = [c["name"] for c in doc["checks"] if not c["passed"]]
        status = "ok  " if doc["passed"] else "FAIL"
        print(f"[{status}] {name}: {len(doc['checks'])} checks")
        if bad:
            failed[name] = bad
    if failed:
        json.dump({"command": cmd, "passed": False,
                   "failed_checks": failed}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command in BUILD_COMMANDS:
            return _run_build(args.command, cfg, args.out)
        return _run_checks(args.command, cfg, args.out, args.format)
    except CubeforgeError as e:
        json.dump({"command": args.command, "error": str(e),
                   "type": type(e).__name__}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
