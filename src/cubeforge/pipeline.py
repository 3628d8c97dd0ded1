"""Batch driver: one JSON config in, builds plus checks out, reports to disk.

The pipeline always runs the four build stages (space, nets, labels,
family) and then whatever checks the config requests. Check failures are
recorded and never abort the run, so a single invocation surfaces every
violation at once. All randomness is derived from config.seed; two runs of
the same config differ only in the recorded stage timings.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Optional

import numpy as np

from .adjacent import build_adjacent_family, verify_covering
from .analysis import (
    _ball_values,
    _dyadic_values,
    _instance_constants,
    verify_comparability,
    verify_weighted_bounds,
)
from .constants import _REL_TOL
from .cubes import verify_cube_axioms
from .errors import (MODES, BuildError, ConfigError, CubeforgeError,
                     ModeViolation, require_delta)
from .labeling import build_labels, verify_new_point_axioms
from .nets import build_reference_hierarchy, check_mode, verify_net_axioms
from .random_systems import (
    MIN_SAMPLES,
    OmegaSampler,
    estimate_boundary_sweep,
    realize_system,
    sample_outcome,
    scan_chain_separation,
)
from .report import VerificationReport
from .space import generate_space

KNOWN_CHECKS = ("net", "cubes", "covering", "mc_boundary", "chain",
                "analysis")
CHAIN_SCAN_SAMPLES = 10
CSV_VERSION_LINE = "# cubeforge-report v1"
# report names of an exponent, a threshold and a point; a config whose list
# gives two entries one name is refused
P_NAME, TAU_NAME, POINT_NAME = "p{:g}", "tau{:g}", "x{}"


@dataclass
class PipelineConfig:
    space: dict
    delta: float
    mode: str = "strict"
    seed: int = 0
    distinguished: Optional[int] = None
    checks: list = field(default_factory=list)
    mc: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, doc: dict) -> "PipelineConfig":
        """Validate a parsed JSON document; errors carry the field path."""
        if not isinstance(doc, dict):
            raise ConfigError("config: expected a JSON object")
        _refuse_unknown("config", doc, ("space", "delta", "mode", "seed",
                                        "distinguished", "checks", "mc",
                                        "analysis"))
        space = doc.get("space")
        if not isinstance(space, dict) or "kind" not in space:
            raise ConfigError("space: expected an object with a 'kind'")
        delta = require_delta(doc.get("delta"))
        mode = doc.get("mode", "strict")
        if mode not in MODES:
            raise ConfigError(f"mode: expected one of {MODES}, got {mode!r}")
        seed = doc.get("seed", 0)
        if not _is_int(seed) or not 0 <= seed < 2 ** 64:
            raise ConfigError(f"seed: expected an unsigned 64-bit integer, "
                              f"got {seed!r}")
        dist = doc.get("distinguished")
        if dist is not None and (not _is_int(dist) or dist < 0):
            raise ConfigError(f"distinguished: expected a point id, "
                              f"got {dist!r}")
        checks = doc.get("checks", [])
        if not isinstance(checks, list):
            raise ConfigError("checks: expected a list")
        for c in checks:
            if c not in KNOWN_CHECKS:
                raise ConfigError(f"checks: unknown check {c!r}, expected a "
                                  f"subset of {list(KNOWN_CHECKS)}")
        mc = doc.get("mc", {})
        if not isinstance(mc, dict):
            raise ConfigError("mc: expected an object")
        _refuse_unknown("mc", mc, ("N", "tau_list", "points", "k"))
        if "N" in mc and (not _is_int(mc["N"]) or mc["N"] < MIN_SAMPLES):
            raise ConfigError(f"mc.N: expected an integer of at least "
                              f"{MIN_SAMPLES}, got {mc['N']!r}")
        if "tau_list" in mc:
            taus = mc["tau_list"]
            if not isinstance(taus, list) or not taus \
                    or any(not _is_number(t) or not 0 < t < math.inf
                           for t in taus):
                raise ConfigError("mc.tau_list: expected a non-empty list of "
                                  "positive finite thresholds")
            _refuse_shared_names("mc.tau_list", taus, TAU_NAME)
        if "points" in mc:
            pts = mc["points"]
            if not isinstance(pts, list) \
                    or any(not _is_int(x) or x < 0 for x in pts):
                raise ConfigError("mc.points: expected a list of point ids")
            _refuse_shared_names("mc.points", pts, POINT_NAME)
        if "k" in mc and not _is_int(mc["k"]):
            raise ConfigError(f"mc.k: expected an integer level, "
                              f"got {mc['k']!r}")
        analysis = doc.get("analysis", {})
        if not isinstance(analysis, dict):
            raise ConfigError("analysis: expected an object")
        _refuse_unknown("analysis", analysis,
                        ("p_list", "n_random_functions"))
        if "p_list" in analysis:
            ps = analysis["p_list"]
            if not isinstance(ps, list) \
                    or any(not _is_number(p) or not 1 < p < math.inf
                           for p in ps):
                raise ConfigError("analysis.p_list: expected a list of "
                                  "finite exponents above 1")
            _refuse_shared_names("analysis.p_list", ps, P_NAME)
        nrf = analysis.get("n_random_functions", 3)
        if not _is_int(nrf) or nrf < 1:
            raise ConfigError("analysis.n_random_functions: expected a "
                              f"positive integer, got {nrf!r}")
        return cls(space=space, delta=delta, mode=mode, seed=seed,
                   distinguished=dist, checks=list(checks), mc=dict(mc),
                   analysis=dict(analysis))

    def to_json(self):
        out = {"space": self.space, "delta": self.delta, "mode": self.mode,
               "seed": self.seed, "checks": list(self.checks)}
        if self.distinguished is not None:
            out["distinguished"] = self.distinguished
        if self.mc:
            out["mc"] = self.mc
        if self.analysis:
            out["analysis"] = self.analysis
        return out


def _is_int(value) -> bool:
    """A JSON integer; true and false are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _refuse_unknown(path: str, doc: dict, known) -> None:
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"{path}: unknown fields {sorted(unknown)}")


def _refuse_shared_names(path: str, values, name: str) -> None:
    """ConfigError naming `path` when two of `values` would give their
    report entries one name, `name.format(value)`."""
    seen = {}
    for v in values:
        key = name.format(v)
        if key in seen:
            raise ConfigError(f"{path}: entries {seen[key]!r} and {v!r} "
                              f"share the report name {key!r}")
        seen[key] = v


@dataclass
class RunReport:
    config: dict
    stages: list = field(default_factory=list)   # {"name", "seconds"}
    checks: dict = field(default_factory=dict)   # name -> report json
    tables: dict = field(default_factory=dict)   # flat rows for the CSVs
    artifacts: dict = field(default_factory=dict)
    check_seconds: dict = field(default_factory=dict)  # name -> wall seconds

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def to_json(self):
        return {"config": self.config, "stages": self.stages,
                "checks": self.checks, "check_seconds": self.check_seconds,
                "tables": self.tables, "artifacts": self.artifacts,
                "passed": self.passed}


def _stage(report: RunReport, name: str, fn):
    t0 = time.perf_counter()
    try:
        value = fn()
    except CubeforgeError as e:
        raise BuildError(f"stage {name}: {e}") from e
    report.stages.append({"name": name,
                          "seconds": time.perf_counter() - t0})
    return value


def _run_check(report: RunReport, name: str, fn):
    """Run one requested check; failures and errors are recorded, not
    raised, so the remaining checks still run. Its wall seconds go to
    `report.check_seconds`."""
    t0 = time.perf_counter()
    try:
        rep = fn()
    except CubeforgeError as e:
        rep = VerificationReport(name)
        rep.add("run", False, 0, note=f"{type(e).__name__}: {e}")
    report.checks[name] = rep.to_json()
    report.check_seconds[name] = time.perf_counter() - t0


def _flatten(title: str, parts) -> VerificationReport:
    """Merge (prefix, VerificationReport) pairs into one flat report."""
    out = VerificationReport(title)
    for prefix, rep in parts:
        for c in rep.checks:
            name = f"{prefix}_{c.name}" if prefix else c.name
            out.add(name, c.passed, c.checked, c.witnesses, c.details,
                    c.note)
    return out


def run_pipeline(config: PipelineConfig,
                 out_dir: Optional[str] = None) -> RunReport:
    report = RunReport(config=config.to_json())

    space = _stage(report, "space", lambda: generate_space(config.space))
    try:
        check_mode(config.mode, space.profile.tri_const, config.delta)
    except ModeViolation as e:
        raise ConfigError(f"delta: {e}") from e
    hier = _stage(report, "nets", lambda: build_reference_hierarchy(
        space, config.delta, mode=config.mode,
        distinguished=config.distinguished))
    labeled = _stage(report, "labels", lambda: build_labels(hier))
    family = _stage(report, "family", lambda: build_adjacent_family(
        labeled, distinguished=config.distinguished))

    for check in config.checks:
        if check == "net":
            _run_check(report, "net", lambda: verify_net_axioms(hier))
        elif check == "cubes":
            _run_check(report, "cubes", lambda: _flatten(
                "cube axioms",
                [(f"t{t}", rep) for t, rep in enumerate(
                    verify_cube_axioms(family.systems), start=1)]))
        elif check == "covering":
            _run_check(report, "covering", lambda: verify_covering(family))
        elif check == "mc_boundary":
            _run_check(report, "mc_boundary",
                       lambda: _mc_boundary_check(config, labeled, report))
        elif check == "chain":
            _run_check(report, "chain",
                       lambda: _chain_check(config, labeled))
        elif check == "analysis":
            _run_check(report, "analysis",
                       lambda: _analysis_check(config, space, family,
                                               report))

    if out_dir is not None:
        import os
        os.makedirs(out_dir, exist_ok=True)
        for name, built in (("space", space), ("hierarchy", hier),
                            ("family", family)):
            path = os.path.join(out_dir, f"{name}.json")
            write_json(path, built.to_json())
            report.artifacts[name] = path
        report.artifacts["report"] = os.path.join(out_dir, "report.json")
        emit_report(report, "json", out_dir)
    return report


def _mc_boundary_check(config: PipelineConfig, labeled,
                       report: RunReport) -> VerificationReport:
    mc = config.mc
    n = mc.get("N", 1000)
    taus = mc.get("tau_list", [0.1])
    points = mc.get("points", [0])
    k = mc.get("k", labeled.k_min)
    sampler = OmegaSampler(labeled, "single", seed=config.seed)
    rep = VerificationReport("boundary decay")
    ests = estimate_boundary_sweep(sampler, [int(x) for x in points], k,
                                   [float(tau) for tau in taus], n)
    names = [f"{POINT_NAME.format(x)}_{TAU_NAME.format(tau)}"
             for x in points for tau in taus]
    for name, est in zip(names, ests):
        rep.add(name, est.passed, n, details=est.to_json())
    report.tables["boundary"] = [est.to_json() for est in ests]
    return rep


def _chain_check(config: PipelineConfig, labeled) -> VerificationReport:
    """Scan a fixed batch of sampled systems for admissible boundary
    chains; the per-sample admissible counts land in the details."""
    sampler = OmegaSampler(labeled, "single", seed=config.seed)
    parts = []
    for i in range(CHAIN_SCAN_SAMPLES):
        outcome = sample_outcome(sampler, i)
        axioms = verify_new_point_axioms(outcome)
        scan = scan_chain_separation(realize_system(labeled, outcome))
        parts.append((f"sample{i}", _flatten("", [("", axioms),
                                                  ("", scan)])))
    return _flatten("chain separation scans", parts)


def _analysis_check(config: PipelineConfig, space, family,
                    report: RunReport) -> VerificationReport:
    """The doubling, comparability and weighted checks and the maximal
    table. Every random input is drawn first; then four ball sweeps serve
    them all: doubling, containing-cube masses, the plain maxima of the
    sample functions and the sharp maxima of those and of each p's f."""
    cfg = config.analysis
    p_list = [float(p) for p in cfg.get("p_list", [2.0])]
    n_funcs = cfg.get("n_random_functions", 3)
    mu = np.ones(space.n)
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(1009,)))
    funcs = [rng.uniform(-1.0, 1.0, space.n) for _ in range(n_funcs)]
    weighted = [(rng.uniform(0.5, 2.0, space.n),
                 rng.uniform(-1.0, 1.0, space.n)) for _ in p_list]

    parts = []
    constants = _instance_constants(family, mu)
    doubling = VerificationReport("doubling")
    doubling.add("doubling_sweep", True, space.n,
                 details={"C_mu": constants["C_mu"],
                          "exponent": constants["c_mu"]})
    parts.append(("", doubling))

    sharp = _ball_values(space, mu, funcs + [f for _, f in weighted], True)
    plain = _ball_values(space, mu, funcs, False)
    comp = verify_comparability(family, mu, funcs, constants=constants,
                                ball_maxima=(plain, sharp[:n_funcs]))
    parts.append(("comparability", comp))

    bounds_rows = []
    for c in comp.checks:
        rhs = c.details.get("C_a", c.details.get(
            "C_a_prime", c.details.get("constant")))
        if rhs is not None and "empirical" in c.details:
            bounds_rows.append({"name": f"comparability_{c.name}",
                                "lhs": c.details["empirical"], "rhs": rhs,
                                "pass": c.passed})
    for p, (omega, f), f_sharp in zip(p_list, weighted, sharp[n_funcs:]):
        wrep = verify_weighted_bounds(family, mu, omega, f, p,
                                      constants=constants, ball_sharp=f_sharp)
        parts.append((P_NAME.format(p), wrep))
        for c in wrep.checks:
            for entry in c.details.get("per_system", []):
                bounds_rows.append({
                    "name": f"{P_NAME.format(p)}_{c.name}_t{entry['t']}",
                    "lhs": entry["norm"], "rhs": entry["bound"],
                    "pass": entry["norm"] <= entry["bound"] * (1 + _REL_TOL)})
    report.tables["bounds"] = bounds_rows

    per_t = _dyadic_values(family.held_pieces(), family.n_systems, mu,
                           funcs[:1], False)[0]
    report.tables["maximal"] = [
        {"x": int(x), "ball": float(plain[0, x]),
         "dyadic_max": float(per_t[:, x].max()),
         "dyadic_sum": float(per_t[:, x].sum())}
        for x in range(space.n)]
    return _flatten("analysis", parts)


# -- emission ------------------------------------------------------------------

_SCALAR_REPR = {int: int.__repr__, float: float.__repr__,
                bool: ("false", "true").__getitem__}
_CONTAINERS = {dict, list, tuple}
_CHUNK = 1 << 14   # items per joined piece of a long scalar list


def write_json(path: str, doc, end: str = "") -> None:
    """Write `json.dumps(doc, indent=2, sort_keys=True) + end` to `path`,
    byte for byte.

    A list of only ints, only bools or only floats is joined in C. A
    container that occurs more than once in `doc` is encoded once per depth
    (keyed on its id, which `doc` keeps alive for the call). Anything else
    the fast paths do not cover exactly (nan and infinities, non-str keys,
    subclasses, empty containers) goes through json.dumps, re-indented to
    its depth; JSON text holds no raw newline, so that is exact. The text
    goes to the file as it is made: only repeated containers and one chunk
    of a long scalar list are held in memory.
    """
    with open(path, "w") as fh:
        _Encoder(_repeated(doc)).emit(doc, "\n", fh.write)
        fh.write(end)


def _repeated(doc) -> set:
    """Ids of the containers that occur more than once in `doc`."""
    seen, again = set(), set()
    todo = [doc] if type(doc) in _CONTAINERS else []
    while todo:
        o = todo.pop()
        if id(o) in seen:
            again.add(id(o))
            continue
        seen.add(id(o))
        items = o.values() if type(o) is dict else o
        if not _CONTAINERS.isdisjoint(map(type, items)):
            todo.extend(v for v in items if type(v) in _CONTAINERS)
    return again


class _Encoder:
    """State of one write_json call: the repeated containers' ids and the
    text of each at the depths met so far. A class rather than a closure
    that calls itself, so no reference cycle outlives the call."""

    def __init__(self, repeated: set):
        self.repeated = repeated
        self.memo = {}

    def emit(self, o, pad: str, out) -> None:
        """Pass o's text to `out` in pieces; `pad` is a newline plus the
        indent of o's depth."""
        t = type(o)
        if t is str:
            out(_encode_str(o))
        elif t in _SCALAR_REPR and (t is not float or math.isfinite(o)):
            out(_SCALAR_REPR[t](o))
        elif o is None:
            out("null")
        elif t in _CONTAINERS and o and (
                t is not dict or all(type(k) is str for k in o)):
            if id(o) not in self.repeated:
                self._container(o, pad, out)
                return
            key = (id(o), pad)
            if key not in self.memo:
                parts = []
                self._container(o, pad, parts.append)
                self.memo[key] = "".join(parts)
            out(self.memo[key])
        else:
            out(json.dumps(o, indent=2, sort_keys=True).replace("\n", pad))

    def _container(self, o, pad: str, out) -> None:
        inner = pad + "  "
        if type(o) is dict:
            sep = "{" + inner
            for k in sorted(o):
                out(sep + _encode_str(k) + ": ")
                self.emit(o[k], inner, out)
                sep = "," + inner
            out(pad + "}")
            return
        kinds = set(map(type, o))
        rep = _SCALAR_REPR.get(kinds.pop()) if len(kinds) == 1 else None
        sep = "[" + inner
        for i in range(0, len(o), _CHUNK):
            chunk = o[i:i + _CHUNK]
            text = ("," + inner).join(map(rep, chunk)) if rep else None
            # of the joined reprs, only nan and the infinities hold an "n"
            if text is not None and "n" not in text:
                out(sep + text)
            else:
                for v in chunk:
                    out(sep)
                    self.emit(v, inner, out)
                    sep = "," + inner
            sep = "," + inner
        out(pad + "]")


CSV_SCHEMAS = {
    "boundary": ("boundary.csv", ["x", "k", "tau", "N", "hits", "p_hat",
                                  "wilson_upper", "bound_C2_tau_eta",
                                  "pass"]),
    "bounds": ("bounds.csv", ["name", "lhs", "rhs", "pass"]),
    "maximal": ("maximal.csv", ["x", "ball", "dyadic_max", "dyadic_sum"]),
}


def emit_report(report: RunReport, format: str, out_dir: str = ".") -> list:
    """Write the report to out_dir; returns the written file paths.

    json: the full structured report in one file. csv: one flat table per
    schema (boundary sweeps, norm bounds, pointwise maximal values), each
    starting with a version comment line; tables the run never produced
    come out as header-only files.
    """
    import os
    if format not in ("json", "csv"):
        raise ConfigError(f"format: expected 'json' or 'csv', "
                          f"got {format!r}")
    os.makedirs(out_dir, exist_ok=True)
    if format == "json":
        path = os.path.join(out_dir, "report.json")
        write_json(path, report.to_json(), end="\n")
        return [path]
    paths = []
    for key, (fname, columns) in CSV_SCHEMAS.items():
        path = os.path.join(out_dir, fname)
        with open(path, "w") as fh:
            fh.write(CSV_VERSION_LINE + "\n")
            fh.write(",".join(columns) + "\n")
            for row in report.tables.get(key, []):
                fh.write(",".join(_csv_cell(row[c]) for c in columns) + "\n")
        paths.append(path)
    return paths


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)
