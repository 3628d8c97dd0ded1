import copy
import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubeforge import analysis, pipeline
from cubeforge.adjacent import build_adjacent_family
from cubeforge.errors import BuildError, ConfigError
from cubeforge.labeling import build_labels
from cubeforge.nets import build_reference_hierarchy
from cubeforge.pipeline import (
    PipelineConfig,
    RunReport,
    emit_report,
    run_pipeline,
    write_json,
)
from cubeforge.random_systems import OmegaSampler
from cubeforge.space import generate_space

DELTA = 1.0 / 144.0

REFERENCE = {
    "space": {"kind": "geometric_line", "levels": 3, "delta": DELTA},
    "delta": DELTA,
    "mode": "strict",
    "seed": 20260501,
    "checks": ["net", "cubes", "covering", "mc_boundary", "chain",
               "analysis"],
    "mc": {"N": 1000, "tau_list": [0.1, 0.01, 0.001], "points": [0]},
    "analysis": {"p_list": [1.5, 2.0], "n_random_functions": 3},
}


def small_config(**overrides):
    doc = copy.deepcopy(REFERENCE)
    doc.update(overrides)
    return PipelineConfig.from_json(doc)


def strip_timing(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    for stage in doc["stages"]:
        stage.pop("seconds")
    doc.pop("check_seconds")
    return doc


def test_reference_config_all_checks_pass():
    with open("demos/configs/strict.json") as fh:
        cfg = PipelineConfig.from_json(json.load(fh))
    report = run_pipeline(cfg)
    assert report.passed
    assert [s["name"] for s in report.stages] == ["space", "nets", "labels",
                                                  "family"]
    assert set(report.checks) == set(REFERENCE["checks"])
    for name, doc in report.checks.items():
        assert doc["passed"], name
    # one wall-time entry per requested check
    assert set(report.to_json()["check_seconds"]) == set(REFERENCE["checks"])
    assert all(s >= 0 for s in report.check_seconds.values())
    assert len(report.tables["boundary"]) == 3
    assert all(row["pass"] for row in report.tables["boundary"])
    assert report.tables["bounds"]
    assert report.tables["maximal"]


def test_empty_checks_build_stages_only():
    report = run_pipeline(small_config(checks=[]))
    assert [s["name"] for s in report.stages] == ["space", "nets", "labels",
                                                  "family"]
    assert report.checks == {}
    assert report.check_seconds == {}
    assert report.tables == {}
    assert report.passed  # vacuous


def test_runs_are_deterministic_modulo_timing():
    a = run_pipeline(small_config())
    b = run_pipeline(small_config())
    assert strip_timing(a.to_json()) == strip_timing(b.to_json())


def test_analysis_runs_the_doubling_sweep_once(monkeypatch):
    calls = []
    real = analysis.doubling_constant

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(analysis, "doubling_constant", counted)
    cfg = small_config(checks=["analysis"])
    once = run_pipeline(cfg)
    assert len(calls) == 1
    # the verifiers computing their own constants and ball maxima give the
    # same report
    for name in ("verify_comparability", "verify_weighted_bounds"):
        monkeypatch.setattr(pipeline, name,
                            lambda *a, constants=None, ball_maxima=None,
                            ball_sharp=None, _f=getattr(pipeline, name):
                            _f(*a))
    calls.clear()
    each = run_pipeline(cfg)
    assert len(calls) == 2 + len(REFERENCE["analysis"]["p_list"])
    assert strip_timing(once.to_json()) == strip_timing(each.to_json())


@pytest.mark.parametrize("p_list", [[], [2.0], [1.5, 2.0], [1.25, 2.0, 3.5]])
def test_analysis_sweeps_the_ball_world_four_times(monkeypatch, p_list):
    # doubling, containing-cube masses, the plain maxima of the sample
    # functions and one sharp sweep for them and every p's f; it was
    # 5 + len(p_list): a sharp sweep per p and a plain one for the table
    cfg = small_config(checks=["analysis"],
                       analysis={"p_list": p_list, "n_random_functions": 2})
    space = generate_space(cfg.space)
    real, calls = space.ball_blocks, []

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(space, "ball_blocks", counting)
    monkeypatch.setattr(pipeline, "generate_space", lambda doc: space)
    report = run_pipeline(cfg)
    assert report.checks["analysis"]["passed"]
    assert len(calls) == 4


def analyze_cloud(seed):
    """The `analyze` benchmark job's config for one cloud (n = 100 in a box
    of 20, strict, delta = 1/144) and its built space and family."""
    cfg = PipelineConfig.from_json({
        "space": {"kind": "euclidean_cloud", "n": 100, "dim": 2,
                  "box": 20.0, "seed": seed},
        "delta": DELTA, "mode": "strict", "seed": seed,
        "checks": ["analysis"],
        "analysis": {"p_list": [1.5, 2.0], "n_random_functions": 3}})
    space = generate_space(cfg.space)
    family = build_adjacent_family(build_labels(build_reference_hierarchy(
        space, DELTA, mode="strict")))
    return cfg, space, family


def test_analysis_check_peak_memory():
    # cloud 72 (K = 75): with a sharp sweep per p and out-of-place block
    # arithmetic the check peaked at 1 875 788-1 876 111 bytes under
    # tracemalloc (numpy 2.4.6); the joint sweeps, divided and accumulated
    # in place, must stay at or below that
    cfg, space, family = analyze_cloud(72)
    assert family.n_systems == 75
    pipeline._analysis_check(cfg, space, family, RunReport(config={}))
    tracemalloc.start()
    try:
        pipeline._analysis_check(cfg, space, family, RunReport(config={}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_876_111


def test_config_field_paths_in_errors():
    bad = [
        ({}, "space:"),
        ({**REFERENCE, "space": {"levels": 3}}, "space:"),
        ({**REFERENCE, "delta": 1.5}, "delta:"),
        ({**REFERENCE, "mode": "fast"}, "mode:"),
        ({**REFERENCE, "seed": -1}, "seed:"),
        ({**REFERENCE, "seed": 2 ** 64}, "seed:"),
        ({**REFERENCE, "distinguished": "x"}, "distinguished:"),
        ({**REFERENCE, "checks": ["nets"]}, "checks:"),
        ({**REFERENCE, "checks": "net"}, "checks:"),
        ({**REFERENCE, "mc": {"N": 0}}, "mc.N:"),
        ({**REFERENCE, "mc": {"N": 1}}, "mc.N:"),
        ({**REFERENCE, "mc": {"N": 999}}, "mc.N:"),
        ({**REFERENCE, "mc": {"tau_list": []}}, "mc.tau_list:"),
        ({**REFERENCE, "mc": {"tau_list": [-0.1]}}, "mc.tau_list:"),
        ({**REFERENCE, "mc": {"tau_list": json.loads("[NaN]")}},
         "mc.tau_list:"),
        ({**REFERENCE, "mc": {"tau_list": json.loads("[0.1, Infinity]")}},
         "mc.tau_list:"),
        ({**REFERENCE, "mc": {"points": [0, -2]}}, "mc.points:"),
        ({**REFERENCE, "mc": {"k": "top"}}, "mc.k:"),
        ({**REFERENCE, "analysis": {"p_list": [1.0]}}, "analysis.p_list:"),
        ({**REFERENCE, "analysis": {"p_list": json.loads("[Infinity]")}},
         "analysis.p_list:"),
        ({**REFERENCE, "analysis": {"p_list": json.loads("[2.0, NaN]")}},
         "analysis.p_list:"),
        ({**REFERENCE, "analysis": {"n_random_functions": 0}},
         "analysis.n_random_functions:"),
        ({**REFERENCE, "extra": 1}, "config:"),
        ({**REFERENCE, "mc": {"n": 5000}}, "mc:"),
        ({**REFERENCE, "analysis": {"p_lst": [3]}}, "analysis:"),
        ({**REFERENCE, "seed": True}, "seed:"),
        ({**REFERENCE, "distinguished": True}, "distinguished:"),
        ({**REFERENCE, "mc": {"N": True}}, "mc.N:"),
        ({**REFERENCE, "mc": {"points": [False]}}, "mc.points:"),
        ({**REFERENCE, "mc": {"k": True}}, "mc.k:"),
        ({**REFERENCE, "mc": {"tau_list": [True]}}, "mc.tau_list:"),
        ({**REFERENCE, "analysis": {"n_random_functions": True}},
         "analysis.n_random_functions:"),
        # two entries that would share a report name: p2 three times over
        # in the bounds table, x0_tau0.1 twice in the boundary entries
        ({**REFERENCE, "analysis": {"p_list": [2.0, 2.0000001]}},
         "analysis.p_list: entries 2.0 and 2.0000001 share the report "
         "name 'p2'"),
        ({**REFERENCE, "analysis": {"p_list": [1.5, 2, 2.0]}},
         "analysis.p_list:"),
        ({**REFERENCE, "mc": {"tau_list": [0.1, 0.1000001]}},
         "mc.tau_list: entries 0.1 and 0.1000001 share the report "
         "name 'tau0.1'"),
        ({**REFERENCE, "mc": {"points": [0, 1, 0]}},
         "mc.points: entries 0 and 0 share the report name 'x0'"),
    ]
    for doc, prefix in bad:
        with pytest.raises(ConfigError) as e:
            PipelineConfig.from_json(doc)
        assert str(e.value).startswith(prefix), (doc, str(e.value))


def test_strict_product_violation_is_a_config_error():
    cfg = small_config(
        space={"kind": "geometric_line", "levels": 3, "delta": 0.01},
        delta=0.01, checks=[])
    with pytest.raises(ConfigError) as e:
        run_pipeline(cfg)
    assert str(e.value).startswith("delta:")


def test_build_failures_carry_the_stage_name():
    # the descriptor shape passes config validation but no such generator
    # exists,
    # so the failure surfaces in the space stage
    cfg = small_config(space={"kind": "moebius_strip"}, checks=[])
    with pytest.raises(BuildError) as e:
        run_pipeline(cfg)
    assert "stage space" in str(e.value)


def test_checks_report_and_continue_on_precondition_errors():
    # exploratory hierarchies cannot back a boundary decay estimate; the
    # check must come back failed while the rest of the run completes
    cfg = small_config(
        space={"kind": "geometric_line", "levels": 3, "delta": 0.01},
        delta=0.01, mode="exploratory", checks=["net", "mc_boundary"])
    report = run_pipeline(cfg)
    assert report.checks["net"]["passed"]
    assert not report.checks["mc_boundary"]["passed"]
    note = report.checks["mc_boundary"]["checks"][0]["note"]
    assert "PreconditionFail" in note
    assert not report.passed


def test_emit_json_round_trips(tmp_path):
    report = run_pipeline(small_config(checks=["net", "mc_boundary"]))
    paths = emit_report(report, "json", str(tmp_path))
    assert [p.endswith("report.json") for p in paths] == [True]
    with open(paths[0]) as fh:
        assert json.load(fh) == json.loads(json.dumps(report.to_json()))


def test_emit_csv_schema(tmp_path):
    report = run_pipeline(small_config(checks=["mc_boundary", "analysis"]))
    paths = emit_report(report, "csv", str(tmp_path))
    names = sorted(p.rsplit("/", 1)[1] for p in paths)
    assert names == ["boundary.csv", "bounds.csv", "maximal.csv"]
    with open(tmp_path / "boundary.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# cubeforge-report v1"
    assert lines[1] == "x,k,tau,N,hits,p_hat,wilson_upper,bound_C2_tau_eta,pass"
    assert len(lines) == 2 + 3  # one row per tau
    assert all(line.endswith("true") for line in lines[2:])


def test_boundary_entries_and_rows_say_what_they_tested():
    # the entries' details and the table rows are the same documents; they
    # add the level's cube count and whether C_2 * tau**eta is vacuous,
    # while the CSV keeps its v1 columns (test_emit_csv_schema)
    report = run_pipeline(small_config(checks=["mc_boundary"]))
    rows = report.tables["boundary"]
    assert [c["details"] for c in report.checks["mc_boundary"]["checks"]] \
        == rows
    assert [(r["cubes"], r["vacuous"]) for r in rows] == [(1, True)] * 3
    assert all(r["bound_C2_tau_eta"] >= 1 for r in rows)


def test_emit_handles_empty_reports(tmp_path):
    report = RunReport(config={})
    for path in emit_report(report, "csv", str(tmp_path)):
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "# cubeforge-report v1"
        assert len(lines) == 2  # version comment + column header
    paths = emit_report(report, "json", str(tmp_path))
    with open(paths[0]) as fh:
        doc = json.load(fh)
    assert doc["passed"] and doc["checks"] == {}


def test_emit_rejects_unknown_formats(tmp_path):
    with pytest.raises(ConfigError):
        emit_report(RunReport(config={}), "xml", str(tmp_path))


def test_run_pipeline_writes_artifacts(tmp_path):
    report = run_pipeline(small_config(checks=[]), out_dir=str(tmp_path))
    assert set(report.artifacts) == {"space", "hierarchy", "family",
                                     "report"}
    for path in report.artifacts.values():
        with open(path) as fh:
            json.load(fh)


# -- write_json against the stdlib's indented dump -------------------------


def stdlib_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def assert_same_text(got: str, want: str):
    """`got == want`, failing with the first difference: pytest's own diff
    of two long texts takes minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"texts differ at offset {at} (lengths {len(got)}, "
                    f"{len(want)}): {got[at - 40:at + 40]!r} != "
                    f"{want[at - 40:at + 40]!r}")


def written(path, doc, end="") -> str:
    write_json(str(path), doc, end=end)
    with open(path) as fh:
        return fh.read()


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=False).map(np.float64), st.text(max_size=8))


@st.composite
def long_lists(draw):
    """An int, float or bool list up to three write chunks long, the float
    ones maybe holding a non-finite value."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    size = draw(st.integers(1, 3 * pipeline._CHUNK))
    kind = draw(st.sampled_from(["int", "float", "bool"]))
    if kind == "int":
        return rng.integers(-10 ** 12, 10 ** 12, size).tolist()
    if kind == "bool":
        return (rng.random(size) < 0.5).tolist()
    values = (rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size))
    if draw(st.booleans()):
        values[draw(st.integers(0, size - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    return values.tolist()


NESTS = st.recursive(
    st.one_of(SCALARS, st.lists(st.integers(), max_size=6),
              st.lists(st.floats(), max_size=6),
              st.lists(st.booleans(), max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        st.dictionaries(st.integers(-5, 5), inner, max_size=3)),
    max_leaves=24)


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(nest=NESTS, shared=st.lists(NESTS, min_size=1, max_size=3),
       long=st.one_of(st.none(), long_lists()))
def test_write_json_matches_the_stdlib_dump(tmp_path_factory, nest, shared,
                                            long):
    # `shared` and `nest` sit at two depths each, as a family's shared
    # levels sit under every system that holds them
    doc = {"nest": nest, "shared": shared,
           "deeper": [{"again": [shared, nest]}, long]}
    path = tmp_path_factory.mktemp("json") / "doc.json"
    assert_same_text(written(path, doc), stdlib_text(doc))
    assert_same_text(written(path, doc, end="\n"), stdlib_text(doc) + "\n")


def family_from_config(doc):
    space = generate_space(doc["space"])
    hier = build_reference_hierarchy(space, doc["delta"], mode=doc["mode"],
                                     distinguished=doc.get("distinguished"))
    return space, hier, build_adjacent_family(
        build_labels(hier), distinguished=doc.get("distinguished"))


def cloud_config(seed):
    return {"space": {"kind": "euclidean_cloud", "n": 100, "dim": 2,
                      "box": 20.0, "seed": seed},
            "delta": DELTA, "mode": "strict", "seed": seed, "checks": []}


@pytest.mark.parametrize("doc", [
    dict(REFERENCE, checks=[]),
    dict(REFERENCE, checks=[], distinguished=0),
    cloud_config(40), cloud_config(72)],
    ids=["line", "pinned-line", "cloud40", "cloud72"])
def test_artifacts_are_the_stdlib_dump(tmp_path, doc):
    report = run_pipeline(PipelineConfig.from_json(doc), str(tmp_path))
    for name, built in zip(("space", "hierarchy", "family"),
                           family_from_config(doc)):
        with open(report.artifacts[name]) as fh:
            assert_same_text(fh.read(), stdlib_text(built.to_json()))
    with open(report.artifacts["report"]) as fh:
        text = fh.read()
    assert_same_text(text, stdlib_text(json.loads(text)) + "\n")


def test_sampled_family_is_the_stdlib_dump(tmp_path):
    _, _, fam = family_from_config(cloud_config(7))
    sampler = OmegaSampler(fam.labeled, "adjacent_refined", seed=5)
    doc = sampler.realize_family(sampler.draw(0)).to_json()
    assert_same_text(written(tmp_path / "family.json", doc), stdlib_text(doc))


def test_write_json_frees_what_it_made(tmp_path):
    # nothing it builds may wait for the cyclic collector
    doc = family_from_config(cloud_config(40))[2].to_json()
    path = str(tmp_path / "family.json")
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_json(path, doc)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert after - before < 64 * 1024
