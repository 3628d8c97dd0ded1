import hashlib
import json

import pytest

from cubeforge.adjacent import build_adjacent_family
from cubeforge.cli import main
from cubeforge.errors import ConfigError
from cubeforge.labeling import build_labels
from cubeforge.nets import build_reference_hierarchy
from cubeforge.pipeline import PipelineConfig
from cubeforge.space import QuasiMetricSpace, generate_space

DELTA = 1.0 / 144.0


def write_config(tmp_path, **overrides):
    doc = {
        "space": {"kind": "geometric_line", "levels": 3, "delta": DELTA},
        "delta": DELTA,
        "mode": "strict",
        "seed": 11,
        "checks": ["net", "cubes"],
        "mc": {"N": 1000, "tau_list": [0.1, 0.01, 0.001], "points": [0]},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_exits_zero_and_writes_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert str(out / "report.json") in stdout
    with open(out / "report.json") as fh:
        report = json.load(fh)
    assert report["passed"]
    assert set(report["checks"]) == {"net", "cubes"}


def test_csv_format_emits_versioned_tables(tmp_path, capsys):
    cfg = write_config(tmp_path, checks=["mc_boundary"])
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--format", "csv"]) == 0
    capsys.readouterr()
    for name in ("boundary.csv", "bounds.csv", "maximal.csv"):
        first = (out / name).read_text().splitlines()[0]
        assert first == "# cubeforge-report v1"
    rows = (out / "boundary.csv").read_text().splitlines()
    assert len(rows) == 5  # version, header, three tau rows


def test_failed_check_exits_one_with_summary(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        space={"kind": "geometric_line", "levels": 3, "delta": 0.01},
        delta=0.01, mode="exploratory", checks=["mc_boundary"])
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["passed"] is False
    assert "mc_boundary" in err["failed_checks"]


def test_config_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["verify", "--config", missing]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ConfigError"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad)]) == 2
    assert json.loads(capsys.readouterr().err)["type"] == "ConfigError"

    invalid = write_config(tmp_path, mode="warp")
    assert main(["verify", "--config", invalid]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"].startswith("mode:")

    # a --seed override is validated with the rest of the config
    for seed in ("-1", str(2 ** 64)):
        assert main(["sample", "--config", write_config(tmp_path),
                     "--out", str(tmp_path / "o"), "--seed", seed]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["type"], err["error"][:5]) == ("ConfigError", "seed:")

    # Monte Carlo parameters the estimators refuse are refused with the
    # config, not later as a failed mc_boundary entry (exit 1)
    for mc, field in (({"N": 999}, "mc.N:"),
                      ({"tau_list": [float("nan")]}, "mc.tau_list:")):
        assert main(["mc-boundary", "--config", write_config(tmp_path, mc=mc),
                     "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ConfigError"
        assert err["error"].startswith(field)

    # lists whose entries would share a report name
    for command, extra, field in (
            ("mc-boundary", {"mc": {"tau_list": [0.1, 0.1000001]}},
             "mc.tau_list:"),
            ("mc-boundary", {"mc": {"points": [0, 0]}}, "mc.points:"),
            ("analyze", {"analysis": {"p_list": [2.0, 2.0000001]}},
             "analysis.p_list:")):
        assert main([command, "--config", write_config(tmp_path, **extra),
                     "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ConfigError"
        assert err["error"].startswith(field)


def test_stage_failure_exits_two_with_build_error(tmp_path, capsys):
    cfg = write_config(tmp_path, space={"kind": "torus"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "run"
    assert err["type"] == "BuildError"
    assert err["error"].startswith("stage space:")


def test_out_of_range_distinguished_exits_two(tmp_path, capsys):
    space = generate_space({"kind": "geometric_line", "levels": 3,
                            "delta": DELTA})
    with pytest.raises(ConfigError, match="distinguished id 999"):
        build_reference_hierarchy(space, DELTA, distinguished=999)
    cfg = write_config(tmp_path, distinguished=999)
    assert main(["build-nets", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "build-nets"
    assert err["type"] == "ConfigError"


def test_out_of_range_mc_point_fails_the_check(tmp_path, capsys):
    cfg = write_config(tmp_path, mc={"N": 1000, "tau_list": [0.1],
                                     "points": [999]})
    out = tmp_path / "out"
    assert main(["mc-boundary", "--config", cfg, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["failed_checks"] == \
        {"mc_boundary": ["run"]}
    with open(out / "report.json") as fh:
        (entry,) = json.load(fh)["checks"]["mc_boundary"]["checks"]
    assert entry["note"].startswith("PreconditionFail: point 999 outside")


def test_build_commands_write_their_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    expected = {"gen-space": "space.json", "build-nets": "hierarchy.json",
                "build-system": "system.json",
                "build-adjacent": "family.json", "sample": "sample.json"}
    for cmd, artifact in expected.items():
        out = tmp_path / cmd
        assert main([cmd, "--config", cfg, "--out", str(out)]) == 0
        assert (out / artifact).exists()
        with open(out / artifact) as fh:
            json.load(fh)
    capsys.readouterr()


def test_gen_space_output_loads_back(tmp_path, capsys):
    space_doc = {"kind": "euclidean_cloud", "n": 40, "dim": 2, "box": 20.0,
                 "seed": 5}
    cfg = write_config(tmp_path, space=space_doc)
    out = tmp_path / "out"
    assert main(["gen-space", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "space.json") as fh:
        doc = json.load(fh)
    assert "distances" not in doc
    space, back = generate_space(space_doc), QuasiMetricSpace.from_json(doc)
    assert back.table.tobytes() == space.table.tobytes()
    assert back.profile == space.profile


# sha256 of system.json: system 1 as the full family builds it
SYSTEM_ONE = {
    "line": ({}, "bcd7953ecd6557afa72a1325188427c991b7343c2370cd31d7cfdc95a0a"
                 "3523d"),
    "pinned-line": ({"distinguished": 0}, "bcd7953ecd6557afa72a1325188427c991b"
                                          "7343c2370cd31d7cfdc95a0a3523d"),
    "pinned-cloud": ({"space": {"kind": "euclidean_cloud", "n": 40, "dim": 2,
                                "box": 20.0, "seed": 5},
                      "seed": 5, "distinguished": 7},
                     "fd1aafa9bc9fdc38a9288a63f38be617f663b782c5bc27fc2a7532752"
                     "cff811b"),
}


@pytest.mark.parametrize("name", SYSTEM_ONE)
def test_build_system_writes_the_familys_first_system(tmp_path, capsys, name):
    overrides, digest = SYSTEM_ONE[name]
    cfg = write_config(tmp_path, checks=[], **overrides)
    out = tmp_path / "out"
    assert main(["build-system", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    data = (out / "system.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    with open(cfg) as fh:
        doc = PipelineConfig.from_json(json.load(fh))
    hier = build_reference_hierarchy(generate_space(doc.space), DELTA,
                                     distinguished=doc.distinguished)
    family = build_adjacent_family(build_labels(hier),
                                   distinguished=doc.distinguished)
    assert json.loads(data) == family.system(1).to_json()


def test_sample_is_seed_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["sample", "--config", cfg, "--out", str(a)]) == 0
    assert main(["sample", "--config", cfg, "--out", str(b)]) == 0
    assert main(["sample", "--config", cfg, "--out", str(c),
                 "--seed", "999"]) == 0
    capsys.readouterr()
    assert (a / "sample.json").read_text() == (b / "sample.json").read_text()
    assert (a / "sample.json").read_text() != (c / "sample.json").read_text()
    d = tmp_path / "d"
    assert main(["sample", "--config", write_config(tmp_path, seed=999),
                 "--out", str(d)]) == 0
    capsys.readouterr()
    assert (c / "sample.json").read_text() == (d / "sample.json").read_text()


def test_verify_defaults_to_all_checks(tmp_path, capsys):
    cfg = write_config(tmp_path, checks=[],
                       analysis={"p_list": [2.0], "n_random_functions": 2})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "report.json") as fh:
        report = json.load(fh)
    assert set(report["checks"]) == {"net", "cubes", "covering",
                                     "mc_boundary", "chain", "analysis"}


def test_subcommand_check_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, checks=["net"])
    out = tmp_path / "mc"
    assert main(["mc-boundary", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "report.json") as fh:
        assert set(json.load(fh)["checks"]) == {"mc_boundary"}
    out2 = tmp_path / "an"
    assert main(["analyze", "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    with open(out2 / "report.json") as fh:
        assert set(json.load(fh)["checks"]) == {"analysis"}
