import json

import pytest

from cubeforge.cli import main
from cubeforge.errors import ConfigError
from cubeforge.nets import build_reference_hierarchy
from cubeforge.space import generate_space

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
