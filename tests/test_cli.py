"""Command-line front end: JSON contracts, exit codes, determinism."""

import json

import numpy as np
import pytest

from caliber.calib import Plane
from caliber.cli import run
from caliber.exterior import form_to_json
from caliber.model import build_hyperkahler_cone, make_W_theta
from caliber.suites import coverage_table, run_suite


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_forms_list_json(capsys):
    code, out, _ = invoke(capsys, "forms", "list", "--space", "cone", "--n", "1")
    assert code == 0
    data = json.loads(out)
    names = {f["name"] for f in data["forms"]}
    assert {"omega1", "sigma1", "upsilon1", "theta_I4", "Phi2", "Lambda"} <= names
    entry = next(f for f in data["forms"] if f["name"] == "sigma1")
    assert entry["scalar_kind"] == "complex" and entry["degree"] == 2


def test_forms_dump_schema(capsys):
    code, out, _ = invoke(capsys, "forms", "dump", "--name", "omega1", "--n", "1")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 8 and data["degree"] == 2
    assert all(t["indices"] == sorted(t["indices"]) for t in data["terms"])
    assert data["space"] == "cone"


def test_comass_named_form(capsys):
    code, out, _ = invoke(capsys, "comass", "--form", "theta_I4", "--n", "1",
                          "--restarts", "60", "--seed", "7")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"] - 1.0) <= 1e-6
    assert data["restarts_used"] == 60
    assert 0.0 <= data["converged_fraction"] <= 1.0


def test_comass_form_file(tmp_path, capsys):
    f = build_hyperkahler_cone(1).form("omega1").to_float()
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form_to_json(f)))
    code, out, _ = invoke(capsys, "comass", "--form", str(path), "--restarts", "40", "--seed", "0")
    assert code == 0
    assert abs(json.loads(out)["value"] - 1.0) <= 1e-6


def test_comass_unknown_form_exits_2(capsys):
    code, _, err = invoke(capsys, "comass", "--form", "nope", "--n", "1")
    assert code == 2
    assert "nope" in err


def test_comass_explore_envelope(capsys):
    code, out, _ = invoke(capsys, "comass", "--form", "theta_I4", "--n", "1",
                          "--restarts", "40", "--seed", "1", "--explore-envelope")
    assert code == 0
    counts = json.loads(out)["envelope_report"]["quaternionic_span_dim_counts"]
    assert sum(counts.values()) > 0
    assert set(counts) == {"8"}  # maximizers sit inside quaternionic 2-planes


def test_classify_quaternion_line(tmp_path, capsys):
    plane = Plane.from_vectors(np.eye(8)[:4])
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(plane.to_json()))
    code, out, _ = invoke(capsys, "classify", "--space", "cone", "--n", "1", "--plane", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["flags"]["cayley_Phi2"]["flag"] is True


def test_normalform_subcommand(tmp_path, capsys):
    plane = make_W_theta(1, 0.3)
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(plane.to_json()))
    code, out, _ = invoke(capsys, "normalform", "--n", "1", "--plane", str(path))
    assert code == 0
    assert json.loads(out)["theta"] == pytest.approx(0.3, abs=1e-10)


def test_normalform_rejects_uncalibrated(tmp_path, capsys):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(Plane.from_vectors(np.eye(6)[:3]).to_json()))
    code, _, err = invoke(capsys, "normalform", "--n", "1", "--plane", str(path))
    assert code == 2 and "calibrated" in err


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "cones", "--n", "1", "--no-timing")
    assert code == 0
    data = json.loads(out)
    assert data["overall"] == "pass"
    assert all(c["status"] == "pass" for c in data["checks"])
    assert data["coverage"] == {"cones": coverage_table()["cones"]}


def test_verify_unsupported_n_exits_2(capsys):
    code, _, err = invoke(capsys, "verify", "--suite", "identities", "--n", "4")
    assert code == 2 and "--n must be in 1..3" in err


def test_unknown_flag_exits_2(capsys):
    code, out, err = invoke(capsys, "comass", "--form", "omega1", "--bogus")
    _assert_usage_error(code, err)
    assert out == "" and "unrecognized arguments: --bogus" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "cones", "--space", "link"),
    ("normalform", "--space", "twistor", "--plane", "plane.json"),
])
def test_space_where_the_command_does_not_read_it_exits_2(capsys, argv):
    # only forms, comass and classify read --space
    code, out, err = invoke(capsys, *argv)
    _assert_usage_error(code, err)
    assert out == "" and "unrecognized arguments: --space" in err


def test_comass_space_selects_the_model(capsys):
    # theta_I3 is a link form only; --space link finds it, --space cone does not
    code, out, _ = invoke(capsys, "comass", "--form", "theta_I3", "--space", "link", "--restarts", "5")
    assert code == 0 and json.loads(out)["restarts_used"] == 5
    code, _, err = invoke(capsys, "comass", "--form", "theta_I3", "--space", "cone", "--restarts", "5")
    _assert_usage_error(code, err)


def test_verify_byte_identical_reruns(capsys):
    args = ["verify", "--suite", "normalform", "--n", "1", "--samples", "5",
            "--seed", "3", "--no-timing"]
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_check_ids_sorted(capsys):
    _, out, _ = invoke(capsys, "verify", "--suite", "cones", "--n", "1", "--no-timing")
    ids = [c["id"] for c in json.loads(out)["checks"]]
    assert ids == sorted(ids)


def test_phase_scan_subcommand(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "phase-scan", "--n", "1", "--restarts", "40")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 9
    assert rows[0]["max_value"] == pytest.approx(1.0, abs=1e-6)


def test_coverage_table_stable():
    table = coverage_table()
    assert table == coverage_table()
    assert all(ids == sorted(ids) for ids in table.values())


def _assert_usage_error(code, err):
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_comass_n_out_of_range_exits_2(capsys):
    code, _, err = invoke(capsys, "comass", "--form", "theta_I4", "--n", "4")
    _assert_usage_error(code, err)
    assert "--n" in err


def test_comass_k_mismatch_exits_2(capsys):
    code, _, err = invoke(capsys, "comass", "--form", "omega1", "--n", "1", "--k", "3")
    _assert_usage_error(code, err)
    assert "k=3" in err


def test_comass_zero_restarts_exits_2(capsys):
    code, _, err = invoke(capsys, "comass", "--form", "theta_I4", "--n", "1", "--restarts", "0")
    _assert_usage_error(code, err)
    assert "--restarts" in err


def test_comass_degree_above_dimension_exits_2(tmp_path, capsys):
    path = tmp_path / "form.json"
    path.write_text('{"dim": 3, "degree": 4, "terms": []}')
    code, out, err = invoke(capsys, "comass", "--form", str(path))
    _assert_usage_error(code, err)
    assert out == "" and "4-form on R^3" in err


def test_forms_dump_unknown_name_exits_2(capsys):
    code, _, err = invoke(capsys, "forms", "dump", "--name", "nope")
    _assert_usage_error(code, err)
    assert "nope" in err


def test_comass_nan_form_file_exits_2(tmp_path, capsys):
    path = tmp_path / "form.json"
    path.write_text('{"dim": 4, "degree": 2, "terms": [{"indices": [0, 1], "re": NaN}]}')
    code, _, err = invoke(capsys, "comass", "--form", str(path))
    _assert_usage_error(code, err)
    assert "non-finite" in err


@pytest.mark.parametrize("text, message", [
    pytest.param('[{"dim": 4, "degree": 2, "terms": []}]', "JSON object", id="top-level-list"),
    pytest.param('{"dim": 4, "degree": 2, "terms": 5}', "terms must be a list", id="terms-number"),
    pytest.param('{"dim": 4, "degree": 2, "terms": [5]}', "JSON object", id="term-number"),
    pytest.param('{"dim": 4, "degree": 1, "terms": [{"indices": 0, "re": 1}]}', "indices must be a list",
                 id="indices-number"),
    pytest.param('{"dim": 4, "degree": 2, "terms": [{"indices": [0, 1], "re": null}]}', "not a number",
                 id="re-null"),
    pytest.param('{"dim": 4, "degree": 1, "terms": [{"indices": [0.7], "re": 1}]}', "nonnegative integer",
                 id="index-fraction"),
    pytest.param('{"dim": 4, "degree": 1, "terms": [{"indices": [-1], "re": 1}]}', "nonnegative integer",
                 id="index-negative"),
    pytest.param('{"dim": 3.9, "degree": 1, "terms": [{"indices": [0], "re": 1}]}', "nonnegative integer",
                 id="dim-fraction"),
    # each term is finite, their sum on the one blade is not
    pytest.param('{"dim": 4, "degree": 2, "terms": [{"indices": [0, 1], "re": 1e308},'
                 ' {"indices": [0, 1], "re": 1e308}]}', "non-finite", id="blade-sum-overflows"),
    pytest.param(None, "could not load form file", id="missing-file"),
    pytest.param('{"dim": 4, "degree": 2, "terms": [', "could not load form file", id="not-json"),
])
def test_comass_malformed_form_file_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "form.json"
    if text is not None:  # None: no file at the path
        path.write_text(text)
    code, out, err = invoke(capsys, "comass", "--form", str(path))
    _assert_usage_error(code, err)
    assert out == "" and message in err


def test_classify_nan_plane_exits_2(tmp_path, capsys):
    frame = np.eye(8)[:2].tolist()
    frame[1][1] = float("nan")
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"dim": 8, "frame": frame}))
    code, out, err = invoke(capsys, "classify", "--space", "cone", "--n", "1", "--plane", str(path))
    _assert_usage_error(code, err)
    assert out == "" and "non-finite" in err


@pytest.mark.parametrize("text, message", [
    pytest.param(json.dumps(np.eye(8)[:2].tolist()), "JSON object", id="top-level-list"),
    pytest.param(json.dumps({"dim": 8, "frame": {"rows": 2}}), "array of numbers", id="frame-object"),
    pytest.param(None, "could not load plane file", id="missing-file"),
    pytest.param('{"dim": 8, "frame": [', "could not load plane file", id="not-json"),
])
def test_classify_malformed_plane_exits_2(tmp_path, capsys, text, message):
    # normalform reads its plane file the same way
    path = tmp_path / "plane.json"
    if text is not None:  # None: no file at the path
        path.write_text(text)
    for command in (["classify", "--space", "cone"], ["normalform"]):
        code, out, err = invoke(capsys, *command, "--n", "1", "--plane", str(path))
        _assert_usage_error(code, err)
        assert out == "" and message in err


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "normalform", "--samples", "-3"),
    ("verify", "--suite", "normalform", "--samples", "0"),
    ("verify", "--suite", "calibrations", "--restarts", "-1"),
    ("verify", "--suite", "propositions", "--restarts", "0"),
    ("verify", "--suite", "phase-scan", "--restarts", "0"),
    ("verify", "--suite", "phase-scan", "--samples", "-5", "--restarts", "3"),
])
def test_verify_nonpositive_counts_exit_2(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    _assert_usage_error(code, err)
    assert out == "" and "at least 1" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "identities", "--samples", "3"),
    ("verify", "--suite", "cones", "--restarts", "2"),
    ("verify", "--suite", "calibrations", "--samples", "5"),
    ("verify", "--suite", "normalform", "--restarts", "999999"),
    ("verify", "--suite", "phase-scan", "--samples", "7"),
])
def test_verify_unused_count_exits_2(capsys, argv):
    # a count the suite does not read is an error, not silently dropped
    code, out, err = invoke(capsys, *argv)
    _assert_usage_error(code, err)
    assert out == "" and f"does not use {argv[-2][2:]}" in err


def test_classify_dimension_mismatch_exits_2(tmp_path, capsys):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(Plane.from_vectors(np.eye(10)[:2]).to_json()))
    code, out, err = invoke(capsys, "classify", "--space", "cone", "--n", "1", "--plane", str(path))
    _assert_usage_error(code, err)
    assert out == "" and "dimension mismatch" in err


@pytest.mark.parametrize("command,tol", [
    ("classify", "nan"),
    ("classify", "-1"),
    ("classify", "0"),
    ("classify", "inf"),
    ("comass", "nan"),
    ("normalform", "nan"),
])
def test_nonfinite_or_nonpositive_tol_exits_2(tmp_path, capsys, command, tol):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(make_W_theta(1, 0.3).to_json()))
    target = {
        "classify": ("--space", "twistor", "--plane", str(path)),
        "comass": ("--form", "theta_I4"),
        "normalform": ("--plane", str(path)),
    }[command]
    code, out, err = invoke(capsys, command, "--n", "1", "--tol", tol, *target)
    _assert_usage_error(code, err)
    assert out == "" and "--tol" in err


@pytest.mark.parametrize("argv", [
    ("comass", "--form", "omega1", "--seed", "-5"),
    ("verify", "--suite", "phase-scan", "--seed", "-1"),
    ("verify", "--suite", "propositions", "--seed", "-1"),
    ("verify", "--suite", "normalform", "--samples", "1", "--seed", "-2"),
])
def test_negative_seed_exits_2(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    _assert_usage_error(code, err)
    assert out == "" and f"--seed must be non-negative, got {argv[-1]}" in err


def test_run_suite_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        run_suite("propositions", 1, seed=-1, samples=1, restarts=1)


def test_classify_declared_dim_mismatch_exits_2(tmp_path, capsys):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"dim": 8, "frame": np.eye(6)[:2].tolist()}))
    code, out, err = invoke(capsys, "classify", "--space", "twistor", "--n", "1", "--plane", str(path))
    _assert_usage_error(code, err)
    assert out == "" and "declared dim 8" in err


def test_normalform_plane_of_wrong_dimension_exits_2(tmp_path, capsys):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(Plane.from_vectors(np.eye(12)[:3]).to_json()))
    code, out, err = invoke(capsys, "normalform", "--n", "1", "--plane", str(path))
    _assert_usage_error(code, err)
    assert out == "" and "dimension mismatch" in err
