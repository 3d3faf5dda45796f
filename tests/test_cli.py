import json
from pathlib import Path

import pytest

from qwreath.cli import main


def test_validate_prints_a_passing_json_report(capsys):
    assert main(["validate", "degenerate", "--degree", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["title"] == "pqwp axioms [degenerate]"
    assert {row["rule"] for row in report["results"]} >= {"A1", "C1", "C3"}


def test_pbw_text_report(capsys):
    assert main(["pbw", "degenerate", "--degree", "1"]) == 0
    assert capsys.readouterr().out.startswith("pbw conditions [degenerate]")


@pytest.mark.parametrize("command", ("validate", "pbw"))
def test_unknown_preset_exits_nonzero(command, capsys):
    assert main([command, "no_such_preset", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no_such_preset" in captured.err


def test_stub_preset_and_bad_file_exit_nonzero(tmp_path, capsys):
    assert main(["validate", "rees"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"variant": "sideways"}')
    assert main(["validate", str(bad)]) == 2
    assert main(["pbw", str(tmp_path / "missing.json")]) == 2


def test_failed_report_exits_one(tmp_path, capsys):
    # delta00 and delta11 both 1⊗1 breaks the mixed-component condition
    data = {
        "name": "corrupted",
        "field": {"kind": "rational"},
        "algebra": {"kind": "ground"},
        "delta": {"00": [[["1", "1"], "1"]], "11": [[["1", "1"], "1"]]},
        "alpha": [[["1", "1"], "1"]],
    }
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(data))
    assert main(["pbw", str(path), "--degree", "1", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


WREATH_S3 = (Path(__file__).resolve().parent / "data" / "wreath_s3.toml").read_text()


@pytest.mark.parametrize("old, new, failing", [
    # alpha = s⊗1 over k[S_3] is not central, and neither is R = s⊗s
    ('alpha = [[["1", "1"], "1"]]', 'alpha = [[["s", "1"], "1"]]',
     {"A1": "R = s⊗s not central", "C1": "stated R = 1⊗1",
      "C2": "alpha = s⊗1 not central"}),
    # delta00 = s⊗t is neither weak Frobenius nor central, and its beta
    # breaks beta - flip(beta) = S*(x1-x2)
    ('r = [[["1", "1"], "1"]]\n',
     'r = [[["1", "1"], "1"]]\n[delta]\n"00" = [[["s", "t"], "1"]]\n',
     {"A2": "delta00 = s⊗t not weak Frobenius",
      "A3": "beta - flip(beta) differs from S*(x1-x2)",
      "C2": "delta00 not central"}),
])
def test_validate_fails_a_broken_table_pack(tmp_path, capsys, old, new, failing):
    """wreath_s3.toml with one entry changed: validate exits with 1 and the
    JSON report names each failing rule with its witness."""
    assert old in WREATH_S3
    path = tmp_path / "broken.toml"
    path.write_text(WREATH_S3.replace(old, new))
    assert main(["validate", str(path), "--degree", "1", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    rows = {row["rule"]: row for row in report["results"]}
    assert {rule for rule, row in rows.items()
            if row["status"] == "fail"} == set(failing)
    for rule, witness in failing.items():
        assert witness in rows[rule]["witness"]


def test_negative_degree_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "degenerate", "--degree", "-1"])
    assert exc.value.code == 2
