import json

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


def test_negative_degree_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "degenerate", "--degree", "-1"])
    assert exc.value.code == 2
