import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qwreath
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


def corrupted_file(tmp_path) -> str:
    """A preset file whose PBW report fails: delta00 and delta11 both 1⊗1
    break the mixed-component condition."""
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps({
        "name": "corrupted",
        "field": {"kind": "rational"},
        "algebra": {"kind": "ground"},
        "delta": {"00": [[["1", "1"], "1"]], "11": [[["1", "1"], "1"]]},
        "alpha": [[["1", "1"], "1"]],
    }))
    return str(path)


def test_failed_report_exits_one(tmp_path, capsys):
    assert main(["pbw", corrupted_file(tmp_path), "--degree", "1", "--json"]) == 1
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


@pytest.mark.parametrize("passing", (True, False))
def test_closed_pipe_keeps_the_report_exit_code(tmp_path, passing):
    """The console run writing into a pipe whose reader has already gone:
    no traceback on stderr, and the exit code is the report's own."""
    spec = "degenerate" if passing else corrupted_file(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(qwreath.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "qwreath.cli", "pbw", spec, "--degree", "1", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert run.returncode == (0 if passing else 1)
    assert run.stderr == b""


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_pipe_at_the_print_is_not_a_failed_check(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["validate", "degenerate", "--degree", "1", "--json"]) == 0
    # stdout now points at devnull: later writes, and the flush at exit, pass
    print("after the pipe closed", flush=True)
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["pbw", corrupted_file(tmp_path), "--degree", "1"]) == 1
    sys.stdout.close()
