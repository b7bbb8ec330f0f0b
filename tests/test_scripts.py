"""The scripts in scripts/: bad arguments fail once, with exit 2, before
any work is done."""

import pathlib
import runpy
import sys

import pytest

import gha
from gha.structure import IsoVerdict

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    """(exit code, stdout, stderr) of scripts/<name> run with argv."""
    monkeypatch.setattr(sys, "argv", [name, *argv])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--samples", "0"], "--samples must be at least 1"),
        (["--samples", "-1"], "--samples must be at least 1"),
        (["--max-dim", "0"], "--max-dim must be at least 1"),
    ],
)
def test_census_refuses_bad_arguments(monkeypatch, capsys, argv, message):
    code, out, err = run_script(monkeypatch, capsys, "simple_module_census.py", "--fs", "h^2", *argv)
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and message in err


def test_census_row(monkeypatch, capsys):
    code, out, _ = run_script(
        monkeypatch, capsys, "simple_module_census.py", "--max-dim", "1", "--fs", "h^2", "--samples", "1"
    )
    assert code == 0
    assert out.startswith("f = h^2\n  n=1:   6 families (cyclic_x 2, cyclic_y 2, nilpotent_x 2)")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-degree", "1"], "--max-degree must be at least 2"),
        (["--max-degree", "0"], "--max-degree must be at least 2"),
        (["--trials", "-3"], "--trials must be nonnegative"),
        (["--grid", "-1"], "--grid must be nonnegative"),
    ],
)
def test_survey_refuses_bad_arguments(monkeypatch, capsys, argv, message):
    code, out, err = run_script(monkeypatch, capsys, "isomorphism_survey.py", *argv)
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and message in err


def test_survey_smallest_run(monkeypatch, capsys):
    # the second pair has an irrational scale, so its witness is numeric
    code, out, _ = run_script(
        monkeypatch, capsys, "isomorphism_survey.py", "--trials", "2", "--max-degree", "3", "--grid", "1"
    )
    assert code == 0
    assert "conjugate pairs: 2/2 recognized, 1 numeric witnesses, 0 witness failures" in out
    assert "linear zoo on a*h + b, a,b in [-1, 1]: 6 algebras, 3 classes" in out


def test_survey_exits_1_on_a_missed_conjugate(monkeypatch, capsys):
    monkeypatch.setattr(gha, "iso_check", lambda f1, f2: IsoVerdict(False, detail="no"))
    code, out, _ = run_script(
        monkeypatch, capsys, "isomorphism_survey.py", "--trials", "2", "--max-degree", "2", "--grid", "0"
    )
    assert code == "2 isomorphism checks failed"
    assert out.count("MISSED CONJUGATE") == 2
