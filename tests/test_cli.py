"""CLI behavior: exit codes, JSON shape, golden outputs."""

import json
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from gha import cli, schemas
from gha.cli import main
from gha.config import CONFIG

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestNormalize:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "normalize", "-f", "h^2", "-e", "y*x")
        assert code == 0
        assert out.strip() == "x*y + h^2 + (-1)*h"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "--json", "normalize", "-f", "h^2", "-e", "y*x")
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.NORMALIZE_SCHEMA)
        assert doc["normal_form"] == "x*y + h^2 + (-1)*h"

    def test_commutator_shorthand(self, capsys):
        code, out, _ = run(capsys, "normalize", "-f", "h^2", "-e", "y*x - x*y")
        assert out.strip() == "h^2 + (-1)*h"

    def test_z_definition(self, capsys):
        code, out, _ = run(capsys, "normalize", "-f", "h^2", "-e", "z - (x*y - h)")
        assert out.strip() == "0"


class TestCentral:
    def test_positive(self, capsys):
        code, out, _ = run(capsys, "central", "-f", "zeta(3)*h", "-e", "x^3")
        assert code == 0 and out.strip() == "true"

    def test_negative_shows_commutator(self, capsys):
        code, out, _ = run(capsys, "central", "-f", "zeta(3)*h", "-e", "x")
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0] == "false"
        assert "[" in lines[1] and "=" in lines[1]

    def test_json_validates(self, capsys):
        code, out, _ = run(capsys, "--json", "central", "-f", "h^2", "-e", "x*y - h")
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.CENTRAL_SCHEMA)
        assert doc["central"] is True and doc["failing"] is None


class TestJsonShapes:
    def test_center(self, capsys):
        _, out, _ = run(capsys, "center", "-f", "h^2")
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.CENTER_SCHEMA)
        assert doc["case"] == "trivial-Cz"

    def test_iso(self, capsys):
        code, out, _ = run(capsys, "iso", "-f1", "h+1", "-f2", "h+5")
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.ISO_SCHEMA)
        assert code == 0 and doc["isomorphic"]

    def test_simples(self, capsys):
        code, out, _ = run(capsys, "--conductor", "3", "simples", "-f", "h^2", "-n", "2")
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.FAMILIES_SCHEMA)
        assert code == 0 and doc["count"] == 5

    def test_build_verify_classify_pipeline(self, capsys, tmp_path):
        desc = {"variant": "nilpotent_x", "zdot": "1", "n": 4}
        code, out, _ = run(capsys, "build", "-f", "zeta(4)*h", "--descriptor", json.dumps(desc))
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.MODULE_SCHEMA)

        mod_file = tmp_path / "mod.json"
        mod_file.write_text(out)
        code, out, _ = run(capsys, "verify", "-f", "zeta(4)*h", "--module", str(mod_file))
        assert code == 0 and "relations ok" in out

        code, out, _ = run(capsys, "--json", "verify", "-f", "zeta(4)*h", "--module", str(mod_file))
        jsonschema.validate(json.loads(out), schemas.VERIFY_SCHEMA)

        code, out, _ = run(capsys, "classify", "-f", "zeta(4)*h", "--module", str(mod_file))
        got = json.loads(out)
        jsonschema.validate(got, schemas.CLASSIFY_SCHEMA)
        assert code == 0 and got["descriptor"] == desc


class TestExitCodes:
    def test_not_isomorphic_is_one(self, capsys):
        code, out, _ = run(capsys, "iso", "-f1", "2*h", "-f2", "3*h")
        assert code == 1
        assert json.loads(out)["isomorphic"] is False

    def test_parse_error_is_two(self, capsys):
        code, _, err = run(capsys, "normalize", "-f", "h^^2", "-e", "x")
        assert code == 2 and "error" in err

    def test_identity_f_is_two(self, capsys):
        code, _, err = run(capsys, "simples", "-f", "h", "-n", "2")
        assert code == 2

    def test_bad_descriptor_is_two(self, capsys):
        desc = {"variant": "cyclic_x", "orbit": ["1"], "zdot": "0", "a": "0"}
        code, _, err = run(capsys, "build", "-f", "h^2", "--descriptor", json.dumps(desc))
        assert code == 2 and "nonzero" in err

    def test_failed_verify_is_one(self, capsys):
        bad = {
            "schema_version": 1,
            "n": 1,
            "X": [["1"]],
            "H": [["2"]],
            "Y": [["1"]],
        }
        code, out, _ = run(capsys, "verify", "-f", "h^2", "--module", json.dumps(bad))
        assert code == 1

    def test_unclassifiable_is_one(self, capsys):
        zero2 = [["0", "0"], ["0", "0"]]
        bad = {"schema_version": 1, "n": 2, "X": zero2, "H": [["1", "0"], ["0", "2"]], "Y": zero2}
        code, _, err = run(capsys, "classify", "-f", "h^2", "--module", json.dumps(bad))
        assert code == 1 and "not classifiable" in err

    def test_empty_enumeration_is_zero(self, capsys):
        code, out, _ = run(capsys, "simples", "-f", "h^2+2*h-3/4", "-n", "2")
        assert code == 0
        assert json.loads(out)["families"] == []

    def test_missing_module_file_is_two(self, capsys):
        code, _, err = run(capsys, "verify", "-f", "h^2", "--module", "/nonexistent.json")
        assert code == 2

    def test_bad_flag_values(self, capsys):
        # "--tol=" form, because argparse reads a separate "-inf" as an option
        for tol in ("-1", "nan", "inf", "-inf"):
            code, out, err = run(capsys, f"--tol={tol}", "center", "-f", "h^2")
            assert (code, out, err) == (2, "", "error: --tol must be positive\n")
        assert run(capsys, "--conductor", "0", "center", "-f", "h^2")[0] == 2
        assert run(capsys, "simples", "-f", "h^2", "-n", "2", "--samples", "0")[0] == 2

    def test_degree_guard_is_three(self, capsys):
        code, out, err = run(capsys, "normalize", "-f", "h^2", "-e", "y^7*x^7")
        assert code == 3 and out == ""
        assert "exceeds the degree guard" in err

    def test_unparsable_json_is_two(self, capsys):
        code, out, err = run(capsys, "verify", "-f", "h^2", "--module", '{"n": ')
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_syntax_error_is_reported_before_the_degree_guard(self, capsys):
        # y^7*x^7 alone trips the degree guard (exit 3); the whole text is
        # checked for syntax before any product is computed
        code, _, err = run(capsys, "normalize", "-f", "h^2", "-e", "y^7*x^7 + (")
        assert code == 2
        assert err.startswith("error: expected a number, name, or parenthesized expression")

    def test_non_decimal_digit_is_two(self, capsys):
        code, _, err = run(capsys, "normalize", "-f", "h^\u00b2", "-e", "x")
        assert code == 2
        assert err == "error: unexpected character '\u00b2' (line 1, column 3)\n"

    def test_missing_module_key_is_named(self, capsys):
        doc = {"schema_version": 1, "n": 1, "X": [["0"]], "H": [["0"]]}
        code, _, err = run(capsys, "verify", "-f", "h^2", "--module", json.dumps(doc))
        assert code == 2
        assert err == "error: module JSON is missing 'Y'\n"

    def test_module_without_schema_version_is_accepted(self, capsys):
        doc = {"n": 1, "X": [["0"]], "H": [["0"]], "Y": [["0"]]}
        code, out, _ = run(capsys, "verify", "-f", "h^2", "--module", json.dumps(doc))
        assert code == 0 and out.startswith("relations ok")


MALFORMED_DESCRIPTORS = [
    [1],
    {"variant": "nilpotent_x", "n": 2},
    {"variant": "nilpotent_x", "zdot": "0", "n": "2"},
    {"variant": "nilpotent_x", "zdot": "0", "n": True},
    {"variant": "nilpotent_x", "zdot": "0", "n": 0},
    {"variant": "nilpotent_x", "zdot": 0, "n": 2},
    {"variant": "cyclic_x", "orbit": "1", "zdot": "0", "a": "1"},
    {"variant": "cyclic_x", "orbit": [1], "zdot": "0", "a": "1"},
    {"variant": "cyclic_y", "orbit": ["0"], "zdot": "0"},
    {"variant": "cyclic_x", "orbit": [], "zdot": "0", "a": "1"},
    {"variant": "cyclic_y", "orbit": [], "zdot": "0", "a": "1"},
]

MALFORMED_MODULES = [
    [1],
    {"n": 1, "X": [[1]], "H": [["0"]], "Y": [["0"]]},
    {"schema_version": 1, "n": "1", "X": [["0"]], "H": [["0"]], "Y": [["0"]]},
    {"schema_version": 1, "n": 0, "X": [], "H": [], "Y": []},
    {"schema_version": 1, "n": 1, "X": ["0"], "H": [["0"]], "Y": [["0"]]},
    {"schema_version": 1, "n": 1, "X": 0, "H": [["0"]], "Y": [["0"]]},
    {"schema_version": 1, "X": [["0"]], "H": [["0"]], "Y": [["0"]]},
]


class TestMalformedJson:
    """Documents outside the schemas are input errors: exit 2, one line."""

    @pytest.mark.parametrize(
        "command, flag, doc, schema",
        [
            pytest.param("build", "--descriptor", d, schemas.DESCRIPTOR_SCHEMA, id=f"build-{k}")
            for k, d in enumerate(MALFORMED_DESCRIPTORS)
        ]
        + [
            pytest.param(command, "--module", d, schemas.MODULE_SCHEMA, id=f"{command}-{k}")
            for command in ("verify", "classify")
            for k, d in enumerate(MALFORMED_MODULES)
        ],
    )
    def test_input_error(self, capsys, command, flag, doc, schema):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)
        code, out, err = run(capsys, command, "-f", "h^2", flag, json.dumps(doc))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestBackends:
    def test_approx_decimals(self, capsys):
        code, out, _ = run(capsys, "--backend", "approx", "normalize", "-f", "0.5*h", "-e", "y*x")
        assert code == 0 and out.strip() == "x*y + (-0.5)*h"

    def test_approx_zero_terms_are_left_out(self, capsys):
        # the lower terms of y^k x^k over zeta(3)*h vanish up to rounding
        code, out, _ = run(capsys, "--backend", "approx", "normalize", "-f", "zeta(3)*h", "-e", "y^4*x^4")
        assert code == 0 and "()" not in out
        assert out.startswith("x^4*y^4 + x^3*(") and out.strip().endswith(")*h*y^3")
        assert out.count(" + x") == 1
        code, out, _ = run(
            capsys, "--json", "--backend", "approx", "normalize", "-f", "zeta(3)*h", "-e", "y^3*x^3"
        )
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.NORMALIZE_SCHEMA)
        assert code == 0 and doc["normal_form"] == "x^3*y^3"

    def test_tol_holds_for_one_call(self, capsys):
        before = CONFIG.tol
        argv = ["--backend", "approx", "normalize", "-f", "0.5*h", "-e", "y*x"]
        assert run(capsys, "--tol", "0.5", *argv)[1].strip() == "x*y"
        assert CONFIG.tol == before
        assert run(capsys, *argv)[1].strip() == "x*y + (-0.5)*h"
        assert run(capsys, "--tol", "0.5", "normalize", "-f", "h^2", "-e", "y*")[0] == 2
        assert CONFIG.tol == before

    def test_exact_rejects_decimals(self, capsys):
        code, _, err = run(capsys, "normalize", "-f", "0.5*h", "-e", "x")
        assert code == 2 and "approx backend" in err


def run_or_exit(capsys, *argv):
    """Like run, but argparse's SystemExit (--help, usage errors) gives its code."""
    try:
        return run(capsys, *argv)
    except SystemExit as stop:
        out = capsys.readouterr()
        return stop.code, out.out, out.err


class TestSharedParser:
    """main builds its parser once per process; calls must stay independent."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["simples", "--help"],
            ["no-such-command", "-f", "h^2"],
            ["normalize", "-f", "h^2"],
            ["--backend", "approx", "--conductor", "3", "normalize", "-f", "h^2", "-e", "y^2*x"],
        ],
    )
    def test_same_argv_same_result(self, capsys, argv):
        first = run_or_exit(capsys, *argv)
        assert run_or_exit(capsys, *argv) == first
        assert first[0] in (0, 2) and first[1] + first[2] != ""

    def test_options_do_not_carry_over(self, capsys):
        normalize = ["normalize", "-f", "h^2", "-e", "y*x"]
        assert run(capsys, "--backend", "approx", "--json", *normalize)[1].startswith("{")
        assert run(capsys, *normalize)[1] == (GOLDEN / "normalize_yx.txt").read_text()

        simples = ["simples", "-f", "h^2", "-n", "2", "--samples", "1"]
        plain = run(capsys, *simples)
        widened = run(capsys, "--conductor", "3", *simples)
        assert widened[1] == (GOLDEN / "simples_squaring.json").read_text() != plain[1]
        assert run(capsys, *simples) == plain

        simples = ["simples", "-f", "zeta(4)*h", "-n", "4"]
        default = run(capsys, *simples)
        assert run(capsys, *simples, "--samples", "1") != default
        assert run(capsys, *simples) == default

    def test_parser_is_built_once(self, capsys):
        cli._build_parser.cache_clear()
        for _ in range(5):
            run(capsys, "normalize", "-f", "h^2", "-e", "y*x")
            run_or_exit(capsys, "center")
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 9)


@pytest.mark.parametrize(
    "name,argv",
    [
        ("center_cyclotomic.json", ["center", "-f", "zeta(3)*h"]),
        ("iso_case4.json", ["iso", "-f1", "2*h+1", "-f2", "h/2"]),
        ("simples_empty.json", ["simples", "-f", "h^2+2*h-3/4", "-n", "2"]),
        (
            "build_nilpotent.json",
            ["build", "-f", "zeta(4)*h", "--descriptor", '{"variant":"nilpotent_x","zdot":"1","n":4}'],
        ),
        ("normalize_yx.txt", ["normalize", "-f", "h^2", "-e", "y*x"]),
        ("simples_squaring.json", ["--conductor", "3", "simples", "-f", "h^2", "-n", "2", "--samples", "1"]),
    ],
)
def test_golden(capsys, name, argv):
    """Frozen outputs; regenerate by running the listed command if the
    format changes on purpose."""
    main(argv)
    out = capsys.readouterr().out
    assert out == (GOLDEN / name).read_text()


# The normal-form cells of the cold-normalize benchmark workload: f -> (k, i),
# each asked both ways round as y^k*x^i.
NORMAL_FORM_CELLS = {
    "h^2": [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)],
    "h^2 + 1": [(1, 1), (1, 3), (2, 2), (2, 3), (2, 4), (3, 3)],
    "h^3 - h": [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)],
    "2*h - 1": [(2, 2), (3, 5), (4, 5), (5, 5), (4, 6), (4, 8), (8, 8), (10, 10)],
    "h/2 + 1/3": [(2, 2), (3, 5), (4, 5), (3, 7), (6, 6), (4, 9), (8, 8)],
    "zeta(3)*h": [(2, 2), (4, 6), (5, 6), (4, 8), (6, 8), (8, 8), (6, 12), (12, 12), (20, 20)],
    "zeta(3)*h + 1": [(2, 2), (4, 6), (5, 5), (5, 6), (4, 8), (8, 8), (6, 12), (12, 12)],
}


def test_golden_normal_form_cells(capsys):
    """normalize_cells.txt holds, for each cell in sorted order, the command
    line and then the exact stdout of ``gha normalize``."""
    jobs = sorted(
        {(f, k, i) for f, cells in NORMAL_FORM_CELLS.items() for a, b in cells for k, i in ((a, b), (b, a))}
    )
    lines = (GOLDEN / "normalize_cells.txt").read_text().splitlines(keepends=True)
    assert len(jobs) == 77 and len(lines) == 2 * len(jobs)
    for (f, k, i), command, text in zip(jobs, lines[0::2], lines[1::2]):
        assert command == f"normalize -f '{f}' -e 'y^{k}*x^{i}'\n"
        assert run(capsys, "normalize", "-f", f, "-e", f"y^{k}*x^{i}") == (0, text, ""), command


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "gha", "normalize", "-f", "h^2", "-e", "y*x"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x*y + h^2 + (-1)*h"
