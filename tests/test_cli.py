"""CLI behavior: exit codes, JSON shape, golden outputs."""

import json
import pathlib
import shlex
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
        for backend in ((), ("--backend", "approx")):
            code, out, _ = run(capsys, *backend, "central", "-f", "zeta(3)*h", "-e", "x^3")
            assert code == 0 and out.strip() == "true", backend

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

    def test_non_simple_module_is_one(self, capsys):
        # h^2 - 1 has the 2-cycle (-1, 0); two copies of its cyclic_x module
        # make a module whose h-spectrum is that 2-cycle twice
        desc = {"variant": "cyclic_x", "orbit": ["-1", "0"], "zdot": "0", "a": "1"}
        code, out, _ = run(capsys, "build", "-f", "h^2 - 1", "--descriptor", json.dumps(desc))
        assert code == 0
        mod = json.loads(out)
        zero = ["0", "0"]
        for key in ("X", "H", "Y"):
            mod[key] = [row + zero for row in mod[key]] + [zero + row for row in mod[key]]
        mod["n"] = 4
        code, out, err = run(capsys, "classify", "-f", "h^2 - 1", "--module", json.dumps(mod))
        assert (code, out) == (1, "")
        assert err == "not classifiable: not a simple module: orbit period is 2, not the full length 4\n"

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

    @pytest.mark.parametrize(
        "argv",
        [
            # a power, of an element and of f, refused before it is built
            ["normalize", "-f", "h^2", "-e", "h^10000000"],
            ["normalize", "-f", "h^100000000", "-e", "y*x"],
            # a field of degree phi(10^6) = 400000, refused before Phi_N is built
            ["normalize", "-f", "zeta(1000000)*h", "-e", "y*x"],
            ["--conductor", "1000000", "simples", "-f", "h^2", "-n", "2"],
        ],
        ids=" ".join,
    )
    def test_degree_guard_is_three_for_powers_and_fields(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert "exceeds the degree guard" in err

    @pytest.mark.parametrize("backend", ["exact", "approx"])
    def test_root_finder_breakdown_is_three(self, capsys, backend):
        # Aberth's starting circle overflows Horner on f^(4) - h, of degree 81
        # (72 once the points of lower period are divided out): a numeric
        # failure, not an input error
        code, out, err = run(capsys, "--backend", backend, "simples", "-f", "h^3 - h", "-n", "4")
        assert code == 3 and out == ""
        assert err.startswith("numeric failure: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize(
        "argv, col",
        [
            (["normalize", "-f", "h^2", "-e", "1/0"], 2),
            (["normalize", "-f", "h/0", "-e", "x"], 2),
            (["normalize", "-f", "h^2", "-e", "x/(1-1)"], 2),
            (["normalize", "-f", "h^2", "-e", "x/(h-h)"], 2),
            (["--backend", "approx", "normalize", "-f", "h^2", "-e", "x/0"], 2),
            (["central", "-f", "h^2", "-e", "y + 2*x/(3 - 3)"], 8),
            (["iso", "-f1", "2*h", "-f2", "h/(1 - 1)"], 2),
        ],
    )
    def test_division_by_zero_is_two(self, capsys, argv, col):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: division by zero (line 1, column {col})\n"

    @pytest.mark.parametrize("backend", ["exact", "approx"])
    def test_division_by_zero_in_a_module_entry_is_two(self, capsys, backend):
        doc = {"schema_version": 1, "n": 1, "X": [["0"]], "H": [["1/(2 - 2)"]], "Y": [["0"]]}
        for command in ("verify", "classify"):
            code, out, err = run(
                capsys, "--backend", backend, command, "-f", "h^2", "--module", json.dumps(doc)
            )
            assert (code, out) == (2, "")
            assert err == "error: division by zero (line 1, column 2)\n"

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

    def test_approx_terms_near_zero_print_in_full(self, capsys):
        # the lower terms of y^k x^k over zeta(3)*h vanish up to rounding;
        # they are terms all the same, and print with every digit
        code, out, _ = run(capsys, "--backend", "approx", "normalize", "-f", "zeta(3)*h", "-e", "y^4*x^4")
        assert code == 0 and "()" not in out
        assert out.startswith("x^4*y^4 + x^3*(") and out.strip().endswith(")*h^4")
        assert out.count(" + x") == 3 and "e-15" in out
        code, out, _ = run(
            capsys, "--json", "--backend", "approx", "normalize", "-f", "zeta(3)*h", "-e", "y^3*x^3"
        )
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.NORMALIZE_SCHEMA)
        assert code == 0 and doc["normal_form"].startswith("x^3*y^3 + x^2*(")
        assert doc["normal_form"].count(" + ") == 3

    def test_tol_holds_for_one_call(self, capsys):
        # [x, h] = x*(-0.5)*h over 0.5*h is within a tol of 0.5 of 0
        before = CONFIG.tol
        argv = ["--backend", "approx", "central", "-f", "0.5*h", "-e", "h"]
        assert run(capsys, "--tol", "0.5", *argv)[:2] == (0, "true\n")
        assert CONFIG.tol == before
        assert run(capsys, *argv)[:2] == (1, "false\n[x, e] = x*(-0.5)*h\n")
        assert run(capsys, "--tol", "0.5", "normalize", "-f", "h^2", "-e", "y*")[0] == 2
        assert CONFIG.tol == before

    def test_exact_rejects_decimals(self, capsys):
        code, _, err = run(capsys, "normalize", "-f", "0.5*h", "-e", "x")
        assert code == 2 and "approx backend" in err


class TestRealRoots:
    """A numeric root of a polynomial with real coefficients that lies within
    tol of its own conjugate prints as a real number."""

    def test_rejected_zdot_of_an_exact_f(self, capsys):
        code, out, _ = run(capsys, "simples", "-f", "h^2 - 1", "-n", "2")
        notes = [note for fam in json.loads(out)["families"] for note in fam["notes"]]
        assert code == 0
        assert "candidate zdot = -1.618033988749895 rejected" in " ".join(notes)
        assert not any("*i" in note for note in notes)

    def test_nilpotent_zdot_on_the_approx_backend(self, capsys):
        code, out, _ = run(capsys, "--backend", "approx", "simples", "-f", "h^2 - 1", "-n", "2")
        fams = json.loads(out)["families"]
        zdots = [fam["zdot"] for fam in fams if fam["variant"] == "nilpotent_x"]
        assert code == 0 and zdots == ["0.0", "0.9999999999999999"]


def run_or_exit(capsys, *argv):
    """Like run, but argparse's SystemExit (--help, usage errors) gives its code."""
    try:
        return run(capsys, *argv)
    except SystemExit as stop:
        out = capsys.readouterr()
        return stop.code, out.out, out.err


class TestValuesWithALeadingMinus:
    """-f, -f1, -f2 and -e take a value that starts with "-", as the
    linear case f = -h + c needs, given apart or as -f=VALUE."""

    def test_normalize_minus_f(self, capsys):
        expected = (0, "x*y + (-2)*h + 1\n", "")
        assert run(capsys, "normalize", "-f", "-h + 1", "-e", "y*x") == expected
        assert run(capsys, "normalize", "-f=-h + 1", "-e", "y*x") == expected
        assert run(capsys, "normalize", "-f", "h", "-e", "-y*x") == (0, "x*(-1)*y\n", "")

    def test_simples_minus_f(self, capsys):
        code, out, _ = run(capsys, "simples", "-f", "-2*h", "-n", "2")
        assert code == 0 and json.loads(out)["f"] == "-2*h"
        assert run(capsys, "simples", "-f=-2*h", "-n", "2") == (code, out, "")

    def test_iso_minus_f1_f2(self, capsys):
        code, out, _ = run(capsys, "iso", "-f1", "-h", "-f2", "-h + 2")
        assert code == 0 and json.loads(out)["isomorphic"] is True

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["-h"], 0),
            (["normalize", "-h"], 0),
            (["normalize", "-f"], 2),
            (["normalize", "-f", "-h + 1", "-e"], 2),
            (["normalize", "-f", "-h^^2", "-e", "x"], 2),
        ],
    )
    def test_help_and_exit_codes_stay(self, capsys, argv, code):
        got, out, err = run_or_exit(capsys, *argv)
        assert got == code
        assert ("usage: gha" in out) if code == 0 else (err != "")


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


# f with f^(p) = h, with the period p: x^p and y^p are central
PERIODIC_CELLS = {
    "zeta(3)*h + 1": 3,
    "i*h": 4,
    "-h + 1": 2,
    "zeta(6)*h - 2": 6,
    "zeta(5)*h + 1/2": 5,
    "h": 1,
}
MIXED_PRODUCT = "(x^2*h + y^3)*(y^7*x^8 - h*y)"


def test_golden_normal_form_periodic(capsys):
    """normalize_periodic.txt holds, for each periodic f, y^k x^i for
    k, i <= 2p+1 and then one product, each as the command line and the
    exact stdout of ``gha normalize``."""
    jobs = [
        (f, e)
        for f, p in PERIODIC_CELLS.items()
        for e in [f"y^{k}*x^{i}" for k in range(2 * p + 2) for i in range(2 * p + 2)] + [MIXED_PRODUCT]
    ]
    lines = (GOLDEN / "normalize_periodic.txt").read_text().splitlines(keepends=True)
    assert len(jobs) == 562 and len(lines) == 2 * len(jobs)
    for (f, e), command, text in zip(jobs, lines[0::2], lines[1::2]):
        assert command == f"normalize -f '{f}' -e '{e}'\n"
        assert run(capsys, "normalize", "-f", f, "-e", e) == (0, text, ""), command


def test_golden_normal_form_cells_approx(capsys):
    """normalize_cells_approx.txt holds the same for the cells of
    NORMAL_FORM_CELLS with a rational f, on the approx backend."""
    jobs = sorted(
        {
            (f, k, i)
            for f, cells in NORMAL_FORM_CELLS.items()
            if "zeta" not in f
            for a, b in cells
            for k, i in ((a, b), (b, a))
        }
    )
    lines = (GOLDEN / "normalize_cells_approx.txt").read_text().splitlines(keepends=True)
    assert len(jobs) == 51 and len(lines) == 2 * len(jobs)
    for (f, k, i), command, text in zip(jobs, lines[0::2], lines[1::2]):
        assert command == f"--backend approx normalize -f '{f}' -e 'y^{k}*x^{i}'\n"
        argv = ["--backend", "approx", "normalize", "-f", f, "-e", f"y^{k}*x^{i}"]
        assert run(capsys, *argv) == (0, text, ""), command


def test_golden_normalize_approx_decimal(capsys):
    """normalize_decimal_approx.txt holds command lines and their stdout
    for an f with decimal coefficients, whose floats are rounded at every
    step: the text pins the order of the sums and products of the
    rewriting on the approx backend, which the rational cells above do not."""
    lines = (GOLDEN / "normalize_decimal_approx.txt").read_text().splitlines(keepends=True)
    assert len(lines) == 6
    for command, text in zip(lines[0::2], lines[1::2]):
        assert run(capsys, *shlex.split(command)) == (0, text, ""), command


def test_golden_normalize_products(capsys):
    """normalize_products.txt holds command lines and their stdout for
    products (A)*(B) of elements with non-constant coefficients: seeded
    3-term pairs over the f of the products_warm benchmark, coefficients in
    Q(zeta_4) and Q(zeta_5) over f with conductor 3 and 1, whose printed
    conductors follow the order of the sums and products, a periodic f, and
    decimal f on the approx backend, whose floats do too."""
    lines = (GOLDEN / "normalize_products.txt").read_text().splitlines(keepends=True)
    assert len(lines) == 2 * 64
    for command, text in zip(lines[0::2], lines[1::2]):
        assert run(capsys, *shlex.split(command)) == (0, text, ""), command


@pytest.mark.parametrize(
    "f, expr, code, reason",
    [
        # f^(11) overflows the doubles: the computation fails, not the input
        ("h^2 + 1", "y^6*x^6", 3, "numeric failure: an approximate coefficient overflowed"),
        # each factor is finite and only their product, 1e400*h^3, overflows
        ("h^2", "(1e200*x*h^2)*(1e200*h*y)", 3, "numeric failure: an approximate coefficient overflowed"),
        ("1e999*h", "y*x", 2, "error: approximate scalars must be finite"),
        # a literal past the doubles is an input error, however it is written
        ("10^400*h", "y*x", 2, "error: number too large for the approx backend"),
        ("1" + "0" * 400 + "*h", "y*x", 2, "error: number too large for the approx backend"),
        ("h", "10^400*y*x", 2, "error: number too large for the approx backend"),
    ],
    ids=[
        "overflow",
        "overflow-in-product",
        "infinite-literal",
        "power-literal",
        "long-literal",
        "power-literal-in-element",
    ],
)
def test_approx_overflow_exit_codes(capsys, f, expr, code, reason):
    got, out, err = run(capsys, "--backend", "approx", "normalize", "-f", f, "-e", expr)
    assert (got, out) == (code, "") and err.startswith(reason), err


def test_exact_backend_takes_huge_literals(capsys):
    code, out, err = run(capsys, "normalize", "-f", "10^400*h", "-e", "y*x")
    # y*x = x*y + f(h) - h
    assert (code, out, err) == (0, "x*y + " + "9" * 400 + "*h\n", "")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on printing integers"
)
@pytest.mark.parametrize(
    "expr, expected",
    [
        # y*x = x*y + f(h) - h and h*x = x*f(h)
        ("y*x", "x*y + " + "9" * 5000 + "*h\n"),
        ("h*x", "x*1" + "0" * 5000 + "*h\n"),
    ],
)
def test_exact_results_print_past_the_integer_digit_limit(capsys, expr, expected):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "normalize", "-f", "10^5000*h", "-e", expr)
    assert (code, out, err) == (0, expected, "")
    # the limit is lifted for the call only
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "head, tail",
    [
        (["normalize"], ["-e", "y^2*x^2"]),
        (["normalize"], ["-e", "y^3*x^5"]),
        (["normalize"], ["-e", "x*h*y^2"]),
        (["normalize"], ["-e", "z^2"]),
        (["--json", "center"], []),
        (["--json", "simples"], ["-n", "1"]),
        (["--json", "simples"], ["-n", "2"]),
        (["--json", "simples"], ["-n", "3"]),
    ],
    ids=" ".join,
)
def test_output_does_not_depend_on_how_f_is_spelled(capsys, head, tail):
    """f over two conductors is one polynomial over their lcm, so it prints
    as the same f spelled over the lcm, and so does everything derived."""
    two, lcm = (
        run(capsys, *head, "-f", f, *tail) for f in ("zeta(3)*h + i", "zeta(12)^4*h + zeta(12)^3")
    )
    assert two == lcm and two[0] == 0


def test_closed_stdout_exits_1_without_a_traceback():
    """gha ... | head: the reader closes the pipe before gha writes."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "gha", "normalize", "-f", "h^2", "-e", "y^3*x^3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == ""


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "gha", "normalize", "-f", "h^2", "-e", "y*x"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x*y + h^2 + (-1)*h"
