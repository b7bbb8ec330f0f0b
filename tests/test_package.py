"""The package boundary: what ``import gha`` and the rewriting subcommands
load, and the exports that resolve on first use."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import gha

LAYERS = ("gha.modules", "gha.linalg", "gha.structure", "gha.schemas")
SUBMODULES = ("config", "scalars", "polys", "algebra", "parser", "linalg", "modules", "structure")


def layers_loaded_by(code: str) -> list[str]:
    """The module layers in ``sys.modules`` after a fresh interpreter runs
    ``code``, whose ``main`` calls print into a buffer and must return 0."""
    script = "\n".join(
        [
            "import contextlib, io, sys",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    {code}",
            f"print(' '.join(m for m in {LAYERS!r} if m in sys.modules))",
        ]
    )
    src = os.path.dirname(os.path.dirname(gha.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def main_call(*argv: str) -> str:
    return f"import gha.cli; assert gha.cli.main({list(argv)!r}) == 0"


@pytest.mark.parametrize(
    "code",
    [
        "import gha",
        "import gha.cli",
        main_call("normalize", "-f", "h^2 + 1", "-e", "y^2*x^3"),
        main_call("central", "-f", "zeta(3)*h", "-e", "x^3"),
        main_call("--json", "normalize", "-f", "h^2", "-e", "y*x"),
        main_call("--json", "central", "-f", "h^2", "-e", "x*y - h"),
    ],
    ids=["import gha", "import gha.cli", "normalize", "central", "json normalize", "json central"],
)
def test_rewriting_loads_no_module_layer(code):
    assert layers_loaded_by(code) == []


@pytest.mark.parametrize(
    "code, layers",
    [
        ("import gha; gha.build", ["gha.modules", "gha.linalg"]),
        ("import gha; gha.iso_check", ["gha.structure"]),
        ("import gha; gha.modules, gha.linalg, gha.structure", ["gha.modules", "gha.linalg", "gha.structure"]),
        (main_call("center", "-f", "h^2"), ["gha.modules", "gha.linalg", "gha.structure", "gha.schemas"]),
    ],
    ids=["gha.build", "gha.iso_check", "submodules", "center"],
)
def test_layers_load_on_first_use(code, layers):
    assert layers_loaded_by(code) == layers


def test_every_export_is_its_submodules_object():
    for name in gha.__all__:
        obj = getattr(gha, name)
        holders = [m for m in map(importlib.import_module, (f"gha.{s}" for s in SUBMODULES)) if name in vars(m)]
        assert holders, name
        assert all(vars(m)[name] is obj for m in holders), name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from gha import *", namespace)
    assert all(namespace[name] is getattr(gha, name) for name in gha.__all__)


def test_dir_lists_every_export():
    assert set(gha.__all__) <= set(dir(gha))


def test_lazy_export_reads_the_current_binding(monkeypatch):
    # a name rebound in its submodule (as a tracer does) is what the package
    # hands out, and the original comes back once the rebinding is undone
    build = gha.modules.build
    sentinel = object()
    monkeypatch.setattr(gha.modules, "build", sentinel)
    assert gha.build is sentinel
    monkeypatch.undo()
    assert gha.build is build
    assert "build" not in vars(gha)


def test_unknown_attribute_is_an_attribute_error():
    assert not hasattr(gha, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        gha.no_such_name


def tol_readers() -> set[tuple[str, str | None]]:
    """(file, enclosing function or None) of every ``CONFIG.tol`` in src/gha."""
    found = set()
    for path in sorted(pathlib.Path(gha.__file__).parent.glob("*.py")):
        stack = [(ast.parse(path.read_text()), None)]
        while stack:
            node, where = stack.pop()
            if isinstance(node, ast.FunctionDef):
                where = node.name
            if isinstance(node, ast.Attribute) and node.attr == "tol":
                if isinstance(node.value, ast.Name) and node.value.id == "CONFIG":
                    found.add((path.name, where))
            stack.extend((child, where) for child in ast.iter_child_nodes(node))
    return found


def test_tol_is_read_by_the_closeness_rule_only():
    # scalars.py holds the one closeness rule (and the phase tests of
    # root_of_unity_order), cli.py sets --tol; the root finder's stopping
    # target is the one other reader
    readers = tol_readers()
    assert {name for name, _ in readers} == {"scalars.py", "cli.py", "polys.py"}
    assert {where for name, where in readers if name == "polys.py"} == {"_aberth"}
