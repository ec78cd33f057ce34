"""The package holds only the program.  A child process installs a
``sys.setprofile`` hook before it imports ``drinfeld.cli``, runs a fixed
corpus of command lines through ``cli.main``, and every ``def`` in
``src/drinfeld`` must have been entered: functions, methods, dunders,
nested defs and the calls made at import time alike.  The few that no
command reaches are listed in ``_NOT_RUN``, each with its reason.  Helpers
that only tests call live in ``tests/`` (``oracles.py``, ``sampling.py`` and
the test files).  No module reads the process environment, and no object
stands in for a vertex, an edge, a lattice or a group element."""

from __future__ import annotations

import ast
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

import test_cli
from drinfeld import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "drinfeld"

# Runs the corpus read from stdin and prints the exit codes and the
# (file, first line, name) of every code object of the package it entered.
_TRACED_RUN = r"""
import contextlib, io, json, os, sys

entered = set()


def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(record)
from drinfeld import cli

codes = []
for args in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(args)
            codes.append(0)
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
package = os.path.dirname(os.path.realpath(cli.__file__))
files = {c.co_filename: os.path.realpath(c.co_filename) for c in entered}
keys = [(files[c.co_filename], c.co_firstlineno, c.co_name) for c in entered]
json.dump({"exit_codes": codes, "entered": sorted(k for k in keys if os.path.dirname(k[0]) == package)}, sys.stdout)
"""

# One input per refusal path: usage errors, values a converter refuses,
# and each budget and parse check of a command.
_REFUSED = [
    [],
    ["modp"],
    ["lattise"],
    ["modp", "sectons"],
    ["tree", "--radus", "1"],
    ["tree", "-r", "1"],
    ["residue", "--audit=1"],
    ["tree", "--p"],
    ["tree", "extra"],
    ["residue"],
    ["tree", "--p", "6"],
    ["tree", "--p", "x"],
    ["tree", "--radius", "9"],
    ["modp", "degrees", "--q", "6"],
    ["modp", "degrees", "--q", "0"],
    ["local-dims", "--p", str(10**400 + 1)],
    ["tree", "--p", "7", "--radius", "8"],
    ["lattice", "--level", "1", "--offset", "abc"],
    ["lattice", "--level", "1", "--offset", "1e2"],
    ["identity-b", "--a", "1/0"],
    ["local-dims", "--p", "1009", "--k", "1"],
    ["local-dims", "--p", "2", "--k", "1500"],
    ["harmonic", "--k", "1500", "--mod-pihat"],
    ["residue", "--f", "z^-101"],
    ["residue", "--f", "z^-60*(z-1)^-60"],
    ["residue", "--f", "9" * 1001 + "/z"],
    ["residue", "--f", "9" * 5000 + "/z"],
    ["residue", "--f", "(z-" + "9" * 1100 + ")^-1"],
    ["residue", "--f", "1/0"],
    ["residue", "--f", "(z-1/0)"],
    ["residue", "--f", "x"],
    ["residue", "--f", "(z-q)"],
    ["residue", "--f", ""],
    ["theta", "--k", "2000", "--f", "1/z"],
    ["theta", "--k", "300", "--f", "z^-1*(z-1)^-1*(z-2)^-1"],
    ["modp", "sections", "--q", "2", "--k", "4", "--radius", "8"],
    ["modp", "stable-lines", "--q", "1009", "--k", "4"],
    ["modp", "stable-lines", "--q", "3", "--k", "0", "--i", "1"],
    ["modp", "symgeom-check", "--q", "1009", "--k", "4"],
    ["modp", "symgeom-check", "--q", "16384", "--k", "0"],
    ["modp", "b-forms", "--q", "163"],
]


def _corpus(tmp_path: Path) -> list[list[str]]:
    """The pin's command lines: the three benchmark lists at seed 1, every
    ``GOLDEN`` invocation and README example, --help at each level, config
    files good and bad, ``_REFUSED``, a pole refused in an annulus (its
    message prints the pole by ``ScalarKHat.__repr__``), and a field whose
    q - 1 = 2 * 1031 * 1033 reaches Pollard's rho."""
    good, bad_line, bad_flag = (tmp_path / name for name in ("good.cfg", "line.cfg", "flag.cfg"))
    good.write_text("p = 3\nk = 2\n", encoding="utf-8")
    bad_line.write_text("p = 2\ngarbage\n", encoding="utf-8")
    bad_flag.write_text("audit = maybe\n", encoding="utf-8")
    bad_text = tmp_path / "text.cfg"
    bad_text.write_bytes(b"p = 2\n\xff = 3\n")
    configs = [
        ["--config", str(good), "local-dims"],
        ["--config", str(bad_line), "local-dims"],
        ["--config", str(bad_text), "local-dims"],
        ["--config", str(bad_flag), "residue", "--f", "1/z"],
        ["--config", str(tmp_path / "missing.cfg"), "tree"],
        ["--config", str(tmp_path), "tree"],
    ]
    return [
        *test_cli._benchmark_jobs(),
        *(list(args) for args, _, _ in test_cli.TestGoldenStdout.GOLDEN),
        *test_cli._readme_examples(),
        *([*path, "--help"] for path in sorted(cli._COMMANDS)),
        *configs,
        *_REFUSED,
        ["residue", "--p", "2", "--k", "1", "--f", "(z-pihat)^-1", "--radius", "2"],
        ["modp", "symgeom-check", "--q", "2130047", "--k", "2130046", "--i", "1065022"],
    ]


def _defs() -> dict[tuple[str, int, str], str]:
    """Each def in src/drinfeld as ``module.qualname``, keyed by the (file,
    first line, name) that its code object carries.  The code objects come
    from compiling each module: a def's has the CO_OPTIMIZED flag, which a
    class body's lacks, and a name that is not ``<lambda>`` or a
    comprehension's."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), f"{path.stem}.")]
        while stack:
            code, prefix = stack.pop()
            for inner in code.co_consts:
                if isinstance(inner, types.CodeType):
                    name = prefix + inner.co_name
                    function = inner.co_flags & inspect.CO_OPTIMIZED
                    if function and not inner.co_name.startswith("<"):
                        found[(str(path), inner.co_firstlineno, inner.co_name)] = name
                    stack.append((inner, name + (".<locals>." if function else ".")))
    return found


# The defs that no command enters, each with its reason.
_FIELD = (
    "F_q arithmetic leaves src/ in one piece with its tables (see ROADMAP.md), "
    "and perfbench/spans.py hooks FqElem until then"
)
_NOT_RUN = {
    "scalars.FqElem.coeffs": _FIELD,
    "scalars.FqElem.is_zero": _FIELD,
    "scalars.FqElem.__hash__": _FIELD,
    "scalars.FqElem.__truediv__": _FIELD,
    "scalars.FqElem.__repr__": _FIELD,
    "scalars.FiniteField.__hash__": _FIELD,
    "scalars.FiniteField.__repr__": _FIELD,
    "poly.shift": (
        "principal_parts calls it only on a polynomial part of degree >= 1, which no parsed "
        "section has; whether a command can meet one waits on one printed form per section"
    ),
}


def test_every_def_in_src_is_entered_by_a_command(tmp_path):
    corpus = _corpus(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN],
        input=json.dumps(corpus),
        capture_output=True,
        text=True,
        env=test_cli.child_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert 1 not in run["exit_codes"]  # no command line of the corpus ends in a traceback
    assert [code for args, code in zip(corpus, run["exit_codes"]) if args in _REFUSED] == [2] * len(_REFUSED)
    defs = _defs()
    assert defs
    missed = {defs[key] for key in defs.keys() - {tuple(key) for key in run["entered"]}}
    uncalled = sorted(missed - _NOT_RUN.keys())
    assert not uncalled, "entered by no command: " + ", ".join(uncalled)
    # each exception names a def that is still there and still not entered
    stale = sorted(_NOT_RUN.keys() - missed)
    assert not stale, "listed in _NOT_RUN, yet entered or gone: " + ", ".join(stale)


_ENVIRONMENT = {"environ", "environb", "getenv"}


def _environment_reads(path: Path) -> list[str]:
    """Where the module reads the environment through ``os``: an attribute
    ``environ``, ``environb`` or ``getenv`` of a name bound to ``os``, or one
    of those names imported from ``os``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    os_names = set()  # ``import os.path`` binds ``os`` too
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is None and alias.name.split(".")[0] == "os":
                    os_names.add("os")
                elif alias.name == "os":
                    os_names.add(alias.asname)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [alias.name for alias in node.names if alias.name in _ENVIRONMENT]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in _ENVIRONMENT
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return [f"{path.stem}:{name}" for name in found]


def test_no_module_reads_the_environment():
    reads = [r for path in sorted(SRC.glob("*.py")) for r in _environment_reads(path)]
    assert reads == []


# The objects that once stood for a vertex, an edge, a lattice and a group
# element: the program takes a vertex as its int label (p, m, n, d) or a ball
# index, and a transporter as that label's ints.
_OBJECT_NAMES = {"Vertex", "Edge", "Lattice", "Mat2"}


def _bound_or_named(path: Path) -> set[str]:
    """The names that a module defines, imports (as bound or as imported) or
    refers to."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update({alias.name.split(".")[-1], alias.asname or alias.name})
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def test_no_module_defines_or_imports_a_vertex_edge_or_lattice():
    found = [
        f"{path.stem}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in sorted(_bound_or_named(path) & _OBJECT_NAMES)
    ]
    assert found == []
