"""The package holds only the program.  A child process installs a
``sys.settrace`` hook before it imports ``drinfeld.cli`` and runs a fixed
corpus of command lines through ``cli.main``.  Every ``def`` in
``src/drinfeld`` must have been entered: functions, methods, dunders,
nested defs and the calls made at import time alike; and every line that a
compiled code object of the package lists must have run, but for the lines
of a ``raise`` statement and the finite-field region.  The few defs
and lines that no command reaches are listed in ``_NOT_RUN`` and
``_LINES_NOT_RUN``, each with its reason.  Helpers that only tests call live
in ``tests/`` (``oracles.py``, ``sampling.py`` and the test files).  No
module reads the process environment, and no object stands in for a
vertex, an edge, a lattice or a group element."""

from __future__ import annotations

import ast
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest
import test_cli
from drinfeld import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "drinfeld"

# Runs the corpus read from stdin and prints the exit codes, the (file,
# first line, name) of every code object of the package it entered, and the
# (file, line) of every line of the package that ran: a frame's first line
# at its call event, which is its def's (or a generator's resume point),
# and each line event after.
_TRACED_RUN = r"""
import contextlib, io, json, os, sys

package = os.path.join(os.path.realpath(sys.argv[1]), "drinfeld")
entered, ran, inside = set(), set(), {}


def lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return lines


def calls(frame, event, arg):
    code = frame.f_code
    entered.add(code)
    name = code.co_filename
    if name not in inside:
        inside[name] = os.path.dirname(os.path.realpath(name)) == package
    if inside[name]:
        ran.add((name, frame.f_lineno))
        return lines
    return None


sys.settrace(calls)
from drinfeld import cli

codes = []
for args in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(args)
            codes.append(0)
        except SystemExit as exc:
            codes.append(exc.code)
sys.settrace(None)
keys = [(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in entered if inside[c.co_filename]]
json.dump({
    "exit_codes": codes,
    "entered": sorted(keys),
    "ran": sorted((os.path.realpath(name), line) for name, line in ran),
}, sys.stdout)
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
    ["tree", "--", "x"],
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
    ["lattice", "--level", "5", "--offset", "1" * 5000],
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
    ["theta", "--f", "0"],
    ["lattice", "--k", "3162"],
    ["identity-b", "--kmax", "2", "--mmax", "171"],
    ["theta", "--k", "300", "--f", "z^-1*(z-1)^-1*(z-2)^-1"],
    ["modp", "sections", "--q", "2", "--k", "4", "--radius", "8"],
    ["modp", "stable-lines", "--q", "1009", "--k", "4"],
    ["modp", "stable-lines", "--q", "3", "--k", "0", "--i", "1"],
    ["modp", "symgeom-check", "--q", "1009", "--k", "4"],
    ["modp", "symgeom-check", "--q", "16384", "--k", "0"],
    ["modp", "b-forms", "--q", "163"],
]


# Command lines that run a line no other input of the corpus runs.
_REACHED = [
    ["theta", "--p", "2", "--k", "3", "--f", "z^2"],  # the zero image
    ["theta", "--p", "2", "--k", "1", "--f", "(z-pihat)^-1*(z-1)^-1", "--level", "1"],  # pihat rows
    ["theta", "--p", "2", "--k", "2", "--f", "(z-1)^-1*(z-3)^-1", "--level", "2", "--offset", "3/4"],  # off the axis
    ["theta", "--p", "2", "--k", "0", "--f", "z^3*(z-1)^-1"],  # poly.divmod's loop
    ["theta", "--p", "2", "--k", "0", "--f", "(z-pihat)^-2*(z-3)^-1"],  # the inverse of a scalar of norm > 0
    ["residue", "--p", "2", "--f", "p^2/z", "--radius", "1"],
    ["lattice", "--p", "2", "--k", "2", "--level", "20"],
    ["lattice", "--p", "2", "--k", "2", "--level", "-3", "--offset", "1/2"],
]


def _corpus(tmp_path: Path) -> list[list[str]]:
    """The pin's command lines: the three benchmark lists at seed 1, every
    ``GOLDEN`` invocation and README example, --help at each level, config
    files good and bad, ``_REFUSED``, two poles refused in an annulus (each
    message prints the pole by ``ScalarKHat.__repr__``, one with a rational
    part and one without), a field whose q - 1 = 2 * 1031 * 1033 reaches
    Pollard's rho, and ``_REACHED``."""
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
        ["--config", str(good)],
    ]
    return [
        *test_cli._benchmark_jobs(),
        *(list(args) for args, _, _ in test_cli.TestGoldenStdout.GOLDEN),
        *test_cli._readme_examples(),
        *([*path, "--help"] for path in sorted(cli._COMMANDS)),
        *configs,
        *_REFUSED,
        ["residue", "--p", "2", "--k", "1", "--f", "(z-pihat)^-1", "--radius", "2"],
        ["residue", "--p", "2", "--k", "1", "--f", "(z-1-pihat)^-1", "--radius", "2"],
        ["modp", "symgeom-check", "--q", "2130047", "--k", "2130046", "--i", "1065022"],
        *_REACHED,
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
}

# The top-level defs and classes of ``scalars`` that leave src/ with F_q
# arithmetic (see ROADMAP.md): their lines are not pinned.
_FIELD_REGION = {
    "_rho_factor", "_prime_factors", "_poly_mod_mul", "_poly_mod_rem", "_is_irreducible",
    "_find_modulus", "FiniteField", "FqElem", "_make_fq",
}

# The lines that no command runs, by the qualified name of the def or class
# that holds them (the module's name at the top level) and their text, each
# with its reason.
_GATE = "the failing path of a gate that no input fails"
_LINES_NOT_RUN = {
    ("cli._load_config", "except OSError:"): (
        "a config file that exists and is not a directory, yet cannot be read: "
        "a file without read permission, which a test that runs as root cannot make"
    ),
    ("cli.main", "print(file=sys.stderr)  # end the line that the interrupt cut"): "a keyboard interrupt",
    ("cli.main", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"): "a reader that closes stdout",
    ("cli.main", "code = 1"): "after an interrupt or a closed stdout",
    ("cli.main", 'code = _fail(3, "internal invariant violated", exc)'): "no input breaks an invariant",
    ("cli", "main()"): "python -m drinfeld.cli runs it; the corpus calls cli.main in-process",
    ("linalg._pivots", "del pending[i]"): "no command eliminates a row to zero",
    ("modp._columns_mod_p", "yield None"): _GATE,
    ("modp._columns_mod_p", "return"): _GATE,
    ("modp._columns_fq", "yield None"): _GATE,
    ("modp._columns_fq", "return"): _GATE,
    ("modp.b_forms_check", "return False"): _GATE,
    ("modp._stable_lines", "span = [tuple((x + c * y) % p for x, y in zip(u, v)) for c in range(p) for u in span]"): (
        "no eigenclass holds two invariant vectors: the two unipotents generate SL2(F_q), and its fixed "
        "space had dimension at most 1 at every input tried (12 prime powers q <= 27 at k < 30, q <= 9 at k < 90)"
    ),
    ("theta.complement_b_identity", "return False"): _GATE,
    ("scalars.ScalarKHat.__repr__", 'return f"{self.a}"'): (
        "only a refused pole is printed by repr, and a pole in an annulus has a pihat part"
    ),
}


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory) -> tuple[list, dict]:
    """The corpus, and what its child process printed."""
    corpus = _corpus(tmp_path_factory.mktemp("configs"))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(SRC.parent)],
        input=json.dumps(corpus),
        capture_output=True,
        text=True,
        env=test_cli.child_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return corpus, json.loads(proc.stdout)


def test_every_def_in_src_is_entered_by_a_command(traced_run):
    corpus, run = traced_run
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


def _lines(path: Path) -> dict[int, tuple[str, str]]:
    """Each line of the module at ``path`` that a compiled code object of it
    lists in ``co_lines()``, but for the lines of a ``raise`` statement and
    of ``_FIELD_REGION``: its (qualified name, stripped text), where the name
    is that of the innermost def or class around it, or the module's."""
    text = path.read_text(encoding="utf-8")
    found, stack = set(), [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        found.update(line for _, _, line in code.co_lines() if line)
        stack += [inner for inner in code.co_consts if isinstance(inner, types.CodeType)]
    tree, names, exempt = ast.parse(text), {}, set()
    scopes = [(tree, path.stem)]
    while scopes:
        node, name = scopes.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                names.update(dict.fromkeys(range(first, child.end_lineno + 1), inner))
                if node is tree and path.stem == "scalars" and child.name in _FIELD_REGION:
                    exempt.update(range(first, child.end_lineno + 1))
                scopes.append((child, inner))
            else:
                scopes.append((child, name))
    exempt.update(line for node in ast.walk(tree) if isinstance(node, ast.Raise)
                  for line in range(node.lineno, node.end_lineno + 1))
    source = text.splitlines()
    return {line: (names.get(line, path.stem), source[line - 1].strip()) for line in sorted(found - exempt)}


def test_every_line_in_src_is_run_by_a_command(traced_run):
    _, run = traced_run
    ran, unrun, total = {tuple(key) for key in run["ran"]}, {}, 0
    for path in sorted(SRC.glob("*.py")):
        name, lines = str(path.resolve()), _lines(path)
        unrun.update({(path.name, line): key for line, key in lines.items() if (name, line) not in ran})
        total += len(lines)
    assert total
    missed = [f"{file}:{line}: {text} (in {qualname})" for (file, line), (qualname, text) in unrun.items()
              if (qualname, text) not in _LINES_NOT_RUN]
    assert not missed, "run by no command:\n" + "\n".join(missed)
    # each exception names a line that is still there and still not run
    stale = sorted(map(str, _LINES_NOT_RUN.keys() - set(unrun.values())))
    assert not stale, "listed in _LINES_NOT_RUN, yet run or gone: " + ", ".join(stale)


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
