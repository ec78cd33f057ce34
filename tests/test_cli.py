"""Command-line front end: frozen JSON payloads, configuration-file merging,
exit codes, and byte-identical determinism of repeated runs."""

from __future__ import annotations

import hashlib
import importlib.util
import inspect
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import cli as cli_module
from drinfeld import modp, scalars, tree
from drinfeld.errors import InternalInvariantError
from drinfeld.harmonic import Cochain, res0
from drinfeld.lattices import Doubled
from drinfeld.linalg import SparseRows
from drinfeld.modp import gl2_generators, symgeom_iso, symgeom_parameters
from drinfeld.scalars import Fq, ScalarKHat
from drinfeld.rational import parse_rational
from drinfeld.tree import TruncatedTree, _child_offsets, make_vertex, truncated_tree
from inprocess import invoke
from oracles import (
    FqFraction,
    densify,
    emit_oracle,
    fq_function_str,
    fraction_scalar_str,
    fraction_standard_profiles,
    mat_vec,
    quotient_reduce,
    support,
    sym_matrix_fq,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env() -> dict:
    """The environment of a child ``python -m drinfeld.cli``: this checkout's
    ``src/`` first on its path, so a fresh checkout needs no install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_cli(*args, expect_code=0):
    proc = subprocess.run(
        [sys.executable, "-m", "drinfeld.cli", *args],
        capture_output=True,
        env=child_env(),
    )
    assert proc.returncode == expect_code, (args, proc.returncode, proc.stderr)
    return proc


def run_json(*args):
    return json.loads(run_cli(*args).stdout)


class TestFrozenPayloads:
    def test_local_dims(self):
        out = run_json("local-dims", "--p", "2", "--k", "2")
        assert out["command"] == "local-dims"
        assert out["config"] == {"k": 2, "p": 2}
        assert out["dimD"] == 2
        assert out["dimE"] == 1
        assert out["dimZhar"] == 3
        assert out["pass"] is True
        assert out["predicted"] == {"dimD": 2, "dimE": 1, "dimZhar": 3}

    def test_tree_ball_census(self):
        out = run_json("tree", "--p", "3", "--radius", "2")
        assert out["computed"] == {"edges": 16, "vertices": 17}
        assert out["predicted"] == {"edges": 16, "vertices": 17}
        assert out["regular"] is True
        assert out["pass"] is True

    def test_lattice_profile(self):
        out = run_json("lattice", "--p", "2", "--k", "2", "--level", "1", "--offset", "0")
        assert out["profile"] == [1, 0, -1]
        assert out["pass"] is True

    def test_identity_b_table(self):
        out = run_json("identity-b", "--p", "2", "--kmax", "4", "--mmax", "6")
        assert out["pass"] is True
        assert [row["k"] for row in out["rows"]] == [2, 4]
        assert all(row["pass"] for row in out["rows"])

    def test_theta_certificate(self):
        out = run_json(
            "theta", "--p", "2", "--k", "0", "--f", "1/z", "--level", "1", "--offset", "0"
        )
        cert = out["certificate"]
        assert cert["passes"] is True
        assert cert["input_valuation"] == 1
        assert cert["output_valuation"] == 2
        assert out["image"] == "-1 * z^-2"
        assert out["kernel_polynomial_dimension"] == 1
        assert out["pass"] is True

    def test_residue_report(self):
        out = run_json("residue", "--p", "2", "--k", "0", "--f", "1/z", "--radius", "2")
        assert out["support_size"] == 4
        assert out["delta_zero"] is True
        assert out["in_all_edge_lattices"] is True
        assert out["vertex_membership"] is True
        assert out["pass"] is True
        values = {entry["value"][0] for entry in out["cochain"]}
        assert values == {"1", "-1"}

    def test_harmonic_report_runs(self):
        out = run_json("harmonic", "--p", "2", "--k", "1", "--radius", "1")
        assert out["pass"] is True

    def test_modp_subcommands(self):
        degrees = run_json("modp", "degrees", "--q", "3", "--k", "4")
        assert degrees["pass"] is True
        sections = run_json("modp", "sections", "--q", "3", "--k", "4", "--radius", "2")
        assert sections["dimension"] == 69
        assert sections["direct_dimension"] == 69
        assert sections["pass"] is True
        forms = run_json("modp", "b-forms", "--q", "3")
        assert forms["pass"] is True

    def test_b_forms_fails_when_the_involution_keeps_the_parity(self, monkeypatch):
        # every vertex fixed: iota squares to the identity but swaps no parity
        monkeypatch.setattr(modp, "act_on_vertex", lambda g, v: v)
        result = invoke(["modp", "b-forms", "--q", "3"])
        assert result.exit_code == 0, result.output
        assert '"pass": false' in result.stdout


def _drop_last_child(p, m, n, d):
    offsets, common = _child_offsets(p, m, n, d)
    return offsets[:-1], common


def _child_onto_its_sibling(p, m, n, d):
    """Child 0's offset shifted by one step of the label arithmetic, onto child 1's."""
    offsets, common = _child_offsets(p, m, n, d)
    return [offsets[0] + offsets.step, *offsets[1:]], common


def _star_off_by_one(self, i):
    p = self.p
    return range(p + 1) if i == 0 else [i - 1, *range(p * i + 2, p * i + p + 2)]


def _up_off_by_one(self, i):
    return 0 if i <= self.p + 1 else (i - 1) // self.p


class TestBallMutations:
    """One mutation of the ball per gate that reads it, each failing that
    gate: ``tree`` counts the walk's vertices, checks that their labels are
    distinct and that every interior star has p + 1 distinct edges ending at
    its vertex, ``residue`` sums its cochain at the edges' ends, and ``modp
    sections`` refuses a glued pair of vertices that are not adjacent.  No mutation of
    the ball fails ``harmonic``'s ``dimension == predicted``: both sides
    count the same ball, and the interior incidence rows stay independent."""

    CASES = [
        (tree, "_child_offsets", _drop_last_child, ("tree", "--p", "3", "--radius", "3"), '"pass": false'),
        (tree, "_child_offsets", _child_onto_its_sibling, ("tree", "--p", "3", "--radius", "3"), '"regular": false'),
        (TruncatedTree, "star", _star_off_by_one, ("tree", "--p", "3", "--radius", "3"), '"regular": false'),
        (
            TruncatedTree,
            "up",
            _up_off_by_one,
            ("residue", "--p", "2", "--k", "0", "--f", "1/z", "--radius", "3"),
            '"delta_zero": false',
        ),
        (TruncatedTree, "up", _up_off_by_one, ("modp", "sections", "--q", "3", "--k", "2", "--radius", "2"), None),
    ]

    @pytest.mark.parametrize(
        "owner,name,mutant,args,verdict", CASES, ids=[f"{c[2].__name__}-{c[3][0]}" for c in CASES]
    )
    def test_the_gate_fails(self, monkeypatch, owner, name, mutant, args, verdict):
        assert invoke(args).exit_code == 0
        monkeypatch.setattr(owner, name, mutant)
        result = invoke(args)
        if verdict is None:
            assert result.exit_code == 3, result.output
        else:
            assert result.exit_code == 0, result.output
            assert verdict in result.stdout


class TestConfigFile:
    CASES = [
        (("local-dims",), {"p": "2", "k": "2"}),
        (("lattice",), {"level": "1", "offset": "1"}),
        (("identity-b",), {"a": "1"}),
        (("theta",), {"f": "2", "level": "1"}),
    ]

    @pytest.mark.parametrize("command,options", CASES, ids=[c[0][0] for c in CASES])
    def test_file_supplies_defaults(self, tmp_path, command, options):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in options.items()))
        from_file = invoke(["--config", str(cfg), *command])
        flags = [f"--{key}={value}" for key, value in options.items()]
        explicit = invoke([*command, *flags])
        assert from_file.exit_code == explicit.exit_code == 0, from_file.output
        assert from_file.stdout == explicit.stdout

    def test_flags_override_the_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 2\nk = 2\n")
        out = run_json("--config", str(cfg), "local-dims", "--k", "3")
        assert out["config"] == {"k": 3, "p": 2}


def _readme_examples() -> list[list[str]]:
    """The argument vectors of the README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.strip()]


class TestReadmeExamples:
    @pytest.mark.parametrize("args", _readme_examples(), ids=" ".join)
    def test_example_passes(self, args):
        result = invoke(args)
        assert result.exit_code == 0, (args, result.output)
        assert json.loads(result.stdout)["pass"] is True

    def test_every_command_has_an_example(self):
        shown = {tuple(args[: 2 if args[0] == "modp" else 1]) for args in _readme_examples()}
        commands = {path for path, (fn, _, _) in cli_module._COMMANDS.items() if fn}
        assert commands <= shown, commands - shown


def _resolved_options(args, file_values=()) -> tuple[str, dict]:
    """The command path that ``args`` invoke, and its options: each one's flag,
    else its value in the file, else its default, converted by its converter."""
    depth = 1 + (args[0] == "modp")
    _, options, _ = cli_module._COMMANDS[tuple(args[:depth])]
    given, rest = dict(file_values), iter(args[depth:])
    for flag in rest:
        name = flag[2:].replace("-", "_")
        given[name] = "true" if cli_module._OPTIONS[name][0] is cli_module._flag else next(rest)
    config = {}
    for name in options:
        convert, default = cli_module._OPTIONS[name][:2]
        config[name] = convert(given[name]) if name in given else default
    return " ".join(args[:depth]), config


class TestPayloadHeader:
    """Every payload opens with the invoked command path and the options
    that the command line resolved, whatever the command prints after them."""

    @pytest.mark.parametrize("args", _readme_examples(), ids=" ".join)
    def test_readme_example_prints_its_path_and_options(self, args):
        out = json.loads(invoke(args).stdout)
        assert (out["command"], out["config"]) == _resolved_options(args)

    def test_options_from_a_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 2\ni = 0\n")
        args = ["modp", "stable-lines", "--k", "9"]
        result = invoke(["--config", str(cfg), *args])
        out = json.loads(result.stdout)
        assert (out["command"], out["config"]) == _resolved_options(args, {"q": "2", "i": "0"})
        assert out["config"] == {"q": 2, "k": 9, "i": 0}

    def test_lattice_without_a_level_prints_p_and_k(self):
        out = json.loads(invoke(["lattice", "--p", "3", "--k", "2"]).stdout)
        assert (out["command"], out["config"]) == ("lattice", {"p": 3, "k": 2})


class TestOneExitCodeHandler:
    """Errors raised while the group or a command parses or runs leave by
    the same handler, whichever entry point runs the program."""

    ERRORS = [
        ((), "usage error: Usage: drinfeld [OPTIONS] COMMAND"),
        (("modp",), "usage error: Usage: drinfeld modp [OPTIONS] COMMAND"),
        (("--config", "/nonexistent/run.cfg", "tree"),
         "invalid parameters: Invalid value for '--config'"),
        (("tree", "--p"), "usage error: Option '--p' requires an argument."),
        (("tree", "--bogus"), "usage error: No such option '--bogus'."),
        (("modp", "nosuch"), "usage error: No such command 'nosuch'."),
        (("tree", "--p", "6"), "invalid parameters: p must be prime, got 6"),
        (("theta", "--p", "2", "--k", "1", "--f", "0", "--level", "1"),
         "error: integrality is only defined for nonzero sections"),
    ]

    @pytest.mark.parametrize("args,start", ERRORS, ids=[" ".join(e[0]) for e in ERRORS])
    def test_every_entry_point_exits_alike(self, args, start, monkeypatch, capsys):
        proc = run_cli(*args, expect_code=2)
        # the program name is the one thing the entry points print differently
        child = proc.stderr.decode()
        monkeypatch.setattr(sys, "argv", ["drinfeld", *args])
        with pytest.raises(SystemExit) as exited:
            cli_module.main()
        in_process = capsys.readouterr()
        runner = invoke(args)
        assert exited.value.code == runner.exit_code == 2
        assert child == in_process.err == runner.stderr
        assert child.startswith(start), child
        assert proc.stdout == b"" and in_process.out == runner.stdout == ""


def _declared_twice() -> list:
    """(path, option) for each option that a command or group takes more than
    once, its --help included."""
    twice = []
    for path, (_, options, _) in cli_module._COMMANDS.items():
        names = [*options, "help"]
        twice += [(" ".join(path), name) for name in sorted(set(names)) if names.count(name) > 1]
    return twice


class TestParseOnce:
    """The parser is kept: the option table and the command table are built
    once, at import, and read by every invocation that the process runs.
    After many in-process runs the tables are as import left them, and
    errors, --help and ``--config`` defaults are those of a fresh
    interpreter."""

    RUNS = [
        ["tree", "--p", "2", "--radius", "1"],
        ["modp", "degrees", "--q", "7", "--k", "3"],
        ["lattice", "--p", "2", "--k", "1", "--level", "1"],
        ["modp", "degrees", "--q", "5", "--k", "2"],
        ["tree", "--p", "3", "--radius", "0"],
        ["tree", "--bogus"],
        ["modp", "nosuch"],
        ["tree", "--help"],
        ["residue", "--p", "2", "--k", "0", "--f", "1/z", "--radius", "1", "--audit"],
    ]

    def _run_many(self):
        for _ in range(3):
            for args in self.RUNS:
                invoke(args)

    def test_runs_leave_the_tables_as_import_built_them(self, tmp_path):
        commands, options = dict(cli_module._COMMANDS), dict(cli_module._OPTIONS)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 5\nradius = 2\nhelp = 0\naudit = 1\n")
        self._run_many()
        invoke(["--config", str(cfg), "tree"])
        assert cli_module._COMMANDS == commands and cli_module._OPTIONS == options

    def test_errors_after_a_kept_parser_match_a_fresh_interpreter(self):
        self._run_many()
        for args in (
            ["tree", "--bogus"], ["modp", "degrees", "--bogus"], ["lattice", "--p"],
            ["tree", "--rad", "1"], ["modp", "nosuch"], ["residue", "--p", "2"],
        ):
            child = run_cli(*args, expect_code=2).stderr.decode()
            result = invoke(args)
            assert result.exit_code == 2
            assert result.stderr == child, args
            assert result.stderr.startswith(("usage error: ", "invalid parameters: ")), args

    @pytest.mark.parametrize("order", ["first", "second"])
    def test_a_kept_parser_reports_in_the_running_context(self, order):
        """An error names and suggests the options of the command being run,
        whichever command ran before it."""
        runs = [["tree", "--kk", "1"], ["local-dims", "--kk", "1"]]
        for args in runs if order == "first" else runs[::-1]:
            result = invoke(args)
            assert result.exit_code == 2
            assert result.stderr == run_cli(*args, expect_code=2).stderr.decode(), args
        assert invoke(runs[0]).stderr == "usage error: No such option '--kk'.\n"
        assert invoke(runs[1]).stderr == "usage error: No such option '--kk'. Did you mean '--k'?\n"

    HELP = [[], ["modp"], ["tree"], ["modp", "stable-lines"]]

    @pytest.mark.parametrize("args", HELP, ids=lambda args: " ".join(args) or "root")
    def test_help_after_a_kept_parser_matches_a_fresh_interpreter(self, args):
        self._run_many()
        child = run_cli(*args, "--help").stdout.decode()
        result = invoke([*args, "--help"])
        assert result.exit_code == 0
        assert result.stdout == child

    def test_config_file_after_a_kept_parser(self, tmp_path):
        self._run_many()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 5\nradius = 2\nk = 4\n")
        outputs = []
        config = ["--config", str(cfg)]
        for args in (["tree"], [*config, "tree"], ["tree"], [*config, "modp", "degrees"]):
            result = invoke(args)
            assert result.exit_code == 0, result.output
            assert result.stdout == run_cli(*args).stdout.decode(), args
            outputs.append(json.loads(result.stdout)["config"])
        assert outputs == [
            {"p": 2, "radius": 1},
            {"p": 5, "radius": 2},
            {"p": 2, "radius": 1},
            {"q": 2, "k": 4},
        ]


class TestNoOptionDeclaredTwice:
    """No command or group takes an option twice, --help included: the
    parser would read both as one and never say so."""

    def test_no_command_or_group_declares_an_option_twice(self):
        assert _declared_twice() == []

    @pytest.mark.parametrize(
        "path,option",
        [("", "--config"), ("tree", "--p"), ("modp degrees", "--k"), ("modp", "--help")],
        ids=str,
    )
    def test_a_duplicate_put_in_is_found(self, path, option, monkeypatch):
        fn, options, doc = cli_module._COMMANDS[tuple(path.split())]
        name = option[2:]
        monkeypatch.setitem(cli_module._COMMANDS, tuple(path.split()), (fn, (*options, name), doc))
        assert _declared_twice() == [(path, name)]

    def test_each_command_takes_the_options_it_declares(self):
        for path, (fn, options, _) in cli_module._COMMANDS.items():
            assert set(options) <= set(cli_module._OPTIONS) - {"help"}, path
            if fn is not None:
                assert tuple(inspect.signature(fn).parameters) == options, path


class TestChildProcessSurface:
    """The command line as a fresh interpreter runs it: it imports no click,
    --help answers for the root, for ``modp`` and for every command, and an
    interrupt inside a command exits 1 with no traceback."""

    def test_click_is_not_imported(self):
        code = "import sys, drinfeld.cli; print('click' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=child_env())
        assert proc.returncode == 0 and proc.stdout == b"False\n", proc.stderr

    @pytest.mark.parametrize(
        "path", sorted(cli_module._COMMANDS), ids=lambda path: " ".join(path) or "root"
    )
    def test_help_names_every_option(self, path):
        proc = run_cli(*path, "--help")
        out = proc.stdout.decode()
        assert proc.stderr == b"" and out.startswith(" ".join(("Usage: drinfeld", *path, "[OPTIONS]")))
        fn, options, _ = cli_module._COMMANDS[path]
        named = [cli_module._flag_of(name) for name in (*options, "help")]
        if fn is None:
            named += [sub[-1] for sub in cli_module._COMMANDS if sub[:-1] == path and sub]
        for name in named:
            assert re.search(rf"^  {re.escape(name)}( |$)", out, re.M), (name, out)

    def test_an_interrupt_in_a_command_exits_one_without_a_traceback(self):
        code = (
            "from drinfeld import cli\n"
            "def interrupted(*args):\n"
            "    raise KeyboardInterrupt\n"
            "cli.truncated_tree = interrupted\n"
            "cli.main(['tree', '--p', '3'])\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=child_env(), timeout=30)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == b"" and b"Traceback" not in proc.stderr

    def test_a_closed_stdout_exits_one_without_a_traceback(self):
        """The reader takes 10 bytes of a 0.5 MB basis and closes the pipe,
        as ``| head -c 10`` does: the pipe holds less than the output, so
        the child is still writing when it closes."""
        args = ["modp", "sections", "--q", "3", "--k", "4", "--radius", "3"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "drinfeld.cli", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        assert proc.stdout.read(10) == b'{\n  "basis'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=30) == 1, err
        assert err == b"", err


class TestExitCodes:
    def test_composite_p_is_rejected_with_code_two(self):
        proc = run_cli("tree", "--p", "6", "--radius", "1", expect_code=2)
        assert b"invalid parameters" in proc.stderr

    def test_oversized_radius_is_rejected_with_code_two(self):
        proc = run_cli("tree", "--p", "2", "--radius", "99", expect_code=2)
        assert b"invalid parameters" in proc.stderr

    def test_unknown_command_is_a_usage_error(self):
        proc = run_cli("no-such-command", expect_code=2)
        assert b"usage error" in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("lattice", "--p", "2", "--k", "1", "--level", "1", "--offset", "1e-99999999"),
            ("identity-b", "--a", "1e-99999999"),
        ],
    )
    def test_exponent_notation_is_refused_at_once(self, args):
        # Fraction("1e-99999999") would build a denominator of 10^99999999
        proc = subprocess.run(
            [sys.executable, "-m", "drinfeld.cli", *args],
            capture_output=True,
            env=child_env(),
            timeout=2,
        )
        assert proc.returncode == 2, (args, proc.stderr)
        assert b"must be a rational number" in proc.stderr


class TestLargePrimes:
    """Primality by a deterministic Miller-Rabin, not by trial division: a
    25-digit prime is accepted at once, and the first number beyond the
    bound of its 13 bases is refused."""

    @pytest.mark.parametrize(
        "args,code",
        [
            (("modp", "degrees", "--q", "1000000000000000000000007", "--k", "2"), 0),
            (("local-dims", "--p", "3317044064679887385961981", "--k", "2"), 2),
        ],
    )
    def test_answered_within_two_seconds(self, args, code):
        proc = subprocess.run(
            [sys.executable, "-m", "drinfeld.cli", *args],
            capture_output=True,
            env=child_env(),
            timeout=2,
        )
        assert proc.returncode == code, (args, proc.stderr)


class TestAnsweredAtOnce:
    """Inputs at huge q or t, each answered or refused within two seconds as
    a child process, with no traceback.  The lazy modulus lets q = 2^100 name
    its field without finding an irreducible, the factorisation of q - 1
    stops at a prime cofactor, and the budgets refuse the rest before any
    work."""

    _Q, _Q2 = str(10**24 + 7), str(2**100)

    @pytest.mark.parametrize(
        "args,code",
        [
            (("modp", "stable-lines", "--q", _Q, "--k", "4", "--i", "0"), 2),
            (("modp", "stable-lines", "--q", "1009", "--k", "4", "--i", "0"), 2),
            (("modp", "stable-lines", "--q", "3", "--k", "3000", "--i", "0"), 2),
            (("modp", "stable-lines", "--q", "49", "--k", "4", "--i", "0"), 0),
            # the largest admitted q at k = 4, from binomials mod p
            (("modp", "stable-lines", "--q", "499", "--k", "4", "--i", "0"), 0),
            (("modp", "degrees", "--q", _Q2, "--k", "2"), 0),
            # b-forms walks the radius-2 ball at p: 996 005 vertices at p = 997,
            # and 10 at p = 2
            (("modp", "b-forms", "--q", "997"), 2),
            (("modp", "b-forms", "--q", _Q2), 0),
            (("modp", "symgeom-check", "--q", _Q, "--k", "0", "--i", "0"), 0),
            (("modp", "symgeom-check", "--q", _Q2, "--k", "0", "--i", "0"), 2),
            # q - 1 = 2 * 100000000003 * 100000000283, split by Pollard's rho
            (("modp", "symgeom-check", "--q", "20000000057200000001699", "--k", "0", "--i", "0"), 0),
            (("residue", "--p", "2", "--k", "0", "--f", "1/z^99999999", "--radius", "1"), 2),
            # equal roots add up to (z - 1/3)^-1000 when the factors are joined
            (("residue", "--p", "3", "--k", "2", "--f", "*".join(["(z-1/3)^-100"] * 10), "--radius", "3"), 2),
            (("lattice", "--p", "2", "--k", "1", "--level", "99999999", "--offset", "0"), 2),
            # the diagonal profiles in O(k), and an off-axis vertex's in O(k^2)
            (("lattice", "--p", "2", "--k", "3000"), 0),
            (("lattice", "--p", "3", "--k", "300", "--level", "4", "--offset", "5"), 0),
            (("local-dims", "--p", "1000003", "--k", "2"), 2),
            # the image's lead would carry 1601!, of 4 437 digits
            (("theta", "--p", "2", "--k", "1600", "--f", "1/z", "--level", "0"), 2),
            # polynomial parts of degree up to 1 992 and 1 462
            (("theta", "--p", "2", "--k", "995", "--f", "(z-1)^-1*(z-2)^-1*(z-3)^-1", "--level", "0"), 2),
            (("theta", "--p", "2", "--k", "1461", "--f", "1/(z-1/3)/(z-1/5)", "--level", "0"), 2),
            (("local-dims", "--p", "2", "--k", "2000"), 2),
            # the largest balls the vertex budget admits, at their primes
            (("harmonic", "--p", "5", "--k", "2", "--radius", "6"), 0),
            (("harmonic", "--p", "7", "--k", "0", "--radius", "5"), 0),
            (("harmonic", "--p", "3", "--k", "0", "--radius", "8"), 0),
            (("harmonic", "--p", "11", "--k", "0", "--radius", "4"), 0),
            (("tree", "--p", "5", "--radius", "6"), 0),
            (("residue", "--p", "5", "--k", "2", "--f", "z^-1*(z-1)^-1", "--radius", "6"), 0),
            (("residue", "--p", "3", "--k", "0", "--f", "1/z", "--radius", "8"), 0),
            (("tree", "--p", "157", "--radius", "2"), 0),
            (("modp", "b-forms", "--q", "157"), 0),
            # one star's local spaces, at the largest p or k admitted
            (("local-dims", "--p", "997", "--k", "28"), 0),
            (("harmonic", "--p", "997", "--k", "40", "--radius", "1", "--mod-pihat"), 0),
            (("harmonic", "--p", "2", "--k", "60", "--radius", "8", "--mod-pihat"), 0),
            (("harmonic", "--p", "2", "--k", "200", "--radius", "8", "--mod-pihat"), 0),
        ],
        ids=lambda x: " ".join(x) if isinstance(x, tuple) else str(x),
    )
    def test_answered_within_two_seconds(self, args, code):
        proc = subprocess.run(
            [sys.executable, "-m", "drinfeld.cli", *args],
            capture_output=True,
            env=child_env(),
            timeout=2,
        )
        assert proc.returncode == code, (args, proc.stderr)
        assert b"Traceback" not in proc.stderr
        if code == 2:
            assert proc.stderr.startswith(b"invalid parameters:") and proc.stderr.count(b"\n") == 1


    # two 4 000-digit literals join into an 8 000-digit lead, more digits
    # than an int prints
    _LONG_LEAD = "7" * 4000 + "*" + "7" * 4000 + "/z"

    @pytest.mark.parametrize(
        "args",
        [
            ("residue", "--p", "2", "--k", "0", "--radius", "1"),
            ("theta", "--p", "2", "--k", "0", "--level", "0"),
        ],
        ids=" ".join,
    )
    def test_a_long_lead_is_refused_within_two_seconds(self, args):
        self.test_answered_within_two_seconds((*args, "--f", self._LONG_LEAD), 2)

    # a root of 1 500 digits: the residue values carry its cube at k = 3, and
    # the derivative's numerator the product of its powers with another root's
    _LONG_ROOT = "7" * 1500
    ROOTS = [
        ("residue", "--p", "2", "--k", "3", "--f", f"1/(z-{_LONG_ROOT})", "--radius", "1"),
        ("theta", "--p", "2", "--k", "3", "--f", f"1/(z-{_LONG_ROOT})/(z-1)", "--level", "0"),
    ]

    @pytest.mark.parametrize("args", ROOTS, ids=lambda args: args[0])
    def test_a_long_root_is_refused_within_two_seconds(self, args):
        self.test_answered_within_two_seconds(args, 2)


class TestInProcessExitCodes:
    @pytest.mark.parametrize(
        "args",
        [
            ("harmonic", "--k", "-3"),
            ("modp", "degrees", "--q", "0"),
            ("lattice", "--level", "1", "--offset", "abc"),
            ("identity-b", "--a", "1/0"),
            ("lattice", "--level", "1", "--offset", "1e2"),
            ("identity-b", "--a", "5E-1"),
            ("identity-b", "--kmax", "-1"),
            ("residue", "--p", "2", "--k", "0", "--f", "1/0", "--radius", "1"),
            ("residue", "--p", "2", "--k", "0", "--f", "(z-1/0)", "--radius", "1"),
            ("residue", "--p", "2", "--k", "0", "--f", "z/0", "--radius", "1"),
            ("theta", "--p", "2", "--k", "1", "--f", "1/0", "--level", "1"),
            # more digits than int() converts, in a literal and in an exponent
            ("residue", "--p", "2", "--k", "0", "--f", "9" * 5000 + "/z", "--radius", "1"),
            ("theta", "--p", "2", "--k", "0", "--f", "z^-" + "9" * 5000, "--level", "1"),
            # beyond the bound below which primality is decided
            ("local-dims", "--p", str(10**400 + 1)),
            ("modp", "degrees", "--q", str(10**400 + 1)),
        ],
    )
    def test_input_outside_the_domain_is_rejected_with_code_two(self, args):
        result = invoke(list(args))
        assert result.exit_code == 2, (args, result.output)
        assert "invalid parameters" in result.stderr

    OVERSIZED = [
        ("tree", "--p", "7", "--radius", "8"),
        ("modp", "sections", "--q", "5", "--k", "2", "--radius", "8"),
        ("residue", "--p", "11", "--k", "0", "--f", "1/z", "--radius", "5"),
    ]

    @pytest.mark.parametrize("args", OVERSIZED, ids=[" ".join(a) for a in OVERSIZED])
    def test_oversized_ball_is_rejected_before_it_is_built(self, args, monkeypatch):
        def refuse(*_):
            raise AssertionError("a ball was built")

        monkeypatch.setattr("drinfeld.cli.truncated_tree", refuse)
        monkeypatch.setattr("drinfeld.modp.truncated_tree", refuse)
        result = invoke(list(args))
        assert result.exit_code == 2, (args, result.output)
        assert "more than 25000" in result.stderr

    @pytest.mark.parametrize(
        "content,message",
        [
            (b"p = 2\ngarbage\n", "bad config line"),
            (b"p = 2\n\xff = 3\n", "config file is not UTF-8"),
        ],
        ids=["no-equals-sign", "not-utf-8"],
    )
    def test_malformed_config_file_is_rejected_with_code_two(self, tmp_path, content, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(content)
        result = invoke(["--config", str(cfg), "local-dims"])
        assert result.exit_code == 2, (result.output, repr(result.exception))
        assert result.stderr.startswith(f"invalid parameters: {message}")

    def test_non_integer_config_value_is_rejected_with_code_two(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = abc\n")
        result = invoke(["--config", str(cfg), "local-dims"])
        assert result.exit_code == 2
        assert "invalid parameters" in result.stderr

    @pytest.mark.parametrize("radius", ["abc", "20"])
    def test_config_radius_is_ignored_by_a_command_without_one(self, tmp_path, radius):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"radius = {radius}\n")
        args = ["local-dims", "--p", "2", "--k", "1"]
        result = invoke(["--config", str(cfg), *args])
        assert result.exit_code == 0, result.output
        assert result.stdout == invoke(args).stdout
        rejected = invoke(["--config", str(cfg), "tree"])
        assert rejected.exit_code == 2
        assert "invalid parameters" in rejected.stderr

    @pytest.mark.parametrize("value", ["1", "x"])
    def test_a_config_help_key_is_ignored(self, tmp_path, value):
        """--help is read from the command line only: a file's help key is
        ignored like any key that names no option of the command."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"help = {value}\n")
        args = ["local-dims", "--p", "2", "--k", "1"]
        result = invoke(["--config", str(cfg), *args])
        assert result.exit_code == 0, result.output
        assert result.stdout == invoke(args).stdout and result.stderr == ""
        asked = invoke(["--config", str(cfg), *args, "--help"])
        assert asked.exit_code == 0 and asked.stdout.startswith("Usage: drinfeld local-dims [OPTIONS]")

    @pytest.mark.parametrize("audit", [[], ["--audit", "--seed", "3"]])
    def test_residue_computes_its_cochain_once(self, monkeypatch, audit):
        # the CLI and res0_integrality each hold a reference to res0
        from drinfeld import cli as cli_module, harmonic

        real_res0 = harmonic.res0
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("rng") is not None)
            return real_res0(*args, **kwargs)

        monkeypatch.setattr(harmonic, "res0", counted)
        monkeypatch.setattr(cli_module, "res0", counted)
        result = invoke(["residue", "--p", "2", "--k", "1", "--f", "1/z", "--radius", "2", *audit]
        )
        assert result.exit_code == 0, result.output
        assert calls == [bool(audit)]

    def test_theta_differentiates_once(self, monkeypatch):
        # the certificate reads the image that the command computed
        from drinfeld.rational import FactoredRational

        real = FactoredRational.derivative
        orders = []

        def counted(self, order=1):
            orders.append(order)
            return real(self, order)

        monkeypatch.setattr(FactoredRational, "derivative", counted)
        result = invoke(["theta", "--p", "2", "--k", "2", "--f", "1/z", "--level", "1"]
        )
        assert result.exit_code == 0, result.output
        assert orders == [3]

    def test_residue_of_the_zero_section_is_the_zero_cochain(self):
        result = invoke(["residue", "--p", "2", "--k", "0", "--f", "0", "--radius", "2"]
        )
        assert result.exit_code == 0, result.output
        out = json.loads(result.stdout)
        assert out["support_size"] == 0
        assert out["cochain"] == []
        assert out["vertex_membership"] is True
        assert out["pass"] is True


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


# Text that is no integer: a numeric string here could ask for any amount of work.
_JUNK = st.one_of(
    st.sampled_from(["", " ", "x", "abc", "2.5", "1/0", "1e3", "0x7", "--", "-", "None"]),
    st.text(max_size=4).filter(lambda s: not _is_int(s)),
)


def _mostly(values):
    """``values`` most of the time, junk now and then."""
    return st.tuples(st.integers(0, 7), values, _JUNK).map(
        lambda t: t[2] if t[0] == 7 else t[1]
    )


def _int_option(lo: int, hi: int):
    return _mostly(st.integers(lo, hi).map(str))


_RATIONAL = _mostly(
    st.one_of(
        st.builds(lambda n, d: f"{n}/{d}", st.integers(-9, 9), st.integers(-3, 5)),
        st.integers(-9, 9).map(str),
        st.just("1/0"),
    )
)
_EXPONENT = st.one_of(st.just(""), st.integers(-3, 3).map(lambda e: f"^{e}"))
_FACTOR = st.builds(
    lambda base, e: base + e,
    st.one_of(
        st.just("z"),
        st.just("pihat"),
        st.sampled_from(["0", "1", "2", "1/2", "-3/4", "1/0", "p", "pihat", "x"]).map(
            lambda a: f"(z-{a})"
        ),
        st.sampled_from(["1", "2", "-1/3", "0"]),
    ),
    _EXPONENT,
)
_SECTION = _mostly(
    st.builds(
        lambda first, rest: first + "".join(op + f for op, f in rest),
        _FACTOR,
        st.lists(st.tuples(st.sampled_from(["*", "/"]), _FACTOR), max_size=3),
    )
)
_P = _Q = _int_option(-3, 10)
_K, _RADIUS = _int_option(-2, 4), _int_option(-1, 2)
_LEVEL, _I, _SEED = _int_option(-2, 2), _int_option(-1, 4), _int_option(0, 5)

# Each command with the options it takes.
_COMMANDS = {
    ("tree",): {"p": _P, "radius": _RADIUS},
    ("lattice",): {"p": _P, "k": _K, "level": _LEVEL, "offset": _RATIONAL},
    ("local-dims",): {"p": _P, "k": _K},
    ("harmonic",): {"p": _P, "k": _K, "radius": _RADIUS},
    ("residue",): {"p": _P, "k": _K, "radius": _RADIUS, "f": _SECTION, "seed": _SEED},
    ("theta",): {"p": _P, "k": _K, "f": _SECTION, "level": _LEVEL, "offset": _RATIONAL},
    ("identity-b",): {"p": _P, "kmax": _K, "mmax": _int_option(-1, 3), "a": _RATIONAL},
    ("modp", "degrees"): {"q": _Q, "k": _K},
    ("modp", "sections"): {"q": _Q, "k": _K, "radius": _RADIUS},
    ("modp", "stable-lines"): {"q": _Q, "k": _K, "i": _I},
    ("modp", "symgeom-check"): {"q": _Q, "k": _K, "i": _I},
    ("modp", "b-forms"): {"q": _Q},
}


# A line with no "=" in it, which the config file rejects.
_MALFORMED = st.sampled_from(["garbage", "k 2", "[tree]", "--p"])


@st.composite
def _invocations(draw):
    """The arguments of one invocation, and the lines of its config file: each
    drawn option goes to the file half of the time, and now and then the
    file gets a malformed line."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    options = {}  # a flag has the value None
    for name, values in _COMMANDS[command].items():
        if draw(st.booleans()) or name == "f":
            options[name] = draw(values)
    if command == ("residue",) and draw(st.booleans()):
        options["audit"] = None
    if command == ("harmonic",) and draw(st.booleans()):
        options["mod-pihat"] = None
    args, lines = [*command], []
    for name, value in options.items():
        text = "true" if value is None else value
        # a value with a line break would not be one line of the file
        if draw(st.booleans()) and not {"\r", "\n"} & set(text):
            lines.append(f"{name} = {text}")
        else:
            args.append(f"--{name}" if value is None else f"--{name}={value}")
    if draw(st.integers(0, 7)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_MALFORMED))
    return args, lines


class TestExitCodeFuzz:
    @given(invocation=_invocations())
    @settings(max_examples=200, deadline=None)
    def test_every_input_exits_zero_with_json_or_two_with_one_line(self, invocation):
        args, lines = invocation
        # a temporary directory of its own: pytest's tmp_path does not mix with @given
        with tempfile.TemporaryDirectory() as tmp:
            if lines:
                cfg = Path(tmp) / "run.cfg"
                cfg.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
                args = ["--config", str(cfg), *args]
            result = invoke(args)
        assert result.exit_code in (0, 2), (args, lines, result.output, repr(result.exception))
        if result.exit_code == 0:
            assert isinstance(json.loads(result.stdout), dict)
        else:
            message = result.stderr.strip()
            assert "\n" not in message, (args, lines, message)
            assert message.startswith(("invalid parameters:", "error:", "usage error:")), (
                args,
                lines,
                message,
            )


def _workloads():
    """``perfbench/workloads.py``, imported from its file."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _benchmark_jobs() -> list[list[str]]:
    """Every job of the three benchmark lists at seed 1."""
    workloads = _workloads()
    return [job for name in workloads.WORKLOADS for job in workloads.job_list(name, 1)]


class TestListBudget:
    """``modp sections``, ``stable-lines`` and ``symgeom-check`` refuse,
    before building anything, a list longer than the budget: V·(deg+1) and,
    for the last two, t + 1 entries.  ``symgeom-check`` also refuses an
    extension field whose tables would pass their budget of entries.
    ``b-forms`` refuses as early by the radius-2 ball at p that it walks."""

    _Q = str(10**24 + 7)
    PROBES = [
        ("modp", "b-forms", "--q", _Q),
        ("modp", "sections", "--q", _Q, "--k", "2", "--radius", "0"),
        ("modp", "stable-lines", "--q", _Q, "--k", "4", "--i", "0"),
        ("modp", "symgeom-check", "--q", _Q, "--k", "2", "--i", "0"),
    ]
    WORK = ("b_forms_check", "global_sections_truncated", "quotient_rep_and_stable_lines", "symgeom_iso")

    @pytest.mark.parametrize("args", PROBES, ids=" ".join)
    def test_a_list_past_the_budget_is_refused(self, args, monkeypatch):
        def refuse(*_):
            raise AssertionError("the command's work began")

        for name in self.WORK:
            monkeypatch.setattr(cli_module, name, refuse)
        result = invoke(list(args))
        assert result.exit_code == 2, (args, result.output)
        message = result.stderr.strip()
        assert "\n" not in message and message.startswith("invalid parameters:")
        if args[1] == "b-forms":
            ball = f"the radius-2 ball at p = {args[3]} has "
            assert message.startswith(f"invalid parameters: {ball}")
            assert message.endswith(f"vertices, more than {cli_module._MAX_BALL_VERTICES}")
        else:
            assert message.endswith(f"more than {cli_module._MAX_LIST}")

    def test_a_large_prime_with_a_short_list_runs(self):
        args = ["modp", "symgeom-check", "--q", "1000003", "--k", "0", "--i", "0"]
        assert invoke(args).exit_code == 0

    @pytest.mark.parametrize("q", [2**100, 3**9])
    def test_a_large_extension_field_is_refused_before_its_tables(self, q, monkeypatch):
        def refuse(*_):
            raise AssertionError("the command's work began")

        monkeypatch.setattr(cli_module, "symgeom_iso", refuse)
        args = ["modp", "symgeom-check", "--q", str(q), "--k", "0", "--i", "0"]
        result = invoke(args)
        assert result.exit_code == 2, (args, result.output)
        message = result.stderr.strip()
        assert message == (
            f"invalid parameters: the field of order {q} has {q - 1} table entries, "
            f"more than {cli_module._MAX_TABLE}"
        )

    def test_every_shown_and_benchmarked_invocation_passes_the_check(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*_):
            raise Reached

        for name in self.WORK:
            monkeypatch.setattr(cli_module, name, reached)
        invocations = [list(args) for args, _, _ in TestGoldenStdout.GOLDEN]
        invocations += _readme_examples() + _benchmark_jobs()
        commands = (
            ["modp", "b-forms"],
            ["modp", "sections"],
            ["modp", "stable-lines"],
            ["modp", "symgeom-check"],
        )
        budgeted = [args for args in invocations if args[:2] in commands]
        assert len(budgeted) > 40
        for args in budgeted:
            result = invoke(args)
            assert isinstance(result.exception, Reached), (args, result.output)


class TestCostLimits:
    """``residue`` and ``theta`` refuse an exponent past ``_MAX_EXPONENT`` in
    ``--f``, or z-factors whose orders add up past it, or roots whose digits
    times k + 2 plus the total order pass ``_MAX_ROOT_DIGITS``, ``lattice`` and
    ``theta`` a level past ``_MAX_LEVEL``, and ``local-dims`` a star of more
    than ``_MAX_LIST`` edges, each read in closed form before any work."""

    WORK = {
        "residue": "parse_rational",
        "theta": "parse_rational",
        "lattice": "vertex_lattice_profile",
        "local-dims": "local_space_report",
    }
    PROBES = [
        ("residue", "--p", "2", "--k", "0", "--f", "1/z^99999999", "--radius", "1"),
        ("residue", "--p", "3", "--k", "1", "--f", "(z-1)^-101", "--radius", "1"),
        ("residue", "--p", "2", "--k", "0", "--f", "p^0000101/z", "--radius", "1"),
        ("theta", "--p", "2", "--k", "0", "--f", "(z-pihat^-200)^-1", "--level", "1"),
        ("theta", "--p", "2", "--k", "0", "--f", "1/z", "--level", "-101"),
        ("lattice", "--p", "2", "--k", "1", "--level", "99999999", "--offset", "0"),
        ("local-dims", "--p", "1009", "--k", "2"),
        ("local-dims", "--p", "2", "--k", "2000"),
        ("local-dims", "--p", "997", "--k", "29"),
        ("residue", "--p", "3", "--k", "2", "--f", "*".join(["(z-1/3)^-100"] * 10), "--radius", "3"),
        ("residue", "--p", "3", "--k", "2", "--f", "1" + "/(z-1/3)^100" * 2, "--radius", "1"),
        ("theta", "--p", "3", "--k", "0", "--f", "z^-60*(z-1)^0041", "--level", "1"),
        ("theta", "--p", "3", "--k", "0", "--f", "(z-1)^0*" * 101 + "z", "--level", "1"),
        ("residue", "--p", "3", "--k", "0", "--f", "*".join(f"(z-{i})" for i in range(1000)), "--radius", "1"),
    ]

    def _patch(self, monkeypatch, action):
        for name in set(self.WORK.values()):
            monkeypatch.setattr(cli_module, name, action)

    @pytest.mark.parametrize("args", PROBES, ids=lambda args: " ".join(args)[:80])
    def test_a_costly_input_is_refused(self, args, monkeypatch):
        def refuse(*_):
            raise AssertionError("the command's work began")

        self._patch(monkeypatch, refuse)
        result = invoke(list(args))
        assert result.exit_code == 2, (args, result.output)
        message = result.stderr.strip()
        assert "\n" not in message and message.startswith("invalid parameters:")

    @pytest.mark.parametrize(
        "args",
        [
            ("residue", "--p", "2", "--k", "0", "--f", "(z-1)^-100", "--radius", "1"),
            ("residue", "--p", "2", "--k", "0", "--f", "z^-50*(z-1)^0050", "--radius", "1"),
            ("theta", "--p", "3", "--k", "0", "--f", "(z-1)^0*" * 99 + "z", "--level", "1"),
            ("theta", "--p", "2", "--k", "0", "--f", "1/z", "--level", "100"),
            ("lattice", "--p", "2", "--k", "1", "--level", "-100", "--offset", "0"),
            ("local-dims", "--p", "997", "--k", "0"),
            # 3 * 202^3 is within the budget, and 3 * 203^3 past it
            ("local-dims", "--p", "2", "--k", "201"),
        ],
        ids=" ".join,
    )
    def test_the_limits_themselves_run(self, args):
        assert invoke(list(args)).exit_code == 0

    # the work that follows the lead check, once ``--f`` is parsed
    AFTER_PARSE = {"residue": "truncated_tree", "theta": "theta"}
    LEADS = [
        ("residue", "--p", "2", "--k", "0", "--f", TestAnsweredAtOnce._LONG_LEAD, "--radius", "1"),
        ("theta", "--p", "2", "--k", "0", "--f", TestAnsweredAtOnce._LONG_LEAD, "--level", "0"),
        # 3^2500 has 1 193 digits, and 1/(10^600 - 1)^2 a denominator of 1 200
        ("theta", "--p", "3", "--k", "1", "--f", "*".join(["p^100"] * 25) + "/z", "--level", "0"),
        ("residue", "--p", "2", "--k", "0", "--f", "(z-1)*1/" + "9" * 600 + "*1/" + "9" * 600),
    ]

    @pytest.mark.parametrize("args", LEADS, ids=lambda args: " ".join(args)[:40])
    def test_a_long_lead_is_refused_before_the_work(self, args, monkeypatch):
        def refuse(*_):
            raise AssertionError("the command's work began")

        for name in self.AFTER_PARSE.values():
            monkeypatch.setattr(cli_module, name, refuse)
        result = invoke(list(args))
        assert result.exit_code == 2, (args[:4], result.output[:200])
        limit = cli_module._MAX_LEAD_DIGITS
        assert result.stderr == f"invalid parameters: --f has a lead of more than {limit} digits\n"

    @pytest.mark.parametrize("args", TestAnsweredAtOnce.ROOTS, ids=lambda args: args[0])
    def test_a_long_root_is_refused_before_the_work(self, args, monkeypatch):
        def refuse(*_):
            raise AssertionError("the command's work began")

        for name in self.AFTER_PARSE.values():
            monkeypatch.setattr(cli_module, name, refuse)
        result = invoke(list(args))
        assert result.exit_code == 2, (args[:4], result.output[:200])
        message = result.stderr.strip()
        assert "\n" not in message and message.startswith("invalid parameters: --f has roots of")

    # 999 digits, counted as 1 000, times k + 2 plus the order, 3, is the bound
    @pytest.mark.parametrize(
        "args",
        [
            ("residue", "--p", "2", "--k", "0", "--f", "1/(z-" + "7" * 999 + ")", "--radius", "1"),
            ("theta", "--p", "2", "--k", "0", "--f", "1/(z-" + "7" * 999 + ")", "--level", "0"),
        ],
        ids=lambda args: args[0],
    )
    def test_the_root_limit_itself_runs(self, args):
        assert invoke(list(args)).exit_code == 0

    # (k + 1)! for 1/z and (k + 2)! for z^2 past the limit, or within it but
    # for a lead of 978 digits; a constant at a huge k, which was
    # differentiated k + 1 times, one step at a time
    IMAGES = [
        ("theta", "--p", "2", "--k", "1600", "--f", "1/z", "--level", "0"),
        ("theta", "--p", "3", "--k", "1463", "--f", "z^2", "--level", "0"),
        ("theta", "--p", "2", "--k", "1" + "0" * 40, "--f", "3", "--level", "0"),
        ("theta", "--p", "5", "--k", "1200", "--f", "*".join(["p^100"] * 14) + "/z", "--level", "0"),
    ]

    @pytest.mark.parametrize("args", IMAGES, ids=lambda args: " ".join(args)[:60])
    def test_a_long_image_is_refused_before_the_derivative(self, args, monkeypatch):
        def refuse(*_):
            raise AssertionError("the derivative began")

        monkeypatch.setattr(cli_module, "theta", refuse)
        result = invoke(list(args))
        assert result.exit_code == 2, (args[:4], result.output[:200])
        limit = cli_module._MAX_IMAGE_DIGITS
        assert result.stderr == (
            f"invalid parameters: theta's image at k = {args[4]} may have a lead of more than {limit} digits\n"
        )

    # deg(extra) + (k + 1)(roots - 1) past the limit: a zero among the
    # roots counts, though it leaves the recurrence after its multiplicity
    DEGREES = [
        ("theta", "--p", "2", "--k", "995", "--f", "(z-1)^-1*(z-2)^-1*(z-3)^-1", "--level", "0"),
        ("theta", "--p", "2", "--k", "1461", "--f", "1/(z-1/3)/(z-1/5)", "--level", "0"),
        ("theta", "--p", "2", "--k", "500", "--f", "(z-1)^-1*(z-3)", "--level", "0"),
        ("theta", "--p", "3", "--k", "100", "--f", "*".join(f"(z-{r})^-1" for r in range(1, 7)), "--level", "0"),
    ]

    @pytest.mark.parametrize("args", DEGREES, ids=lambda args: " ".join(args)[:60])
    def test_a_long_polynomial_part_is_refused_before_the_derivative(self, args, monkeypatch):
        def refuse(*_):
            raise AssertionError("the derivative began")

        monkeypatch.setattr(cli_module, "theta", refuse)
        result = invoke(list(args))
        assert result.exit_code == 2, (args[:4], result.output[:200])
        limit = cli_module._MAX_IMAGE_DEGREE
        assert result.stderr.startswith(f"invalid parameters: theta's image at k = {args[4]} may have")
        assert result.stderr.endswith(f"more than {limit}\n")

    # the degree bound is 500 exactly: the zero at 3 leaves after one step
    def test_the_degree_limit_itself_runs(self):
        args = ["theta", "--p", "2", "--k", "499", "--f", "(z-1)^-1*(z-3)", "--level", "0"]
        assert invoke(args).exit_code == 0

    # 1463! has 3 998 digits
    def test_the_image_limit_itself_runs(self):
        args = ["theta", "--p", "2", "--k", "1462", "--f", "1/z", "--level", "0"]
        assert invoke(args).exit_code == 0

    # ``_section`` holds the root check as well as the lead check, and
    # ``theta`` checks its image's lead before it calls ``theta``
    def test_every_shown_and_benchmarked_section_passes_the_lead_check(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*_):
            raise Reached

        for name in self.AFTER_PARSE.values():
            monkeypatch.setattr(cli_module, name, reached)
        invocations = [list(args) for args, _, _ in TestGoldenStdout.GOLDEN]
        invocations += _readme_examples() + _benchmark_jobs()
        sections = [args for args in invocations if args[0] in self.AFTER_PARSE]
        assert {args[0] for args in sections} == set(self.AFTER_PARSE) and len(sections) > 100
        for args in sections:
            result = invoke(args)
            assert isinstance(result.exception, Reached), (args, result.output)

    def test_every_shown_and_benchmarked_invocation_passes_the_check(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*_):
            raise Reached

        self._patch(monkeypatch, reached)
        invocations = [list(args) for args, _, _ in TestGoldenStdout.GOLDEN]
        invocations += _readme_examples() + _benchmark_jobs()
        limited = [args for args in invocations if args[0] in self.WORK]
        assert {args[0] for args in limited} == set(self.WORK) and len(limited) > 250
        for args in limited:
            result = invoke(args)
            assert isinstance(result.exception, Reached), (args, result.output)


class TestListDigests:
    """The stdout of every job of each benchmark list at seeds 1 and 2, pinned by
    one sha256 over the (argv, exit code, stdout) of its jobs in run order,
    run in-process.  A change that alters a payload on purpose updates these
    digests and says so."""

    DIGESTS = {
        "local-lattices": "b8ecfedfad6d60734f2dd647fda56173ca043c163f13d5de88865b9bfbf60a98",
        "tree-cochains": "90e2f57f284de2491437da07d0eb3046f8a361e2382e16d80afc8e345bd33593",
        "residue-field": "3cef6da0eeb4a26ecf4b64c21b78cb8cd5edf279217cf8a2e8a01ae8b12fb353",
    }

    DIGESTS_AT_SEED_TWO = {
        "local-lattices": "73512650a20fe684e59c2103e1f895c25e0aca4d37162b8888ea14598877d53f",
        "tree-cochains": "40ca97fbda1a7513c6eea7deda4829c3a90fe2a775db35c181dd19c048c25789",
        "residue-field": "b52b0c09790eb0311a19782f64180a8dac8c8cea872edf4a92bf5b73e00f2565",
    }

    @staticmethod
    def _digest(workload: str, seed: int) -> str:
        digest = hashlib.sha256()
        jobs = _workloads().job_list(workload, seed)
        for job in jobs:
            result = invoke(job)
            digest.update(json.dumps([job, result.exit_code, result.stdout]).encode())
        assert len(jobs) > 90
        return digest.hexdigest()

    @pytest.mark.parametrize("workload", sorted(DIGESTS))
    def test_list_digest_at_seed_one(self, workload):
        assert self._digest(workload, 1) == self.DIGESTS[workload]

    @pytest.mark.parametrize("workload", sorted(DIGESTS_AT_SEED_TWO))
    def test_list_digest_at_seed_two(self, workload):
        assert self._digest(workload, 2) == self.DIGESTS_AT_SEED_TWO[workload]


class TestResidueFieldReach:
    """Stable lines at fields where a scan of the q^(q+1) vectors of the
    quotient would not finish.  Each printed line is checked on the full
    monomial coordinates: every generator maps it to a nonzero multiple.
    The comparison map at a large prime with no window power, where the
    check builds no polynomial of degree q."""

    def test_symgeom_check_at_a_large_prime_without_a_shift(self):
        args = ["modp", "symgeom-check", "--q", "1000003", "--k", "0", "--i", "0"]
        result = invoke(args)
        assert result.exit_code == 0, (result.output, repr(result.exception))
        out = json.loads(result.stdout)
        assert out["equivariant"] is True and out["images"] == ["1"]

    @pytest.mark.parametrize(
        "q,k,i",
        [
            (7, 4, 0), (8, 4, 0), (9, 10, 0), (11, 10, 0), (23, 4, 0), (27, 4, 0), (31, 4, 0),
            (49, 4, 0), (64, 4, 0), (101, 4, 0), (128, 4, 0),
        ],
    )
    def test_every_printed_line_is_fixed_by_every_generator(self, q, k, i):
        args = ["modp", "stable-lines", "--q", str(q), "--k", str(k), "--i", str(i)]
        result = invoke(args)
        assert result.exit_code == 0, (result.output, repr(result.exception))
        out = json.loads(result.stdout)
        field = Fq(q)
        t, shift = symgeom_parameters(q, k, i)
        assert out["stable_lines"]
        for printed in out["stable_lines"]:
            line = tuple(field.elem(x) for x in printed)
            lead = next(x for x in line if x)
            assert lead == field.one()
            coords = [field.zero()] * (t + 1)
            for pos, c in zip(out["free_monomials"], line):
                coords[pos] = c
            for g in gl2_generators(field):
                image = mat_vec(sym_matrix_fq(field, g, t, shift), coords)
                moved = quotient_reduce(q, k, i, dict(enumerate(image)))
                scale = next(y for x, y in zip(line, moved) if x)
                assert scale and moved == tuple(scale * x for x in line), (printed, g)


class TestComparisonMapReach:
    """The comparison map at t = 998, the longest list its budget admits at
    q = 3: images in closed form and matrices and columns on ints mod 3."""

    def test_the_longest_admitted_map_is_answered_within_ten_seconds(self):
        args = ["modp", "symgeom-check", "--q", "3", "--k", "998", "--i", "0"]
        proc = subprocess.run(
            [sys.executable, "-m", "drinfeld.cli", *args], capture_output=True, env=child_env(), timeout=10
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert (out["t"], out["shift"], len(out["images"])) == (998, -499, 999)
        assert out["equivariant"] is True and out["injectivity_rank"] == 999 and out["pass"] is True


class TestEdgeLatticeReach:
    """The integrality report at large k: ``in_edge_lattice`` applies the
    triangular symmetric power to each edge value in O(k^2) int multiply-adds.
    Built as a (k+1)^2 table of closed-form entries, the k = 1 000 run took
    about 14 s and the k = 2 997 run more than 30 s.  1/z lies in no edge
    lattice at any k, and the k = 1 000 stdout is the one printed with the table."""

    @pytest.mark.parametrize(
        "k, timeout, digest",
        [
            (1000, 5, "c210626dedbc4aeceff51633921a8a4d8845c1195c09ddb6d8e5b24c05051e67"),
            (2997, 10, None),
        ],
    )
    def test_the_report_at_large_k_is_answered_in_seconds(self, k, timeout, digest):
        args = ["residue", "--p", "2", "--k", str(k), "--f", "1/z", "--radius", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "drinfeld.cli", *args], capture_output=True, env=child_env(), timeout=timeout
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["in_all_edge_lattices"] is False and out["support_size"] == 2 and out["pass"] is True
        if digest is not None:
            assert hashlib.sha256(proc.stdout).hexdigest() == digest


class TestDeterminism:
    COMMANDS = [
        ("local-dims", "--p", "2", "--k", "3"),
        ("tree", "--p", "2", "--radius", "3"),
        ("residue", "--p", "2", "--k", "1", "--f", "1/z", "--radius", "2",
         "--audit", "--seed", "5"),
        ("harmonic", "--p", "2", "--k", "0", "--radius", "2", "--mod-pihat"),
        ("modp", "stable-lines", "--q", "2", "--k", "9", "--i", "0"),
    ]

    def test_repeated_runs_are_byte_identical(self):
        for args in self.COMMANDS:
            first = run_cli(*args).stdout
            second = run_cli(*args).stdout
            assert first == second, args


class TestGoldenStdout:
    """Stdout pinned by sha256 for one invocation per caller of the exact
    elimination: a change of elimination strategy must leave every byte as it
    was.  ``stable-lines --q 3 --k 5`` has no relations below degree q + 1 and
    is rejected before any elimination; ``--k 6`` reaches it.  The balls
    (radius 0 included), an off-axis theta certificate, whose tube
    level is below its vertex level, ``--mod-pihat`` (its star-local
    dimensions, at p = 7 too) and a residue with pihat-valued entries are
    pinned the same way.  So are the paths through the matrix arithmetic: an
    audited residue (a second transporter, by product and inverse), a theta
    certificate at a negative level, a deep vertex with a p-adic offset, and
    the uniformizer involution of ``b-forms``.  The JSON writer's paths are
    pinned too: coefficient lists over F_4, the identity basis of an odd k,
    and a list of dicts holding bools.  So are the stable lines at q = 5,
    once a scan of all 5^6 vectors, and the comparison map at q = 101."""

    GOLDEN = [
        (("modp", "sections", "--q", "3", "--k", "4", "--radius", "2"), 0,
         "083895794ee7220d231be32b6aa110a177a1b2f6ebf164c24a33cb5a759f5ec3"),
        (("modp", "sections", "--q", "5", "--k", "2", "--radius", "2"), 0,
         "9e6110454091f07e8b7e159bb470c0fab20a08dbec6e6e39ea1b0ff81e52b048"),
        (("modp", "symgeom-check", "--q", "5", "--k", "4", "--i", "0"), 0,
         "9fbcf346b71ffc718792825188f2737b230aa08ccbe8ee32815aaef0248d531e"),
        # over F_4 the images print no zero terms and no unit coefficients
        (("modp", "symgeom-check", "--q", "4", "--k", "4", "--i", "0"), 0,
         "5149c9ee6c49a69e3c062a2ab1316abb05668ab47269301ae3d9c4db86f3d3bb"),
        (("modp", "stable-lines", "--q", "3", "--k", "5", "--i", "0"), 2,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (("modp", "stable-lines", "--q", "3", "--k", "6", "--i", "0"), 0,
         "36b1310903e2aec3a9bd46350bf2d261676b7713928da93bd1cb27a4fe3cfd16"),
        (("harmonic", "--p", "2", "--k", "1", "--radius", "3"), 0,
         "2fb6ce9c97dce64d88d36f801aacf95fd770ed077101e82230593574b20ad95f"),
        (("local-dims", "--p", "3", "--k", "4"), 0,
         "3b57ebf260648e25635d3d429b032b019c29d06589becc4cca143631988f0ce3"),
        (("lattice", "--p", "5", "--k", "7", "--level", "-2", "--offset", "0"), 0,
         "2dad988cb67bb05a3f351610f114733d5e2a3891d42fcdaad3027dd015b2007a"),
        (("theta", "--p", "2", "--k", "2", "--f", "1/z", "--level", "1"), 0,
         "99db0918405c9ba9f3635ff073f6eacc57063c0ba83d9c6c76c08c5179b222bd"),
        (("tree", "--p", "3", "--radius", "4"), 0,
         "8d23bdc1c790756dfee45f1574be9fa777fcab20609596a16713e9446acef73f"),
        (("tree", "--p", "2", "--radius", "0"), 0,
         "e9a24941cfba1c943ef66cd5e8731f6cd843bd8170fe404ac51c72d7e57b0c60"),
        (("harmonic", "--p", "3", "--k", "1", "--radius", "0"), 0,
         "d1896f30595b008360587baff89e84bb6afb01d23f3c50240c83c99b34ae9aa6"),
        (("theta", "--p", "3", "--k", "2", "--f", "1/z", "--level", "2", "--offset", "1/3"), 0,
         "6274a6f2a71193fb1d385aa407ee02f84c037d99bcf08f2482a25723b2a405d2"),
        (("harmonic", "--p", "3", "--k", "2", "--radius", "2", "--mod-pihat"), 0,
         "5a24b2c78b064368ff7eeac8c34f87d5a3f7a1cdd6b4899038e13a8b5c7c6bc1"),
        (("harmonic", "--p", "2", "--k", "3", "--radius", "3", "--mod-pihat"), 0,
         "39316429f03c31821cb38c4f0417004c35f1a3836f3f0bb3312ae2ed19af668f"),
        (("harmonic", "--p", "7", "--k", "4", "--radius", "2", "--mod-pihat"), 0,
         "d751d8f790227963e6746558bcd5cdbe2cb1962b34559effcba7cea4f7606c4f"),
        # local spaces and star kernels eliminated on residues mod p
        (("local-dims", "--p", "101", "--k", "8"), 0,
         "dd90ba70f63e4cf1a2a9f31d416c9b3e4670e485ef57e4ced54a53a4d1d9d891"),
        (("harmonic", "--p", "5", "--k", "6", "--radius", "2", "--mod-pihat"), 0,
         "33fc084266d063bcf576aaf61acbd70ef6c3021a634fec1cfd35a726cdfed814"),
        (("residue", "--p", "3", "--k", "2", "--f", "pihat/z", "--radius", "2"), 0,
         "c0fbc7abb17e886b66e1244bb3d78a98d06505f9d7ece369d3f5683d717ac3f2"),
        (("residue", "--p", "2", "--k", "2", "--f", "(z-2)^-1*(z-3/2)", "--radius", "3",
          "--audit", "--seed", "541608"), 0,
         "1f5f08ff7a59ad05a2dc2dc6686ee512b0caad6f097dd1c533eceec540092fc8"),
        (("theta", "--p", "3", "--k", "3", "--f", "z^-1*(z+1)^-2*(z+12)", "--level", "-2"), 0,
         "afcc90eb4bf5ed3f582dc47d1ff9314a3635ca7a4f6141dafb48e7036216de13"),
        (("lattice", "--p", "3", "--k", "5", "--level", "3", "--offset", "7/9"), 0,
         "287660990ed09254420fa8b4fc48e6b8e1b534f0bf5471b11b53a87fdafddfe1"),
        (("modp", "b-forms", "--q", "9"), 0,
         "81f791a26babd7c7a961e3e3e8813ab7d04b62db4446b9fd268e58e6ccc3037c"),
        (("modp", "stable-lines", "--q", "4", "--k", "12", "--i", "0"), 0,
         "ca5e103528c97ed14365232524c2dd2da91c8b4be3c86837c9349bc1a0ef8562"),
        (("modp", "stable-lines", "--q", "5", "--k", "4", "--i", "0"), 0,
         "d1ec16eafdd73f438958d91f76373eff53e730c8e8d0606c483a1144185fb68e"),
        (("modp", "symgeom-check", "--q", "101", "--k", "2", "--i", "0"), 0,
         "cdccadf6d68fa4f6dee96e0186aed971de646ac92c4bd57779e695887fc67200"),
        # comparison maps with every generator on ints mod 7, and over F_8 and
        # F_9 with the unipotents on ints and diag(w, 1) on field elements
        (("modp", "symgeom-check", "--q", "7", "--k", "4", "--i", "0"), 0,
         "90bfe5cbff54c58191256854e6278513c22ce578f6c8420984efc3d7bfa4f79c"),
        (("modp", "symgeom-check", "--q", "8", "--k", "4", "--i", "0"), 0,
         "25f78f051634dbb2b5fca1d2527ae06e42c568325a34055645a4331e1753a891"),
        (("modp", "symgeom-check", "--q", "9", "--k", "10", "--i", "0"), 0,
         "c729970a111e8077a6f9e3112145ce7740d595ae905e1b7e1a98a44592226b1d"),
        (("modp", "sections", "--q", "3", "--k", "3", "--radius", "1"), 0,
         "0eaa87eb5d787877a25103fa83468feec42bd045e3f248eb4b63439d2189e210"),
        (("identity-b", "--p", "2", "--kmax", "4", "--mmax", "6"), 0,
         "56e7b415e867d6ad338b80ee3b4593a8f68fb9ddb812a588d4766c4402d64889"),
        # stable lines at a prime q and at q = 27 and 49, all from kernels over
        # F_p; the q = 49 digest is the output of the eigenvalue scan over F_49
        (("modp", "stable-lines", "--q", "23", "--k", "4", "--i", "0"), 0,
         "d442f682d9bcfc555fb1b9f15050f09867be07394afdb8c292ee93c88e2a7982"),
        (("modp", "stable-lines", "--q", "27", "--k", "4", "--i", "0"), 0,
         "eb2ce4253196a2db0bd262855665171534432fd3c9a76b5697e14b243f5767f6"),
        (("modp", "stable-lines", "--q", "49", "--k", "4", "--i", "0"), 0,
         "1842f3cc57c30957f6edf43fadf2b7daffdde30780bf418e762a56bb877b15a4"),
        # section bases as residue lists, from the mod-p kernel
        (("modp", "sections", "--q", "7", "--k", "4", "--radius", "1"), 0,
         "4822f1f6dd8c6431781adbf228190773d6b6ed5425569ca1fe5d330979080411"),
        (("modp", "sections", "--q", "2", "--k", "6", "--radius", "3"), 0,
         "072afa68cb132526fc6b18286c1eb95acab203e54dd970da4ff0a9547072dae5"),
        # a basis of width 0, and the basis [[1]] of width 1
        (("modp", "sections", "--q", "3", "--k", "1", "--radius", "1"), 0,
         "ce0d998f37d448b18d6a9a8536a141e9e4ee9264f619c1cf5a1fcda3b3cb3605"),
        (("modp", "sections", "--q", "2", "--k", "0", "--radius", "0"), 0,
         "3f1e3fe3ae55df63b5d1ebdfcb93a5cfc784c0a5951248eb6d3cae79d1b53dc0"),
        # the incidence rank mod p on 364 edges, and the int vertex membership
        # and cochain writer on a pole shifted by pihat p^3 and a pihat lead
        (("harmonic", "--p", "3", "--k", "2", "--radius", "5"), 0,
         "99c32fd15d45b3ea335f5f11e92a518e6c5c3d1191e8a578ae6e6bd4882a3a59"),
        (("residue", "--p", "2", "--k", "1", "--f", "pihat*(z-1-p^3*pihat)^-2*(z-3)^-1",
          "--radius", "3"), 0,
         "99274e2c6917f7fc8e2acde51dd1f93eb3987660a9066a52d21866e0e595aa5f"),
    ]

    @pytest.mark.parametrize("args,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
    def test_stdout_digest(self, args, code, digest):
        out = run_cli(*args, expect_code=code).stdout
        assert hashlib.sha256(out).hexdigest() == digest


class TestFieldPolynomialText:
    """A comparison-map image prints only its nonzero terms and leaves a unit
    coefficient off, over prime and extension fields alike, as the printer
    over ``FqElem`` prints the same function."""

    def test_extension_field(self):
        F = Fq(9)
        one, zero, two = F.one(), F.zero(), F.elem(2)
        text = cli_module._image_str
        assert text((1, 0, 1, 2), (1,), 2) == "[1, 0] + z^2 + [2, 0]*z^3"
        assert text((2,), (0, 2, 1), 2) == "([2, 0])/([2, 0]*z + z^2)"
        assert fq_function_str(FqFraction.make(F, (one, zero, one, two)).record()) == text((1, 0, 1, 2), (1,), 2)
        assert fq_function_str(FqFraction.make(F, (one,), (zero, one, two)).record()) == text((2,), (0, 2, 1), 2)

    def test_prime_field(self):
        F = Fq(3)
        text = cli_module._image_str
        assert text((2, 0, 1), (1,), 1) == "2 + z^2"
        assert text((2,), (0, 1), 1) == "(2)/(z)"
        assert fq_function_str(FqFraction.make(F, (F.elem(2), F.zero(), F.one())).record()) == "2 + z^2"
        assert fq_function_str(FqFraction.make(F, (F.one(),), (F.zero(), F.elem(2))).record()) == "(2)/(z)"


class TestFieldElementsConfined:
    """Every residue-field command but symgeom-check prints values computed
    on ints: with ``Fq(q)`` built, each prints the same when
    ``scalars._make_fq``, through which every ``FqElem`` is made, refuses,
    and so do the comparison map's images."""

    RUNS = [
        *(["modp", "stable-lines", "--q", str(q), "--k", "4", "--i", "0"] for q in (4, 8, 9, 27)),
        ["modp", "sections", "--q", "3", "--k", "4", "--radius", "2"],
        ["modp", "degrees", "--q", "9", "--k", "4"],
        ["modp", "b-forms", "--q", "9"],
    ]

    @staticmethod
    def _images():
        iso = symgeom_iso(9, 4, 0)
        return [cli_module._image_str(num, den, iso["f"]) for num, den in iso["images"]]

    def test_no_field_element_is_built(self, monkeypatch):
        for q in (3, 4, 8, 9, 27):
            Fq(q)
        honest = [invoke(args) for args in self.RUNS]
        images = self._images()

        def refused(*_):
            raise AssertionError("an FqElem was built")

        monkeypatch.setattr(scalars, "_make_fq", refused)
        for args, want in zip(self.RUNS, honest):
            got = invoke(args)
            assert want.exit_code == got.exit_code == 0, (args, got.output)
            assert got.stdout == want.stdout, args
        assert self._images() == images


class TestLabelFreePaths:
    """``tree`` reads the ball's labels as int arrays and ``harmonic``'s field
    kernel reads no label: with ``tree._vertex``, through which every
    ``Vertex`` is made, refusing, each prints what it printed before."""

    RUNS = [
        *(
            ["harmonic", "--p", str(p), "--k", str(k), "--radius", str(r)]
            for p in (2, 3, 5)
            for k in range(3)
            for r in range(5)
        ),
        *(["tree", "--p", str(p), "--radius", str(r)] for p in (2, 3) for r in range(7)),
    ]

    def test_no_vertex_is_built(self, monkeypatch):
        honest = [invoke(args) for args in self.RUNS]

        def refused(*_):
            raise AssertionError("a Vertex was built")

        monkeypatch.setattr(tree, "_vertex", refused)
        for args, want in zip(self.RUNS, honest):
            got = invoke(args)
            assert want.exit_code == got.exit_code == 0, (args, got.output)
            assert got.stdout == want.stdout, args


# Payload entries of every kind that the writer renders, and containers of them.
_F3, _F4 = Fq(3), Fq(4)
_RESIDUES = st.integers(0, 2)
_DIGITS = st.tuples(st.integers(0, 1), st.integers(0, 1))  # a coordinate of a line over F_4
_INTS = st.one_of(
    st.integers(-(10**6), 10**6), st.integers(2**64, 2**80).map(lambda n: n * (-1) ** n)
)
_FRACTIONS = st.builds(Fraction, st.integers(-50, 50), st.sampled_from([1, 2]))
_KHAT = st.builds(lambda a, b: ScalarKHat(3, a, b), _FRACTIONS, _FRACTIONS)
_TEXT = st.one_of(
    st.text(),
    st.sampled_from(
        ['"quoted"', "back\\slash", "\x00\x1f\n\t\x7f", "\u00e9\u03c0\u2028", "\U0001f600"]
    ),
)
_SCALARS = st.one_of(_TEXT, _INTS, st.booleans(), st.none(), _FRACTIONS, _KHAT)
_LEAVES = st.one_of(
    _SCALARS,
    st.sampled_from([math.inf, -math.inf]),
    st.builds(
        lambda m, b: make_vertex(3, m, Fraction(b, 3)), st.integers(1, 2), st.integers(0, 2)
    ),
)
_ROWS = st.one_of(
    st.lists(_RESIDUES, min_size=1),
    st.lists(_DIGITS, min_size=1).map(tuple),
    st.lists(st.one_of(_RESIDUES, _DIGITS, _INTS), min_size=1),
    st.lists(_INTS, min_size=1).map(tuple),
)
_PAYLOADS = st.recursive(
    st.one_of(_LEAVES, _ROWS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_SCALARS, children, max_size=4),
    ),
    max_leaves=40,
)


def _payload_cases():
    """Every GOLDEN and README invocation, with its exit code."""
    golden = [(args, code) for args, code, _ in TestGoldenStdout.GOLDEN]
    return golden + [(tuple(args), 0) for args in _readme_examples()]


class TestJsonWriter:
    """``cli._dumps`` prints what ``json.dumps(_jsonable(payload),
    sort_keys=True, indent=2)`` printed: the old two passes are the oracle."""

    @pytest.mark.parametrize(
        "args,code", _payload_cases(), ids=[" ".join(a) for a, _ in _payload_cases()]
    )
    def test_command_payloads_match_the_oracle(self, args, code, monkeypatch):
        payloads = []
        monkeypatch.setattr(cli_module, "_emit", payloads.append)
        result = invoke(list(args))
        assert result.exit_code == code, (args, result.output)
        assert len(payloads) == (code == 0)
        for payload in payloads:
            assert cli_module._dumps(payload) == emit_oracle(payload)

    @given(payload=_PAYLOADS)
    @settings(max_examples=300, deadline=None)
    def test_generated_payloads_match_the_oracle(self, payload):
        assert cli_module._dumps(payload) == emit_oracle(payload)

    @pytest.mark.parametrize(
        "payload",
        [math.nan, 1.5, object(), {1, 2}, {"a": [math.nan]}, {math.nan: 1}, [1, object()]],
        ids=["nan", "float", "object", "set", "nested-nan", "nan-key", "row-with-object"],
    )
    def test_unprintable_entries_raise_on_both_sides(self, payload):
        with pytest.raises(InternalInvariantError):
            cli_module._dumps(payload)
        with pytest.raises(InternalInvariantError):
            emit_oracle(payload)

    @pytest.mark.parametrize(
        "payload",
        [{(1, 2): 0}, {make_vertex(3, 1, Fraction(1, 3)): 0}, {Fraction(1, 2): {(): 0}}],
        ids=["tuple-key", "vertex-key", "nested-empty-tuple-key"],
    )
    def test_container_keys_raise(self, payload):
        """The oracle printed such a key as Python's repr of its conversion,
        e.g. "{'level': 1, 'offset': '1/3'}"; no command makes one, and the
        writer refuses it rather than print text that is not JSON's."""
        with pytest.raises(InternalInvariantError):
            cli_module._dumps(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            [True, False],
            [1, True, 0],
            [0, 1, 2**70, -3],
            [False, 1],
            {"a": [2, 0], "b": [True]},
            [-1025, -1024, 1023, 1024],
            [2, 0, 1, False, 2],
            [1, 2**69 + 5, -(2**69) - 5, 0],
        ],
        ids=[
            "bools", "int-then-bool", "ints", "bool-then-int", "nested",
            "table-ends", "bool-among-table-ints", "70-bit-ints",
        ],
    )
    def test_int_and_bool_lists_match_the_oracle(self, payload):
        # a list of ints only takes the one-pass branch; a bool keeps printing true/false
        assert cli_module._dumps(payload) == emit_oracle(payload)

    def test_field_elements_are_refused(self):
        """No payload holds an ``FqElem``: a command prints its residues and
        coefficient lists as ints."""
        for payload in ({_F4.elem((0, 1)): 1}, {"a": _F3.one()}, [_F3.one(), _F3.zero()]):
            with pytest.raises(InternalInvariantError):
                cli_module._dumps(payload)


class TestDoubledWriter:
    """A lattice profile is a ``Doubled`` tuple of ints, printed halved as the
    ``Fraction`` lists that the profiles once were printed."""

    def test_every_half_up_to_3000_in_size(self):
        # lattice --p 2 --k 3000 prints halves up to 1500 in size, past the
        # ints of _INT_TEXT
        values = range(-6001, 6002)
        fractions = [Fraction(t, 2) for t in values]
        old = [str(v.numerator) if v.denominator == 1 else f'"{v}"' for v in fractions]
        for payload in (Doubled(values), {"a": {"b": Doubled(values)}}):
            assert cli_module._dumps(payload) == emit_oracle(payload)
        assert cli_module._dumps(Doubled(values)) == "[\n  " + ",\n  ".join(old) + "\n]"
        assert cli_module._dumps(Doubled(values)) == emit_oracle(fractions)
        assert cli_module._dumps({"p": Doubled()}) == emit_oracle({"p": []})

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_standard_profiles_halve_to_the_fraction_profiles(self, p):
        for k in range(21):
            computed, predicted = cli_module._standard_profiles(p, k)
            halved = [{key: [Fraction(t, 2) for t in x] for key, x in d.items()} for d in (computed, predicted)]
            assert halved == list(fraction_standard_profiles(p, k)), (p, k)
            assert all(type(x) is Doubled for d in (computed, predicted) for x in d.values())


class TestCochainWriter:
    """``_scalar_str`` prints from the ints A, B and D, a list of scalars
    prints in one pass and a ``Cochain`` item by item; the ``Fraction``
    printer and the generic two-pass writer are their oracles."""

    @given(a=_FRACTIONS, b=_FRACTIONS, big=st.integers(-(2**70), 2**70))
    @settings(max_examples=300, deadline=None)
    def test_scalar_text_matches_the_fraction_printer(self, a, b, big):
        for s in (ScalarKHat(3, a, b), ScalarKHat(2, Fraction(big, 7), a), ScalarKHat(5, 0, b)):
            assert cli_module._scalar_str(s) == fraction_scalar_str(s)
            assert cli_module._dumps([s, -s]) == emit_oracle([s, -s])

    @pytest.mark.parametrize(
        "p,k,text,radius",
        [
            (2, 0, "1/z", 3),
            (3, 2, "pihat/z", 2),
            (2, 1, "pihat*(z-1-p^3*pihat)^-2*(z-3)^-1", 3),
            (3, 1, "(z-1)^-1*(z-1/3)^2*z^-2", 2),
            (5, 3, "-7/4*z^-3*(z-5)^2", 2),
            (2, 2, "1", 2),  # no pole: an empty support
        ],
    )
    def test_residue_cochains_match_the_generic_writer(self, p, k, text, radius):
        c = res0(parse_rational(text, p), k, truncated_tree(p, radius))
        assert cli_module._dumps(c) == emit_oracle(c)
        payload = {"cochain": c, "support_size": len(support(c))}
        assert cli_module._dumps(payload) == emit_oracle(payload)

    @given(seed=st.integers(0, 10**6), p=st.sampled_from([2, 3, 5]), k=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_drawn_cochains_match_the_generic_writer(self, seed, p, k):
        rng = random.Random(seed)
        ball = truncated_tree(p, 2)
        values = {
            j: [ScalarKHat(p, Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-2, 2))
                for _ in range(k + 1)]
            for j in rng.sample(range(ball.n_edges), rng.randint(0, ball.n_edges))
        }
        c = Cochain(ball, k, values)
        assert cli_module._dumps({"a": [c]}) == emit_oracle({"a": [c]})


class TestSparseRowsWriter:
    """A ``SparseRows`` prints as ``_dumps`` prints its dense int lists, at
    any depth, with its zeros cut from runs."""

    CASES = {
        "width-0": SparseRows(0, []),
        "empty-basis": SparseRows(5, []),
        "width-1": SparseRows(1, [{0: 1}]),
        "width-1-twice": SparseRows(1, [{0: 1}, {0: 2}]),
        "first-column": SparseRows(4, [{0: 1}, {0: 2, 1: 1}]),
        "last-column": SparseRows(4, [{3: 1}, {2: 1, 3: 4}]),
        "first-and-last": SparseRows(3, [{2: 1, 0: 6}]),
        "dense-row": SparseRows(3, [{0: 1, 1: 2, 2: 3}, {1: 1}]),
        "past-the-table": SparseRows(6, [{1: 1024, 5: 1}, {0: 1023, 2: 10**30, 4: 1}]),
    }

    @pytest.mark.parametrize("pad", ["\n", "\n  ", "\n    "], ids=["depth-0", "depth-1", "depth-2"])
    @pytest.mark.parametrize("vectors", list(CASES.values()), ids=list(CASES))
    def test_cases_print_as_the_dense_lists(self, vectors, pad):
        assert cli_module._dumps(vectors, pad) == cli_module._dumps(densify(vectors), pad)
        payload = {"basis": vectors, "dimension": len(vectors.rows)}
        assert cli_module._dumps(payload) == emit_oracle(payload)

    @given(
        ncols=st.integers(1, 12),
        data=st.data(),
        pad=st.sampled_from(["\n", "\n  ", "\n    "]),
    )
    @settings(max_examples=200, deadline=None)
    def test_drawn_vectors_print_as_the_dense_lists(self, ncols, data, pad):
        entry = st.dictionaries(st.integers(0, ncols - 1), st.integers(1, 2000), min_size=1)
        vectors = SparseRows(ncols, data.draw(st.lists(entry, max_size=4)))
        assert cli_module._dumps(vectors, pad) == cli_module._dumps(densify(vectors), pad)
