"""Command-line front end: frozen JSON payloads, configuration-file merging,
exit codes, and byte-identical determinism of repeated runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from drinfeld.cli import cli


def run_cli(*args, env_extra=None, expect_code=0):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "drinfeld.cli", *args],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == expect_code, (args, proc.returncode, proc.stderr)
    return proc


def run_json(*args, env_extra=None):
    return json.loads(run_cli(*args, env_extra=env_extra).stdout)


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


class TestConfigFile:
    def test_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 2\nk = 2\n")
        from_file = run_json("--config", str(cfg), "local-dims")
        explicit = run_json("local-dims", "--p", "2", "--k", "2")
        assert from_file == explicit

    def test_flags_override_the_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 2\nk = 2\n")
        out = run_json("--config", str(cfg), "local-dims", "--k", "3")
        assert out["config"] == {"k": 3, "p": 2}


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


class TestInProcessExitCodes:
    @pytest.mark.parametrize(
        "args",
        [
            ("harmonic", "--k", "-3"),
            ("modp", "degrees", "--q", "0"),
            ("lattice", "--level", "1", "--offset", "abc"),
            ("identity-b", "--a", "1/0"),
            ("sweep", "--kmax", "-1"),
            ("residue", "--p", "2", "--k", "0", "--f", "1/0", "--radius", "1"),
            ("residue", "--p", "2", "--k", "0", "--f", "(z-1/0)", "--radius", "1"),
            ("residue", "--p", "2", "--k", "0", "--f", "z/0", "--radius", "1"),
            ("theta", "--p", "2", "--k", "1", "--f", "1/0", "--level", "1"),
        ],
    )
    def test_input_outside_the_domain_is_rejected_with_code_two(self, args):
        result = CliRunner().invoke(cli, list(args))
        assert result.exit_code == 2, (args, result.output)
        assert "invalid parameters" in result.stderr

    def test_non_integer_config_value_is_rejected_with_code_two(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = abc\n")
        result = CliRunner().invoke(cli, ["--config", str(cfg), "local-dims"])
        assert result.exit_code == 2
        assert "invalid parameters" in result.stderr

    @pytest.mark.parametrize("audit", [[], ["--audit", "--seed", "3"]])
    def test_residue_computes_its_cochain_once(self, monkeypatch, audit):
        # the CLI and res0_integrality each hold a reference to res0
        from drinfeld import cli as cli_module, harmonic

        real_res0 = harmonic.res0
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("audit", False))
            return real_res0(*args, **kwargs)

        monkeypatch.setattr(harmonic, "res0", counted)
        monkeypatch.setattr(cli_module, "res0", counted)
        result = CliRunner().invoke(
            cli, ["residue", "--p", "2", "--k", "1", "--f", "1/z", "--radius", "2", *audit]
        )
        assert result.exit_code == 0, result.output
        assert calls == [bool(audit)]

    def test_residue_of_the_zero_section_is_the_zero_cochain(self):
        result = CliRunner().invoke(
            cli, ["residue", "--p", "2", "--k", "0", "--f", "0", "--radius", "2"]
        )
        assert result.exit_code == 0, result.output
        out = json.loads(result.stdout)
        assert out["support_size"] == 0
        assert out["cochain"] == []
        assert out["vertex_membership"] is True
        assert out["pass"] is True


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

    def test_sweep_is_thread_count_independent(self):
        args = ("sweep", "--p", "2", "--kmax", "2", "--seed", "11")
        serial = run_cli(*args, env_extra={"DRINFELD_THREADS": "1"}).stdout
        fanned = run_cli(*args, env_extra={"DRINFELD_THREADS": "4"}).stdout
        assert serial == fanned
        assert json.loads(serial)["pass"] is True
